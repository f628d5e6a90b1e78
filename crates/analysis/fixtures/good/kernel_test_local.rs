//! Known-good fixture: a block local to test code overrides kernel
//! methods without being named by the identity tests — it is a test.

#[cfg(test)]
mod tests {
    struct ScriptedBlock;

    impl DataBlock for ScriptedBlock {
        fn gather(&self, columns: &[usize], indices: &[u64], out: &mut [f64]) {
            out.fill(1.0)
        }
        fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
            visit(&[])
        }
    }
}
