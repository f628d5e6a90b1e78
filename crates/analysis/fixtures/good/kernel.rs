//! Known-good fixture: covered override and non-overriding impl (the
//! forwarding impls, exempt by construction, are in
//! `kernel_forwarding.rs`).

pub struct CoveredBlock {
    values: Vec<f64>,
}

impl DataBlock for CoveredBlock {
    fn sample_batch(&self, n: u64, rng: &mut dyn RngCore, out: &mut SampleBuf) {
        gather(&self.values, n, rng, out)
    }
    fn scan_rows_projected(&self, columns: &[usize], visit: &mut dyn FnMut(&[f64])) {
        assemble(&self.values, columns, visit)
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        Some(Arc::new(BlockSketch::from_values(&self.values)))
    }
}

pub struct ScalarOnlyBlock;

impl DataBlock for ScalarOnlyBlock {
    fn sample_one(&self, rng: &mut dyn RngCore) -> f64 {
        0.0
    }
}
