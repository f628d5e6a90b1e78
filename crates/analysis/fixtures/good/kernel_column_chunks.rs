//! Known-good fixture: a column-chunk scan override on a type the
//! identity tests name (the forwarding impls, exempt by construction,
//! are in `kernel_forwarding.rs`).

pub struct CoveredChunks {
    columns: Vec<Vec<f64>>,
}

impl DataBlock for CoveredChunks {
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        windows(&self.columns, columns, visit)
    }
}
