//! Known-good fixture: covered override and non-overriding impl (the
//! forwarding impls, exempt by construction, are in
//! `kernel_forwarding.rs`).

pub struct CoveredBlock {
    values: Vec<f64>,
}

impl DataBlock for CoveredBlock {
    fn gather(&self, columns: &[usize], indices: &[u64], out: &mut [f64]) {
        read(&self.values, columns, indices, out)
    }
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        windows(&self.values, columns, visit)
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        Some(Arc::new(BlockSketch::from_values(&self.values)))
    }
}

pub struct MetadataOnlyBlock;

impl DataBlock for MetadataOnlyBlock {
    fn len(&self) -> u64 {
        0
    }
}
