//! Known-bad fixture: kernel overrides with no identity coverage.

pub struct UncoveredBlock {
    values: Vec<f64>,
}

impl DataBlock for UncoveredBlock {
    fn len(&self) -> u64 {
        self.values.len() as u64
    }
    fn gather(&self, columns: &[usize], indices: &[u64], out: &mut [f64]) {
        read(&self.values, columns, indices, out)
    }
    fn draw(&self, rng: &mut dyn RngCore, columns: &[usize], out: &mut [f64]) {
        pick(&self.values, rng, columns, out)
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        Some(Arc::new(BlockSketch::from_values(&self.values)))
    }
}
