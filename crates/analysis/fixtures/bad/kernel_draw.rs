//! Known-bad fixture: a draw override with no identity coverage — the
//! only kernel method it overrides.

pub struct UncoveredDraw {
    inner: std::sync::Arc<dyn DataBlock>,
}

impl DataBlock for UncoveredDraw {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn draw(&self, rng: &mut dyn RngCore, columns: &[usize], out: &mut [f64]) {
        self.inner.draw(rng, columns, out)
    }
}
