//! Known-bad fixture: a projected-scan override with no identity
//! coverage — the only kernel it overrides.

pub struct UncoveredColumns {
    columns: Vec<Vec<f64>>,
}

impl DataBlock for UncoveredColumns {
    fn width(&self) -> usize {
        self.columns.len()
    }
    fn scan_rows_projected(&self, columns: &[usize], visit: &mut dyn FnMut(&[f64])) {
        assemble(&self.columns, columns, visit)
    }
}
