//! Known-bad fixture: a column-chunk scan override with no identity
//! coverage — the only kernel it overrides.

pub struct UncoveredChunks {
    columns: Vec<Vec<f64>>,
}

impl DataBlock for UncoveredChunks {
    fn width(&self) -> usize {
        self.columns.len()
    }
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        windows(&self.columns, columns, visit)
    }
}
