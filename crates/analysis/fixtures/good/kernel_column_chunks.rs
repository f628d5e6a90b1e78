//! Known-good fixture: a column-chunk scan override on a type the
//! identity tests name, and forwarding impls that are exempt by
//! construction.

pub struct CoveredChunks {
    columns: Vec<Vec<f64>>,
}

impl DataBlock for CoveredChunks {
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        windows(&self.columns, columns, visit)
    }
}

impl<T: DataBlock + ?Sized> DataBlock for &T {
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        (**self).scan_column_chunks(columns, visit)
    }
}

impl DataBlock for std::sync::Arc<dyn DataBlock> {
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        (**self).scan_column_chunks(columns, visit)
    }
}
