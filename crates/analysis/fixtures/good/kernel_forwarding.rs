//! Known-good fixture: forwarding impls, exempt by construction — they
//! delegate every kernel to the pointee, they do not reimplement one. The
//! blanket pointer form the storage crate uses, then the per-pointer
//! forms it replaced.

impl<P: Deref + Send + Sync> DataBlock for P
where
    P::Target: DataBlock,
{
    fn gather(&self, columns: &[usize], indices: &[u64], out: &mut [f64]) {
        (**self).gather(columns, indices, out)
    }
    fn draw(&self, rng: &mut dyn RngCore, columns: &[usize], out: &mut [f64]) {
        (**self).draw(rng, columns, out)
    }
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        (**self).scan_column_chunks(columns, visit)
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        (**self).sketch()
    }
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
}

impl<T: DataBlock + ?Sized> DataBlock for &T {
    fn gather(&self, columns: &[usize], indices: &[u64], out: &mut [f64]) {
        (**self).gather(columns, indices, out)
    }
    fn draw(&self, rng: &mut dyn RngCore, columns: &[usize], out: &mut [f64]) {
        (**self).draw(rng, columns, out)
    }
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        (**self).scan_column_chunks(columns, visit)
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        (**self).sketch()
    }
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
}

impl DataBlock for std::sync::Arc<dyn DataBlock> {
    fn gather(&self, columns: &[usize], indices: &[u64], out: &mut [f64]) {
        (**self).gather(columns, indices, out)
    }
    fn draw(&self, rng: &mut dyn RngCore, columns: &[usize], out: &mut [f64]) {
        (**self).draw(rng, columns, out)
    }
    fn scan_column_chunks(&self, columns: &[usize], visit: &mut dyn FnMut(&[&[f64]])) {
        (**self).scan_column_chunks(columns, visit)
    }
    fn sketch(&self) -> Option<Arc<BlockSketch>> {
        (**self).sketch()
    }
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
}
