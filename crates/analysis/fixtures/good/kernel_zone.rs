//! Known-good fixture: a zone-verdict override on a type the identity
//! tests name, and forwarding impls that are exempt by construction.

pub struct CoveredZone {
    inner: std::sync::Arc<dyn DataBlock>,
}

impl DataBlock for CoveredZone {
    fn zone(&self, _filter: &RowFilter) -> ZoneMatch {
        ZoneMatch::Mixed
    }
}

impl<T: DataBlock + ?Sized> DataBlock for &T {
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
}

impl DataBlock for std::sync::Arc<dyn DataBlock> {
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        (**self).zone(filter)
    }
}
