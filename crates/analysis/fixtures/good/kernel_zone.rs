//! Known-good fixture: a zone-verdict override on a type the identity
//! tests name (the forwarding impls, exempt by construction, are in
//! `kernel_forwarding.rs`).

pub struct CoveredZone {
    inner: std::sync::Arc<dyn DataBlock>,
}

impl DataBlock for CoveredZone {
    fn zone(&self, _filter: &RowFilter) -> ZoneMatch {
        ZoneMatch::Mixed
    }
}
