//! Known-bad fixture: a zone-verdict override with no identity
//! coverage — the only kernel method it overrides.

pub struct UncoveredZone {
    inner: std::sync::Arc<dyn DataBlock>,
}

impl DataBlock for UncoveredZone {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn zone(&self, filter: &RowFilter) -> ZoneMatch {
        self.inner.zone(filter)
    }
}
