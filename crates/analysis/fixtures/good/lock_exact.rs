//! Known-good fixture: the exact-scan entry points, entered with no
//! guard live — snapshot the (cheaply cloned) block set under the guard,
//! scan outside it.

pub fn snapshot_then_scan(tables: &RwLock<Tables>, scheduler: &dyn BlockScheduler) {
    let trips = tables.read().trips.clone();
    scan_exact_mean(&trips, scheduler);
}

pub fn dropped_before_the_grouped_scan(tables: &RwLock<Tables>, spec: &RowSpec) {
    let guard = tables.read();
    let sales = guard.sales.clone();
    drop(guard);
    scan_exact_groups_on(&sales, spec, &PooledScheduler::new(4)?);
    scan_exact_groups(&sales, spec);
}

pub fn count_then_scan(stats: &Mutex<Stats>, data: &BlockSet) {
    {
        let mut guard = stats.lock();
        guard.scans += 1;
    }
    scan_exact_extreme(data, ExtremeKind::Max, &SequentialScheduler);
}
