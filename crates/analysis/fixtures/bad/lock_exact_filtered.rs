//! Known-bad fixture: guards held across the exact filtered extreme.
//! It folds every block the zone map leaves undecided on the query's
//! workers, so a live guard stalls the lock for a table scan.

pub fn guard_across_the_filtered_extreme(tables: &RwLock<Tables>, spec: &RowSpec) {
    let tables = tables.read();
    scan_exact_filtered_extreme(&tables.sales, spec, ExtremeKind::Max, &PooledScheduler::new(2)?);
}

pub fn counter_bumped_under_the_guard(stats: &Mutex<Stats>, data: &BlockSet, spec: &RowSpec) {
    let mut guard = stats.lock();
    guard.scans += 1;
    scan_exact_filtered_extreme(data, spec, ExtremeKind::Min, &SequentialScheduler);
}
