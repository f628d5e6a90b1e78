//! Known-bad fixture: guards held across the exact-scan entry points.
//! A pooled exact scan waits on block workers exactly as `run_plan`
//! does, and even inline it holds the guard for a full table scan.

pub fn guard_across_the_exact_mean(tables: &RwLock<Tables>, scheduler: &dyn BlockScheduler) {
    let tables = tables.read();
    scan_exact_mean(&tables.trips, scheduler);
}

pub fn guard_across_the_grouped_scan(tables: &RwLock<Tables>, spec: &RowSpec) {
    let tables = tables.read();
    scan_exact_groups_on(&tables.sales, spec, &PooledScheduler::new(4)?);
}

pub fn guard_across_the_sequential_placement(tables: &Mutex<Tables>, spec: &RowSpec) {
    let tables = tables.lock();
    scan_exact_groups(&tables.sales, spec);
}

pub fn guard_across_the_extreme_scan(stats: &Mutex<Stats>, data: &BlockSet) {
    let mut guard = stats.lock();
    guard.scans += 1;
    scan_exact_extreme(data, ExtremeKind::Max, &SequentialScheduler);
}
