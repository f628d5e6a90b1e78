//! Known-good fixture: the exact filtered extreme, entered with no guard
//! live — snapshot the (cheaply cloned) block set under the guard, scan
//! outside it.

pub fn snapshot_then_fold(tables: &RwLock<Tables>, spec: &RowSpec) {
    let sales = tables.read().sales.clone();
    scan_exact_filtered_extreme(&sales, spec, ExtremeKind::Max, &PooledScheduler::new(2)?);
}

pub fn count_then_fold(stats: &Mutex<Stats>, data: &BlockSet, spec: &RowSpec) {
    {
        let mut guard = stats.lock();
        guard.scans += 1;
    }
    scan_exact_filtered_extreme(data, spec, ExtremeKind::Min, &SequentialScheduler);
}
