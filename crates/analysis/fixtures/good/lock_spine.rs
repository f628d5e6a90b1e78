//! Known-good fixture: the same entry points, entered with no guard
//! live.

pub fn clone_then_run(cache: &Mutex<Plans>, data: &BlockSet) {
    let plan = cache.lock().scalar.clone();
    run_plan_with(plan, data, &SequentialScheduler, &strict(), rng);
}

pub fn dropped_before_the_row_run(cache: &RwLock<Plans>, data: &BlockSet) {
    let plans = cache.read();
    let plan = plans.rows.clone();
    drop(plans);
    run_row_plan_with(&plan, data, &SequentialScheduler, &strict(), rng);
}

pub fn count_then_fan_out(stats: &Mutex<Stats>, data: &BlockSet) {
    {
        let mut guard = stats.lock();
        guard.scans += 1;
    }
    scan_blocks_recovering(4, data, &strict(), job);
}
