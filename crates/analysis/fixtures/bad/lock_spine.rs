//! Known-bad fixture: guards held across the entry points the query
//! executor actually calls — the `_with` forms, the block fan-out, the
//! generic Calculation-phase run, and the deadline calibration's probe.

pub fn guard_across_run_plan_with(cache: &Mutex<Plans>, data: &BlockSet) {
    let plans = cache.lock();
    run_plan_with(plans.scalar.clone(), data, &SequentialScheduler, &strict(), rng);
}

pub fn guard_across_run_row_plan_with(cache: &RwLock<Plans>, data: &BlockSet) {
    let plans = cache.read();
    run_row_plan_with(&plans.rows, data, &SequentialScheduler, &strict(), rng);
}

pub fn guard_across_the_fan_out(stats: &Mutex<Stats>, data: &BlockSet) {
    let mut guard = stats.lock();
    guard.scans += 1;
    scan_blocks_recovering(4, data, &strict(), job);
}

pub fn guard_across_the_generic_run(cache: &Mutex<Plans>, data: &BlockSet) {
    let plans = cache.lock();
    run_calculation(&plans.rows, data, &SequentialScheduler, &strict(), rng);
}

pub fn guard_across_the_deadline_probe(cache: &Mutex<Plans>, data: &BlockSet) {
    let plans = cache.lock();
    affordable_draws(plans.deadline, data, rng, probe);
}
