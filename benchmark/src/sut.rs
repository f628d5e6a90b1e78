//! The adapter: every item of the program under test that the benchmark
//! names is named here and nowhere else (README lists the surface).
//!
//! Part 1 is the end-to-end path — tables in, SQL text in, answers and
//! counters out. Part 2 ([`replay`]) walks the same public pipeline one
//! step at a time for the traced run.

pub use isla_bench::json;
use isla_query::{QueryResult, QueryService, ServiceClient, ServiceConfig, Table};
use isla_storage::{BlockSet, ColumnDef, RowsBlock, Schema};

/// Service sizing a workload asks for.
#[derive(Debug, Clone, Copy)]
pub struct SutConfig {
    pub workers: usize,
    pub max_concurrent: usize,
    /// Rows per sealed ingest block; the ingest workload sets it to its
    /// batch size so every appended row is sealed (visible) at once and
    /// the oracle may count it.
    pub ingest_rows_per_block: usize,
}

/// What the benchmark keeps of one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub value: f64,
    /// `(key, value)` per group, key-sorted; empty when ungrouped.
    pub groups: Vec<(f64, f64)>,
    pub samples_used: Option<u64>,
}

impl From<QueryResult> for Answer {
    fn from(r: QueryResult) -> Self {
        Answer {
            value: r.value,
            groups: r
                .groups
                .unwrap_or_default()
                .iter()
                .map(|g| (g.key, g.value))
                .collect(),
            samples_used: r.samples_used,
        }
    }
}

/// Every counter the program exposes from outside, in one snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub admitted: u64,
    pub rejected: u64,
    pub failed: u64,
    pub degraded: u64,
    pub sealed_blocks: u64,
    pub pre_hits: u64,
    pub pre_misses: u64,
    pub epoch_exact_hits: u64,
    pub epoch_delta_folds: u64,
    pub epoch_cold_folds: u64,
    pub selection_hits: u64,
    pub selection_builds: u64,
    pub sketch_hits: u64,
    pub sketch_inserted: u64,
}

impl Counters {
    /// Field-wise `self − earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            admitted: self.admitted - earlier.admitted,
            rejected: self.rejected - earlier.rejected,
            failed: self.failed - earlier.failed,
            degraded: self.degraded - earlier.degraded,
            sealed_blocks: self.sealed_blocks - earlier.sealed_blocks,
            pre_hits: self.pre_hits - earlier.pre_hits,
            pre_misses: self.pre_misses - earlier.pre_misses,
            epoch_exact_hits: self.epoch_exact_hits - earlier.epoch_exact_hits,
            epoch_delta_folds: self.epoch_delta_folds - earlier.epoch_delta_folds,
            epoch_cold_folds: self.epoch_cold_folds - earlier.epoch_cold_folds,
            selection_hits: self.selection_hits - earlier.selection_hits,
            selection_builds: self.selection_builds - earlier.selection_builds,
            sketch_hits: self.sketch_hits - earlier.sketch_hits,
            sketch_inserted: self.sketch_inserted - earlier.sketch_inserted,
        }
    }
}

/// One running service with `trips` and `sales` registered.
pub struct Sut {
    service: QueryService,
}

/// A blocking client handle (closed loop: one query in flight each).
pub struct Client(ServiceClient);

impl Client {
    pub fn query(&self, sql: &str, seed: u64) -> Result<Answer, String> {
        self.0
            .query(sql, seed)
            .map(Answer::from)
            .map_err(|e| e.to_string())
    }
}

impl Sut {
    /// Builds both tables from the generated columns and registers them
    /// on a fresh service: `trips` through the scalar zipped constructor,
    /// `sales` through the row model. Everything here is set-up time.
    pub fn start(
        config: &SutConfig,
        pilot_seed: u64,
        trips: &[(&str, &[f64])],
        sales: &[(&str, &[f64])],
        categorical: &[&str],
        blocks: usize,
    ) -> Sut {
        let service = QueryService::new(ServiceConfig {
            workers: config.workers,
            max_concurrent: config.max_concurrent,
            ingest_rows_per_block: config.ingest_rows_per_block,
            pilot_seed,
            ..ServiceConfig::default()
        });
        service.register_table(
            "trips",
            Table::new(
                trips
                    .iter()
                    .map(|(name, values)| (*name, BlockSet::from_values(values.to_vec(), blocks)))
                    .collect(),
            ),
        );
        let schema = Schema::new(
            sales
                .iter()
                .map(|(name, _)| {
                    if categorical.contains(name) {
                        ColumnDef::categorical(*name)
                    } else {
                        ColumnDef::float(*name)
                    }
                })
                .collect(),
        );
        let columns = sales.iter().map(|(_, values)| values.to_vec()).collect();
        service.register_table(
            "sales",
            Table::from_rows(schema, RowsBlock::split(columns, blocks)),
        );
        Sut { service }
    }

    pub fn client(&self, tenant: &str) -> Client {
        Client(self.service.client(tenant))
    }

    /// Appends rows to `sales`; returns the blocks sealed.
    pub fn ingest(&self, rows: &[Vec<f64>]) -> Result<usize, String> {
        self.service
            .ingest("ingest", "sales", rows)
            .map_err(|e| e.to_string())
    }

    pub fn counters(&self) -> Counters {
        let stats = self.service.stats();
        let pre = self.service.cache_stats();
        let epoch = self.service.epoch_cache_stats();
        let mut c = Counters {
            admitted: stats.admitted,
            rejected: stats.rejected,
            failed: stats.failed,
            degraded: stats.degraded,
            sealed_blocks: stats.sealed_blocks,
            pre_hits: pre.hits,
            pre_misses: pre.misses,
            epoch_exact_hits: epoch.exact_hits,
            epoch_delta_folds: epoch.delta_folds,
            epoch_cold_folds: epoch.cold_folds,
            ..Counters::default()
        };
        for table in ["trips", "sales"] {
            if let Ok(t) = self.service.table_cache_stats(table) {
                c.selection_hits += t.selection_hits;
                c.selection_builds += t.selection_builds;
                c.sketch_hits += t.sketch_hits;
                c.sketch_inserted += t.sketch_inserted;
            }
        }
        c
    }
}

pub mod replay {
    //! The layer replay: one query walked step by step through the
    //! public pipeline — `parse` → gate → pre-estimate or cache lookup →
    //! plan → one call per block → merge — with a span around each step.
    //! The replay mirrors `isla_query::executor`'s dispatch from outside;
    //! [`Replayed::samples`] is compared with the service's
    //! `samples_used` for the same statement so a drift between the two
    //! is a loud failure, not a quietly wrong profile.

    use std::hint::black_box;

    use isla_core::engine::{
        self, derive_block_seeds, execute_planned_block, execute_row_block, seeded_rng,
        stream_seed, BlockExecution, CacheKey, GroupedPartial, PartialAggregate, PooledScheduler,
        PreEstimateCache, QueryPlan, RateSpec, RecoveryPolicy, RowPlan, RowSpec,
        SequentialScheduler,
    };
    use isla_core::{
        iteration_phase, ExtremeAggregator, ExtremeKind, IslaConfig, SampleAccumulator,
    };
    use isla_query::{parse, AdmissionGate, AggFunc, Method, Query, Table};
    use isla_storage::{
        pool_filtered_column, sample_from_block, sample_proportional, sample_rows_from_block,
        sample_rows_proportional, scan_sketch, BlockSet, ColumnPredicate, IngestBuffer, RowFilter,
    };

    use super::Sut;
    use crate::span::SpanLog;

    /// The executor's pilot for an estimated `COUNT(*) WHERE …`.
    const COUNT_PILOT_ROWS: u64 = 10_000;

    /// A private pre-estimate cache standing in for the service's (which
    /// is not reachable from outside); same type, same keys, same seeds.
    #[derive(Default)]
    pub struct ReplayCache(PreEstimateCache);

    /// What one replayed query did, summed over its blocks.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct Replayed {
        /// Samples the service would report for this statement in the
        /// same cache state (`None` where it reports none).
        pub samples: Option<u64>,
        pub pilot_samples: u64,
        pub blocks: u64,
        pub calc_samples: u64,
        pub iterations: u64,
        pub fallback_blocks: u64,
        /// Scalar or row ISLA — the shapes that execute per block.
        pub scalar_isla: bool,
        pub row_isla: bool,
    }

    fn config_for(query: &Query) -> Result<IslaConfig, String> {
        let mut builder = IslaConfig::builder().confidence(query.confidence.unwrap_or(0.95));
        if let Some(e) = query.precision {
            builder = builder.precision(e);
        }
        builder.build().map_err(|e| e.to_string())
    }

    fn row_spec(query: &Query, table: &Table) -> Result<Option<RowSpec>, String> {
        if query.predicates.is_empty() && query.group_by.is_none() {
            return Ok(None);
        }
        let resolve = |name: &str| {
            table
                .column_index(name)
                .ok_or(format!("unknown column {name}"))
        };
        let predicates = query
            .predicates
            .iter()
            .map(|p| {
                Ok(ColumnPredicate {
                    column: resolve(&p.column)?,
                    op: p.op,
                    value: p.value,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Some(RowSpec {
            agg_column: if query.column.is_empty() {
                0
            } else {
                resolve(&query.column)?
            },
            filter: RowFilter::new(predicates),
            group_by: query.group_by.as_deref().map(resolve).transpose()?,
        }))
    }

    /// Per-block measurements of an ISLA shape beside its spans: the same
    /// blocks at zero draws (fixed per-block cost), the bare gather, and
    /// Algorithm 2 alone — what a block span's self time splits into.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct BlockSplit {
        pub setup_us: f64,
        pub kernel_us: f64,
        pub modulation_us: f64,
    }

    /// Replays `sql` once. `cache` plays the service's pre-estimate
    /// cache: empty for a cold query, primed for a warm one.
    pub fn query(
        sut: &Sut,
        pilot_seed: u64,
        cache: &ReplayCache,
        sql: &str,
        seed: u64,
        log: &mut SpanLog,
        split: Option<&mut BlockSplit>,
    ) -> Result<Replayed, String> {
        let id = log.new_query();
        log.scope(id, "query", |log| {
            let query = log
                .scope(id, "parser.parse", |_| parse(sql))
                .0
                .map_err(|e| e.to_string())?;
            let permit = log
                .scope(id, "service.admission", |_| {
                    sut.service.gate().acquire("replay")
                })
                .0
                .map_err(|e| e.to_string())?;
            let table = log
                .scope(id, "service.snapshot", |_| sut.service.table(&query.table))
                .0
                .map_err(|e| e.to_string())?;
            let out = dispatch(&query, &table, pilot_seed, cache, seed, id, log, split);
            drop(permit);
            out
        })
        .0
    }

    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        query: &Query,
        table: &Table,
        pilot_seed: u64,
        cache: &ReplayCache,
        seed: u64,
        id: u32,
        log: &mut SpanLog,
        split: Option<&mut BlockSplit>,
    ) -> Result<Replayed, String> {
        let mut rng = seeded_rng(seed);
        let strict = RecoveryPolicy::strict();
        let spec = log
            .scope(id, "executor.resolve", |_| row_spec(query, table))
            .0?;
        let extreme = matches!(query.agg, AggFunc::Max | AggFunc::Min);
        match (spec, query.agg, query.method) {
            // Metadata-only COUNT(*): nothing below the service.
            (None, AggFunc::Count, _) => Ok(Replayed::default()),
            (Some(spec), _, Method::Exact) if !extreme => {
                log.scope(id, "kernel.scan_rows", |_| {
                    engine::scan_exact_groups(table.data(), &spec)
                })
                .0
                .map_err(|e| e.to_string())?;
                Ok(Replayed::default())
            }
            (Some(spec), AggFunc::Count, _) => {
                log.scope(id, "kernel.sample_rows", |_| {
                    sample_rows_proportional(table.data(), COUNT_PILOT_ROWS, &mut rng, &mut |row| {
                        black_box(spec.filter.matches(row));
                    })
                })
                .0
                .map_err(|e| e.to_string())?;
                Ok(Replayed {
                    samples: Some(COUNT_PILOT_ROWS),
                    ..Replayed::default()
                })
            }
            (Some(spec), _, _) if extreme => {
                let set = log
                    .scope(id, "selection.lookup", |_| {
                        pool_filtered_column(table.data(), spec.agg_column, spec.filter.clone())
                    })
                    .0;
                if query.method == Method::Exact {
                    log.scope(id, "kernel.scan", |_| {
                        set.scan_all_chunks(&mut |chunk| {
                            black_box(chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max));
                        })
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                    return Ok(Replayed::default());
                }
                let config = config_for(query)?;
                let result = log
                    .scope(id, "extremes.aggregate", |_| {
                        ExtremeAggregator::new(config)?.aggregate(&set, ExtremeKind::Max, &mut rng)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                Ok(Replayed {
                    samples: Some(result.total_samples),
                    ..Replayed::default()
                })
            }
            (Some(spec), _, Method::Isla) => {
                let data = table.data();
                let config = config_for(query)?;
                let key = CacheKey::new(&query.table, &query.column, &config, data)
                    .with_row_shape(spec.fingerprint());
                let (lookup, lookup_span) = log.scope(id, "cache.lookup", |_| {
                    if data.epoch() == 0 {
                        let mut pilot = seeded_rng(stream_seed(key.digest(), pilot_seed));
                        cache.0.get_or_compute_rows_with(
                            key, data, &config, &spec, &strict, &mut pilot,
                        )
                    } else {
                        cache
                            .0
                            .get_or_compute_rows_epoch(key, data, &config, &spec, pilot_seed)
                    }
                });
                let lookup = lookup.map_err(|e| e.to_string())?;
                if !lookup.hit {
                    // A miss is the pilots, not a lookup.
                    log.rename(lookup_span, "pre_estimation.rows");
                }
                let pilot_samples = if lookup.hit { 0 } else { lookup.pre.pilot_rows };
                let plan = log
                    .scope(id, "plan.build", |_| {
                        RowPlan::from_pre_estimate(
                            data,
                            &config,
                            spec,
                            lookup.pre,
                            RateSpec::Derived,
                        )
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                let seeds = derive_block_seeds(&mut rng, data.block_count());
                let mut outcomes = Vec::with_capacity(data.block_count());
                for (b, block) in data.iter().enumerate() {
                    let outcome = log
                        .scope(id, "block_exec", |_| {
                            execute_row_block(&plan, block.as_ref(), b, seeds[b])
                        })
                        .0
                        .map_err(|e| e.to_string())?;
                    outcomes.push(outcome);
                }
                let mut replayed = Replayed {
                    pilot_samples,
                    blocks: outcomes.len() as u64,
                    calc_samples: outcomes.iter().map(|o| o.draws).sum(),
                    row_isla: true,
                    ..Replayed::default()
                };
                for group in outcomes.iter().flat_map(|o| &o.groups) {
                    replayed.iterations += u64::from(group.iterations);
                    replayed.fallback_blocks += u64::from(group.fallback.is_some());
                }
                replayed.samples = Some(replayed.calc_samples + pilot_samples);
                if let Some(split) = split {
                    let idle = plan.clone().with_absolute_rate(f64::MIN_POSITIVE);
                    split.setup_us = median_us(|| {
                        for (b, block) in data.iter().enumerate() {
                            black_box(
                                execute_row_block(&idle, block.as_ref(), b, seeds[b])
                                    .expect("replayed above"),
                            );
                        }
                    });
                    // Fresh rows every pass: a repeated seed would gather
                    // from lines the last pass left in cache.
                    let mut pass = 0u64;
                    split.kernel_us = median_us(|| {
                        pass += 1;
                        for (b, block) in data.iter().enumerate() {
                            let mut block_rng = seeded_rng(stream_seed(seeds[b], pass));
                            let draws = plan.sample_size_for(block.len());
                            sample_rows_from_block(
                                block.as_ref(),
                                draws,
                                &mut block_rng,
                                &mut |row| {
                                    black_box(row);
                                },
                            )
                            .expect("replayed above");
                        }
                    });
                }
                log.scope(id, "partial.merge", |_| {
                    let mut partial = GroupedPartial::new();
                    for outcome in outcomes {
                        partial.absorb(outcome);
                    }
                    partial.finalize(&plan)
                })
                .0
                .map_err(|e| e.to_string())?;
                Ok(replayed)
            }
            (None, _, Method::Exact) => {
                let data = column(table, query, id, log)?;
                log.scope(id, "kernel.scan", |_| data.exact_mean())
                    .0
                    .map_err(|e| e.to_string())?;
                Ok(Replayed::default())
            }
            (None, _, Method::Isla) => {
                let data = column(table, query, id, log)?;
                let mut config = config_for(query)?;
                config.sketch_sigma = true;
                let key = CacheKey::new(&query.table, &query.column, &config, &data);
                let (lookup, lookup_span) = log.scope(id, "cache.lookup", |_| {
                    if data.epoch() == 0 {
                        let mut pilot = seeded_rng(stream_seed(key.digest(), pilot_seed));
                        cache
                            .0
                            .get_or_compute_with(key, &data, &config, &strict, &mut pilot)
                    } else {
                        cache
                            .0
                            .get_or_compute_epoch(key, &data, &config, pilot_seed)
                    }
                });
                let lookup = lookup.map_err(|e| e.to_string())?;
                if !lookup.hit {
                    log.rename(lookup_span, "pre_estimation.scalar");
                }
                let pilots = lookup.pre.sigma_pilot_used + lookup.pre.sketch_pilot_used;
                let pilot_samples = if lookup.hit { 0 } else { pilots };
                let plan = log
                    .scope(id, "plan.build", |_| {
                        QueryPlan::from_pre_estimate(&data, &config, lookup.pre, RateSpec::Derived)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                if plan.is_degenerate() {
                    return Ok(Replayed {
                        samples: Some(pilot_samples),
                        pilot_samples,
                        ..Replayed::default()
                    });
                }
                let seeds = derive_block_seeds(&mut rng, data.block_count());
                let exec = BlockExecution {
                    plan: &plan,
                    data: &data,
                    seeds: &seeds,
                    recovery: &strict,
                };
                let mut outcomes = Vec::with_capacity(data.block_count());
                for b in 0..data.block_count() {
                    let outcome = log
                        .scope(id, "block_exec", |_| execute_planned_block(&exec, b))
                        .0
                        .map_err(|e| e.to_string())?;
                    outcomes.push(outcome);
                }
                let mut replayed = Replayed {
                    pilot_samples,
                    blocks: outcomes.len() as u64,
                    calc_samples: outcomes.iter().map(|o| o.samples_drawn).sum(),
                    iterations: outcomes.iter().map(|o| u64::from(o.iterations)).sum(),
                    fallback_blocks: outcomes.iter().filter(|o| o.fallback.is_some()).count()
                        as u64,
                    scalar_isla: true,
                    ..Replayed::default()
                };
                replayed.samples = Some(replayed.calc_samples + pilot_samples);
                if let Some(split) = split {
                    let idle_plan = plan.clone().with_absolute_rate(f64::MIN_POSITIVE);
                    let idle = BlockExecution {
                        plan: &idle_plan,
                        ..exec
                    };
                    split.setup_us = median_us(|| {
                        for b in 0..data.block_count() {
                            black_box(execute_planned_block(&idle, b).expect("replayed above"));
                        }
                    });
                    let mut pass = 0u64;
                    split.kernel_us = median_us(|| {
                        pass += 1;
                        for (b, block) in data.iter().enumerate() {
                            let mut block_rng = seeded_rng(stream_seed(seeds[b], pass));
                            let draws = plan.sample_size_for(block.len());
                            sample_from_block(block.as_ref(), draws, &mut block_rng, &mut |v| {
                                black_box(v);
                            })
                            .expect("replayed above");
                        }
                    });
                    split.modulation_us = median_us(|| {
                        for outcome in &outcomes {
                            black_box(iteration_phase(
                                &outcome.accumulator,
                                plan.sketch0_shifted(),
                                plan.config(),
                            ));
                        }
                    });
                }
                log.scope(id, "partial.merge", |_| {
                    let mut partial = PartialAggregate::new();
                    for outcome in outcomes {
                        partial.absorb(outcome);
                    }
                    partial.finalize()
                })
                .0
                .map_err(|e| e.to_string())?;
                Ok(replayed)
            }
            (None, _, Method::Us) => {
                let data = column(table, query, id, log)?;
                let n = query.samples.ok_or("METHOD US without SAMPLES")?;
                log.scope(id, "kernel.sample", |_| {
                    sample_proportional(&data, n, &mut rng)
                })
                .0
                .map_err(|e| e.to_string())?;
                Ok(Replayed {
                    samples: Some(n),
                    ..Replayed::default()
                })
            }
            (_, agg, method) => Err(format!(
                "the replay has no path for {agg:?} with METHOD {method:?}"
            )),
        }
    }

    fn column(
        table: &Table,
        query: &Query,
        id: u32,
        log: &mut SpanLog,
    ) -> Result<BlockSet, String> {
        log.scope(id, "executor.resolve", |_| table.column(&query.column))
            .0
            .ok_or(format!("unknown column {}", query.column))
    }

    /// Median time of five runs of `f`, in µs.
    fn median_us(mut f: impl FnMut()) -> f64 {
        let runs: Vec<f64> = (0..5).map(|_| timed(&mut f).1).collect();
        crate::stats::median(&runs)
    }

    /// Times `f` once, in µs.
    fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
        let t = std::time::Instant::now();
        let value = f();
        (value, t.elapsed().as_secs_f64() * 1e6)
    }

    /// Storage-kernel costs on the workload's own tables at its own
    /// per-block sample size: ns per draw or per row.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Kernels {
        pub sample_ns_per_draw: f64,
        pub sample_rows_ns_per_draw: f64,
        pub filtered_ns_per_draw: f64,
        pub scan_ns_per_row: f64,
        pub scan_rows_ns_per_row: f64,
        pub fold_ns_per_sample: f64,
    }

    pub fn kernels(
        sut: &Sut,
        draws_per_block: u64,
        margin_gt: f64,
        seed: u64,
    ) -> Result<Kernels, String> {
        let trips = sut.service.table("trips").map_err(|e| e.to_string())?;
        let sales = sut.service.table("sales").map_err(|e| e.to_string())?;
        let distance = trips.column("distance").ok_or("trips.distance missing")?;
        let draws = draws_per_block.max(1);
        let mut rng = seeded_rng(seed);
        let mut k = Kernels::default();
        let e = |e: isla_storage::StorageError| e.to_string();

        let total = draws * distance.block_count() as u64;
        let ((), us) = timed(|| {
            for block in distance.iter() {
                sample_from_block(block.as_ref(), draws, &mut rng, &mut |v| {
                    black_box(v);
                })
                .expect("in-memory blocks sample");
            }
        });
        k.sample_ns_per_draw = us * 1e3 / total as f64;
        // Algorithm 1's fold on top of the same gather.
        let stat_mean = distance.exact_mean().map_err(e)?;
        let boundaries = isla_core::DataBoundaries::new(stat_mean, 20.0, 0.5, 2.0);
        let ((), folded_us) = timed(|| {
            for block in distance.iter() {
                let mut acc = SampleAccumulator::new(boundaries);
                sample_from_block(block.as_ref(), draws, &mut rng, &mut |v| {
                    acc.offer(v);
                })
                .expect("in-memory blocks sample");
                black_box(acc.u());
            }
        });
        k.fold_ns_per_sample = ((folded_us - us) * 1e3 / total as f64).max(0.0);

        let total_rows = draws * sales.data().block_count() as u64;
        let ((), us) = timed(|| {
            for block in sales.data().iter() {
                sample_rows_from_block(block.as_ref(), draws, &mut rng, &mut |row| {
                    black_box(row);
                })
                .expect("in-memory blocks sample");
            }
        });
        k.sample_rows_ns_per_draw = us * 1e3 / total_rows as f64;

        let margin = sales.column_index("margin").ok_or("sales.margin missing")?;
        let amount = sales.column_index("amount").ok_or("sales.amount missing")?;
        let filter = RowFilter::new(vec![ColumnPredicate {
            column: margin,
            op: isla_storage::CmpOp::Gt,
            value: margin_gt,
        }]);
        let pooled = pool_filtered_column(sales.data(), amount, filter);
        let ((), us) = timed(|| {
            sample_from_block(pooled.block(0).as_ref(), total_rows, &mut rng, &mut |v| {
                black_box(v);
            })
            .expect("pooled filtered block samples");
        });
        k.filtered_ns_per_draw = us * 1e3 / total_rows as f64;

        let (scan, us) = timed(|| {
            distance.scan_all_chunks(&mut |chunk| {
                black_box(chunk.iter().sum::<f64>());
            })
        });
        scan.map_err(e)?;
        k.scan_ns_per_row = us * 1e3 / distance.total_len() as f64;
        let (scan, us) = timed(|| {
            sales.data().scan_all_rows(&mut |row| {
                black_box(row[0]);
            })
        });
        scan.map_err(e)?;
        k.scan_rows_ns_per_row = us * 1e3 / sales.data().total_len() as f64;
        Ok(k)
    }

    /// Scheduler layer: one scalar plan run sequentially and on a
    /// 2-worker pool, and the pool's fixed fan-out cost (a plan that
    /// draws nothing). Milliseconds, milliseconds, microseconds.
    pub fn scheduler(
        sut: &Sut,
        pilot_seed: u64,
        sql: &str,
        reps: usize,
    ) -> Result<(f64, f64, f64), String> {
        let query = parse(sql).map_err(|e| e.to_string())?;
        let table = sut.service.table(&query.table).map_err(|e| e.to_string())?;
        let data = table.column(&query.column).ok_or("unknown column")?;
        let mut config = config_for(&query)?;
        config.sketch_sigma = true;
        let key = CacheKey::new(&query.table, &query.column, &config, &data);
        let mut pilot = seeded_rng(stream_seed(key.digest(), pilot_seed));
        let plan = QueryPlan::prepare(&data, &config, RateSpec::Derived, &mut pilot)
            .map_err(|e| e.to_string())?;
        let idle = plan.clone().with_absolute_rate(f64::MIN_POSITIVE);
        let pool = PooledScheduler::new(2).map_err(|e| e.to_string())?;
        let run = |plan: &QueryPlan, pooled: bool| -> Result<f64, String> {
            let mut best = Vec::with_capacity(reps);
            for rep in 0..reps {
                let mut rng = seeded_rng(rep as u64);
                let (out, us) = timed(|| {
                    if pooled {
                        engine::run_plan(plan.clone(), &data, &pool, &mut rng)
                    } else {
                        engine::run_plan(plan.clone(), &data, &SequentialScheduler, &mut rng)
                    }
                });
                out.map_err(|e| e.to_string())?;
                best.push(us);
            }
            Ok(crate::stats::median(&best))
        };
        let sequential = run(&plan, false)?;
        let pooled = run(&plan, true)?;
        let spawn = (run(&idle, true)? - run(&idle, false)?).max(0.0);
        Ok((sequential / 1e3, pooled / 1e3, spawn))
    }

    /// Service-layer micro-costs, in µs: idle acquire+release, a
    /// contended hand-off (2 threads, 1 slot), and the metadata-only
    /// `COUNT(*)` round trip.
    pub fn service(sut: &Sut, reps: usize) -> Result<(f64, f64, f64), String> {
        let gate = sut.service.gate();
        let ((), us) = timed(|| {
            for _ in 0..reps {
                drop(black_box(gate.acquire("probe")));
            }
        });
        let admission = us / reps as f64;
        // Two threads, one slot, each holding the permit for a moment so
        // the other is (almost) always waiting when it is released; the
        // hold itself is timed alone and taken off.
        let hold = || {
            for _ in 0..400 {
                std::hint::spin_loop();
            }
        };
        let ((), hold_us) = timed(|| (0..reps).for_each(|_| hold()));
        let contended = AdmissionGate::new(1, 64);
        let start = std::sync::Barrier::new(2);
        let ((), us) = timed(|| {
            std::thread::scope(|s| {
                for tenant in ["a", "b"] {
                    let (contended, start) = (&contended, &start);
                    s.spawn(move || {
                        start.wait();
                        for _ in 0..reps {
                            let permit = black_box(contended.acquire(tenant));
                            hold();
                            drop(permit);
                        }
                    });
                }
            });
        });
        let handoff = ((us - 2.0 * hold_us) / (2 * reps) as f64).max(0.0);
        let client = sut.service.client("probe");
        let (out, us) = timed(|| {
            for i in 0..reps {
                client
                    .query("SELECT COUNT(*) FROM trips", i as u64)
                    .map_err(|e| e.to_string())?;
            }
            Ok::<(), String>(())
        });
        out?;
        Ok((admission, handoff, us / reps as f64))
    }

    /// Cold-path and append-path layers measured on a scratch service
    /// (they build and append, which must not touch the traced one).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ColdAndAppend {
        pub selection_build_ms: f64,
        pub selection_pruned_blocks: f64,
        pub sketch_scan_ms: f64,
        pub push_ns_per_row: f64,
        pub seal_ms: f64,
        pub append_us: f64,
        pub delta_resume_ms: f64,
    }

    pub fn cold_and_append(
        scratch: &Sut,
        pilot_seed: u64,
        margin_gt: f64,
        ts_gt: f64,
        batches: &[Vec<Vec<f64>>],
        row_sql: &str,
    ) -> Result<ColdAndAppend, String> {
        let mut out = ColdAndAppend::default();
        let mut sales = scratch.service.table("sales").map_err(|e| e.to_string())?;
        let margin = sales.column_index("margin").ok_or("sales.margin missing")?;
        let ts = sales.column_index("ts").ok_or("sales.ts missing")?;
        let gt = |column, value| {
            RowFilter::new(vec![ColumnPredicate {
                column,
                op: isla_storage::CmpOp::Gt,
                value,
            }])
        };
        // Unique literals, so every call compiles.
        let mut builds = Vec::new();
        for i in 0..5 {
            let filter = gt(margin, margin_gt + 1e-6 * f64::from(i));
            let (selection, us) = timed(|| sales.data().selection_for(&filter));
            selection.map_err(|e| e.to_string())?;
            builds.push(us / 1e3);
        }
        out.selection_build_ms = crate::stats::median(&builds);
        out.selection_pruned_blocks = sales
            .data()
            .selection_for(&gt(ts, ts_gt))
            .map_err(|e| e.to_string())?
            .pruned_blocks() as f64;
        let (scan, us) = timed(|| {
            for block in sales.data().iter() {
                black_box(scan_sketch(block.as_ref())?);
            }
            Ok::<(), isla_storage::StorageError>(())
        });
        scan.map_err(|e| e.to_string())?;
        out.sketch_scan_ms = us / 1e3;

        // The append path step by step, and a pre-estimate resumed over
        // each appended epoch.
        let query = parse(row_sql).map_err(|e| e.to_string())?;
        let spec =
            row_spec(&query, &sales)?.ok_or("the delta-resume probe needs a row-model shape")?;
        let config = config_for(&query)?;
        let cache = PreEstimateCache::new();
        let key = |data: &BlockSet| {
            CacheKey::new(&query.table, &query.column, &config, data)
                .with_row_shape(spec.fingerprint())
        };
        cache
            .get_or_compute_rows_epoch(key(sales.data()), sales.data(), &config, &spec, pilot_seed)
            .map_err(|e| e.to_string())?;
        let (mut push, mut seal, mut append, mut resume) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for rows in batches {
            let mut buffer = IngestBuffer::new(sales.schema().width(), rows.len());
            let (sealed, us) = timed(|| buffer.push_rows(rows.iter().map(Vec::as_slice)));
            let mut sealed = sealed.map_err(|e| e.to_string())?;
            push.push(us * 1e3 / rows.len() as f64);
            let block = sealed.pop().ok_or("a full batch seals one block")?;
            let (ingest, us) = timed(|| sales.seal_block(block));
            let ingest = ingest.map_err(|e| e.to_string())?;
            seal.push(us / 1e3);
            let ((), us) = timed(|| sales.append_sealed(vec![ingest]));
            append.push(us);
            let (lookup, us) = timed(|| {
                cache.get_or_compute_rows_epoch(
                    key(sales.data()),
                    sales.data(),
                    &config,
                    &spec,
                    pilot_seed,
                )
            });
            lookup.map_err(|e| e.to_string())?;
            resume.push(us / 1e3);
        }
        if cache.epoch_stats().delta_folds != batches.len() as u64 {
            return Err("the delta-resume probe did not resume".to_string());
        }
        out.push_ns_per_row = crate::stats::median(&push);
        out.seal_ms = crate::stats::median(&seal);
        out.append_us = crate::stats::median(&append);
        out.delta_resume_ms = crate::stats::median(&resume);
        Ok(out)
    }
}
