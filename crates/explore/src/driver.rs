//! The wave-parallel sweep driver.
//!
//! The lattice is walked in *waves*: one budget vector per wave, most
//! generous first (descending total, then descending lexicographic,
//! then spec order). Within a wave the points — one per rate, highest
//! rate first — are claimed from an atomic counter by `jobs` worker
//! threads, so load balances without any scheduling decision affecting
//! results: every point's inputs (its coordinate and its warm-start
//! donor list) are frozen at the wave barrier, and results land in
//! per-point slots that are read back in wave order.
//!
//! Two things happen at each barrier, in deterministic wave order:
//!
//! * pin-infeasible points are recorded as *pruning certificates*: a
//!   point at rate `L'` and budget `P'` in a later wave is skipped
//!   without synthesis when some certificate `(L, P)` has `L' <= L` and
//!   `P' <= P` componentwise (fewer control-step groups and fewer pins
//!   only shrink the allocation polytope, so the exact infeasibility
//!   verdict lifts);
//! * every other point's warm-start export is published to the
//!   [`WarmStartCache`]. Pin-infeasible points never export — even when
//!   the runner returns data — so a pruned sweep and an exhaustive
//!   sweep present *identical* inputs to every surviving point, which
//!   is what the differential test leans on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use mcs_ctl::Termination;

use crate::{
    pareto_frontier, ExploreOutcome, PointCoord, PointOutcome, PointRunner, PointStatus,
    SweepReport, SweepSpec, SweepStats, WarmStartCache,
};

/// Driver knobs.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Worker threads claiming points within a wave. The output is
    /// byte-identical for every value.
    pub jobs: usize,
    /// Enable dominance pruning. Disabling it runs the exhaustive
    /// sweep (the reference side of the differential test).
    pub prune: bool,
    /// Execution budget polled at every wave barrier. When it trips,
    /// the remaining waves are reported as [`PointStatus::Skipped`] and
    /// the report becomes an anytime result (frontier over the waves
    /// that ran). Share the handle with the point runner to have work
    /// charged inside points stop the sweep at the next barrier.
    pub budget: Option<mcs_ctl::Budget>,
    /// Telemetry handle: an `explore.point_us` histogram (per-point wall
    /// time on the registry clock) plus `explore.*` counters and gauges
    /// added once at the end of the sweep, and — with an event sink — a
    /// [`mcs_obs::Event::WorkerPanic`] at the wave barrier for each
    /// point runner that panicked and was quarantined. Disconnected by
    /// default; never feeds into the [`SweepReport`], which stays
    /// timing-free.
    pub metrics: mcs_metrics::MetricsHandle,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 1,
            prune: true,
            budget: None,
            metrics: mcs_metrics::MetricsHandle::default(),
        }
    }
}

/// A malformed [`SweepSpec`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// No initiation rates.
    EmptyRates,
    /// A rate of zero (no control-step groups).
    ZeroRate,
    /// No budget vectors.
    EmptyBudgets,
    /// Budget vectors of differing lengths.
    RaggedBudgets,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            SweepError::EmptyRates => "sweep spec has no initiation rates",
            SweepError::ZeroRate => "initiation rate 0 is not explorable",
            SweepError::EmptyBudgets => "sweep spec has no pin-budget vectors",
            SweepError::RaggedBudgets => "pin-budget vectors differ in length",
        };
        write!(f, "{s}")
    }
}

impl std::error::Error for SweepError {}

fn validate(spec: &SweepSpec) -> Result<(), SweepError> {
    if spec.rates.is_empty() {
        return Err(SweepError::EmptyRates);
    }
    if spec.rates.contains(&0) {
        return Err(SweepError::ZeroRate);
    }
    if spec.budgets.is_empty() {
        return Err(SweepError::EmptyBudgets);
    }
    if spec.budgets.windows(2).any(|w| w[0].len() != w[1].len()) {
        return Err(SweepError::RaggedBudgets);
    }
    Ok(())
}

/// Budget vector `a` dominates `b`: equal length and `a >= b`
/// componentwise. The one dominance rule of the sweep's pruning, the
/// warm-start donors and the serve cache's donor seeding.
pub fn dominates(a: &[u32], b: &[u32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| x >= y)
}

/// Runs the sweep. See the module docs for the wave discipline; the
/// returned report is a pure function of `(spec, runner, opts.prune)` —
/// `opts.jobs` never changes a byte of it.
pub fn sweep<R: PointRunner>(
    spec: &SweepSpec,
    runner: &R,
    opts: &SweepOptions,
) -> Result<SweepReport, SweepError> {
    validate(spec)?;
    let n_rates = spec.rates.len();
    let canon = |budget_ix: usize, rate_ix: usize| budget_ix * n_rates + rate_ix;
    let mut results: Vec<Option<ExploreOutcome>> = Vec::new();
    results.resize_with(n_rates * spec.budgets.len(), || None);

    // Waves: budget vectors most generous first.
    let wave_order = {
        let total = |i: usize| spec.budgets[i].iter().map(|&p| p as u64).sum::<u64>();
        let mut ix: Vec<usize> = (0..spec.budgets.len()).collect();
        ix.sort_by(|&a, &b| {
            total(b)
                .cmp(&total(a))
                .then_with(|| spec.budgets[b].cmp(&spec.budgets[a]))
                .then(a.cmp(&b))
        });
        ix
    };
    // Within a wave: highest rate first (most slack, most likely to
    // seed the cache for the rest of its column).
    let rate_order = {
        let mut ix: Vec<usize> = (0..n_rates).collect();
        ix.sort_by_key(|&i| (std::cmp::Reverse(spec.rates[i]), i));
        ix
    };

    let m_point_us = opts.metrics.histogram("explore.point_us");
    let cache: WarmStartCache<PointCoord, R::Export> = WarmStartCache::new();
    let mut certs: Vec<PointCoord> = Vec::new();
    let mut stats = SweepStats {
        points: (n_rates * spec.budgets.len()) as u64,
        ..SweepStats::default()
    };

    let mut waves = 0u32;
    let mut interruption: Option<Termination> = None;
    // `waves` counts only waves that actually ran — the barrier can
    // break before the increment — so enumerate() is not equivalent.
    #[allow(clippy::explicit_counter_loop)]
    for &b in &wave_order {
        // Wave barrier: poll the budget. Work is charged inside point
        // runs (when the caller shares the handle), so a mid-wave trip
        // is observed here — the previous wave's results stand, the
        // rest of the lattice is reported as skipped.
        if let Some(budget) = &opts.budget {
            if budget.check().is_some() {
                interruption = Some(budget.termination());
                break;
            }
        }
        waves += 1;
        // Prune against certificates frozen at the wave start; the
        // decision never depends on this wave's own (parallel) results.
        let mut todo: Vec<(usize, PointCoord)> = Vec::new();
        for &ri in &rate_order {
            let coord = PointCoord {
                rate: spec.rates[ri],
                budget_ix: b,
            };
            let dominator = opts.prune.then(|| {
                certs.iter().find(|c| {
                    coord.rate <= c.rate && dominates(&spec.budgets[c.budget_ix], &spec.budgets[b])
                })
            });
            if let Some(Some(by)) = dominator {
                results[canon(b, ri)] = Some(ExploreOutcome {
                    coord,
                    status: PointStatus::Pruned,
                    outcome: PointOutcome {
                        status: Some(PointStatus::Pruned),
                        detail: format!(
                            "dominated by pin-infeasible rate {} budget {}",
                            by.rate, by.budget_ix
                        ),
                        ..PointOutcome::default()
                    },
                });
                stats.pruned += 1;
                continue;
            }
            todo.push((ri, coord));
        }

        // Claim-and-run: point i's inputs are independent of who runs it.
        // Each run is wrapped in `catch_unwind`: a panicking runner is
        // quarantined to its own slot (reported as an error point) so
        // one bad point cannot unwind the scope and abort the sweep.
        type Slot<E> = Mutex<Option<(PointOutcome, Option<E>)>>;
        let slots: Vec<Slot<R::Export>> = todo.iter().map(|_| Mutex::new(None)).collect();
        let panicked: Vec<AtomicBool> = todo.iter().map(|_| AtomicBool::new(false)).collect();
        let next = AtomicUsize::new(0);
        let jobs = opts.jobs.clamp(1, todo.len().max(1));
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= todo.len() {
                        break;
                    }
                    let coord = todo[i].1;
                    let budget = &spec.budgets[coord.budget_ix];
                    let seeds = cache.donors_for(coord.rate, budget, &spec.budgets);
                    let point_t0 = opts.metrics.now_us();
                    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // Fault-injection site (debug builds only).
                        mcs_ctl::faultpoint!(&format!(
                            "explore::point::{}::{}",
                            coord.rate, coord.budget_ix
                        ));
                        runner.run(coord, budget, &seeds)
                    }));
                    m_point_us.observe(opts.metrics.now_us().saturating_sub(point_t0));
                    *slots[i].lock().expect("slot lock") = Some(match run {
                        Ok(result) => result,
                        Err(_) => {
                            panicked[i].store(true, Ordering::Relaxed);
                            (
                                PointOutcome {
                                    status: None,
                                    detail: "point runner panicked; quarantined".into(),
                                    ..PointOutcome::default()
                                },
                                None,
                            )
                        }
                    });
                });
            }
        });

        // Barrier: record results, certificates and exports in wave
        // order so later waves see a deterministic world.
        for (j, ((ri, coord), slot)) in todo.iter().zip(slots).enumerate() {
            let (outcome, export) = slot
                .into_inner()
                .expect("slot lock")
                .expect("every claimed point completes");
            if panicked[j].load(Ordering::Relaxed) {
                stats.panics += 1;
                opts.metrics.record(mcs_obs::Event::WorkerPanic {
                    pool: "explore",
                    worker: j as u32,
                    epoch: waves,
                });
            }
            let status = match outcome.status {
                Some(PointStatus::Pruned | PointStatus::Skipped) | None => PointStatus::Error,
                Some(s) => s,
            };
            stats.run += 1;
            match status {
                PointStatus::Feasible => stats.feasible += 1,
                PointStatus::PinInfeasible => stats.pin_infeasible += 1,
                PointStatus::SearchFailed => stats.search_failed += 1,
                PointStatus::Error => stats.errors += 1,
                PointStatus::Pruned | PointStatus::Skipped => {
                    unreachable!("mapped to Error above")
                }
            }
            stats.probe_seed_hits += outcome.probe_seed_hits;
            if status == PointStatus::PinInfeasible {
                certs.push(*coord);
                // No export: a pruned sweep must present the same donor
                // lists as the exhaustive one, and pruned points are
                // exactly (a subset of) the pin-infeasible ones.
            } else if let Some(export) = export {
                cache.insert(*coord, export);
            }
            results[canon(b, *ri)] = Some(ExploreOutcome {
                coord: *coord,
                status,
                outcome,
            });
        }
    }

    stats.cache_entries = cache.len() as u64;
    stats.termination = match interruption {
        Some(t) => t,
        None if stats.panics > 0 => Termination::WorkerPanicked,
        None => Termination::Complete,
    };
    // Fill lattice slots never reached (interrupted sweeps) so the
    // report is always a complete, canonically ordered lattice.
    let mut outcomes: Vec<ExploreOutcome> = Vec::with_capacity(results.len());
    for (i, slot) in results.into_iter().enumerate() {
        outcomes.push(slot.unwrap_or_else(|| {
            stats.skipped += 1;
            let coord = PointCoord {
                rate: spec.rates[i % n_rates],
                budget_ix: i / n_rates,
            };
            ExploreOutcome {
                coord,
                status: PointStatus::Skipped,
                outcome: PointOutcome {
                    status: Some(PointStatus::Skipped),
                    detail: format!("sweep interrupted ({})", stats.termination),
                    ..PointOutcome::default()
                },
            }
        }));
    }
    let frontier = pareto_frontier(&outcomes);
    if opts.metrics.enabled() {
        opts.metrics.add("explore.points", stats.points);
        opts.metrics.add("explore.run", stats.run);
        opts.metrics.add("explore.pruned", stats.pruned);
        opts.metrics.add("explore.skipped", stats.skipped);
        opts.metrics
            .gauge_set("explore.cache_entries", stats.cache_entries as i64);
        opts.metrics
            .gauge_set("explore.frontier", frontier.len() as i64);
    }
    Ok(SweepReport {
        spec: spec.clone(),
        outcomes,
        frontier,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowVariant;
    use std::sync::Mutex;

    /// A synthetic runner with monotone pin feasibility: a point is
    /// pin-infeasible when its total budget is below `200 - 10 * rate`
    /// (so infeasibility at `(L, P)` really does imply it at every
    /// dominated point). Feasible cost trades latency against pins.
    struct FakeRunner {
        log: Mutex<Vec<PointCoord>>,
    }

    impl FakeRunner {
        fn new() -> Self {
            FakeRunner {
                log: Mutex::new(Vec::new()),
            }
        }
    }

    impl PointRunner for FakeRunner {
        type Export = u64;

        fn run(
            &self,
            coord: PointCoord,
            budget: &[u32],
            seeds: &[(PointCoord, std::sync::Arc<u64>)],
        ) -> (PointOutcome, Option<u64>) {
            self.log.lock().expect("log lock").push(coord);
            let total: u64 = budget.iter().map(|&p| p as u64).sum();
            let demand = 200u64.saturating_sub(10 * coord.rate as u64);
            if total < demand {
                return (
                    PointOutcome {
                        status: Some(PointStatus::PinInfeasible),
                        detail: "no allocation".into(),
                        ..PointOutcome::default()
                    },
                    // Deliberately export something: the driver must
                    // drop it for pin-infeasible points.
                    Some(total),
                );
            }
            let outcome = PointOutcome {
                status: Some(PointStatus::Feasible),
                latency: Some(2 * coord.rate as i64),
                total_pins: Some((total / 2) as u32),
                buses: Some(budget.len() as u32),
                registers: Some(8),
                probe_seed_hits: seeds.len() as u64,
                ..PointOutcome::default()
            };
            (outcome, Some(total))
        }
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            design: "fake".into(),
            flow: FlowVariant::Simple,
            rates: vec![4, 6, 8],
            budgets: vec![vec![96, 96], vec![72, 72], vec![48, 48]],
        }
    }

    #[test]
    fn pruned_points_are_never_run() {
        let runner = FakeRunner::new();
        let report = sweep(&spec(), &runner, &SweepOptions::default()).unwrap();
        // [48,48] = 96 total: infeasible for every rate (demand >= 120),
        // and rates 4 and 6 are dominated by the rate-8 certificate
        // ... but certificates only cross waves, so within the [48,48]
        // wave all three rates run. [72,72] = 144 total: infeasible at
        // rate 4 (demand 160); that certificate prunes rate 4 at
        // [48,48] before its wave runs.
        let pruned: Vec<PointCoord> = report
            .outcomes
            .iter()
            .filter(|o| o.status == PointStatus::Pruned)
            .map(|o| o.coord)
            .collect();
        assert_eq!(
            pruned,
            vec![PointCoord {
                rate: 4,
                budget_ix: 2
            }]
        );
        assert_eq!(report.stats.pruned, 1);
        let log = runner.log.lock().expect("log lock");
        assert!(!log.contains(&pruned[0]), "pruned points must not run");
        assert_eq!(log.len() as u64, report.stats.run);
    }

    #[test]
    fn pruned_and_exhaustive_sweeps_agree_on_the_frontier() {
        let exhaustive = sweep(
            &spec(),
            &FakeRunner::new(),
            &SweepOptions {
                prune: false,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(exhaustive.stats.pruned, 0);
        let pruned = sweep(&spec(), &FakeRunner::new(), &SweepOptions::default()).unwrap();
        assert_eq!(pruned.frontier, exhaustive.frontier);
        // Every non-pruned point is bit-identical between the sweeps.
        for (a, b) in pruned.outcomes.iter().zip(&exhaustive.outcomes) {
            if a.status != PointStatus::Pruned {
                assert_eq!(a.status, b.status);
                assert_eq!(a.outcome.latency, b.outcome.latency);
                assert_eq!(a.outcome.probe_seed_hits, b.outcome.probe_seed_hits);
            }
        }
    }

    #[test]
    fn report_bytes_are_identical_across_job_counts() {
        let reference = sweep(&spec(), &FakeRunner::new(), &SweepOptions::default())
            .unwrap()
            .to_json();
        for jobs in [2usize, 8] {
            let report = sweep(
                &spec(),
                &FakeRunner::new(),
                &SweepOptions {
                    jobs,
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            assert_eq!(report.to_json(), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn metrics_mirror_sweep_stats_independently_of_jobs() {
        use std::sync::Arc;
        let run = |jobs: usize| {
            // A manual-clock registry: every duration reads 0, so the
            // whole snapshot is a pure function of the sweep.
            let clock = Arc::new(mcs_ctl::ManualClock::new());
            let reg = Arc::new(mcs_metrics::Registry::with_clock(clock));
            let report = sweep(
                &spec(),
                &FakeRunner::new(),
                &SweepOptions {
                    jobs,
                    metrics: mcs_metrics::MetricsHandle::new(reg.clone()),
                    ..SweepOptions::default()
                },
            )
            .unwrap();
            (mcs_metrics::export::to_prometheus(&reg.snapshot()), report)
        };
        let (reference, report) = run(1);
        assert!(reference.contains("explore_point_us_count"));
        assert!(reference.contains(&format!("explore_pruned {}", report.stats.pruned)));
        for jobs in [2usize, 8] {
            assert_eq!(run(jobs).0, reference, "jobs={jobs}");
        }
    }

    #[test]
    fn warm_start_donors_reach_dominated_points() {
        let report = sweep(&spec(), &FakeRunner::new(), &SweepOptions::default()).unwrap();
        // The [72,72] wave runs after [96,96]; its feasible points see
        // the [96,96] export at the same rate.
        let o = report
            .outcomes
            .iter()
            .find(|o| {
                o.coord
                    == PointCoord {
                        rate: 8,
                        budget_ix: 1,
                    }
            })
            .unwrap();
        assert_eq!(o.outcome.probe_seed_hits, 1);
        assert!(report.stats.probe_seed_hits > 0);
        assert!(report.stats.cache_entries > 0);
    }

    #[test]
    fn tripped_budget_skips_remaining_waves_as_an_anytime_result() {
        // Charge one "node" per point run so the budget trips after the
        // first wave's work is charged; the poll at the next wave
        // barrier converts the trip into Skipped points.
        struct ChargingRunner {
            inner: FakeRunner,
            budget: mcs_ctl::Budget,
        }
        impl PointRunner for ChargingRunner {
            type Export = u64;
            fn run(
                &self,
                coord: PointCoord,
                budget: &[u32],
                seeds: &[(PointCoord, std::sync::Arc<u64>)],
            ) -> (PointOutcome, Option<u64>) {
                self.budget.charge_nodes(1);
                self.inner.run(coord, budget, seeds)
            }
        }
        let budget = mcs_ctl::Budget::new(mcs_ctl::BudgetSpec::default().max_nodes(1));
        let runner = ChargingRunner {
            inner: FakeRunner::new(),
            budget: budget.clone(),
        };
        let report = sweep(
            &spec(),
            &runner,
            &SweepOptions {
                budget: Some(budget),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.stats.termination,
            mcs_ctl::Termination::BudgetExhausted
        );
        // First wave ([96,96]) ran; the other two waves are skipped.
        assert_eq!(report.stats.run, 3);
        assert_eq!(report.stats.skipped, 6);
        let skipped = report
            .outcomes
            .iter()
            .filter(|o| o.status == PointStatus::Skipped)
            .count();
        assert_eq!(skipped, 6);
        // The lattice stays complete and canonically ordered, and the
        // frontier covers the wave that ran.
        assert_eq!(report.outcomes.len(), 9);
        assert!(!report.frontier.is_empty());
        for o in &report.outcomes {
            if o.status == PointStatus::Skipped {
                assert!(o.outcome.detail.contains("budget-exhausted"));
            }
        }
    }

    #[test]
    fn interrupted_sweeps_are_identical_across_job_counts() {
        let run = |jobs: usize| {
            let budget = mcs_ctl::Budget::new(mcs_ctl::BudgetSpec::default().max_nodes(1));
            struct ChargingRunner {
                inner: FakeRunner,
                budget: mcs_ctl::Budget,
            }
            impl PointRunner for ChargingRunner {
                type Export = u64;
                fn run(
                    &self,
                    coord: PointCoord,
                    budget: &[u32],
                    seeds: &[(PointCoord, std::sync::Arc<u64>)],
                ) -> (PointOutcome, Option<u64>) {
                    self.budget.charge_nodes(1);
                    self.inner.run(coord, budget, seeds)
                }
            }
            let runner = ChargingRunner {
                inner: FakeRunner::new(),
                budget: budget.clone(),
            };
            sweep(
                &spec(),
                &runner,
                &SweepOptions {
                    jobs,
                    budget: Some(budget),
                    ..SweepOptions::default()
                },
            )
            .unwrap()
            .to_json()
        };
        let reference = run(1);
        for jobs in [2usize, 8] {
            assert_eq!(run(jobs), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn deadline_zero_yields_an_empty_but_valid_report() {
        let clock = std::sync::Arc::new(mcs_ctl::ManualClock::new());
        let budget = mcs_ctl::Budget::with_clock(
            mcs_ctl::BudgetSpec::default().deadline_ms(0),
            clock.clone(),
        );
        clock.advance_ms(1);
        let report = sweep(
            &spec(),
            &FakeRunner::new(),
            &SweepOptions {
                budget: Some(budget),
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(
            report.stats.termination,
            mcs_ctl::Termination::DeadlineExceeded
        );
        assert_eq!(report.stats.run, 0);
        assert_eq!(report.stats.skipped, 9);
        assert_eq!(report.outcomes.len(), 9);
        assert!(report.frontier.is_empty());
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let err =
            |s: &SweepSpec| sweep(s, &FakeRunner::new(), &SweepOptions::default()).unwrap_err();
        let mut s = spec();
        s.rates.clear();
        assert_eq!(err(&s), SweepError::EmptyRates);
        let mut s = spec();
        s.rates.push(0);
        assert_eq!(err(&s), SweepError::ZeroRate);
        let mut s = spec();
        s.budgets.clear();
        assert_eq!(err(&s), SweepError::EmptyBudgets);
        let mut s = spec();
        s.budgets[1] = vec![72];
        assert_eq!(err(&s), SweepError::RaggedBudgets);
    }
}
