//! Cross-crate metrics contracts: the always-on registry under
//! multi-threaded hammering, and the determinism guarantee that metric
//! exports are byte-identical however many sweep workers run.

use std::sync::Arc;

use mcs_cdfg::format;
use mcs_codec::json;
use mcs_ctl::ManualClock;
use multichip_hls::explore::run_sweep;
use multichip_hls::explore_engine::{FlowVariant, SweepOptions, SweepSpec};
use multichip_hls::metrics::{export as metrics_export, MetricsHandle, Registry};
use multichip_hls::obs::{export as obs_export, BufferingRecorder, Event, RecorderHandle};

/// 8 threads hammer one telemetry handle — a registry plus an event
/// sink — concurrently. Counter totals must be exact (no lost updates),
/// histogram counts must account for every observation, every decision
/// and phase event must land in the sink, and both trace export formats
/// must still pass the strict in-tree JSON validator.
#[test]
fn stress_eight_threads_exact_totals_and_valid_exports() {
    const THREADS: u64 = 8;
    const ROUNDS: u64 = 10_000;

    let reg = Arc::new(Registry::new());
    let buf = Arc::new(BufferingRecorder::with_capacity(1 << 20));
    let metrics = MetricsHandle::new(reg.clone()).with_events(&RecorderHandle::new(buf.clone()));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let metrics = metrics.clone();
            scope.spawn(move || {
                // Resolved handles, the hot-loop pattern.
                let pivots = metrics.counter("ilp.pivots");
                let latency = metrics.histogram("probe.latency_us.solver");
                let depth = metrics.gauge("stress.depth");
                for i in 0..ROUNDS {
                    pivots.inc();
                    latency.observe(t * ROUNDS + i);
                    depth.set(i as i64);
                    let _span = metrics.span("stress");
                    if i % 64 == 0 {
                        metrics.record(Event::WorkerPanic {
                            pool: "stress",
                            worker: t as u32,
                            epoch: i as u32,
                        });
                    }
                }
            });
        }
    });

    let snap = reg.snapshot();
    assert_eq!(snap.counters["ilp.pivots"], THREADS * ROUNDS);
    let h = &snap.histograms["probe.latency_us.solver"];
    assert_eq!(h.count, THREADS * ROUNDS);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, THREADS * ROUNDS - 1);
    // Sum of 0..N-1 exactly, no lost observations.
    let n = THREADS * ROUNDS;
    assert_eq!(h.sum, n * (n - 1) / 2);
    assert!((0..ROUNDS as i64).contains(&snap.gauges["stress.depth"]));
    let spans: u64 = snap
        .profile
        .iter()
        .filter(|p| p.path == "stress")
        .map(|p| p.calls)
        .sum();
    assert_eq!(spans, THREADS * ROUNDS);

    // The event sink took the same hammering: every decision and every
    // span's phase pair arrived, none was dropped, and both export
    // formats must still be strict JSON.
    assert_eq!(buf.dropped(), 0);
    let events = buf.events();
    let decisions = events
        .iter()
        .filter(|e| matches!(e, Event::WorkerPanic { pool: "stress", .. }))
        .count() as u64;
    assert_eq!(decisions, THREADS * ROUNDS.div_ceil(64));
    let phases = events
        .iter()
        .filter(|e| matches!(e, Event::PhaseBegin { .. } | Event::PhaseEnd { .. }))
        .count() as u64;
    assert_eq!(phases, 2 * THREADS * ROUNDS);
    let timed = buf.timed_events();
    json::parse(&obs_export::chrome_trace(&timed)).expect("chrome export valid");
    for (i, line) in obs_export::jsonl(&timed).lines().enumerate() {
        json::parse(line).unwrap_or_else(|e| panic!("jsonl line {i}: {e}"));
    }

    // The metrics JSON export survives the same validator.
    metrics_export::to_json(&snap);
}

/// The acceptance determinism gate: sweeping the elliptic benchmark at
/// `--jobs 1/2/8` under a manual clock produces byte-identical metric
/// exports — counter totals, histogram percentiles, gauges and the span
/// profile — in both the JSON and the Prometheus text format.
#[test]
fn elliptic_sweep_metrics_identical_across_jobs() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/benchmarks/elliptic.mcs"),
    )
    .expect("elliptic benchmark present");
    let design = format::parse(&text).expect("benchmark parses");
    let cdfg = design.cdfg();

    let spec = SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: vec![5, 6],
        budgets: vec![vec![48, 48, 64, 48, 48], vec![32, 48, 64, 48, 48]],
    };

    let export_at = |jobs: usize| -> (String, String) {
        let reg = Arc::new(Registry::with_clock(Arc::new(ManualClock::new())));
        let opts = SweepOptions {
            jobs,
            metrics: MetricsHandle::new(reg.clone()),
            ..SweepOptions::default()
        };
        run_sweep(cdfg, &spec, &opts, &RecorderHandle::default()).expect("sweep runs");
        let snap = reg.snapshot();
        (
            metrics_export::to_json(&snap),
            metrics_export::to_prometheus(&snap),
        )
    };

    let (json1, prom1) = export_at(1);
    let (json2, prom2) = export_at(2);
    let (json8, prom8) = export_at(8);
    assert_eq!(json1, json2, "JSON export differs between jobs 1 and 2");
    assert_eq!(json1, json8, "JSON export differs between jobs 1 and 8");
    assert_eq!(
        prom1, prom2,
        "Prometheus export differs between jobs 1 and 2"
    );
    assert_eq!(
        prom1, prom8,
        "Prometheus export differs between jobs 1 and 8"
    );

    // Sanity: the run actually aggregated synthesis metrics.
    assert!(prom1.contains("explore_points"), "{prom1}");
    assert!(prom1.contains("connect_epoch_us_count"), "{prom1}");
    assert!(prom1.contains("profile_wall_us"), "{prom1}");
}

/// The event-stream half of the sweep determinism gate: per-point flows
/// run on sweep worker threads without the event sink, so a sweep traced
/// through a live recorder produces the same decision stream at `--jobs
/// 1/2/8` — the `explore` phase pair and nothing a worker recorded.
#[test]
fn elliptic_sweep_event_stream_identical_across_jobs() {
    let text = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/benchmarks/elliptic.mcs"),
    )
    .expect("elliptic benchmark present");
    let design = format::parse(&text).expect("benchmark parses");
    let spec = SweepSpec {
        design: "elliptic".into(),
        flow: FlowVariant::ConnectFirst,
        rates: vec![5, 6],
        budgets: vec![vec![48, 48, 64, 48, 48], vec![32, 48, 64, 48, 48]],
    };

    let events_at = |jobs: usize| -> Vec<Event> {
        let buf = Arc::new(BufferingRecorder::new());
        let opts = SweepOptions {
            jobs,
            metrics: MetricsHandle::new(Arc::new(Registry::new())),
            ..SweepOptions::default()
        };
        run_sweep(
            design.cdfg(),
            &spec,
            &opts,
            &RecorderHandle::new(buf.clone()),
        )
        .expect("sweep runs");
        buf.events()
    };

    let reference = events_at(1);
    assert_eq!(
        reference,
        vec![
            Event::PhaseBegin { phase: "explore" },
            Event::PhaseEnd { phase: "explore" },
        ]
    );
    assert_eq!(events_at(2), reference, "event stream differs at jobs 2");
    assert_eq!(events_at(8), reference, "event stream differs at jobs 8");
}
