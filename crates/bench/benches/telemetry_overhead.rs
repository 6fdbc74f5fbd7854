//! Measures what the telemetry handle costs the pipeline: the
//! connect-first flow on the AR filter with (a) the default handle — no
//! registry, no event sink, one dead `Option` branch per instrumentation
//! site, (b) a live registry aggregating counters, histograms and the
//! span profile, and (c) the registry plus a buffering event sink
//! capturing every decision and phase event. The design target is that
//! (a) costs nothing measurable and (b) and (c) stay within a few
//! percent of it.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcs_cdfg::{designs::ar_filter, PortMode};
use multichip_hls::flows::{connect_first_flow, ConnectFirstOptions};
use multichip_hls::metrics::{MetricsHandle, Registry};
use multichip_hls::obs::{BufferingRecorder, RecorderHandle};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("telemetry_overhead");
    g.sample_size(20);
    let rate = 3;
    let d = ar_filter::general(rate, PortMode::Unidirectional);
    let run = |metrics: MetricsHandle| {
        let mut opts = ConnectFirstOptions::new(rate);
        opts.metrics = metrics;
        connect_first_flow(d.cdfg(), &opts).expect("flow succeeds")
    };

    g.bench_function(BenchmarkId::new("connect_first", "off"), |b| {
        b.iter(|| run(MetricsHandle::default()))
    });
    g.bench_function(BenchmarkId::new("connect_first", "registry"), |b| {
        b.iter(|| {
            let reg = Arc::new(Registry::new());
            let r = run(MetricsHandle::new(reg.clone()));
            let snap = reg.snapshot();
            assert!(!snap.counters.is_empty());
            assert!(!snap.profile.is_empty());
            r
        })
    });
    g.bench_function(
        BenchmarkId::new("connect_first", "registry_and_events"),
        |b| {
            b.iter(|| {
                let reg = Arc::new(Registry::new());
                let buf = Arc::new(BufferingRecorder::new());
                let metrics =
                    MetricsHandle::new(reg.clone()).with_events(&RecorderHandle::new(buf.clone()));
                let r = run(metrics);
                assert!(!reg.snapshot().profile.is_empty());
                assert!(!buf.events().is_empty());
                r
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
