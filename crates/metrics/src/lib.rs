//! # mcs-metrics
//!
//! The one telemetry handle of the `multichip-hls` pipeline.
//!
//! A [`MetricsHandle`] carries everything a layer records: a
//! [`Registry`] of monotonic [`Counter`]s, settable [`Gauge`]s and
//! log-linear [`Histogram`]s (p50/p90/p99/max), a hierarchical span
//! self-profiler that builds a phase → sub-phase wall-time tree, and an
//! optional decision-event sink (an `mcs_obs` [`RecorderHandle`]) for
//! the ordered stream that explains *why* a run went the way it did.
//! Each fact is recorded once: counters and wall time go to the
//! registry, decisions to the sink, and a [`MetricsHandle::span`] feeds
//! both — a profile node, plus a `PhaseBegin`/`PhaseEnd` pair when a
//! sink is attached. The registry is also what a long-running
//! `mcs-serve` daemon scrapes per request.
//!
//! Design points, mirroring the rest of the workspace:
//!
//! * **Zero cost when off.** Instrumentation goes through a
//!   [`MetricsHandle`] whose default holds neither a registry nor a
//!   sink, so it allocates nothing; resolved [`Counter`] /
//!   [`Histogram`] handles are a single `Option` branch when disabled.
//! * **Lock-free recording.** Metric cells are plain relaxed atomics.
//!   The registry's name → cell maps are sharded behind short-lived
//!   locks, but those are touched only at *registration* (once per
//!   site), never on the record path.
//! * **Deterministic when it must be.** All timing flows through the
//!   injected [`mcs_ctl::Clock`] — never `Instant` directly — so a test
//!   registry over a [`mcs_ctl::ManualClock`] produces byte-identical
//!   exports regardless of wall time or worker count.
//!
//! ```
//! use mcs_metrics::{MetricsHandle, Registry};
//! use std::sync::Arc;
//!
//! let reg = Arc::new(Registry::new());
//! let m = MetricsHandle::new(reg.clone());
//! let pivots = m.counter("ilp.pivots");
//! pivots.add(3);
//! m.histogram("probe.latency_us.solver").observe(125);
//! {
//!     let _flow = m.span("flow");
//!     let _conn = m.span("connect");
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["ilp.pivots"], 3);
//! assert_eq!(snap.histograms["probe.latency_us.solver"].count, 1);
//! assert_eq!(snap.profile[0].path, "flow");
//! assert_eq!(snap.profile[1].path, "flow/connect");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod export;

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use mcs_codec::fnv::fnv1a;
use mcs_ctl::{Clock, MonotonicClock};
use mcs_obs::{Event, RecorderHandle};

/// Number of independently locked name → cell map shards. Contention on
/// these only matters at registration time; eight shards keep even a
/// registration storm from serializing.
const SHARDS: usize = 8;

/// Number of histogram buckets: 16 exact small-value buckets plus four
/// log-linear sub-buckets per power of two up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 256;

/// Maps a recorded value to its bucket index.
///
/// Values `0..16` get an exact bucket each; larger values are split by
/// their most-significant bit into octaves with four linear sub-buckets
/// per octave, so the relative quantization error is bounded by 25%
/// while 256 buckets still span all of `u64`.
pub fn bucket_index(v: u64) -> usize {
    if v < 16 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros() as usize; // >= 4
    let sub = ((v >> (msb - 2)) & 3) as usize;
    16 + (msb - 4) * 4 + sub
}

/// The largest value mapping to bucket `index` — the representative the
/// quantile extractor reports for ranks landing in that bucket.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < 16 {
        return index as u64;
    }
    let msb = (index - 16) / 4 + 4;
    let sub = ((index - 16) % 4) as u64;
    let base = 1u64 << msb;
    let chunk = 1u64 << (msb - 2);
    base.wrapping_add((sub + 1).wrapping_mul(chunk))
        .wrapping_sub(1)
}

struct CounterCell {
    value: AtomicU64,
}

struct GaugeCell {
    value: AtomicI64,
}

struct HistogramCell {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl HistogramCell {
    fn new() -> Self {
        HistogramCell {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn observe(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }
}

/// A resolved, lock-free handle to one monotonic counter. The default
/// handle is disconnected: [`Counter::add`] is a single branch.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCell>>);

impl Counter {
    /// Add `n` to the counter (no-op when disconnected).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increment the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disconnected).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Counter({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

/// A resolved, lock-free handle to one settable gauge.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCell>>);

impl Gauge {
    /// Set the gauge to `v` (no-op when disconnected).
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.value.store(v, Ordering::Relaxed);
        }
    }

    /// Add `v` (may be negative) to the gauge.
    #[inline]
    pub fn add(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.value.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if it is below it (peak tracking). Unlike
    /// [`set`](Self::set), the result is independent of the order in
    /// which concurrent writers land, so peak gauges stay deterministic
    /// under parallel sweeps.
    #[inline]
    pub fn set_max(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disconnected).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |g| g.value.load(Ordering::Relaxed))
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", if self.0.is_some() { "on" } else { "off" })
    }
}

/// A resolved, lock-free handle to one log-linear latency histogram.
#[derive(Clone, Default)]
pub struct Histogram(Option<Arc<HistogramCell>>);

impl Histogram {
    /// Record one value (no-op when disconnected).
    #[inline]
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.observe(v);
        }
    }

    /// Whether this handle is connected to a registry cell.
    #[inline]
    pub fn connected(&self) -> bool {
        self.0.is_some()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Histogram({})",
            if self.0.is_some() { "on" } else { "off" }
        )
    }
}

/// Point-in-time copy of one histogram, with deterministic quantile
/// extraction over the bucket counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value — tracked exactly, not bucketed.
    pub max: u64,
    /// Per-bucket counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// The value at quantile `q` (0 < q <= 1): the upper bound of the
    /// bucket holding the rank-`ceil(q * count)` value, clamped to the
    /// exactly tracked `[min, max]` range. Purely a function of the
    /// bucket counts, so identical histograms give identical quantiles
    /// on every platform. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// One node of the span profiler's phase tree.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// `/`-joined path from the root span (`flow/connect`, ...).
    pub path: String,
    /// How many spans closed at this path.
    pub calls: u64,
    /// Total wall time across those spans, in clock microseconds.
    pub wall_us: u64,
}

/// Point-in-time copy of everything a [`Registry`] holds. Maps are
/// ordered so exports are byte-stable.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Span-profiler tree, sorted by path.
    pub profile: Vec<ProfileNode>,
}

#[derive(Default)]
struct ProfileState {
    /// Per-thread stack of open span names; spans nest LIFO within a
    /// thread, so the stack is exactly the open path.
    stacks: HashMap<ThreadId, Vec<&'static str>>,
    nodes: BTreeMap<String, (u64, u64)>,
}

/// The sharded metric registry: owns every cell and the injected clock.
pub struct Registry {
    clock: Arc<dyn Clock>,
    counters: Vec<Mutex<BTreeMap<&'static str, Arc<CounterCell>>>>,
    gauges: Vec<Mutex<BTreeMap<&'static str, Arc<GaugeCell>>>>,
    histograms: Vec<Mutex<BTreeMap<&'static str, Arc<HistogramCell>>>>,
    profile: Mutex<ProfileState>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Registry(now_us={})", self.clock.now_us())
    }
}

impl Registry {
    /// A registry timed by a fresh [`MonotonicClock`].
    pub fn new() -> Self {
        Self::with_clock(Arc::new(MonotonicClock::new()))
    }

    /// A registry over an injected clock. Tests pass a
    /// [`mcs_ctl::ManualClock`] so every recorded duration — and with it
    /// the whole export — is deterministic.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Registry {
            clock,
            counters: (0..SHARDS).map(|_| Mutex::default()).collect(),
            gauges: (0..SHARDS).map(|_| Mutex::default()).collect(),
            histograms: (0..SHARDS).map(|_| Mutex::default()).collect(),
            profile: Mutex::default(),
        }
    }

    /// Microseconds on the registry's clock. All instrumentation timing
    /// must come from here, never from `Instant` directly.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Resolve (registering on first use) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Counter {
        let shard = fnv1a(name.as_bytes()) as usize % SHARDS;
        let mut map = self.counters[shard].lock().expect("metrics counter shard");
        let cell = map
            .entry(name)
            .or_insert_with(|| {
                Arc::new(CounterCell {
                    value: AtomicU64::new(0),
                })
            })
            .clone();
        Counter(Some(cell))
    }

    /// Resolve (registering on first use) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        let shard = fnv1a(name.as_bytes()) as usize % SHARDS;
        let mut map = self.gauges[shard].lock().expect("metrics gauge shard");
        let cell = map
            .entry(name)
            .or_insert_with(|| {
                Arc::new(GaugeCell {
                    value: AtomicI64::new(0),
                })
            })
            .clone();
        Gauge(Some(cell))
    }

    /// Resolve (registering on first use) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        let shard = fnv1a(name.as_bytes()) as usize % SHARDS;
        let mut map = self.histograms[shard]
            .lock()
            .expect("metrics histogram shard");
        let cell = map
            .entry(name)
            .or_insert_with(|| Arc::new(HistogramCell::new()))
            .clone();
        Histogram(Some(cell))
    }

    fn span_begin(&self, name: &'static str) -> (String, u64) {
        let start = self.clock.now_us();
        let mut prof = self.profile.lock().expect("metrics profile lock");
        let stack = prof.stacks.entry(std::thread::current().id()).or_default();
        stack.push(name);
        let path = stack.join("/");
        (path, start)
    }

    fn span_end(&self, path: &str, start: u64) {
        let elapsed = self.clock.now_us().saturating_sub(start);
        let mut prof = self.profile.lock().expect("metrics profile lock");
        let tid = std::thread::current().id();
        if let Some(stack) = prof.stacks.get_mut(&tid) {
            stack.pop();
            if stack.is_empty() {
                prof.stacks.remove(&tid);
            }
        }
        let node = prof.nodes.entry(path.to_string()).or_insert((0, 0));
        node.0 += 1;
        node.1 += elapsed;
    }

    /// Copy out every counter, gauge, histogram and profile node.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for shard in &self.counters {
            for (name, cell) in shard.lock().expect("metrics counter shard").iter() {
                snap.counters
                    .insert((*name).to_string(), cell.value.load(Ordering::Relaxed));
            }
        }
        for shard in &self.gauges {
            for (name, cell) in shard.lock().expect("metrics gauge shard").iter() {
                snap.gauges
                    .insert((*name).to_string(), cell.value.load(Ordering::Relaxed));
            }
        }
        for shard in &self.histograms {
            for (name, cell) in shard.lock().expect("metrics histogram shard").iter() {
                let count = cell.count.load(Ordering::Relaxed);
                let min = cell.min.load(Ordering::Relaxed);
                snap.histograms.insert(
                    (*name).to_string(),
                    HistogramSnapshot {
                        count,
                        sum: cell.sum.load(Ordering::Relaxed),
                        min: if count == 0 { 0 } else { min },
                        max: cell.max.load(Ordering::Relaxed),
                        buckets: cell
                            .buckets
                            .iter()
                            .map(|b| b.load(Ordering::Relaxed))
                            .collect(),
                    },
                );
            }
        }
        let prof = self.profile.lock().expect("metrics profile lock");
        snap.profile = prof
            .nodes
            .iter()
            .map(|(path, &(calls, wall_us))| ProfileNode {
                path: path.clone(),
                calls,
                wall_us,
            })
            .collect();
        snap
    }
}

/// A cheap, clonable handle to an optional registry and an optional
/// decision-event sink, embeddable in configuration structs. The default
/// handle has neither: every operation is a single predicted branch, so
/// instrumented hot paths cost nothing when telemetry is off.
#[derive(Clone, Default)]
pub struct MetricsHandle {
    reg: Option<Arc<Registry>>,
    events: RecorderHandle,
}

impl std::fmt::Debug for MetricsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MetricsHandle({}, events {})",
            if self.reg.is_some() { "active" } else { "off" },
            if self.tracing() { "on" } else { "off" }
        )
    }
}

impl MetricsHandle {
    /// An active handle over a registry.
    pub fn new(reg: Arc<Registry>) -> Self {
        MetricsHandle {
            reg: Some(reg),
            events: RecorderHandle::default(),
        }
    }

    /// This handle with `events` as its decision-event sink. An inactive
    /// `events` handle leaves the current sink in place, so callers can
    /// pass along whatever recorder they were given.
    pub fn with_events(mut self, events: &RecorderHandle) -> Self {
        if events.enabled() {
            self.events = events.clone();
        }
        self
    }

    /// This handle with the event sink detached and the registry kept:
    /// what work on parallel worker threads gets, so the event stream
    /// stays independent of the thread count.
    pub fn without_events(&self) -> Self {
        MetricsHandle {
            reg: self.reg.clone(),
            events: RecorderHandle::default(),
        }
    }

    /// Whether counters, gauges, histograms and spans go to a registry.
    /// Sites with non-trivial value construction should gate on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.reg.is_some()
    }

    /// Whether decision events go to a sink. Sites with non-trivial
    /// payload construction should gate on this.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.events.enabled()
    }

    /// Records one decision event (no-op without a sink).
    #[inline]
    pub fn record(&self, event: Event) {
        self.events.record(event);
    }

    /// Resolve the counter `name` — disconnected (free) when the handle
    /// is off. Hot loops should resolve once and keep the [`Counter`].
    pub fn counter(&self, name: &'static str) -> Counter {
        match &self.reg {
            Some(r) => r.counter(name),
            None => Counter::default(),
        }
    }

    /// Resolve the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match &self.reg {
            Some(r) => r.gauge(name),
            None => Gauge::default(),
        }
    }

    /// Resolve the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        match &self.reg {
            Some(r) => r.histogram(name),
            None => Histogram::default(),
        }
    }

    /// One-shot counter add — resolve and bump. Fine off the hot path;
    /// inside loops resolve a [`Counter`] once instead.
    #[inline]
    pub fn add(&self, name: &'static str, n: u64) {
        if let Some(r) = &self.reg {
            r.counter(name).add(n);
        }
    }

    /// One-shot histogram observation.
    #[inline]
    pub fn observe(&self, name: &'static str, v: u64) {
        if let Some(r) = &self.reg {
            r.histogram(name).observe(v);
        }
    }

    /// One-shot gauge set.
    #[inline]
    pub fn gauge_set(&self, name: &'static str, v: i64) {
        if let Some(r) = &self.reg {
            r.gauge(name).set(v);
        }
    }

    /// One-shot peak-gauge update (order-independent, see
    /// [`Gauge::set_max`]).
    #[inline]
    pub fn gauge_max(&self, name: &'static str, v: i64) {
        if let Some(r) = &self.reg {
            r.gauge(name).set_max(v);
        }
    }

    /// Microseconds on the registry's clock, or 0 when the handle is
    /// off. Latency sites subtract two of these; on an off handle both
    /// are 0 and the difference is never recorded.
    #[inline]
    pub fn now_us(&self) -> u64 {
        match &self.reg {
            Some(r) => r.now_us(),
            None => 0,
        }
    }

    /// Open a profiler span; the returned guard closes it on drop.
    /// Spans nest: a span opened while another is live on the same
    /// thread records under the parent's path (`flow/connect`). With an
    /// event sink attached, the span also records `PhaseBegin` now and
    /// `PhaseEnd` when it closes.
    pub fn span(&self, name: &'static str) -> Span {
        self.events.record(Event::PhaseBegin { phase: name });
        Span {
            state: self.reg.as_ref().map(|r| {
                let (path, start) = r.span_begin(name);
                (r.clone(), path, start)
            }),
            events: self.events.clone(),
            name,
        }
    }
}

/// RAII guard for one profiler span; records calls and wall time at its
/// path, and the closing phase event, when dropped.
pub struct Span {
    state: Option<(Arc<Registry>, String, u64)>,
    events: RecorderHandle,
    name: &'static str,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((reg, path, start)) = self.state.take() {
            reg.span_end(&path, start);
        }
        self.events.record(Event::PhaseEnd { phase: self.name });
    }
}

impl std::fmt::Debug for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.state {
            Some((_, path, _)) => write!(f, "Span({path})"),
            None => write!(f, "Span(off)"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcs_ctl::ManualClock;

    #[test]
    fn off_handle_records_nothing_and_never_panics() {
        let m = MetricsHandle::default();
        assert!(!m.enabled());
        m.add("c", 5);
        m.observe("h", 9);
        m.gauge_set("g", -2);
        let c = m.counter("c");
        c.inc();
        assert_eq!(c.get(), 0);
        assert_eq!(m.now_us(), 0);
        let _s = m.span("flow");
    }

    #[test]
    fn spans_emit_phase_events_only_with_a_sink() {
        use mcs_obs::BufferingRecorder;
        let buf = Arc::new(BufferingRecorder::new());
        let sink = RecorderHandle::new(buf.clone());
        let reg = Arc::new(Registry::with_clock(Arc::new(ManualClock::new())));
        let m = MetricsHandle::new(reg.clone()).with_events(&sink);
        assert!(m.enabled() && m.tracing());
        {
            let _flow = m.span("flow");
            // Worker-thread handles keep the registry, drop the sink.
            let _quiet = m.without_events().span("quiet");
            m.record(Event::WorkerPanic {
                pool: "p",
                worker: 0,
                epoch: 1,
            });
        }
        assert_eq!(
            buf.events(),
            vec![
                Event::PhaseBegin { phase: "flow" },
                Event::WorkerPanic {
                    pool: "p",
                    worker: 0,
                    epoch: 1,
                },
                Event::PhaseEnd { phase: "flow" },
            ]
        );
        let paths: Vec<String> = reg.snapshot().profile.into_iter().map(|n| n.path).collect();
        assert_eq!(paths, ["flow", "flow/quiet"]);
        // An inactive recorder never detaches a live sink; a sink alone
        // traces without a registry.
        let kept = m.clone().with_events(&RecorderHandle::default());
        assert!(kept.tracing());
        let events_only = MetricsHandle::default().with_events(&sink);
        assert!(events_only.tracing() && !events_only.enabled());
        drop(events_only.span("solo"));
        assert_eq!(buf.events().len(), 5);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let reg = Arc::new(Registry::new());
        let m = MetricsHandle::new(reg.clone());
        let c = m.counter("ilp.pivots");
        c.add(41);
        c.inc();
        m.gauge("explore.frontier").set(7);
        m.gauge("explore.frontier").add(-2);
        let h = m.histogram("lat");
        for v in [1u64, 2, 2, 100] {
            h.observe(v);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counters["ilp.pivots"], 42);
        assert_eq!(snap.gauges["explore.frontier"], 5);
        let hs = &snap.histograms["lat"];
        assert_eq!((hs.count, hs.sum, hs.min, hs.max), (4, 105, 1, 100));
    }

    #[test]
    fn peak_gauge_keeps_the_maximum_regardless_of_order() {
        let reg = Arc::new(Registry::new());
        let g = reg.gauge("probe.max_rollback_depth");
        for v in [232, 983, 451] {
            g.set_max(v);
        }
        assert_eq!(g.get(), 983);
        let m = MetricsHandle::new(reg.clone());
        m.gauge_max("probe.max_rollback_depth", 12);
        assert_eq!(reg.snapshot().gauges["probe.max_rollback_depth"], 983);
    }

    #[test]
    fn bucket_index_and_bounds_are_consistent() {
        // Small values are exact.
        for v in 0..16u64 {
            let i = bucket_index(v);
            assert_eq!(i, v as usize);
            assert_eq!(bucket_upper_bound(i), v);
        }
        // Every value lands in a bucket whose range contains it, and
        // bucket upper bounds are strictly increasing.
        for v in [
            16u64,
            17,
            31,
            32,
            63,
            64,
            1000,
            4096,
            123_456_789,
            u64::MAX / 2,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i < HISTOGRAM_BUCKETS, "index {i} for {v}");
            assert!(bucket_upper_bound(i) >= v, "upper bound too small for {v}");
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < v, "lower bucket covers {v}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn quantiles_are_exact_on_small_values() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        // 100 observations of 0..10 — all in exact buckets.
        for v in 0..10u64 {
            for _ in 0..10 {
                h.observe(v);
            }
        }
        let s = &reg.snapshot().histograms["q"];
        assert_eq!(s.quantile(0.5), 4); // rank 50 falls in bucket 4
        assert_eq!(s.quantile(0.9), 8);
        assert_eq!(s.quantile(0.99), 9);
        assert_eq!(s.quantile(1.0), 9);
        assert_eq!(s.max, 9);
    }

    #[test]
    fn quantiles_clamp_to_observed_range() {
        let reg = Registry::new();
        let h = reg.histogram("q");
        h.observe(1000);
        let s = &reg.snapshot().histograms["q"];
        // One sample: every quantile is that sample, not a bucket bound.
        assert_eq!(s.quantile(0.5), 1000);
        assert_eq!(s.quantile(0.99), 1000);
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn spans_build_a_path_tree_with_manual_time() {
        let clock = Arc::new(ManualClock::new());
        let reg = Arc::new(Registry::with_clock(clock.clone()));
        let m = MetricsHandle::new(reg.clone());
        {
            let _flow = m.span("flow");
            clock.advance_us(5);
            {
                let _c = m.span("connect");
                clock.advance_us(10);
            }
            {
                let _s = m.span("schedule");
                clock.advance_us(20);
            }
        }
        {
            let _flow = m.span("flow");
            clock.advance_us(1);
        }
        let snap = reg.snapshot();
        let by_path: BTreeMap<&str, (u64, u64)> = snap
            .profile
            .iter()
            .map(|n| (n.path.as_str(), (n.calls, n.wall_us)))
            .collect();
        assert_eq!(by_path["flow"], (2, 36));
        assert_eq!(by_path["flow/connect"], (1, 10));
        assert_eq!(by_path["flow/schedule"], (1, 20));
    }

    #[test]
    fn recording_is_exact_across_threads() {
        let reg = Arc::new(Registry::new());
        let m = MetricsHandle::new(reg.clone());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    let c = m.counter("shared");
                    let h = m.histogram("hist");
                    for i in 0..1000u64 {
                        c.inc();
                        h.observe(i % 32);
                    }
                });
            }
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counters["shared"], 8000);
        let hs = &snap.histograms["hist"];
        assert_eq!(hs.count, 8000);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 8000);
        assert_eq!((hs.min, hs.max), (0, 31));
    }

    #[test]
    fn manual_clock_registry_is_fully_deterministic() {
        let build = || {
            let reg = Registry::with_clock(Arc::new(ManualClock::new()));
            let h = reg.histogram("lat");
            for v in [3u64, 17, 300] {
                h.observe(v);
            }
            reg.counter("c").add(2);
            export::to_prometheus(&reg.snapshot())
        };
        assert_eq!(build(), build());
    }
}
