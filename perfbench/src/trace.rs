//! The benchmark's own span recorder for traced runs.
//!
//! Every public layer call the benchmark makes in a traced pass gets a
//! span: name, start, end, parent span and operation id. Where a flow
//! composes layers privately, the `flow/*` profile nodes the program
//! exports through a connected `MetricsHandle` are grafted under the
//! call's span as aggregated children (their start is the parent's
//! start; only their duration is known). Spans stay in memory and are
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use mcs_metrics::Snapshot;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct SpanRec {
    /// 1-based id, assigned by [`Tracer::push`].
    pub id: u64,
    /// Id of the enclosing span; 0 for an operation's root span.
    pub parent: u64,
    /// Operation id shared by every span of one timed operation.
    pub op: u64,
    /// Measured pass the operation belongs to.
    pub pass: u32,
    /// Span name: the public function called, or a profile path.
    pub name: String,
    /// Layer the span's self time is charged to.
    pub layer: &'static str,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
    /// `true` for grafted profile nodes, whose start is approximate.
    pub aggregated: bool,
}

impl SpanRec {
    fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store, shared by every thread of a traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

/// The layer a program profile node belongs to, by its last path
/// component (`flow/connect` → `connect`).
pub fn profile_layer(path: &str) -> &'static str {
    match path.rsplit('/').next().unwrap_or(path) {
        "connect" => "connect",
        "schedule" => "sched",
        "postsyn" => "postsyn",
        "pin-check" => "pinalloc",
        "resynth" => "resynth",
        "flow" => "flow",
        _ => "other",
    }
}

impl Tracer {
    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Stores `rec` under a fresh id and returns the id.
    pub fn push(&self, mut rec: SpanRec) -> u64 {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking pass");
        rec.id = spans.len() as u64 + 1;
        let id = rec.id;
        spans.push(rec);
        id
    }

    /// Sets the end of the span `id`, pushed while it was still open.
    pub fn finish(&self, id: u64, end_us: f64) {
        let mut spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking pass");
        spans[(id - 1) as usize].end_us = end_us;
    }

    /// Grafts the profile tree of `snap` under the span `parent`.
    pub fn graft_profile(&self, parent: &SpanRec, snap: &Snapshot) {
        let mut ids: BTreeMap<&str, u64> = BTreeMap::new();
        // Profile nodes are sorted by path, so a parent precedes its
        // children.
        for node in &snap.profile {
            let parent_id = node
                .path
                .rsplit_once('/')
                .and_then(|(head, _)| ids.get(head).copied())
                .unwrap_or(parent.id);
            let id = self.push(SpanRec {
                id: 0,
                parent: parent_id,
                op: parent.op,
                pass: parent.pass,
                name: node.path.clone(),
                layer: profile_layer(&node.path),
                start_us: parent.start_us,
                end_us: parent.start_us + node.wall_us as f64,
                aggregated: true,
            });
            ids.insert(&node.path, id);
        }
    }

    /// Self time per layer (µs) over the spans of measured pass `pass`:
    /// each span's duration minus the part its direct children cover.
    /// The `op` entry is the operations' own time outside any layer call.
    pub fn self_us_by_layer(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking pass");
        let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.pass == pass && s.parent != 0) {
            *child_us.entry(s.parent).or_default() += s.duration_us();
        }
        let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.pass == pass) {
            let own = s.duration_us() - child_us.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.layer).or_default() += own;
        }
        out
    }

    /// Total duration (µs) of the operation root spans of pass `pass`.
    pub fn op_wall_us(&self, pass: u32) -> f64 {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking pass");
        spans
            .iter()
            .filter(|s| s.pass == pass && s.parent == 0)
            .map(SpanRec::duration_us)
            .sum()
    }

    /// Durations (µs) of every span named `name` in pass `pass`.
    pub fn durations_us(&self, pass: u32, name: &str) -> Vec<f64> {
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking pass");
        spans
            .iter()
            .filter(|s| s.pass == pass && s.name == name)
            .map(SpanRec::duration_us)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self
            .spans
            .lock()
            .expect("span store poisoned by a panicking pass");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"pass\":{},\"name\":\"{}\",\"layer\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"aggregated\":{}}}",
                s.id, s.parent, s.op, s.pass, s.name, s.layer, s.start_us, s.end_us, s.aggregated
            )?;
        }
        out.flush()
    }
}
