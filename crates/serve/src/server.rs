//! The daemon: request dispatch, the worker pool, and the serve loops.
//!
//! `handle_line` is the whole protocol — both the TCP loop and the
//! `--stdio` loop feed it one line at a time, so every behavior is
//! testable without a socket. Control requests (`ping`, `metrics`,
//! `cache`, `shutdown`) and exact cache hits answer inline on the
//! connection thread; `synth`/`explore` jobs go through the two-lane
//! pool ([`crate::pool`]) with admission control.
//!
//! Response bodies are deterministic functions of the request and the
//! cache state: no wall times, thread counts or node counters appear in
//! them, which is what makes responses byte-identical across
//! `--workers` values (the CI gate) and exact-hit replay sound. Timing
//! lives in the metrics registry, scraped via the `metrics` request.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mcs_cdfg::{format, Cdfg};
use mcs_codec::fnv::fnv1a;
use mcs_ctl::{Budget, BudgetSpec, Termination};
use mcs_explore::{PointStatus, SweepOptions, SweepSpec};
use mcs_metrics::export::{to_json, to_prometheus};
use mcs_metrics::{MetricsHandle, Registry};
use mcs_obs::RecorderHandle;
use mcs_pinalloc::{PinAllocError, PinChecker};
use multichip_hls::explore::{run_point, run_sweep, with_pin_budgets, PointRun};
use multichip_hls::flows::{check_rate, FlowError, RunContext, SynthesisResult, WarmStart};
use multichip_hls::resynth;

use crate::cache::{
    effective_budgets, normalized_digest, Lookup, ServeCache, ServeEntry, ServeKey,
};
use crate::json;
use crate::pool::{Lane, WorkerPool};
use crate::proto::{
    error_response, parse_request, with_provenance, ErrorKind, ExploreRequest, JobFlow, Request,
    ResynthRequest, SynthRequest,
};

/// Longest request line the daemon reads, newline excluded. A longer
/// line gets a `parse` error naming this cap, the rest of it is
/// discarded up to the next newline, and the connection keeps serving.
/// The largest request any in-repo client sends (`bench_serve`, the
/// test suites, `perfbench`'s `serve_mix`) is about 4 KiB.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads in the job pool.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before admission control
    /// rejects with `overloaded`.
    pub queue_cap: usize,
    /// Warm-start cache bound, in entries.
    pub cache_entries: usize,
    /// Server-side budget ceilings; every request's budget is
    /// intersected with these ([`BudgetSpec::intersect`]), so a client
    /// cannot ask for more runtime than the operator allows.
    pub caps: BudgetSpec,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            cache_entries: 256,
            caps: BudgetSpec::default(),
        }
    }
}

/// The daemon state shared by every connection.
pub struct Server {
    pool: WorkerPool,
    cache: Arc<ServeCache>,
    registry: Arc<Registry>,
    metrics: MetricsHandle,
    caps: BudgetSpec,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Builds a daemon from `cfg` with its own metrics registry.
    pub fn new(cfg: ServeConfig) -> Server {
        let registry = Arc::new(Registry::new());
        let metrics = MetricsHandle::new(registry.clone());
        Server {
            pool: WorkerPool::new(cfg.workers, cfg.queue_cap, &metrics),
            cache: Arc::new(ServeCache::new(cfg.cache_entries)),
            registry,
            metrics,
            caps: cfg.caps,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The warm-start cache (exposed for tests and the bench harness).
    pub fn cache(&self) -> &ServeCache {
        &self.cache
    }

    /// The daemon's metrics registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// `true` once a `shutdown` request was accepted.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Handles one request line and returns the response line.
    pub fn handle_line(&self, line: &str) -> String {
        let started = self.registry.now_us();
        self.metrics.add("serve.requests", 1);
        let req = match parse_request(line) {
            Ok(r) => r,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let response = match req {
            Request::Ping => "{\"ok\":true,\"cmd\":\"ping\"}".to_string(),
            Request::Metrics(prometheus) => self.metrics_response(prometheus),
            Request::CacheStats => self.cache_response(),
            Request::Shutdown => {
                self.stop.store(true, Ordering::SeqCst);
                "{\"ok\":true,\"cmd\":\"shutdown\"}".to_string()
            }
            Request::Synth(req) => self.synth_response(req),
            Request::Explore(req) => self.explore_response(req),
            Request::Resynth(req) => self.resynth_response(req),
        };
        self.metrics
            .observe("serve.request_us", self.registry.now_us() - started);
        response
    }

    fn metrics_response(&self, prometheus: bool) -> String {
        self.metrics
            .gauge_set("serve.cache.entries", self.cache.len() as i64);
        self.metrics
            .gauge_set("serve.cache.evictions", self.cache.evictions() as i64);
        let snap = self.registry.snapshot();
        if prometheus {
            format!(
                "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"prometheus\",\"registry\":\"{}\"}}",
                json::escape(&to_prometheus(&snap))
            )
        } else {
            format!(
                "{{\"ok\":true,\"cmd\":\"metrics\",\"format\":\"json\",\"registry\":{}}}",
                to_json(&snap)
            )
        }
    }

    fn cache_response(&self) -> String {
        format!(
            "{{\"ok\":true,\"cmd\":\"cache\",\"entries\":{},\"capacity\":{},\"evictions\":{}}}",
            self.cache.len(),
            self.cache.capacity(),
            self.cache.evictions()
        )
    }

    /// Parses the design text and applies a per-chip budget override.
    fn prepare_design(
        design: &str,
        pin_budget: Option<&[u32]>,
    ) -> Result<Cdfg, (ErrorKind, String)> {
        let parsed =
            format::parse(design).map_err(|e| (ErrorKind::BadRequest, format!("design: {e}")))?;
        let cdfg = parsed.cdfg();
        let Some(budget) = pin_budget else {
            return Ok(cdfg.clone());
        };
        let chips = cdfg.partition_count().saturating_sub(1);
        if budget.len() != chips {
            return Err((
                ErrorKind::BadRequest,
                format!(
                    "pin_budget has {} entries but the design has {chips} chips",
                    budget.len()
                ),
            ));
        }
        Ok(with_pin_budgets(cdfg, budget))
    }

    /// The per-request execution budget: the client's ask clamped by
    /// the server caps. Each job gets its own ledger (and with it its
    /// own deadline clock and cancel token).
    fn job_budget(&self, requested: &BudgetSpec) -> Option<Budget> {
        let effective = self.caps.intersect(requested);
        if effective.is_unlimited() {
            None
        } else {
            Some(Budget::new(effective))
        }
    }

    fn synth_response(&self, req: SynthRequest) -> String {
        self.metrics.add("serve.jobs.synth", 1);
        let cdfg = match Self::prepare_design(&req.design, req.pin_budget.as_deref())
            .and_then(|cdfg| refuse_oversized_rate(&cdfg, req.rate).map(|()| cdfg))
        {
            Ok(c) => c,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let digest = normalized_digest(&cdfg);
        let key = ServeKey::synth(digest, req.flow, req.rate, effective_budgets(&cdfg));
        let (seeds, provenance) = match self.cache.lookup(&key) {
            Lookup::Hit(body) => {
                self.metrics.add("serve.hits.exact", 1);
                return with_provenance(&body, "hit");
            }
            Lookup::Warm(seeds) => {
                self.metrics.add("serve.hits.seed", 1);
                (seeds, "warm")
            }
            Lookup::Cold => {
                self.metrics.add("serve.misses", 1);
                (WarmStart::default(), "cold")
            }
        };
        let ctx = RunContext {
            budget: self.job_budget(&req.budget),
            metrics: self.metrics.clone(),
            warm: seeds,
        };
        let cache = self.cache.clone();
        let job = Box::new(move || {
            let (core, termination, exports) = run_synth(&cdfg, digest, req.rate, req.flow, &ctx);
            if termination == Termination::Complete {
                cache.insert(
                    key,
                    ServeEntry {
                        exports,
                        body: core.clone(),
                    },
                );
            }
            with_provenance(&core, provenance)
        });
        self.run_job(Lane::Cheap, job)
    }

    fn explore_response(&self, req: ExploreRequest) -> String {
        self.metrics.add("serve.jobs.explore", 1);
        let cdfg = match Self::prepare_design(&req.design, None) {
            Ok(c) => c,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let digest = normalized_digest(&cdfg);
        let key = ServeKey::explore(digest, req.flow, &req.rates, &req.pin_budgets);
        match self.cache.lookup(&key) {
            Lookup::Hit(body) => {
                self.metrics.add("serve.hits.exact", 1);
                return with_provenance(&body, "hit");
            }
            Lookup::Warm(_) | Lookup::Cold => self.metrics.add("serve.misses", 1),
        }
        let budget = self.job_budget(&req.budget);
        let cache = self.cache.clone();
        let metrics = self.metrics.clone();
        let job = Box::new(move || {
            let (core, termination) = match run_explore(&cdfg, digest, &req, budget, &metrics) {
                Ok(r) => r,
                // Lattice validation failed; the error line is final.
                Err(line) => return line,
            };
            if termination == Termination::Complete {
                cache.insert(
                    key,
                    ServeEntry {
                        body: core.clone(),
                        ..ServeEntry::default()
                    },
                );
            }
            with_provenance(&core, "cold")
        });
        self.run_job(Lane::Expensive, job)
    }

    /// A resynth job: validate the `(design, prev, edit)` triple on the
    /// connection thread, then run the incremental ladder in the cheap
    /// lane. The cache key is `(parent digest, prev digest, delta
    /// digest)`, where the prev digest is taken over the *canonical*
    /// re-rendering of the saved result — two textually different but
    /// semantically identical `prev` bodies share an entry.
    fn resynth_response(&self, req: ResynthRequest) -> String {
        self.metrics.add("serve.jobs.resynth", 1);
        let bad = |metrics: &MetricsHandle, detail: String| {
            metrics.add("serve.errors", 1);
            error_response(ErrorKind::BadRequest, &detail)
        };
        let cdfg = match Self::prepare_design(&req.design, None) {
            Ok(c) => c,
            Err((kind, detail)) => {
                self.metrics.add("serve.errors", 1);
                return error_response(kind, &detail);
            }
        };
        let saved = match resynth::result_from_json(&req.prev) {
            Ok(s) => s,
            Err(e) => return bad(&self.metrics, format!("prev: {e}")),
        };
        let digest = mcs_cdfg::fuzz::design_digest(&cdfg);
        if saved.design_digest != digest {
            return bad(
                &self.metrics,
                format!(
                    "prev: saved result is for design digest {:#018x}, \
                     but the submitted design has digest {digest:#018x}",
                    saved.design_digest
                ),
            );
        }
        let delta = match mcs_cdfg::delta::DesignDelta::parse(&req.edit) {
            Ok(d) => d,
            Err(e) => return bad(&self.metrics, format!("edit: {e}")),
        };
        let rate = delta.rate_override().unwrap_or(saved.result.schedule.rate);
        if let Err((_, detail)) = refuse_oversized_rate(&cdfg, rate) {
            return bad(&self.metrics, detail);
        }
        let prev_canon = resynth::result_to_json(digest, &saved.result);
        let key = ServeKey::resynth(digest, fnv1a(prev_canon.as_bytes()), delta.digest());
        match self.cache.lookup(&key) {
            Lookup::Hit(body) => {
                self.metrics.add("serve.hits.exact", 1);
                return with_provenance(&body, "hit");
            }
            Lookup::Warm(_) | Lookup::Cold => self.metrics.add("serve.misses", 1),
        }
        let cache = self.cache.clone();
        let metrics = self.metrics.clone();
        let job = Box::new(move || {
            let core = run_resynth(&cdfg, digest, &saved.result, &delta, &metrics);
            // Resynthesis is budget-free and deterministic, so every
            // outcome (including a definitive failure) is cacheable.
            cache.insert(
                key,
                ServeEntry {
                    body: core.clone(),
                    ..ServeEntry::default()
                },
            );
            with_provenance(&core, "cold")
        });
        self.run_job(Lane::Cheap, job)
    }

    fn run_job(&self, lane: Lane, job: crate::pool::Job) -> String {
        match self.pool.submit(lane, job) {
            Ok(rx) => rx.recv().unwrap_or_else(|_| {
                error_response(ErrorKind::ShuttingDown, "daemon stopped before the job ran")
            }),
            Err(line) => {
                self.metrics.add("serve.rejected", 1);
                line
            }
        }
    }

    /// Serves newline-delimited requests from `input` to `output` until
    /// EOF or a `shutdown` request — the `--stdio` sandbox mode, also
    /// the deterministic harness the integration tests script against.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures on either stream.
    pub fn serve_stdio<R: BufRead, W: Write>(&self, mut input: R, mut output: W) -> io::Result<()> {
        let mut lines = LineReader::default();
        while let Some(line) = lines.next_line(&mut input)? {
            let Some(response) = self.respond(line) else {
                continue;
            };
            writeln!(output, "{response}")?;
            output.flush()?;
            if self.stop_requested() {
                break;
            }
        }
        self.pool.shutdown();
        Ok(())
    }

    /// The response to one line read off the wire; `None` for a blank
    /// line. A line the reader refused gets a `parse` error.
    fn respond(&self, line: Result<String, String>) -> Option<String> {
        match line {
            Ok(line) if line.trim().is_empty() => None,
            Ok(line) => Some(self.handle_line(line.trim())),
            Err(detail) => {
                self.metrics.add("serve.requests", 1);
                self.metrics.add("serve.errors", 1);
                Some(error_response(ErrorKind::Parse, &detail))
            }
        }
    }

    /// Accept loop: one thread per connection, shared dispatch. Returns
    /// after a `shutdown` request has been accepted and every
    /// connection thread has exited.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.stop_requested() {
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = self.clone();
                    connections.push(std::thread::spawn(move || server.serve_connection(stream)));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => {}
            }
            connections.retain(|h| !h.is_finished());
        }
        for h in connections {
            let _ = h.join();
        }
        self.pool.shutdown();
        Ok(())
    }

    fn serve_connection(&self, stream: TcpStream) {
        let _ = stream.set_nodelay(true);
        if stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .is_err()
        {
            return;
        }
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut lines = LineReader::default();
        loop {
            if self.stop_requested() {
                return;
            }
            match lines.next_line(&mut reader) {
                Ok(None) => return,
                Ok(Some(line)) => {
                    let Some(mut response) = self.respond(line) else {
                        continue;
                    };
                    // One write per response: `writeln!` on the unbuffered
                    // stream would spend a second syscall and segment on
                    // the newline. (Nodelay is set, so it never stalls.)
                    response.push('\n');
                    if writer.write_all(response.as_bytes()).is_err() {
                        return;
                    }
                }
                // Timeout or interrupted read: poll the stop flag and
                // keep waiting. A partially read line stays in `lines`
                // and completes on the next pass.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) =>
                {
                    continue;
                }
                Err(_) => return,
            }
        }
    }
}

/// Reads newline-terminated request lines of at most
/// [`MAX_LINE_BYTES`], buffering a partial line across read timeouts.
#[derive(Default)]
struct LineReader {
    buf: Vec<u8>,
    /// The current line outgrew the cap; its bytes are being discarded
    /// up to the next newline.
    overflow: bool,
}

impl LineReader {
    /// The next line without its newline: `Err` with a `parse` detail
    /// for an over-long or non-UTF-8 line, `Ok(None)` at end of input.
    /// A final line without a newline still counts.
    ///
    /// # Errors
    ///
    /// Read failures, including timeouts; the partial line stays
    /// buffered for the next call.
    fn next_line<R: BufRead>(
        &mut self,
        input: &mut R,
    ) -> io::Result<Option<Result<String, String>>> {
        loop {
            let chunk = input.fill_buf()?;
            if chunk.is_empty() {
                if self.buf.is_empty() && !self.overflow {
                    return Ok(None);
                }
                return Ok(Some(self.take()));
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let data = &chunk[..newline.unwrap_or(chunk.len())];
            if self.buf.len() + data.len() > MAX_LINE_BYTES {
                self.overflow = true;
                self.buf = Vec::new();
            } else if !self.overflow {
                self.buf.extend_from_slice(data);
            }
            match newline {
                Some(i) => {
                    input.consume(i + 1);
                    return Ok(Some(self.take()));
                }
                None => {
                    let n = chunk.len();
                    input.consume(n);
                }
            }
        }
    }

    fn take(&mut self) -> Result<String, String> {
        let line = std::mem::take(&mut self.buf);
        if std::mem::take(&mut self.overflow) {
            return Err(format!("request line exceeds {MAX_LINE_BYTES} bytes"));
        }
        String::from_utf8(line).map_err(|_| "request line is not valid UTF-8".into())
    }
}

fn flow_label(digest: u64) -> String {
    format!("{digest:016x}")
}

fn detail_extra(detail: &str) -> String {
    format!(",\"detail\":\"{}\"", json::escape(detail))
}

/// Runs one synth job through the sweep's point runner, [`run_point`].
/// Returns the canonical response core, how the run terminated (only
/// [`Termination::Complete`] results are cacheable), and the warm-start
/// exports to publish. The context's budget covers the flow and the exact
/// pin checker that explains a failure — on adversarial designs that
/// checker's solve alone can exceed any deadline, and a daemon must be
/// able to interrupt it.
fn run_synth(
    cdfg: &Cdfg,
    digest: u64,
    rate: u32,
    flow: JobFlow,
    ctx: &RunContext,
) -> (String, Termination, WarmStart) {
    let PointRun {
        point,
        outcome,
        export,
    } = run_point(cdfg, flow.variant(), rate, ctx);
    let (status, extra) = match (&outcome.result, point.status) {
        (Err(FlowError::Interrupted(_)), _) => (
            "interrupted",
            format!(
                ",\"best_depth\":{},\"best_buses\":{}",
                outcome.best_depth, outcome.best_buses
            ),
        ),
        (Ok(result), Some(PointStatus::Feasible)) => (
            "feasible",
            format!(
                ",\"latency\":{},\"total_pins\":{},\"buses\":{},\"registers\":{},\"reassigned\":{}",
                result.pipe_length,
                point.total_pins.unwrap_or_default(),
                point.buses.unwrap_or_default(),
                point.registers.unwrap_or_default(),
                result.reassigned
            ),
        ),
        (_, status) => (
            status.map_or("error", PointStatus::as_str),
            detail_extra(&point.detail),
        ),
    };
    let core = format!(
        "{{\"ok\":true,\"cmd\":\"synth\",\"design\":\"{}\",\"rate\":{rate},\"flow\":\"{}\",\"status\":\"{status}\",\"termination\":\"{}\"{extra}}}",
        flow_label(digest),
        flow.as_str(),
        outcome.termination.name()
    );
    (core, outcome.termination, export.unwrap_or_default())
}

/// Refuses, as a `bad-request` on the connection thread before any job
/// is queued or cached, a rate whose pin-allocation tableau would pass
/// [`mcs_pinalloc::MAX_TABLEAU_VARS`] or one over the flows' ceiling
/// ([`check_rate`]). The point runner behind a synth job and a
/// simple-flow resynthesis refuse the first, and every flow and the
/// resynthesis ladder the second, so no such job could finish; a
/// connect-flow resynthesis is held to the same rules. Other checker
/// errors (a zero rate) are left to the job.
fn refuse_oversized_rate(cdfg: &Cdfg, rate: u32) -> Result<(), (ErrorKind, String)> {
    match PinChecker::tableau_vars(cdfg, rate) {
        Err(e @ PinAllocError::TableauTooLarge { .. }) => {
            Err((ErrorKind::BadRequest, format!("rate: {e}")))
        }
        _ => check_rate(rate).map_err(|e| (ErrorKind::BadRequest, format!("rate: {e}"))),
    }
}

/// Runs one resynth job: the incremental ladder, with the path taken,
/// the dirty-region size and the reuse telemetry in the response body.
/// All of those are deterministic functions of the inputs, so the body
/// stays exact-replay-sound.
fn run_resynth(
    cdfg: &Cdfg,
    digest: u64,
    prev: &SynthesisResult,
    delta: &mcs_cdfg::delta::DesignDelta,
    metrics: &MetricsHandle,
) -> String {
    let head = format!(
        "{{\"ok\":true,\"cmd\":\"resynth\",\"design\":\"{}\",\"delta\":\"{:016x}\"",
        flow_label(digest),
        delta.digest()
    );
    match resynth::resynth_flow_traced(cdfg, prev, delta, &RecorderHandle::default(), metrics) {
        Ok(out) => {
            let total_pins: u32 = out.result.pins_used.iter().skip(1).sum();
            format!(
                "{head},\"status\":\"feasible\",\"path\":\"{}\",\"rate\":{},\"latency\":{},\
                 \"total_pins\":{total_pins},\"buses\":{},\"dirty_ops\":{},\
                 \"dirty_transfers\":{},\"reused\":{},\"fresh\":{},\
                 \"replayed_commits\":{},\"rollbacks\":{}}}",
                out.path,
                out.result.schedule.rate,
                out.result.pipe_length,
                out.result.interconnect.buses.len(),
                out.dirty.ops.len(),
                out.dirty.transfers.len(),
                out.stats.reused_assignments,
                out.stats.fresh_assignments,
                out.stats.replayed_commits,
                out.stats.rollbacks,
            )
        }
        Err(e) => format!(
            "{head},\"status\":\"error\"{}}}",
            detail_extra(&e.to_string())
        ),
    }
}

/// Runs one explore job: a single-worker sweep (request concurrency
/// comes from the pool, point determinism from `jobs: 1`).
///
/// # Errors
///
/// The `bad-request` response line, when the lattice is invalid.
fn run_explore(
    cdfg: &Cdfg,
    digest: u64,
    req: &ExploreRequest,
    budget: Option<Budget>,
    metrics: &MetricsHandle,
) -> Result<(String, Termination), String> {
    let spec = SweepSpec {
        design: flow_label(digest),
        flow: req.flow.variant(),
        rates: req.rates.clone(),
        budgets: req.pin_budgets.clone(),
    };
    let opts = SweepOptions {
        jobs: 1,
        prune: true,
        budget,
        metrics: metrics.clone(),
    };
    match run_sweep(cdfg, &spec, &opts, &RecorderHandle::default()) {
        Ok(report) => {
            let termination = report.stats.termination;
            let core = format!(
                "{{\"ok\":true,\"cmd\":\"explore\",\"design\":\"{}\",\"flow\":\"{}\",\"termination\":\"{}\",\"points\":{},\"feasible\":{},\"frontier\":{},\"report\":{}}}",
                flow_label(digest),
                req.flow.as_str(),
                termination.name(),
                report.stats.points,
                report.stats.feasible,
                report.frontier.len(),
                report.to_json()
            );
            Ok((core, termination))
        }
        Err(e) => Err(error_response(ErrorKind::BadRequest, &e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serves `chunks` one read at a time with a timeout between every
    /// two, the way a slow TCP client looks to the reader.
    struct Trickle {
        chunks: Vec<Vec<u8>>,
        next: usize,
        stalled: bool,
    }

    impl io::Read for Trickle {
        fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
            unreachable!("LineReader reads through BufRead")
        }
    }

    impl BufRead for Trickle {
        fn fill_buf(&mut self) -> io::Result<&[u8]> {
            self.stalled = !self.stalled;
            if self.stalled {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            Ok(self.chunks.get(self.next).map_or(&[], Vec::as_slice))
        }

        fn consume(&mut self, n: usize) {
            let chunk = &mut self.chunks[self.next];
            chunk.drain(..n);
            if chunk.is_empty() {
                self.next += 1;
            }
        }
    }

    #[test]
    fn line_reader_reassembles_lines_across_timeouts_and_caps_them() {
        let long = vec![b'x'; MAX_LINE_BYTES + 1];
        let mut input = Trickle {
            chunks: vec![
                b"{\"cmd\":".to_vec(),
                b"\"ping\"}\n{\"a\"".to_vec(),
                b":1}\n".to_vec(),
                long[..MAX_LINE_BYTES / 2].to_vec(),
                long[MAX_LINE_BYTES / 2..].to_vec(),
                b"\nlast".to_vec(),
                vec![0xff, b'\n'],
            ],
            next: 0,
            stalled: false,
        };
        let mut lines = LineReader::default();
        let mut got = Vec::new();
        loop {
            match lines.next_line(&mut input) {
                Ok(Some(line)) => got.push(line),
                Ok(None) => break,
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock),
            }
        }
        assert_eq!(
            got,
            [
                Ok("{\"cmd\":\"ping\"}".to_string()),
                Ok("{\"a\":1}".to_string()),
                Err(format!("request line exceeds {MAX_LINE_BYTES} bytes")),
                Err("request line is not valid UTF-8".to_string()),
            ]
        );
    }
}
