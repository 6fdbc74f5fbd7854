//! # mcs-bench
//!
//! The experiment harness: one function per table/figure family of the
//! paper's evaluation (see `DESIGN.md`'s experiment index). The `tables`
//! binary prints them; the Criterion benches measure the synthesis run
//! time of the same experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;

use std::fmt::Write as _;
use std::hash::Hasher;

use mcs_cdfg::{designs, timing, PartitionId, PortMode};
use mcs_codec::fnv::Fnv;
use mcs_conditional::{conditional_sharing_sets, CondShareConfig};
use mcs_connect::{Bus, BusAssignment, Interconnect, SubRange};
use mcs_sched::{list_schedule, AllocationWheel, BusPolicy, ListConfig};
use multichip_hls::flows::{
    connect_first_flow, schedule_first_flow, simple_flow, ConnectFirstOptions, SynthesisResult,
};
use multichip_hls::report::{
    render_bus_allocation, render_bus_assignment, render_interconnect, render_schedule, Table,
};

/// All experiment ids, in presentation order.
pub const EXPERIMENTS: &[&str] = &[
    "e3_1",
    "e4_uni",
    "e4_uni_detail",
    "e4_bi",
    "e4_bi_detail",
    "e4_ewf_uni",
    "e4_ewf_bi",
    "e5_ar",
    "e5_ar_ch4",
    "e5_ewf",
    "e5_ewf_ch4",
    "e6_detail",
    "e6_compare",
    "e7_recursive",
    "e7_conditional",
    "e7_wheel",
    "e7_tdm",
];

/// Runs one experiment by id and returns its report.
///
/// # Panics
///
/// Panics on an unknown experiment id.
pub fn run_experiment(id: &str) -> String {
    match id {
        "e3_1" => e3_1(),
        "e4_uni" => e4_summary(PortMode::Unidirectional),
        "e4_uni_detail" => e4_detail(PortMode::Unidirectional),
        "e4_bi" => e4_summary(PortMode::Bidirectional),
        "e4_bi_detail" => e4_detail(PortMode::Bidirectional),
        "e4_ewf_uni" => e4_ewf(PortMode::Unidirectional),
        "e4_ewf_bi" => e4_ewf(PortMode::Bidirectional),
        "e5_ar" => e5_ar(),
        "e5_ar_ch4" => e5_ar_ch4(),
        "e5_ewf" => e5_ewf(),
        "e5_ewf_ch4" => e5_ewf_ch4(),
        "e6_detail" => e6_detail(),
        "e6_compare" => e6_compare(),
        "e7_recursive" => e7_recursive(),
        "e7_conditional" => e7_conditional(),
        "e7_wheel" => e7_wheel(),
        "e7_tdm" => e7_tdm(),
        other => panic!("unknown experiment id {other}; see EXPERIMENTS"),
    }
}

fn real_pins(r: &SynthesisResult) -> u32 {
    r.pins_used[1..].iter().sum()
}

/// E3.1 — Figures 3.6/3.7: the simple-partition AR filter at L = 2.
pub fn e3_1() -> String {
    let d = designs::ar_filter::simple();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "E3.1 (Figures 3.6/3.7): simple-partition AR filter, L = 2"
    );
    match simple_flow(d.cdfg(), 2) {
        Ok(r) => {
            let _ = writeln!(
                out,
                "pins used per partition: {:?}  pipe length: {}\n",
                &r.pins_used[1..],
                r.pipe_length
            );
            let _ = writeln!(out, "schedule (Figure 3.6 analogue):");
            let _ = writeln!(out, "{}", render_schedule(d.cdfg(), &r.schedule));
            let _ = writeln!(out, "interchip connection (Figure 3.7 analogue):");
            let _ = writeln!(out, "{}", render_interconnect(d.cdfg(), &r.interconnect));
        }
        Err(e) => {
            let _ = writeln!(out, "FAILED: {e}");
        }
    }
    out
}

fn ar_flow(rate: u32, mode: PortMode, reassign: bool, sharing: bool) -> Option<SynthesisResult> {
    let d = designs::ar_filter::general(rate, mode);
    let mut opts = ConnectFirstOptions::new(rate);
    opts.mode = mode;
    opts.reassign = reassign;
    opts.sharing = sharing;
    connect_first_flow(d.cdfg(), &opts).ok()
}

/// E4.1/E4.3 — Tables 4.2 and 4.10: AR filter pins and control steps with
/// and without bus reassignment.
pub fn e4_summary(mode: PortMode) -> String {
    let mut t = Table::new([
        "L",
        "P0",
        "P1",
        "P2",
        "P3",
        "steps w/ reassign",
        "steps w/o reassign",
    ]);
    for rate in [3u32, 4, 5] {
        let dynamic = ar_flow(rate, mode, true, false);
        let fixed = ar_flow(rate, mode, false, false);
        let cell = |r: &Option<SynthesisResult>, f: &dyn Fn(&SynthesisResult) -> String| {
            r.as_ref().map(f).unwrap_or_else(|| "-".into())
        };
        t.row([
            rate.to_string(),
            cell(&dynamic, &|r| r.pins_used[1].to_string()),
            cell(&dynamic, &|r| r.pins_used[2].to_string()),
            cell(&dynamic, &|r| r.pins_used[3].to_string()),
            cell(&dynamic, &|r| r.pins_used[4].to_string()),
            cell(&dynamic, &|r| r.pipe_length.to_string()),
            cell(&fixed, &|r| r.pipe_length.to_string()),
        ]);
    }
    format!("E4 summary ({mode:?}; Tables 4.2/4.10 analogue): AR filter\n{t}")
}

/// E4.2/E4.4 — Tables 4.3-4.8 and 4.11-4.13: bus assignments (initial vs
/// final) and per-step bus allocation.
pub fn e4_detail(mode: PortMode) -> String {
    let mut out = String::new();
    for rate in [3u32, 4, 5] {
        let d = designs::ar_filter::general(rate, mode);
        let Some(r) = ar_flow(rate, mode, true, false) else {
            let _ = writeln!(out, "L={rate}: flow failed");
            continue;
        };
        let _ = writeln!(
            out,
            "== {mode:?} L = {rate}: bus assignment (initial vs final) =="
        );
        let _ = writeln!(
            out,
            "{}",
            render_bus_assignment(d.cdfg(), &r.interconnect, &r.placements)
        );
        let _ = writeln!(
            out,
            "== {mode:?} L = {rate}: bus allocation by step group =="
        );
        let _ = writeln!(
            out,
            "{}",
            render_bus_allocation(d.cdfg(), &r.schedule, &r.placements)
        );
    }
    out
}

/// E4.5/E4.6 — Tables 4.14-4.19: the elliptic filter, including the
/// expected list-scheduling failure at the minimum rate 5.
pub fn e4_ewf(mode: PortMode) -> String {
    let mut t = Table::new(["L", "P1", "P2", "P3", "P4", "P5", "steps", "outcome"]);
    for rate in [5u32, 6, 7] {
        let d = designs::elliptic::partitioned_with(rate, mode);
        let mut opts = ConnectFirstOptions::new(rate);
        opts.mode = mode;
        match connect_first_flow(d.cdfg(), &opts) {
            Ok(r) => {
                t.row([
                    rate.to_string(),
                    r.pins_used[1].to_string(),
                    r.pins_used[2].to_string(),
                    r.pins_used[3].to_string(),
                    r.pins_used[4].to_string(),
                    r.pins_used[5].to_string(),
                    r.pipe_length.to_string(),
                    "ok".into(),
                ]);
            }
            Err(e) => {
                t.row([
                    rate.to_string(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {e}"),
                ]);
            }
        }
    }
    format!("E4 elliptic filter ({mode:?}; Tables 4.14-4.19 analogue)\n{t}")
}

/// E5.1 — Table 5.1: AR filter resources required over (L, pipe length).
pub fn e5_ar() -> String {
    let mut t = Table::new(["L", "pipe", "pins P0..P3", "adders", "multipliers"]);
    for rate in [3u32, 4, 5] {
        for pipe in [8i64, 9, 10, 11, 12] {
            let d = designs::ar_filter::general(rate, PortMode::Unidirectional);
            match schedule_first_flow(d.cdfg(), rate, pipe, PortMode::Unidirectional) {
                Ok(r) => {
                    let res = r.resources(d.cdfg());
                    let sum = |class: &mcs_cdfg::OperatorClass| -> u32 {
                        res.iter()
                            .filter(|((_, c), _)| c == class)
                            .map(|(_, &n)| n)
                            .sum()
                    };
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("{:?}", &r.pins_used[1..]),
                        sum(&mcs_cdfg::OperatorClass::Add).to_string(),
                        sum(&mcs_cdfg::OperatorClass::Mul).to_string(),
                    ]);
                }
                Err(e) => {
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("failed: {e}"),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    format!("E5.1 (Table 5.1 analogue): AR filter, schedule-first flow\n{t}")
}

/// E5.2 — Table 5.2: the Chapter 4 technique on the same AR filter.
pub fn e5_ar_ch4() -> String {
    let mut t = Table::new(["L", "pins P0..P3", "pipe length"]);
    for rate in [3u32, 4, 5] {
        match ar_flow(rate, PortMode::Unidirectional, true, false) {
            Some(r) => {
                t.row([
                    rate.to_string(),
                    format!("{:?}", &r.pins_used[1..]),
                    r.pipe_length.to_string(),
                ]);
            }
            None => {
                t.row([rate.to_string(), "failed".into(), "-".into()]);
            }
        }
    }
    format!("E5.2 (Table 5.2 analogue): AR filter, connect-first flow\n{t}")
}

/// E5.3 — Table 5.3: elliptic filter resources and in-out delay over
/// (L, pipe length).
pub fn e5_ewf() -> String {
    let mut t = Table::new([
        "L",
        "pipe",
        "pins P1..P5",
        "adders",
        "multipliers",
        "in-out delay",
    ]);
    // Our reconstructed netlist's critical path is 26 steps (the paper's
    // sweep starts at 22 for its own netlist).
    for rate in [5u32, 6, 7] {
        for pipe in [26i64, 28, 30] {
            let d = designs::elliptic::partitioned_with(rate, PortMode::Unidirectional);
            match schedule_first_flow(d.cdfg(), rate, pipe, PortMode::Unidirectional) {
                Ok(r) => {
                    let res = r.resources(d.cdfg());
                    let sum = |class: &mcs_cdfg::OperatorClass| -> u32 {
                        res.iter()
                            .filter(|((_, c), _)| c == class)
                            .map(|(_, &n)| n)
                            .sum()
                    };
                    let delay =
                        r.schedule.of(d.op_named("Op")).step - r.schedule.of(d.op_named("Ia")).step;
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("{:?}", &r.pins_used[1..]),
                        sum(&mcs_cdfg::OperatorClass::Add).to_string(),
                        sum(&mcs_cdfg::OperatorClass::Mul).to_string(),
                        delay.to_string(),
                    ]);
                }
                Err(e) => {
                    t.row([
                        rate.to_string(),
                        pipe.to_string(),
                        format!("failed: {e}"),
                        "-".into(),
                        "-".into(),
                        "-".into(),
                    ]);
                }
            }
        }
    }
    format!("E5.3 (Table 5.3 analogue): elliptic filter, schedule-first flow\n{t}")
}

/// E5.4 — Table 5.4: the Chapter 4 technique on the elliptic filter,
/// including the failure rows.
pub fn e5_ewf_ch4() -> String {
    let mut t = Table::new(["L", "pins P1..P5", "pipe length", "outcome"]);
    for rate in [5u32, 6, 7] {
        let d = designs::elliptic::partitioned_with(rate, PortMode::Unidirectional);
        match connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(rate)) {
            Ok(r) => {
                t.row([
                    rate.to_string(),
                    format!("{:?}", &r.pins_used[1..]),
                    r.pipe_length.to_string(),
                    "ok".into(),
                ]);
            }
            Err(e) => {
                t.row([
                    rate.to_string(),
                    "-".into(),
                    "-".into(),
                    format!("failed: {e}"),
                ]);
            }
        }
    }
    format!("E5.4 (Table 5.4 analogue): elliptic filter, connect-first flow\n{t}")
}

/// E6.1 — Tables 6.1-6.3 / Figures 6.2-6.7: shared interconnects.
pub fn e6_detail() -> String {
    let mut out = String::new();
    for rate in [3u32, 4, 5] {
        let d = designs::ar_filter::general(rate, PortMode::Bidirectional);
        match ar_flow(rate, PortMode::Bidirectional, true, true) {
            Some(r) => {
                let split = r
                    .interconnect
                    .buses
                    .iter()
                    .filter(|b| b.sub_count() > 1)
                    .count();
                let _ = writeln!(
                    out,
                    "== L = {rate}: shared interconnect ({split} split buses) =="
                );
                let _ = writeln!(out, "{}", render_interconnect(d.cdfg(), &r.interconnect));
                let _ = writeln!(out, "bus allocation:");
                let _ = writeln!(
                    out,
                    "{}",
                    render_bus_allocation(d.cdfg(), &r.schedule, &r.placements)
                );
            }
            None => {
                let _ = writeln!(out, "L={rate}: sharing flow failed");
            }
        }
    }
    out
}

/// E6.2 — Table 6.4: pins and pipe length, sharing vs no sharing.
pub fn e6_compare() -> String {
    let mut t = Table::new([
        "L",
        "pins (no sharing)",
        "pipe (no sharing)",
        "pins (sharing)",
        "pipe (sharing)",
    ]);
    for rate in [3u32, 4, 5] {
        let plain = ar_flow(rate, PortMode::Bidirectional, true, false);
        let shared = ar_flow(rate, PortMode::Bidirectional, true, true);
        let cell = |r: &Option<SynthesisResult>, f: &dyn Fn(&SynthesisResult) -> String| {
            r.as_ref().map(f).unwrap_or_else(|| "-".into())
        };
        t.row([
            rate.to_string(),
            cell(&plain, &|r| real_pins(r).to_string()),
            cell(&plain, &|r| r.pipe_length.to_string()),
            cell(&shared, &|r| real_pins(r).to_string()),
            cell(&shared, &|r| r.pipe_length.to_string()),
        ]);
    }
    format!("E6.2 (Table 6.4 analogue): AR filter, bidirectional ports\n{t}")
}

/// E7.1 — Figure 7.4: forcing the forward and feedback transfers of a
/// recursive loop onto one shared bus destroys schedulability.
pub fn e7_recursive() -> String {
    // chain_len = 1 makes the feasible X-to-Y gap exactly one value (3
    // steps) at the minimum rate 3 — a multiple of L, so X and Y are
    // forced into the same step group and cannot share a bus.
    let d = designs::synthetic::fig_7_4(1, 2, 2);
    let cdfg = d.cdfg();
    let rate = timing::min_initiation_rate(cdfg);
    let x = d.op_named("X");
    let y = d.op_named("Y");
    let p1 = PartitionId::new(1);
    let p2 = PartitionId::new(2);

    let mk_bus = |pairs: &[(PartitionId, PartitionId)]| -> Bus {
        let mut bus = Bus::new();
        bus.sub_widths = vec![2];
        for &(f, t) in pairs {
            bus.extend_ports(PortMode::Unidirectional, f, t, 2);
        }
        bus
    };
    let whole = SubRange { lo: 0, hi: 0 };
    // Shared structure: X and Y on one bus.
    let shared = Interconnect {
        mode: PortMode::Unidirectional,
        buses: vec![mk_bus(&[(p1, p2), (p2, p1)])],
        assignment: [
            (
                x,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(0),
                    range: whole,
                },
            ),
            (
                y,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(0),
                    range: whole,
                },
            ),
        ]
        .into_iter()
        .collect(),
    };
    // Separate structure: one bus each.
    let separate = Interconnect {
        mode: PortMode::Unidirectional,
        buses: vec![mk_bus(&[(p1, p2)]), mk_bus(&[(p2, p1)])],
        assignment: [
            (
                x,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(0),
                    range: whole,
                },
            ),
            (
                y,
                BusAssignment {
                    bus: mcs_cdfg::BusId::new(1),
                    range: whole,
                },
            ),
        ]
        .into_iter()
        .collect(),
    };
    let run = |ic: Interconnect| -> String {
        let mut policy = BusPolicy::new(ic, rate, false);
        match list_schedule(cdfg, &ListConfig::new(rate), &mut policy) {
            Ok(s) => format!("schedulable, pipe length {}", s.pipe_length(cdfg)),
            Err(e) => format!("unschedulable ({e})"),
        }
    };
    format!(
        "E7.1 (Figure 7.4): recursive loop at minimum rate {rate}\n\
         X and Y on one shared bus:  {}\n\
         X and Y on separate buses:  {}\n",
        run(shared),
        run(separate)
    )
}

/// E7.2 — Section 7.2: conditional I/O sharing.
pub fn e7_conditional() -> String {
    let (d, _) = designs::synthetic::conditional_example();
    let sets = conditional_sharing_sets(d.cdfg(), &CondShareConfig::new(8));
    let mut out = String::from("E7.2 (Section 7.2): conditional I/O sharing\n");
    for set in &sets {
        let names: Vec<&str> = set
            .ops
            .iter()
            .map(|&op| d.cdfg().op(op).name.as_str())
            .collect();
        let _ = writeln!(
            out,
            "sharing set {{{}}} in frame {}..={}: saves {} pins",
            names.join(", "),
            set.frame.0,
            set.frame.1,
            set.saved_pins
        );
    }
    let total: u32 = sets.iter().map(|s| s.saved_pins).sum();
    let _ = writeln!(out, "total pins saved: {total}");
    out
}

/// E7.3 — Figure 7.10: allocation-wheel fragmentation and the safety
/// check.
pub fn e7_wheel() -> String {
    let mut naive = AllocationWheel::new(1, 6, 2).expect("positive rate and cycles");
    naive.place(0);
    let fragmented = naive.place(3).is_some() && !naive.can_place(2) && !naive.can_place(4);
    let mut safe = AllocationWheel::new(1, 6, 2).expect("positive rate and cycles");
    safe.place(0);
    let checked = safe.is_safe(3, 1);
    let d = designs::synthetic::multicycle_example();
    let scheduled =
        list_schedule(d.cdfg(), &ListConfig::new(6), &mut mcs_sched::NullPolicy).is_ok();
    format!(
        "E7.3 (Figure 7.10): three 2-cycle ops, one unit, L = 6\n\
         Eq. 7.5 lower bound: {:?} unit(s)\n\
         naive placement at steps 0 and 3 strands op3: {fragmented}\n\
         safety check rejects the fragmenting placement: {}\n\
         list scheduling with the safety check finds a schedule: {scheduled}\n",
        AllocationWheel::lower_bound(3, 6, 2),
        !checked,
    )
}

/// E7.4 — Section 7.3: time-division I/O multiplexing trade-off.
pub fn e7_tdm() -> String {
    let mut t = Table::new(["variant", "widest transfer", "cross pins", "pipe length"]);
    for split in [false, true] {
        let d = designs::synthetic::tdm_example(split);
        let r = connect_first_flow(d.cdfg(), &ConnectFirstOptions::new(2));
        match r {
            Ok(r) => {
                let widest = d
                    .cdfg()
                    .io_ops()
                    .filter(|&op| {
                        let (_, f, to) = d.cdfg().op(op).io_endpoints().unwrap();
                        !f.is_environment() && !to.is_environment()
                    })
                    .map(|op| d.cdfg().io_bits(op))
                    .max()
                    .unwrap_or(0);
                t.row([
                    if split {
                        "split (2 x 16)"
                    } else {
                        "whole (32)"
                    }
                    .to_string(),
                    widest.to_string(),
                    real_pins(&r).to_string(),
                    r.pipe_length.to_string(),
                ]);
            }
            Err(e) => {
                t.row([
                    if split { "split" } else { "whole" }.to_string(),
                    "-".into(),
                    format!("failed: {e}"),
                    "-".into(),
                ]);
            }
        }
    }
    format!("E7.4 (Section 7.3): TDM trade-off\n{t}")
}

/// One measured connection-search run, as consumed by
/// [`search_stats_line`].
#[derive(Clone, Debug)]
pub struct MeasuredSearch {
    /// Whether the search produced a connection.
    pub ok: bool,
    /// The run's telemetry.
    pub stats: mcs_connect::SearchStats,
    /// Wall time of the run, milliseconds.
    pub wall_ms: f64,
}

fn emit_measured(out: &mut String, label: &str, m: &MeasuredSearch) {
    let _ = write!(
        out,
        "\"{label}\":{{\"ok\":{},\"nodes\":{},\"nodes_per_sec\":{:.0},\
         \"epochs\":{},\"threads\":{},\"prunes\":{},\
         \"backtracks\":{},\"wall_ms\":{:.3},\"winner\":{}}}",
        m.ok,
        m.stats.nodes,
        m.stats.nodes_per_sec(),
        m.stats.epochs,
        m.stats.threads,
        m.stats.prunes,
        m.stats.backtracks,
        m.wall_ms,
        match m.stats.winner {
            Some(w) => w.to_string(),
            None => String::from("null"),
        },
    );
}

/// One measured probe sweep — every I/O operation of a design probed
/// into every control-step group through one probe engine — as consumed
/// by [`probe_bench_line`].
#[derive(Clone, Debug)]
pub struct MeasuredProbe {
    /// Number of feasibility probes issued.
    pub probes: u64,
    /// How many of them answered "feasible".
    pub feasible: u64,
    /// Heap allocations during the sweep (0 when the harness does not
    /// count them, e.g. under the criterion benches).
    pub allocations: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
    /// Wall time of the sweep, milliseconds.
    pub wall_ms: f64,
    /// FNV-1a digest over the verdict sequence; two engines agree iff
    /// their digests are equal.
    pub verdict_digest: u64,
}

/// FNV-1a over a probe-verdict sequence, for [`MeasuredProbe`].
pub fn verdict_digest(verdicts: &[bool]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in verdicts {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn emit_probe(out: &mut String, label: &str, m: &MeasuredProbe) {
    let _ = write!(
        out,
        "\"{label}\":{{\"probes\":{},\"feasible\":{},\"allocations\":{},\
         \"alloc_bytes\":{},\"wall_ms\":{:.3},\"verdict_digest\":{}}}",
        m.probes, m.feasible, m.allocations, m.alloc_bytes, m.wall_ms, m.verdict_digest,
    );
}

/// Renders one `bench_probe` BENCH line: a JSON object comparing three
/// probe engines on one design — the adaptive-i64 trail engine, the same
/// trail machinery forced onto the i128 representation from the first
/// pivot, and the legacy clone-per-probe path. `agree` is the
/// differential gate — all three verdict digests and probe counts must
/// match, and the `bench_probe` binary exits nonzero when they do not.
/// Golden-tested, like [`search_stats_line`], so machine-diffing stays
/// stable.
pub fn probe_bench_line(
    design: &str,
    rate: u32,
    trail: &MeasuredProbe,
    wide: &MeasuredProbe,
    clone: &MeasuredProbe,
) -> String {
    let mut out = format!("{{\"bench\":\"probe\",\"design\":\"{design}\",\"rate\":{rate},");
    emit_probe(&mut out, "trail", trail);
    out.push(',');
    emit_probe(&mut out, "wide", wide);
    out.push(',');
    emit_probe(&mut out, "clone", clone);
    let agree = trail.verdict_digest == wide.verdict_digest
        && trail.verdict_digest == clone.verdict_digest
        && trail.probes == wide.probes
        && trail.probes == clone.probes;
    let alloc_ratio = clone.allocations as f64 / (trail.allocations.max(1)) as f64;
    let speedup = if trail.wall_ms > 0.0 {
        clone.wall_ms / trail.wall_ms
    } else {
        0.0
    };
    let wide_ratio = if trail.wall_ms > 0.0 {
        wide.wall_ms / trail.wall_ms
    } else {
        0.0
    };
    let _ = write!(
        out,
        ",\"agree\":{agree},\"alloc_ratio\":{alloc_ratio:.2},\
         \"speedup\":{speedup:.2},\"wide_ratio\":{wide_ratio:.2}}}"
    );
    out
}

/// One measured design-space sweep — the whole rate × budget lattice
/// through [`multichip_hls::explore::run_sweep`] — as consumed by
/// [`explore_bench_line`].
#[derive(Clone, Debug)]
pub struct MeasuredSweep {
    /// Lattice points in the spec.
    pub points: u64,
    /// Points actually synthesized.
    pub run: u64,
    /// Points skipped by dominance pruning.
    pub pruned: u64,
    /// Feasible points.
    pub feasible: u64,
    /// Pareto-frontier size.
    pub frontier: u64,
    /// Warm-start probe-memo hits summed over points.
    pub probe_seed_hits: u64,
    /// FNV-1a digest over the frontier (see [`frontier_digest`]); two
    /// sweeps agree on the frontier iff their digests are equal.
    pub frontier_digest: u64,
    /// Wall time of the sweep, milliseconds.
    pub wall_ms: f64,
}

/// FNV-1a over a Pareto frontier's `(rate, budget_ix, latency, pins,
/// buses)` tuples, for [`MeasuredSweep`].
pub fn frontier_digest(frontier: &[mcs_explore::FrontierPoint]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for p in frontier {
        mix(p.coord.rate as u64);
        mix(p.coord.budget_ix as u64);
        mix(p.latency as u64);
        mix(p.total_pins as u64);
        mix(p.buses as u64);
    }
    h
}

/// A [`MeasuredSweep`] from a sweep report plus its measured wall time.
pub fn measure_sweep(report: &mcs_explore::SweepReport, wall_ms: f64) -> MeasuredSweep {
    let st = &report.stats;
    MeasuredSweep {
        points: st.points,
        run: st.run,
        pruned: st.pruned,
        feasible: st.feasible,
        frontier: report.frontier.len() as u64,
        probe_seed_hits: st.probe_seed_hits,
        frontier_digest: frontier_digest(&report.frontier),
        wall_ms,
    }
}

fn emit_sweep(out: &mut String, label: &str, m: &MeasuredSweep) {
    let _ = write!(
        out,
        "\"{label}\":{{\"points\":{},\"run\":{},\"pruned\":{},\
         \"feasible\":{},\"frontier\":{},\"probe_seed_hits\":{},\
         \"frontier_digest\":{},\"wall_ms\":{:.3}}}",
        m.points,
        m.run,
        m.pruned,
        m.feasible,
        m.frontier,
        m.probe_seed_hits,
        m.frontier_digest,
        m.wall_ms,
    );
}

/// `true` when every lattice point that both sweeps synthesized (neither
/// pruned it) has the same status and the same [`PointOutcome`], work
/// counters included. Both reports list their points in the canonical
/// order of one spec.
///
/// [`PointOutcome`]: mcs_explore::PointOutcome
pub fn outcomes_agree(
    pruned: &mcs_explore::SweepReport,
    exhaustive: &mcs_explore::SweepReport,
) -> bool {
    use mcs_explore::PointStatus::Pruned;
    pruned.outcomes.len() == exhaustive.outcomes.len()
        && pruned
            .outcomes
            .iter()
            .zip(&exhaustive.outcomes)
            .filter(|(p, e)| p.status != Pruned && e.status != Pruned)
            .all(|(p, e)| p.coord == e.coord && p.status == e.status && p.outcome == e.outcome)
}

/// Renders one `bench_explore` BENCH line: a JSON object comparing a
/// dominance-pruned sweep against the exhaustive sweep of the same
/// lattice. `frontier_agree` and `outcomes_agree` (see
/// [`outcomes_agree`]) are the differential gates — the `bench_explore`
/// binary exits nonzero when either is false. Golden-tested, like
/// [`search_stats_line`].
pub fn explore_bench_line(
    design: &str,
    flow: &str,
    pruned: &MeasuredSweep,
    exhaustive: &MeasuredSweep,
    outcomes_agree: bool,
) -> String {
    let mut out = format!("{{\"bench\":\"explore\",\"design\":\"{design}\",\"flow\":\"{flow}\",");
    emit_sweep(&mut out, "pruned", pruned);
    out.push(',');
    emit_sweep(&mut out, "exhaustive", exhaustive);
    let agree = pruned.frontier_digest == exhaustive.frontier_digest
        && pruned.frontier == exhaustive.frontier;
    let speedup = if pruned.wall_ms > 0.0 {
        exhaustive.wall_ms / pruned.wall_ms
    } else {
        0.0
    };
    let _ = write!(
        out,
        ",\"frontier_agree\":{agree},\"outcomes_agree\":{outcomes_agree},\
         \"speedup\":{speedup:.2}}}"
    );
    out
}

/// One measured fuzzing sweep — seeded random designs through the
/// three-way flow differential and the engine-vs-reference simulation
/// oracle, plus one shrink-on-failure demonstration — as consumed by
/// [`fuzz_bench_line`].
#[derive(Clone, Debug)]
pub struct MeasuredFuzz {
    /// Seeded designs generated and run through the flow differential.
    pub seeds: u64,
    /// Designs on which the three flows agreed (proof strength).
    pub agreed: u64,
    /// Designs with at least one divergence — always a bug.
    pub disagreed: u64,
    /// Designs where at least one flow produced a verified result.
    pub any_feasible: u64,
    /// Designs additionally driven through the simulation oracle.
    pub sim_checked: u64,
    /// Simulation-oracle divergences — always a bug.
    pub sim_mismatched: u64,
    /// Shrink steps taken minimizing the demonstration failure.
    pub shrink_steps: u64,
    /// Op-gene count of the demonstration genome before shrinking.
    pub shrink_from_ops: u64,
    /// Op-gene count after shrinking.
    pub shrink_to_ops: u64,
    /// Wall time of the whole sweep, milliseconds.
    pub wall_ms: f64,
}

/// Renders the `bench_fuzz` BENCH line: one JSON object summarizing a
/// seeded fuzzing sweep. `agree` is the differential gate — the
/// `bench_fuzz` binary exits nonzero when it is false. Golden-tested,
/// like [`search_stats_line`], so machine-diffing stays stable.
pub fn fuzz_bench_line(config: &str, m: &MeasuredFuzz) -> String {
    let per_sec = if m.wall_ms > 0.0 {
        m.seeds as f64 / (m.wall_ms / 1e3)
    } else {
        0.0
    };
    let agree = m.disagreed == 0 && m.sim_mismatched == 0;
    format!(
        "{{\"bench\":\"fuzz\",\"config\":\"{config}\",\"seeds\":{},\
         \"agreed\":{},\"disagreed\":{},\"any_feasible\":{},\
         \"sim_checked\":{},\"sim_mismatched\":{},\
         \"shrink\":{{\"steps\":{},\"from_ops\":{},\"to_ops\":{}}},\
         \"wall_ms\":{:.3},\"designs_per_sec\":{per_sec:.1},\"agree\":{agree}}}",
        m.seeds,
        m.agreed,
        m.disagreed,
        m.any_feasible,
        m.sim_checked,
        m.sim_mismatched,
        m.shrink_steps,
        m.shrink_from_ops,
        m.shrink_to_ops,
        m.wall_ms,
    )
}

/// Renders the `search_stats` BENCH line: one JSON object comparing a
/// single-worker run against the portfolio on the same design, plus a
/// `probe` sub-object from a probe sweep over the same design: the
/// exact-fallback count (the Gomory overflow counter — fallbacks to the
/// exact solver when the all-integer tableau overflows). This is the
/// exact format the `search_stats`
/// binary prints (golden-tested), so downstream machine-diffing of runs
/// keeps working across refactors.
pub fn search_stats_line(
    bench: &str,
    senders: u32,
    probe: &mcs_pinalloc::ProbeCacheStats,
    before: &MeasuredSearch,
    after: &MeasuredSearch,
) -> String {
    let mut out = format!("{{\"bench\":\"{bench}\",\"senders\":{senders},");
    emit_measured(&mut out, "before", before);
    out.push(',');
    emit_measured(&mut out, "after", after);
    let speedup = if after.wall_ms > 0.0 {
        before.wall_ms / after.wall_ms
    } else {
        0.0
    };
    let _ = write!(
        out,
        ",\"probe\":{{\"exact_fallbacks\":{}}},\"speedup\":{speedup:.2}}}",
        probe.exact_fallbacks,
    );
    out
}

/// Repeat-design (warm-tier) p50 latency must be at least this many
/// times below cold-path p50 — the `bench_serve` acceptance gate.
pub const SERVE_SPEEDUP_FLOOR: f64 = 10.0;

/// The fuzz family of `bench_serve`'s mix and `scan_serve`'s scan: up
/// to 40 operations over four chips, so that a cold connect search costs
/// tens of ms against a cache hit's fraction of a ms.
pub fn serve_fuzz_config() -> mcs_cdfg::fuzz::FuzzConfig {
    mcs_cdfg::fuzz::FuzzConfig {
        max_ops: 40,
        max_chips: 4,
        ..mcs_cdfg::fuzz::FuzzConfig::default()
    }
}

/// `bench_serve`'s near-repeat budget vector: one pin removed from the
/// roomiest chip (ties to the lowest index). The base vector then
/// componentwise dominates it, which is exactly the donor rule the
/// warm-start tier seeds across; `scan_serve` checks that the tightened
/// vector stays feasible.
pub fn near_budgets(base: &[u32]) -> Vec<u32> {
    let mut near = base.to_vec();
    let roomiest = (0..near.len())
        .max_by_key(|&i| (near[i], std::cmp::Reverse(i)))
        .expect("at least one chip");
    near[roomiest] = near[roomiest].saturating_sub(1);
    near
}

/// One `bench_serve` load scenario, rendered by [`serve_bench_line`].
#[derive(Clone, Debug)]
pub struct MeasuredServe {
    /// Concurrent clients in the storm phase.
    pub clients: u64,
    /// Daemon worker-pool threads.
    pub workers: u64,
    /// Distinct designs in the mix.
    pub designs: u64,
    /// Sequential cold-populate requests (phase one).
    pub cold_requests: u64,
    /// Concurrent storm requests (phase two).
    pub storm_requests: u64,
    /// Storm responses answered by exact cache replay (`"cache":"hit"`).
    pub hits: u64,
    /// Storm responses seeded by a dominating donor (`"cache":"warm"`).
    pub warm: u64,
    /// Storm responses that ran fully cold.
    pub storm_cold: u64,
    /// FNV-1a digest over every response core (the body with the
    /// volatile `cache` member stripped) in deterministic client/request
    /// order — byte-stable across runs, machines and worker counts.
    pub response_digest: u64,
    /// Whether a sequential replay of the same scenario produced
    /// byte-identical response streams under 1, 2 and 8 daemon workers.
    pub workers_identical: bool,
    /// Cold-path p50 latency, microseconds (client-observed).
    pub cold_p50_us: f64,
    /// Cold-path p99 latency, microseconds.
    pub cold_p99_us: f64,
    /// Exact-hit p50 latency, microseconds.
    pub hit_p50_us: f64,
    /// Exact-hit p99 latency, microseconds.
    pub hit_p99_us: f64,
    /// Storm-phase wall time, milliseconds.
    pub wall_ms: f64,
}

/// FNV-1a digest of newline-joined response lines — the deterministic
/// fingerprint [`MeasuredServe::response_digest`] carries.
pub fn response_digest(lines: &[String]) -> u64 {
    let mut h = Fnv::default();
    for line in lines {
        h.write(line.as_bytes());
        h.write(b"\n");
    }
    h.finish()
}

/// Renders one `bench_serve` BENCH line. `pass` is the load gate — the
/// binary exits nonzero when any scenario fails it: nonzero exact-hit
/// rate, byte-identical responses across worker counts, and warm-tier
/// p50 at least [`SERVE_SPEEDUP_FLOOR`]x below cold p50. Hit/warm/cold
/// storm counts are scheduling-dependent under concurrency and are
/// reported for observability, not compared by the regression gate;
/// `response_digest` is the deterministic field. Golden-tested like
/// [`fuzz_bench_line`].
pub fn serve_bench_line(config: &str, m: &MeasuredServe) -> String {
    let per_sec = if m.wall_ms > 0.0 {
        m.storm_requests as f64 / (m.wall_ms / 1e3)
    } else {
        0.0
    };
    let hit_speedup = m.cold_p50_us / m.hit_p50_us.max(1.0);
    let hits_nonzero = m.hits > 0;
    let pass = hits_nonzero && m.workers_identical && hit_speedup >= SERVE_SPEEDUP_FLOOR;
    format!(
        "{{\"bench\":\"serve\",\"config\":\"{config}\",\"clients\":{},\
         \"workers\":{},\"designs\":{},\"cold_requests\":{},\
         \"storm_requests\":{},\"hits\":{},\"warm\":{},\"storm_cold\":{},\
         \"response_digest\":{},\"workers_identical\":{},\
         \"hits_nonzero\":{hits_nonzero},\
         \"cold_p50_us\":{:.1},\"cold_p99_us\":{:.1},\
         \"hit_p50_us\":{:.1},\"hit_p99_us\":{:.1},\
         \"wall_ms\":{:.3},\"requests_per_sec\":{per_sec:.1},\
         \"hit_speedup\":{hit_speedup:.2},\"pass\":{pass}}}",
        m.clients,
        m.workers,
        m.designs,
        m.cold_requests,
        m.storm_requests,
        m.hits,
        m.warm,
        m.storm_cold,
        m.response_digest,
        m.workers_identical,
        m.cold_p50_us,
        m.cold_p99_us,
        m.hit_p50_us,
        m.hit_p99_us,
        m.wall_ms,
    )
}

/// Incremental resynthesis must beat cold resynthesis by at least this
/// factor on untouched-majority edits — the `bench_resynth` acceptance
/// gate.
pub const RESYNTH_SPEEDUP_FLOOR: f64 = 5.0;

/// One measured incremental-vs-cold resynthesis scenario, rendered by
/// [`resynth_bench_line`].
#[derive(Clone, Debug)]
pub struct MeasuredResynth {
    /// Design name.
    pub design: String,
    /// The design-delta spec applied.
    pub edit: String,
    /// Ladder path the incremental run took (`identical`/`patched`/`cold`).
    pub path: String,
    /// Dirty operations the classifier reported.
    pub dirty_ops: u64,
    /// Dirty interchip transfers.
    pub dirty_transfers: u64,
    /// Bus assignments carried over from the previous connection.
    pub reused: u64,
    /// Bus assignments re-derived.
    pub fresh: u64,
    /// Pipe length of the incremental result.
    pub incr_latency: i64,
    /// Pipe length of the cold run on the same edited design.
    pub cold_latency: i64,
    /// The differential oracle's verdict: the incremental result is
    /// verifier-clean and no worse than cold.
    pub verifier_ok: bool,
    /// Best incremental wall time over the reps, milliseconds.
    pub incr_wall_ms: f64,
    /// Best cold wall time over the reps, milliseconds.
    pub cold_wall_ms: f64,
}

/// Renders one `bench_resynth` BENCH line. `warm` is whether the
/// incremental run avoided the cold rung; `pass` is the gate — the
/// `bench_resynth` binary exits nonzero when any scenario fails it:
/// verifier agreement, a warm path, and a cold-over-incremental speedup
/// of at least [`RESYNTH_SPEEDUP_FLOOR`]. Golden-tested, like
/// [`search_stats_line`], so machine-diffing stays stable.
pub fn resynth_bench_line(config: &str, m: &MeasuredResynth) -> String {
    resynth_bench_line_with_floor(config, m, RESYNTH_SPEEDUP_FLOOR)
}

/// [`resynth_bench_line`] with an explicit speedup floor for the `pass`
/// verdict. The headline [`RESYNTH_SPEEDUP_FLOOR`] is calibrated for
/// untouched-majority *local* edits, where incremental revalidation
/// skips synthesis entirely; edits that dirty transfers still re-run
/// bus-slot list scheduling, so their honest win over cold is smaller
/// and they gate at a scenario-chosen floor instead.
pub fn resynth_bench_line_with_floor(config: &str, m: &MeasuredResynth, floor: f64) -> String {
    let speedup = if m.incr_wall_ms > 0.0 {
        m.cold_wall_ms / m.incr_wall_ms
    } else {
        0.0
    };
    let warm = m.path != "cold";
    let pass = m.verifier_ok && warm && speedup >= floor;
    format!(
        "{{\"bench\":\"resynth\",\"config\":\"{config}\",\"design\":\"{}\",\
         \"edit\":\"{}\",\"path\":\"{}\",\"dirty_ops\":{},\
         \"dirty_transfers\":{},\"reused\":{},\"fresh\":{},\
         \"incr_latency\":{},\"cold_latency\":{},\"verifier_ok\":{},\
         \"incr_wall_ms\":{:.3},\"cold_wall_ms\":{:.3},\
         \"speedup\":{speedup:.2},\"warm\":{warm},\"pass\":{pass}}}",
        m.design,
        m.edit,
        m.path,
        m.dirty_ops,
        m.dirty_transfers,
        m.reused,
        m.fresh,
        m.incr_latency,
        m.cold_latency,
        m.verifier_ok,
        m.incr_wall_ms,
        m.cold_wall_ms,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_stats_line_matches_golden_output() {
        use mcs_connect::SearchStats;
        use std::time::Duration;
        let stats = |nodes: u64, winner| SearchStats {
            workers: Vec::new(),
            winner,
            epochs: 12,
            threads: 4,
            nodes,
            prunes: 5,
            backtracks: 2,
            wall: Duration::from_millis(250),
            termination: mcs_ctl::Termination::Complete,
            deepest: 0,
            deepest_buses: 0,
        };
        let before = MeasuredSearch {
            ok: true,
            stats: stats(1000, Some(0)),
            wall_ms: 250.0,
        };
        let after = MeasuredSearch {
            ok: true,
            stats: stats(4000, None),
            wall_ms: 125.0,
        };
        let probe = mcs_pinalloc::ProbeCacheStats {
            exact_fallbacks: 3,
            ..Default::default()
        };
        let line = search_stats_line("portfolio_adversarial", 6, &probe, &before, &after);
        assert_eq!(
            line,
            "{\"bench\":\"portfolio_adversarial\",\"senders\":6,\
             \"before\":{\"ok\":true,\"nodes\":1000,\"nodes_per_sec\":4000,\
             \"epochs\":12,\"threads\":4,\"prunes\":5,\
             \"backtracks\":2,\"wall_ms\":250.000,\"winner\":0},\
             \"after\":{\"ok\":true,\"nodes\":4000,\"nodes_per_sec\":16000,\
             \"epochs\":12,\"threads\":4,\"prunes\":5,\
             \"backtracks\":2,\"wall_ms\":125.000,\"winner\":null},\
             \"probe\":{\"exact_fallbacks\":3},\"speedup\":2.00}"
        );
        mcs_codec::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn explore_bench_line_matches_golden_output() {
        let pruned = MeasuredSweep {
            points: 10,
            run: 7,
            pruned: 3,
            feasible: 5,
            frontier: 2,
            probe_seed_hits: 4,
            frontier_digest: 99,
            wall_ms: 80.0,
        };
        let exhaustive = MeasuredSweep {
            points: 10,
            run: 10,
            pruned: 0,
            feasible: 5,
            frontier: 2,
            probe_seed_hits: 4,
            frontier_digest: 99,
            wall_ms: 120.0,
        };
        let line = explore_bench_line("elliptic", "connect-first", &pruned, &exhaustive, true);
        assert_eq!(
            line,
            "{\"bench\":\"explore\",\"design\":\"elliptic\",\"flow\":\"connect-first\",\
             \"pruned\":{\"points\":10,\"run\":7,\"pruned\":3,\"feasible\":5,\
             \"frontier\":2,\"probe_seed_hits\":4,\
             \"frontier_digest\":99,\"wall_ms\":80.000},\
             \"exhaustive\":{\"points\":10,\"run\":10,\"pruned\":0,\"feasible\":5,\
             \"frontier\":2,\"probe_seed_hits\":4,\
             \"frontier_digest\":99,\"wall_ms\":120.000},\
             \"frontier_agree\":true,\"outcomes_agree\":true,\
             \"speedup\":1.50}"
        );
        mcs_codec::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn frontier_digest_separates_different_frontiers() {
        use mcs_explore::{FrontierPoint, PointCoord};
        let p = |rate, latency| FrontierPoint {
            coord: PointCoord { rate, budget_ix: 0 },
            latency,
            total_pins: 100,
            buses: 3,
        };
        assert_eq!(frontier_digest(&[p(4, 10)]), frontier_digest(&[p(4, 10)]));
        assert_ne!(frontier_digest(&[p(4, 10)]), frontier_digest(&[p(5, 10)]));
        assert_ne!(frontier_digest(&[]), frontier_digest(&[p(4, 10)]));
    }

    #[test]
    fn probe_bench_line_matches_golden_output() {
        let trail = MeasuredProbe {
            probes: 64,
            feasible: 48,
            allocations: 10,
            alloc_bytes: 2048,
            wall_ms: 5.0,
            verdict_digest: 42,
        };
        let wide = MeasuredProbe {
            probes: 64,
            feasible: 48,
            allocations: 10,
            alloc_bytes: 2048,
            wall_ms: 10.0,
            verdict_digest: 42,
        };
        let clone = MeasuredProbe {
            probes: 64,
            feasible: 48,
            allocations: 600,
            alloc_bytes: 819200,
            wall_ms: 40.0,
            verdict_digest: 42,
        };
        let line = probe_bench_line("ch3_simple", 2, &trail, &wide, &clone);
        assert_eq!(
            line,
            "{\"bench\":\"probe\",\"design\":\"ch3_simple\",\"rate\":2,\
             \"trail\":{\"probes\":64,\"feasible\":48,\"allocations\":10,\
             \"alloc_bytes\":2048,\"wall_ms\":5.000,\"verdict_digest\":42},\
             \"wide\":{\"probes\":64,\"feasible\":48,\"allocations\":10,\
             \"alloc_bytes\":2048,\"wall_ms\":10.000,\"verdict_digest\":42},\
             \"clone\":{\"probes\":64,\"feasible\":48,\"allocations\":600,\
             \"alloc_bytes\":819200,\"wall_ms\":40.000,\"verdict_digest\":42},\
             \"agree\":true,\"alloc_ratio\":60.00,\"speedup\":8.00,\
             \"wide_ratio\":2.00}"
        );
        mcs_codec::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn probe_bench_line_flags_verdict_disagreement() {
        let m = |digest: u64| MeasuredProbe {
            probes: 8,
            feasible: 4,
            allocations: 0,
            alloc_bytes: 0,
            wall_ms: 1.0,
            verdict_digest: digest,
        };
        // Any one engine diverging from the other two must flip the gate.
        let line = probe_bench_line("fig_2_5", 2, &m(1), &m(1), &m(2));
        assert!(line.contains("\"agree\":false"), "{line}");
        let line = probe_bench_line("fig_2_5", 2, &m(1), &m(2), &m(1));
        assert!(line.contains("\"agree\":false"), "{line}");
    }

    #[test]
    fn fuzz_bench_line_matches_golden_output() {
        let m = MeasuredFuzz {
            seeds: 200,
            agreed: 200,
            disagreed: 0,
            any_feasible: 30,
            sim_checked: 50,
            sim_mismatched: 0,
            shrink_steps: 104,
            shrink_from_ops: 8,
            shrink_to_ops: 4,
            wall_ms: 4000.0,
        };
        let line = fuzz_bench_line("default", &m);
        assert_eq!(
            line,
            "{\"bench\":\"fuzz\",\"config\":\"default\",\"seeds\":200,\
             \"agreed\":200,\"disagreed\":0,\"any_feasible\":30,\
             \"sim_checked\":50,\"sim_mismatched\":0,\
             \"shrink\":{\"steps\":104,\"from_ops\":8,\"to_ops\":4},\
             \"wall_ms\":4000.000,\"designs_per_sec\":50.0,\"agree\":true}"
        );
        mcs_codec::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn fuzz_bench_line_flags_any_divergence() {
        let m = |disagreed: u64, sim_mismatched: u64| MeasuredFuzz {
            seeds: 10,
            agreed: 10 - disagreed,
            disagreed,
            any_feasible: 2,
            sim_checked: 5,
            sim_mismatched,
            shrink_steps: 0,
            shrink_from_ops: 0,
            shrink_to_ops: 0,
            wall_ms: 1.0,
        };
        assert!(fuzz_bench_line("default", &m(1, 0)).contains("\"agree\":false"));
        assert!(fuzz_bench_line("default", &m(0, 1)).contains("\"agree\":false"));
        assert!(fuzz_bench_line("default", &m(0, 0)).contains("\"agree\":true"));
    }

    fn measured_serve() -> MeasuredServe {
        MeasuredServe {
            clients: 8,
            workers: 2,
            designs: 6,
            cold_requests: 6,
            storm_requests: 64,
            hits: 40,
            warm: 18,
            storm_cold: 6,
            response_digest: 1234567890123456789,
            workers_identical: true,
            cold_p50_us: 5000.0,
            cold_p99_us: 9000.0,
            hit_p50_us: 80.0,
            hit_p99_us: 400.0,
            wall_ms: 250.0,
        }
    }

    #[test]
    fn serve_bench_line_matches_golden_output() {
        let line = serve_bench_line("clients_8", &measured_serve());
        assert_eq!(
            line,
            "{\"bench\":\"serve\",\"config\":\"clients_8\",\"clients\":8,\
             \"workers\":2,\"designs\":6,\"cold_requests\":6,\
             \"storm_requests\":64,\"hits\":40,\"warm\":18,\"storm_cold\":6,\
             \"response_digest\":1234567890123456789,\"workers_identical\":true,\
             \"hits_nonzero\":true,\
             \"cold_p50_us\":5000.0,\"cold_p99_us\":9000.0,\
             \"hit_p50_us\":80.0,\"hit_p99_us\":400.0,\
             \"wall_ms\":250.000,\"requests_per_sec\":256.0,\
             \"hit_speedup\":62.50,\"pass\":true}"
        );
        mcs_codec::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn serve_bench_line_gates_on_hits_identity_and_speedup() {
        let mut no_hits = measured_serve();
        no_hits.hits = 0;
        assert!(serve_bench_line("c", &no_hits).contains("\"pass\":false"));
        let mut diverged = measured_serve();
        diverged.workers_identical = false;
        assert!(serve_bench_line("c", &diverged).contains("\"pass\":false"));
        let mut slow = measured_serve();
        slow.hit_p50_us = 4000.0;
        assert!(serve_bench_line("c", &slow).contains("\"pass\":false"));
        assert!(serve_bench_line("c", &measured_serve()).contains("\"pass\":true"));
    }

    #[test]
    fn response_digest_is_order_sensitive_and_stable() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "x".to_string()];
        assert_eq!(response_digest(&a), response_digest(&a));
        assert_ne!(response_digest(&a), response_digest(&b));
        // Joining must not be ambiguous: ["xy"] != ["x","y"].
        assert_ne!(response_digest(&["xy".to_string()]), response_digest(&a));
    }

    #[test]
    fn verdict_digest_separates_sequences() {
        assert_eq!(
            verdict_digest(&[true, false]),
            verdict_digest(&[true, false])
        );
        assert_ne!(
            verdict_digest(&[true, false]),
            verdict_digest(&[false, true])
        );
        assert_ne!(verdict_digest(&[]), verdict_digest(&[false]));
    }

    fn measured_resynth() -> MeasuredResynth {
        MeasuredResynth {
            design: "elliptic".into(),
            edit: "width:a1=8".into(),
            path: "identical".into(),
            dirty_ops: 1,
            dirty_transfers: 0,
            reused: 0,
            fresh: 0,
            incr_latency: 30,
            cold_latency: 30,
            verifier_ok: true,
            incr_wall_ms: 2.0,
            cold_wall_ms: 40.0,
        }
    }

    #[test]
    fn resynth_bench_line_matches_golden_output() {
        let line = resynth_bench_line("elliptic_local_width", &measured_resynth());
        assert_eq!(
            line,
            "{\"bench\":\"resynth\",\"config\":\"elliptic_local_width\",\
             \"design\":\"elliptic\",\"edit\":\"width:a1=8\",\
             \"path\":\"identical\",\"dirty_ops\":1,\"dirty_transfers\":0,\
             \"reused\":0,\"fresh\":0,\"incr_latency\":30,\"cold_latency\":30,\
             \"verifier_ok\":true,\"incr_wall_ms\":2.000,\
             \"cold_wall_ms\":40.000,\"speedup\":20.00,\"warm\":true,\
             \"pass\":true}"
        );
        mcs_codec::json::parse(&line).expect("BENCH line is strict JSON");
    }

    #[test]
    fn resynth_bench_line_gates_on_verifier_path_and_speedup() {
        let mut oracle = measured_resynth();
        oracle.verifier_ok = false;
        assert!(resynth_bench_line("c", &oracle).contains("\"pass\":false"));
        let mut cold = measured_resynth();
        cold.path = "cold".into();
        assert!(resynth_bench_line("c", &cold).contains("\"pass\":false"));
        let mut slow = measured_resynth();
        slow.incr_wall_ms = 20.0;
        assert!(resynth_bench_line("c", &slow).contains("\"pass\":false"));
        // The same 2x win passes under a scenario-chosen floor.
        assert!(resynth_bench_line_with_floor("c", &slow, 1.5).contains("\"pass\":true"));
        assert!(resynth_bench_line("c", &measured_resynth()).contains("\"pass\":true"));
    }

    #[test]
    fn every_experiment_runs() {
        for &id in EXPERIMENTS {
            let out = run_experiment(id);
            assert!(!out.is_empty(), "{id} produced no output");
        }
    }
}
