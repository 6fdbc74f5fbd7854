//! Trace exporters: Chrome `trace_event` JSON and newline-delimited
//! JSON. Strings go through [`mcs_codec::json::escape`], so the
//! exporters never emit malformed JSON even for unusual names.

use mcs_codec::json::escape;

use crate::{Event, TimedEvent};

/// One JSON scalar an event field can carry.
#[derive(Clone, Copy, Debug)]
enum JsonValue {
    Int(i64),
    UInt(u64),
    Bool(bool),
    Str(&'static str),
}

impl std::fmt::Display for JsonValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JsonValue::Int(v) => write!(f, "{v}"),
            JsonValue::UInt(v) => write!(f, "{v}"),
            JsonValue::Bool(v) => write!(f, "{v}"),
            JsonValue::Str(s) => write!(f, "\"{}\"", escape(s)),
        }
    }
}

/// The payload fields of an event, in a stable order, as JSON scalars.
fn fields(event: &Event) -> Vec<(&'static str, JsonValue)> {
    use JsonValue::{Bool, Int, Str, UInt};
    match *event {
        Event::PhaseBegin { phase } | Event::PhaseEnd { phase } => {
            vec![("phase", Str(phase))]
        }
        Event::ScheduleDecision { op, step, verdict } => vec![
            ("op", UInt(op as u64)),
            ("step", Int(step)),
            ("verdict", Str(verdict.name())),
        ],
        Event::PinCheck {
            group,
            pins_used,
            cap,
            verdict,
        } => vec![
            ("group", UInt(group as u64)),
            ("pins_used", UInt(pins_used as u64)),
            ("cap", UInt(cap as u64)),
            ("verdict", Bool(verdict)),
        ],
        Event::GomoryCut {
            round,
            pivot,
            objective,
        } => vec![
            ("round", UInt(round as u64)),
            ("pivot", UInt(pivot as u64)),
            ("objective", Int(objective)),
        ],
        Event::BusReassign {
            op,
            step,
            from_bus,
            to_bus,
            augmenting_path_len,
        } => vec![
            ("op", UInt(op as u64)),
            ("step", Int(step)),
            ("from_bus", UInt(from_bus as u64)),
            ("to_bus", UInt(to_bus as u64)),
            ("augmenting_path_len", UInt(augmenting_path_len as u64)),
        ],
        Event::ProbeResolved {
            var,
            by,
            verdict,
            source,
            trail_depth,
        } => vec![
            ("var", UInt(var as u64)),
            ("by", Int(by)),
            ("verdict", Bool(verdict)),
            ("source", Str(source.name())),
            ("trail_depth", UInt(trail_depth)),
        ],
        Event::SearchNode {
            worker,
            epoch,
            nodes,
            prunes,
            backtracks,
        } => vec![
            ("worker", UInt(worker as u64)),
            ("epoch", UInt(epoch as u64)),
            ("nodes", UInt(nodes)),
            ("prunes", UInt(prunes)),
            ("backtracks", UInt(backtracks)),
        ],
        Event::WorkerPanic {
            pool,
            worker,
            epoch,
        } => vec![
            ("pool", Str(pool)),
            ("worker", UInt(worker as u64)),
            ("epoch", UInt(epoch as u64)),
        ],
    }
}

fn args_object(event: &Event) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields(event).iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{k}\":{v}"));
    }
    out.push('}');
    out
}

/// Renders a Chrome `trace_event` JSON document (the
/// `{"traceEvents": [...]}` object form) loadable in `chrome://tracing`
/// and Perfetto. Phase events become duration begin/end pairs (`B`/`E`)
/// and decision events become thread-scoped instants (`i`) carrying
/// their payload in `args`. Counters are not part of the stream; they
/// live in the metrics registry.
pub fn chrome_trace(timed: &[TimedEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, t) in timed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts = t.ts_us;
        match &t.event {
            Event::PhaseBegin { phase } => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"B\",\"ts\":{ts},\"pid\":1,\"tid\":1}}",
                    escape(phase)
                ));
            }
            Event::PhaseEnd { phase } => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"phase\",\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":1}}",
                    escape(phase)
                ));
            }
            ev => {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"decision\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\"tid\":1,\"args\":{}}}",
                    ev.kind(),
                    args_object(ev)
                ));
            }
        }
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Renders newline-delimited JSON: one object per event with `ts_us`,
/// `type`, and the event's payload fields.
pub fn jsonl(timed: &[TimedEvent]) -> String {
    let mut out = String::new();
    for t in timed {
        out.push_str(&format!(
            "{{\"ts_us\":{},\"type\":\"{}\"",
            t.ts_us,
            t.event.kind()
        ));
        for (k, v) in fields(&t.event) {
            out.push_str(&format!(",\"{k}\":{v}"));
        }
        out.push_str("}\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlaceVerdict;
    use mcs_codec::json::parse;

    fn sample() -> Vec<TimedEvent> {
        let events = vec![
            Event::PhaseBegin { phase: "schedule" },
            Event::ScheduleDecision {
                op: 3,
                step: 2,
                verdict: PlaceVerdict::SameCycleConflict,
            },
            Event::PinCheck {
                group: 1,
                pins_used: 14,
                cap: 16,
                verdict: true,
            },
            Event::GomoryCut {
                round: 2,
                pivot: 5,
                objective: -3,
            },
            Event::BusReassign {
                op: 9,
                step: 4,
                from_bus: 0,
                to_bus: 2,
                augmenting_path_len: 1,
            },
            Event::ProbeResolved {
                var: 6,
                by: 1,
                verdict: false,
                source: crate::ProbeSource::Surrogate,
                trail_depth: 0,
            },
            Event::SearchNode {
                worker: 1,
                epoch: 3,
                nodes: 120,
                prunes: 7,
                backtracks: 2,
            },
            Event::WorkerPanic {
                pool: "portfolio",
                worker: 2,
                epoch: 3,
            },
            Event::PhaseEnd { phase: "schedule" },
        ];
        events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TimedEvent {
                ts_us: 10 * i as u64,
                event,
            })
            .collect()
    }

    #[test]
    fn chrome_trace_is_valid_json_with_all_kinds() {
        let trace = chrome_trace(&sample());
        parse(&trace).expect("chrome trace parses");
        assert!(trace.starts_with("{\"traceEvents\":["));
        for needle in [
            "\"ph\":\"B\"",
            "\"ph\":\"E\"",
            "\"ph\":\"i\"",
            "ScheduleDecision",
            "PinCheck",
            "GomoryCut",
            "BusReassign",
            "ProbeResolved",
            "\"source\":\"surrogate\"",
            "SearchNode",
            "WorkerPanic",
            "\"pool\":\"portfolio\"",
            "same-cycle-conflict",
        ] {
            assert!(trace.contains(needle), "missing {needle} in {trace}");
        }
    }

    #[test]
    fn jsonl_lines_each_parse() {
        let text = jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 9);
        for line in lines {
            parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        }
        assert!(text.contains("\"type\":\"PinCheck\""));
        assert!(text.contains("\"pins_used\":14"));
    }

    #[test]
    fn empty_trace_is_still_valid() {
        parse(&chrome_trace(&[])).expect("empty trace parses");
        assert_eq!(jsonl(&[]), "");
    }
}
