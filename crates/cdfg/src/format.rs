//! A line-oriented text format for partitioned CDFGs.
//!
//! Lets designs be authored, stored, and exchanged without writing Rust —
//! the textual counterpart of [`crate::CdfgBuilder`]. [`parse`] builds a
//! validated [`Design`] from text; [`write()`] renders any [`Cdfg`] back to
//! canonical text. The canonical form is *idempotent*:
//! `write(parse(write(g))) == write(g)` for every valid graph, which the
//! round-trip tests rely on.
//!
//! # Format
//!
//! One statement per line; `#` starts a comment; tokens are separated by
//! whitespace. Statements:
//!
//! ```text
//! design <name>                       # optional display name
//! stage <ns>                          # clock period (required first)
//! iodelay <ns>                        # I/O transfer delay
//! module <class> <delay_ns> [blocking]# operator class; blocking = not pipelined
//! conds <n>                           # number of conditional-branch variables
//! envpins <pins>                      # pin budget of the environment
//! partition <name> <pins> [split <in> <out>] [bidir]
//! resource <partition> <class> <count>
//! extval <name> <bits>                # a value driven by the outside world
//! input <name> <bits> <partition>     # sugar: extval + transfer into the chip
//! func <name> <class> <partition> <bits> [guard <±k>...] [: <value>[@deg]...]
//! pending <name> <bits> <from> <to> [guard <±k>...]   # I/O transfer node
//! bind <io-name> <value>[@deg]        # attach the transfer's source value
//! split <name> <value> : <w0> <w1>... # TDM split; parts are <name>.0, .1, ...
//! merge <name> <partition> <bits> : <part>...
//! output <name> <value>               # sugar: pending+bind to the environment
//! edge <from-op> <to-op> <value>[@deg]# raw dependence edge (feedback)
//! ```
//!
//! Values are referenced by the name of the statement that created them
//! (`func`/`pending`/`input`/`extval`/`merge` names; `<split>.<k>` for
//! split parts). `@deg` marks a data recursive edge consuming the value
//! produced `deg` instances earlier. Guards list branch literals by
//! index: `guard +0 -2` means "branch 0 taken and branch 2 not taken".
//! The environment partition is named `env`.

use std::collections::BTreeMap;
use std::fmt;

use crate::designs::Design;
use crate::graph::{Cdfg, CdfgBuilder, Edge, OpKind, PortMode};
use crate::ids::{CondId, OpId, PartitionId, ValueId};
use crate::library::{Library, Module, OperatorClass};

/// A syntax or semantic error in the textual form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending statement (0 for file-level errors).
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// `value[@degree]` reference.
fn parse_ref(token: &str, line: usize) -> Result<(&str, u32), ParseError> {
    match token.split_once('@') {
        None => Ok((token, 0)),
        Some((name, deg)) => match deg.parse() {
            Ok(d) => Ok((name, d)),
            Err(_) => err(line, format!("bad degree in `{token}`")),
        },
    }
}

/// Applies guard literals by nesting [`CdfgBuilder::under_condition`].
fn with_guard<R>(
    b: &mut CdfgBuilder,
    lits: &[(CondId, bool)],
    f: Box<dyn FnOnce(&mut CdfgBuilder) -> R + '_>,
) -> R {
    match lits.split_first() {
        None => f(b),
        Some((&(c, pol), rest)) => b.under_condition(c, pol, move |b| with_guard(b, rest, f)),
    }
}

#[derive(Default)]
struct Names {
    values: BTreeMap<String, ValueId>,
    ops: BTreeMap<String, OpId>,
    partitions: BTreeMap<String, PartitionId>,
    conds: Vec<CondId>,
    /// `pending` transfers awaiting a `bind`: op -> (source partition, bits).
    pending: BTreeMap<OpId, (PartitionId, u32)>,
}

impl Names {
    fn value(&self, name: &str, line: usize) -> Result<ValueId, ParseError> {
        match self.values.get(name) {
            Some(&v) => Ok(v),
            None => err(line, format!("unknown value `{name}`")),
        }
    }

    fn partition(&self, name: &str, line: usize) -> Result<PartitionId, ParseError> {
        if name == "env" {
            return Ok(PartitionId::ENVIRONMENT);
        }
        match self.partitions.get(name) {
            Some(&p) => Ok(p),
            None => err(line, format!("unknown partition `{name}`")),
        }
    }

    fn def_value(&mut self, name: &str, v: ValueId, line: usize) -> Result<(), ParseError> {
        if self.values.insert(name.to_string(), v).is_some() {
            return err(line, format!("value name `{name}` already defined"));
        }
        Ok(())
    }

    fn def_op(&mut self, name: &str, op: OpId, line: usize) -> Result<(), ParseError> {
        if self.ops.insert(name.to_string(), op).is_some() {
            return err(line, format!("operation name `{name}` already defined"));
        }
        Ok(())
    }
}

/// A statement split into its head tokens, guard literals, and the
/// operand tokens after `:`.
type Clauses<'a> = (&'a [&'a str], Vec<(CondId, bool)>, &'a [&'a str]);

/// Splits trailing `guard ±k...` and `: operands...` clauses off a
/// statement's tokens.
fn clauses<'a>(
    tokens: &'a [&'a str],
    names: &Names,
    line: usize,
) -> Result<Clauses<'a>, ParseError> {
    let colon = tokens.iter().position(|&t| t == ":");
    let (pre, operands) = match colon {
        Some(i) => (&tokens[..i], &tokens[i + 1..]),
        None => (tokens, &[][..]),
    };
    let guard_at = pre.iter().position(|&t| t == "guard");
    let (head, guard_tokens) = match guard_at {
        Some(i) => (&pre[..i], &pre[i + 1..]),
        None => (pre, &[][..]),
    };
    let mut lits = Vec::new();
    for &t in guard_tokens {
        let (pol, idx) = match t.split_at_checked(1) {
            Some(("+", rest)) => (true, rest),
            Some(("-", rest)) => (false, rest),
            _ => return err(line, format!("guard literal `{t}` must start with + or -")),
        };
        let k: usize = match idx.parse() {
            Ok(k) => k,
            Err(_) => return err(line, format!("bad guard literal `{t}`")),
        };
        match names.conds.get(k) {
            Some(&c) => lits.push((c, pol)),
            None => return err(line, format!("guard references undeclared branch {k}")),
        }
    }
    Ok((head, lits, operands))
}

/// Parses the textual form into a validated [`Design`].
///
/// # Errors
///
/// Returns the first syntax or semantic problem with its line number;
/// graph-level problems found by [`Cdfg::validate`] are reported on line 0.
pub fn parse(text: &str) -> Result<Design, ParseError> {
    let mut stage: Option<u64> = None;
    let mut iodelay: Option<u64> = None;
    let mut modules: Vec<Module> = Vec::new();
    let mut design_name = "design".to_string();

    // First pass: the library must exist before the builder.
    let mut body: Vec<(usize, Vec<&str>)> = Vec::new();
    for (ln, raw) in text.lines().enumerate() {
        let line = ln + 1;
        let stmt = raw.split('#').next().unwrap_or("");
        let tokens: Vec<&str> = stmt.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        match tokens[0] {
            "design" if tokens.len() == 2 => design_name = tokens[1].to_string(),
            "stage" if tokens.len() == 2 => match tokens[1].parse() {
                Ok(v) => stage = Some(v),
                Err(_) => return err(line, "bad stage value"),
            },
            "iodelay" if tokens.len() == 2 => match tokens[1].parse() {
                Ok(v) => iodelay = Some(v),
                Err(_) => return err(line, "bad iodelay value"),
            },
            "module" if tokens.len() == 3 || tokens.len() == 4 => {
                let delay_ns = match tokens[2].parse() {
                    Ok(v) => v,
                    Err(_) => return err(line, "bad module delay"),
                };
                let pipelined = match tokens.get(3) {
                    None => true,
                    Some(&"blocking") => false,
                    Some(other) => return err(line, format!("unknown module flag `{other}`")),
                };
                modules.push(Module {
                    class: OperatorClass::from_token(tokens[1]),
                    delay_ns,
                    pipelined,
                });
            }
            _ => body.push((line, tokens)),
        }
    }
    let Some(stage) = stage else {
        return err(0, "missing `stage <ns>` statement");
    };
    if stage == 0 {
        return err(0, "stage time must be positive");
    }
    let mut library = Library::new(stage);
    if let Some(d) = iodelay {
        if d > stage {
            return err(0, "iodelay must not exceed the stage time");
        }
        library.set_io_delay_ns(d);
    }
    for m in modules {
        library.insert(m);
    }

    let mut b = CdfgBuilder::new(library);
    let mut names = Names::default();

    for (line, tokens) in body {
        let (head, guard, operands) = clauses(&tokens, &names, line)?;
        match head {
            ["conds", n] => {
                let n: usize = n.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad conds count".into(),
                })?;
                if n > 1024 {
                    return err(line, "at most 1024 branch variables");
                }
                for _ in 0..n {
                    let c = b.condition_var();
                    names.conds.push(c);
                }
            }
            ["envpins", pins] => {
                let pins = pins.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad envpins".into(),
                })?;
                b.environment_pins(pins);
            }
            ["partition", rest @ ..] if !rest.is_empty() => {
                let name = rest[0];
                let Some(Ok(pins)) = rest.get(1).map(|t| t.parse::<u32>()) else {
                    return err(line, "partition needs `<name> <pins>`");
                };
                let p = b.partition(name, pins);
                let mut i = 2;
                while i < rest.len() {
                    match rest[i] {
                        "split" if i + 2 < rest.len() => {
                            let inp = rest[i + 1].parse().map_err(|_| ParseError {
                                line,
                                msg: "bad split".into(),
                            })?;
                            let out = rest[i + 2].parse().map_err(|_| ParseError {
                                line,
                                msg: "bad split".into(),
                            })?;
                            b.fix_pin_split(p, inp, out);
                            i += 3;
                        }
                        "bidir" => {
                            b.port_mode(p, PortMode::Bidirectional);
                            i += 1;
                        }
                        other => return err(line, format!("unknown partition flag `{other}`")),
                    }
                }
                if names.partitions.insert(name.to_string(), p).is_some() {
                    return err(line, format!("partition `{name}` already defined"));
                }
            }
            ["resource", p, class, n] => {
                let pid = names.partition(p, line)?;
                let n = n.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad resource count".into(),
                })?;
                b.resource(pid, OperatorClass::from_token(class), n);
            }
            ["extval", name, bits] => {
                let bits = bits.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad bits".into(),
                })?;
                let v = b.external_value(name, bits);
                names.def_value(name, v, line)?;
            }
            ["input", name, bits, p] => {
                let bits = bits.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad bits".into(),
                })?;
                let pid = names.partition(p, line)?;
                let (op, v) = b.input(name, bits, pid);
                names.def_op(name, op, line)?;
                names.def_value(name, v, line)?;
            }
            ["func", name, class, p, bits] => {
                let bits: u32 = bits.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad bits".into(),
                })?;
                if bits == 0 {
                    return err(line, "result width must be positive");
                }
                let pid = names.partition(p, line)?;
                let mut inputs = Vec::new();
                for &t in operands {
                    let (vname, deg) = parse_ref(t, line)?;
                    let v = names.value(vname, line)?;
                    if b.home_of(v) != pid {
                        return err(
                            line,
                            format!("value `{vname}` is not available in partition `{p}`; transfer it first"),
                        );
                    }
                    inputs.push((v, deg));
                }
                let class = OperatorClass::from_token(class);
                let (op, v) = with_guard(
                    &mut b,
                    &guard,
                    Box::new(move |b| b.func(name, class, pid, &inputs, bits)),
                );
                names.def_op(name, op, line)?;
                names.def_value(name, v, line)?;
            }
            ["pending", name, bits, from, to] => {
                let bits: u32 = bits.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad bits".into(),
                })?;
                let fp = names.partition(from, line)?;
                let tp = names.partition(to, line)?;
                let (op, v) = with_guard(
                    &mut b,
                    &guard,
                    Box::new(move |b| b.io_pending(name, bits, fp, tp)),
                );
                names.def_op(name, op, line)?;
                names.def_value(name, v, line)?;
                names.pending.insert(op, (fp, bits));
            }
            ["bind", io, value] => {
                let Some(&op) = names.ops.get(*io) else {
                    return err(line, format!("unknown operation `{io}`"));
                };
                let Some((from, bits)) = names.pending.remove(&op) else {
                    return err(line, format!("`{io}` is not an unbound pending transfer"));
                };
                let (vname, deg) = parse_ref(value, line)?;
                let v = names.value(vname, line)?;
                if b.home_of(v) != from {
                    return err(
                        line,
                        format!(
                            "source `{vname}` does not live in the transfer's source partition"
                        ),
                    );
                }
                if b.value_bits(v) != bits {
                    return err(
                        line,
                        format!(
                            "source `{vname}` is {} bits wide, the transfer declared {bits}",
                            b.value_bits(v)
                        ),
                    );
                }
                b.bind_io_source(op, v, deg);
            }
            ["split", name, src] => {
                let v = names.value(src, line)?;
                let mut widths = Vec::new();
                for &t in operands {
                    widths.push(t.parse().map_err(|_| ParseError {
                        line,
                        msg: "bad split width".into(),
                    })?);
                }
                if widths.is_empty() {
                    return err(line, "split needs `: <w0> <w1> ...`");
                }
                // Checked: a wrapping sum would let `4294967295 33` pass
                // as 32 bits.
                let total = widths.iter().try_fold(0u32, |acc, &w| acc.checked_add(w));
                if total != Some(b.value_bits(v)) || widths.contains(&0) {
                    return err(
                        line,
                        format!(
                            "split widths must be positive and sum to {} bits",
                            b.value_bits(v)
                        ),
                    );
                }
                let (op, parts) = b.split(name, v, &widths);
                names.def_op(name, op, line)?;
                for (k, part) in parts.into_iter().enumerate() {
                    names.def_value(&format!("{name}.{k}"), part, line)?;
                }
            }
            ["merge", name, p, bits] => {
                let bits: u32 = bits.parse().map_err(|_| ParseError {
                    line,
                    msg: "bad bits".into(),
                })?;
                let pid = names.partition(p, line)?;
                if bits == 0 {
                    return err(line, "merge width must be positive");
                }
                let mut parts = Vec::new();
                for &t in operands {
                    let v = names.value(t, line)?;
                    if b.home_of(v) != pid {
                        return err(
                            line,
                            format!("part `{t}` is not available in partition `{p}`"),
                        );
                    }
                    parts.push(v);
                }
                let (op, v) = b.merge(name, pid, &parts, bits);
                names.def_op(name, op, line)?;
                names.def_value(name, v, line)?;
            }
            ["output", name, value] => {
                let v = names.value(value, line)?;
                let op = with_guard(&mut b, &guard, Box::new(move |b| b.output(name, v)));
                names.def_op(name, op, line)?;
            }
            ["edge", from, to, value] => {
                let Some(&fop) = names.ops.get(*from) else {
                    return err(line, format!("unknown operation `{from}`"));
                };
                let Some(&top) = names.ops.get(*to) else {
                    return err(line, format!("unknown operation `{to}`"));
                };
                let (vname, deg) = parse_ref(value, line)?;
                let v = names.value(vname, line)?;
                b.add_edge(Edge {
                    from: fop,
                    to: top,
                    value: v,
                    degree: deg,
                });
            }
            other => {
                return err(
                    line,
                    format!("unrecognized statement `{}`", other.join(" ")),
                )
            }
        }
    }

    match b.finish() {
        Ok(cdfg) => Ok(Design::new(&design_name, cdfg)),
        Err(e) => err(0, format!("graph validation failed: {e}")),
    }
}

/// Whether `name` can appear verbatim in the text format.
fn token_safe(name: &str) -> bool {
    !name.is_empty()
        && name != "env"
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

/// Renders `cdfg` in canonical textual form (see module docs).
///
/// Operation and partition names are kept when they are unique and
/// token-safe; otherwise canonical `o<k>` / `p<k>` names are substituted.
/// The output is idempotent under [`parse`] → [`write()`].
pub fn write(cdfg: &Cdfg) -> String {
    use std::fmt::Write as _;

    let lib = cdfg.library();
    let mut out = String::new();
    let _ = writeln!(out, "stage {}", lib.stage_ns());
    let _ = writeln!(out, "iodelay {}", lib.io_delay_ns());
    for m in lib.iter() {
        let _ = writeln!(
            out,
            "module {} {}{}",
            m.class.token(),
            m.delay_ns,
            if m.pipelined { "" } else { " blocking" }
        );
    }

    // Branch variables.
    let nconds = cdfg
        .ops()
        .iter()
        .flat_map(|o| o.condition.literals())
        .map(|&(c, _)| c.index() + 1)
        .max()
        .unwrap_or(0);
    if nconds > 0 {
        let _ = writeln!(out, "conds {nconds}");
    }

    // Partitions: keep original names when unique and safe.
    let mut pname: Vec<String> = Vec::new();
    {
        let originals: Vec<&str> = cdfg.partitions().iter().map(|p| p.name.as_str()).collect();
        let unique = originals
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            == originals.len();
        for (i, p) in cdfg.partitions().iter().enumerate() {
            if i == 0 {
                pname.push("env".into());
            } else if unique && token_safe(&p.name) {
                pname.push(p.name.clone());
            } else {
                pname.push(format!("p{i}"));
            }
        }
    }
    for (i, p) in cdfg.partitions().iter().enumerate() {
        if i == 0 {
            // The builder leaves the environment effectively unconstrained
            // (u32::MAX / 2); only a real user budget is worth a statement.
            if p.total_pins < u32::MAX / 2 {
                let _ = writeln!(out, "envpins {}", p.total_pins);
            }
            continue;
        }
        let _ = write!(out, "partition {} {}", pname[i], p.total_pins);
        if let Some((inp, outp)) = p.fixed_split {
            let _ = write!(out, " split {inp} {outp}");
        }
        if p.port_mode == PortMode::Bidirectional {
            let _ = write!(out, " bidir");
        }
        let _ = writeln!(out);
        for (class, &n) in &p.resources {
            let _ = writeln!(out, "resource {} {} {n}", pname[i], class.token());
        }
    }

    // Operation names: originals when globally unique and token-safe.
    let oname: Vec<String> = {
        let originals: Vec<&str> = cdfg.ops().iter().map(|o| o.name.as_str()).collect();
        let usable = originals
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            == originals.len()
            && originals.iter().all(|n| token_safe(n) && !n.contains('.'));
        cdfg.ops()
            .iter()
            .enumerate()
            .map(|(i, o)| {
                if usable {
                    o.name.clone()
                } else {
                    format!("o{i}")
                }
            })
            .collect()
    };

    // Value references: producing statement's name (`.k` for split parts),
    // `x<j>` for external values.
    let mut vref: BTreeMap<ValueId, String> = BTreeMap::new();
    for op in cdfg.op_ids() {
        if let Some(r) = cdfg.op(op).result {
            vref.insert(r, oname[op.index()].clone());
        }
        if matches!(cdfg.op(op).kind, OpKind::Split { .. }) {
            let mut parts: Vec<ValueId> =
                cdfg.succs(op).iter().map(|&e| cdfg.edge(e).value).collect();
            parts.sort();
            parts.dedup();
            for (k, part) in parts.into_iter().enumerate() {
                vref.insert(part, format!("{}.{k}", oname[op.index()]));
            }
        }
    }
    // External values (io sources without producers), in first-use order.
    let mut externals: Vec<ValueId> = Vec::new();
    for op in cdfg.io_ops() {
        if let OpKind::Io { value, .. } = cdfg.op(op).kind {
            if !vref.contains_key(&value) && !externals.contains(&value) {
                externals.push(value);
            }
        }
    }
    for (j, &v) in externals.iter().enumerate() {
        let name = format!("x{j}");
        let _ = writeln!(out, "extval {name} {}", cdfg.value(v).bits);
        vref.insert(v, name);
    }

    let guard_clause = |op: OpId| -> String {
        let lits = cdfg.op(op).condition.literals();
        if lits.is_empty() {
            return String::new();
        }
        let mut s = " guard".to_string();
        for &(c, pol) in lits {
            let _ = write!(s, " {}{}", if pol { "+" } else { "-" }, c.index());
        }
        s
    };

    // Operations in id order. Functional operands and I/O sources are
    // emitted as explicit `edge`/`bind` statements afterwards, preserving
    // the graph's exact edge order; split/merge keep inline operands
    // (their edges are created at the statement).
    for op in cdfg.op_ids() {
        let node = cdfg.op(op);
        let name = &oname[op.index()];
        match &node.kind {
            OpKind::Func(class) => {
                let bits = node.result.map(|v| cdfg.value(v).bits).unwrap_or(0);
                let _ = writeln!(
                    out,
                    "func {name} {} {} {bits}{}",
                    class.token(),
                    pname[node.partition.index()],
                    guard_clause(op)
                );
            }
            OpKind::Io { from, to, .. } => {
                let bits = cdfg.io_bits(op);
                let _ = writeln!(
                    out,
                    "pending {name} {bits} {} {}{}",
                    pname[from.index()],
                    pname[to.index()],
                    guard_clause(op)
                );
            }
            OpKind::Split { .. } => {
                let src = cdfg.edge(cdfg.preds(op)[0]).value;
                let mut parts: Vec<ValueId> =
                    cdfg.succs(op).iter().map(|&e| cdfg.edge(e).value).collect();
                parts.sort();
                parts.dedup();
                let widths: Vec<String> = parts
                    .iter()
                    .map(|&p| cdfg.value(p).bits.to_string())
                    .collect();
                let _ = writeln!(out, "split {name} {} : {}", vref[&src], widths.join(" "));
            }
            OpKind::Merge => {
                let bits = node.result.map(|v| cdfg.value(v).bits).unwrap_or(0);
                let parts: Vec<String> = cdfg
                    .preds(op)
                    .iter()
                    .map(|&e| vref[&cdfg.edge(e).value].clone())
                    .collect();
                let _ = writeln!(
                    out,
                    "merge {name} {} {bits} : {}",
                    pname[node.partition.index()],
                    parts.join(" ")
                );
            }
        }
    }

    // Bind every transfer's source, then the dependence edges in graph
    // order (skipping those split/merge/bind statements already created).
    for op in cdfg.io_ops() {
        if let OpKind::Io { value, .. } = cdfg.op(op).kind {
            let deg = cdfg
                .preds(op)
                .iter()
                .map(|&e| cdfg.edge(e))
                .find(|e| e.value == value)
                .map(|e| e.degree)
                .unwrap_or(0);
            let r = &vref[&value];
            let name = &oname[op.index()];
            if deg == 0 {
                let _ = writeln!(out, "bind {name} {r}");
            } else {
                let _ = writeln!(out, "bind {name} {r}@{deg}");
            }
        }
    }
    for e in cdfg.edges() {
        let to_kind = &cdfg.op(e.to).kind;
        let skip = match to_kind {
            // Created by the `bind` statement above.
            OpKind::Io { value, .. } => e.value == *value,
            // Created inline by `split`/`merge` statements.
            OpKind::Split { .. } | OpKind::Merge => true,
            OpKind::Func(_) => false,
        };
        if skip {
            continue;
        }
        let deg = if e.degree == 0 {
            String::new()
        } else {
            format!("@{}", e.degree)
        };
        let _ = writeln!(
            out,
            "edge {} {} {}{deg}",
            oname[e.from.index()],
            oname[e.to.index()],
            vref[&e.value]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{ar_filter, elliptic, synthetic};

    const TINY: &str = "
        # two chips, one multiply, one accumulate
        stage 250
        iodelay 100
        module add 48
        module mul 163
        partition P1 32
        partition P2 32
        resource P1 mul 1
        resource P2 add 1
        input a 8 P1
        input b 8 P1
        func m mul P1 8 : a b
        pending X 8 P1 P2
        bind X m
        func acc add P2 8 : X
        edge acc acc acc@1
        output o acc
    ";

    #[test]
    fn parses_a_hand_written_design() {
        let d = parse(TINY).unwrap();
        let g = d.cdfg();
        assert_eq!(g.partition_count(), 3);
        assert_eq!(g.func_ops().count(), 2);
        // a, b inputs + X + o output = 4 transfers.
        assert_eq!(g.io_ops().count(), 4);
        assert!(g.edges().iter().any(|e| e.degree == 1), "recursive edge");
        assert_eq!(crate::timing::min_initiation_rate(g), 1);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let bad = "stage 250\nfunc f add Nowhere 8\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("Nowhere"), "{e}");
    }

    #[test]
    fn widths_and_degrees_past_their_ceilings_are_refused() {
        let wide = TINY.replace("input a 8 P1", "input a 4294967295 P1");
        let e = parse(&wide).unwrap_err();
        assert!(
            e.msg
                .contains("4294967295 bits wide, over the limit of 1024"),
            "{e}"
        );
        let deep = TINY.replace("acc@1", "acc@4000000000");
        let e = parse(&deep).unwrap_err();
        assert!(
            e.msg
                .contains("recursion degree 4000000000, over the limit of 64"),
            "{e}"
        );
        // The ceilings themselves parse.
        let at = TINY
            .replace("input a 8 P1", "input a 1024 P1")
            .replace("acc@1", "acc@64");
        parse(&at).unwrap();
    }

    #[test]
    fn pin_budgets_and_unit_counts_past_their_ceilings_are_refused() {
        let pins = TINY.replace("partition P1 32", "partition P1 4294967295");
        let e = parse(&pins).unwrap_err();
        assert!(
            e.msg.contains(
                "partition P1 declares 4294967295 as its pin budget, over the limit of 2147483647"
            ),
            "{e}"
        );
        let env = format!("envpins 4294967295\n{TINY}");
        let e = parse(&env).unwrap_err();
        assert!(e.msg.contains("partition P0 declares 4294967295"), "{e}");
        let units = TINY.replace("resource P2 add 1", "resource P2 add 4294967295");
        let e = parse(&units).unwrap_err();
        assert!(
            e.msg.contains(
                "partition P2 declares 4294967295 as its add units, over the limit of 4096"
            ),
            "{e}"
        );
        // The ceilings themselves parse, and the environment's
        // unbudgeted default round-trips.
        let at = TINY
            .replace("partition P1 32", "partition P1 2147483647")
            .replace("resource P2 add 1", "resource P2 add 4096");
        let d = parse(&at).unwrap();
        parse(&write(d.cdfg())).unwrap();
    }

    #[test]
    fn missing_stage_is_rejected() {
        assert!(parse("partition P1 32\n").is_err());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let bad = "stage 100\npartition P1 8\ninput a 8 P1\ninput a 8 P1\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("already defined"), "{e}");
    }

    #[test]
    fn unknown_statement_is_rejected() {
        let e = parse("stage 100\nfrobnicate 3\n").unwrap_err();
        assert!(e.msg.contains("unrecognized"), "{e}");
    }

    #[test]
    fn guards_require_declared_branches() {
        let bad = "stage 100\npartition P1 8\ninput a 8 P1\nfunc f add P1 8 guard +0 : a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("undeclared"), "{e}");
    }

    fn roundtrip(g: &Cdfg) {
        let text = write(g);
        let re = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let text2 = write(re.cdfg());
        assert_eq!(text, text2, "canonical form must be idempotent");
        // Structural invariants preserved.
        assert_eq!(g.ops().len(), re.cdfg().ops().len());
        assert_eq!(g.edges().len(), re.cdfg().edges().len());
        assert_eq!(g.partition_count(), re.cdfg().partition_count());
        assert_eq!(
            crate::timing::min_initiation_rate(g),
            crate::timing::min_initiation_rate(re.cdfg())
        );
    }

    #[test]
    fn roundtrips_the_benchmark_designs() {
        roundtrip(ar_filter::simple().cdfg());
        roundtrip(ar_filter::general(3, PortMode::Unidirectional).cdfg());
        roundtrip(elliptic::partitioned().cdfg());
        roundtrip(synthetic::quickstart().cdfg());
        roundtrip(synthetic::fig_2_5().cdfg());
        roundtrip(synthetic::tdm_example(true).cdfg());
        roundtrip(synthetic::multicycle_example().cdfg());
    }

    #[test]
    fn roundtrips_conditional_designs() {
        let (d, _) = synthetic::conditional_example();
        roundtrip(d.cdfg());
    }

    #[test]
    fn write_emits_recursive_degrees() {
        let d = synthetic::quickstart();
        let text = write(d.cdfg());
        assert!(text.contains("@1") || text.contains("@2"), "{text}");
    }

    #[test]
    fn roundtrips_bidirectional_designs() {
        roundtrip(ar_filter::general(3, PortMode::Bidirectional).cdfg());
        roundtrip(elliptic::partitioned_with(6, PortMode::Bidirectional).cdfg());
    }

    #[test]
    fn fixed_pin_splits_survive_the_roundtrip() {
        let d = synthetic::fig_2_5();
        let text = write(d.cdfg());
        assert!(text.contains("split "), "{text}");
        let re = parse(&text).unwrap();
        let orig: Vec<_> = d
            .cdfg()
            .partitions()
            .iter()
            .map(|p| p.fixed_split)
            .collect();
        let back: Vec<_> = re
            .cdfg()
            .partitions()
            .iter()
            .map(|p| p.fixed_split)
            .collect();
        assert_eq!(orig, back);
    }

    #[test]
    fn split_widths_must_sum_to_the_value() {
        let bad = "stage 100\npartition P1 64\ninput w 32 P1\nsplit sp w : 8 8\n";
        let e = std::panic::catch_unwind(|| parse(bad));
        // The builder asserts on width mismatch; either an Err or a panic
        // is acceptable rejection, silence is not.
        assert!(e.is_err() || e.unwrap().is_err());
    }

    #[test]
    fn overflowing_split_widths_are_a_parse_error() {
        // 4294967295 + 33 wraps to 32 in u32 arithmetic; the parser must
        // reject it as a sum mismatch in debug and release alike.
        let bad = "stage 100\npartition P1 64\ninput wide 32 P1\n\
                   split halves wide : 4294967295 33\n";
        let e = parse(bad).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.msg.contains("sum to 32 bits"), "{}", e.msg);
    }

    #[test]
    fn bind_rejects_unknown_operations() {
        let bad = "stage 100\npartition P1 8\ninput a 8 P1\nbind nosuch a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("unknown operation"), "{e}");
    }

    #[test]
    fn edge_rejects_unknown_endpoints() {
        let bad = "stage 100\npartition P1 8\ninput a 8 P1\nedge a nosuch a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("unknown operation"), "{e}");
    }

    #[test]
    fn guard_polarity_must_be_signed() {
        let bad = "stage 100\nconds 1\npartition P1 8\ninput a 8 P1\nfunc f add P1 8 guard 0 : a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("must start with"), "{e}");
    }

    #[test]
    fn input_and_output_sugar_compose() {
        let text = "stage 100\npartition P1 16\ninput a 8 P1\noutput o a\n";
        let d = parse(text).unwrap();
        // One transfer in, one out, nothing else.
        assert_eq!(d.cdfg().io_ops().count(), 2);
        assert_eq!(d.cdfg().func_ops().count(), 0);
    }

    #[test]
    fn bind_rejects_width_mismatch_with_a_message() {
        let bad = "stage 100\npartition P1 8\npartition P2 8\ninput a 8 P1\n\
                   func f add P1 16 : a\npending X 8 P1 P2\nbind X f\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("16 bits wide"), "{e}");
    }

    #[test]
    fn bind_rejects_wrong_source_partition() {
        let bad = "stage 100\npartition P1 8\npartition P2 8\ninput a 8 P2\n\
                   pending X 8 P1 P2\nbind X a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("source partition"), "{e}");
    }

    #[test]
    fn double_bind_is_rejected() {
        let bad = "stage 100\npartition P1 8\npartition P2 8\ninput a 8 P1\n\
                   pending X 8 P1 P2\nbind X a\nbind X a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("not an unbound"), "{e}");
    }

    #[test]
    fn bind_on_a_func_is_rejected() {
        let bad = "stage 100\npartition P1 8\ninput a 8 P1\nfunc f add P1 8 : a\nbind f a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("not an unbound"), "{e}");
    }

    #[test]
    fn func_operand_from_the_wrong_chip_is_rejected() {
        let bad = "stage 100\npartition P1 8\npartition P2 8\ninput a 8 P1\n\
                   func f add P2 8 : a\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("transfer it first"), "{e}");
        assert_eq!(e.line, 5);
    }

    #[test]
    fn merge_part_from_the_wrong_chip_is_rejected() {
        let bad = "stage 100\npartition P1 64\npartition P2 64\ninput w 16 P1\n\
                   split sp w : 8 8\nmerge mg P2 16 : sp.0 sp.1\n";
        let e = parse(bad).unwrap_err();
        assert!(e.msg.contains("not available"), "{e}");
    }

    #[test]
    fn parser_never_panics_on_junk() {
        // Statement-shaped junk exercising every keyword with wrong
        // arities, types, widths, and references.
        let fragments = [
            "stage",
            "stage x",
            "stage 0",
            "iodelay 9999999",
            "module",
            "module add",
            "module add x",
            "module add 10 wat",
            "conds -1",
            "conds abc",
            "envpins x",
            "partition",
            "partition P 8 split 1",
            "partition P 8 wat",
            "resource P add x",
            "resource Q add 1",
            "extval v",
            "extval v 0",
            "input i 8 Q",
            "func f add P 8 : missing",
            "func f add P abc",
            "pending X 8 P Q",
            "bind X missing",
            "bind missing v",
            "split s missing : 8",
            "split s v :",
            "split s v : 0 8",
            "merge m P 8 : missing",
            "output o missing",
            "edge a b c",
            "edge a b c@x",
            ": : :",
            "guard +0",
            "\u{0}weird\u{7f}",
            "func f add P 8 guard %0 : v",
            "func f add P 8 guard \u{e9}0 : v",
            "conds 99999999999",
            "stage 100\u{2028}",
            "partition \u{fe}\u{ff} 8",
        ];
        // A valid prefix so later statements have something to refer to.
        let prefix = "stage 100\npartition P 64\ninput v 16 P\n";
        for frag in fragments {
            let text = format!("{prefix}{frag}\n");
            let _ = parse(&text); // must return, never panic
        }
        // And a deterministic pseudo-random byte soup.
        let mut x = 0x1234_5678_9ABC_DEF0u64;
        for _ in 0..200 {
            let mut sample = String::new();
            for _ in 0..40 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let c = (x % 96 + 32) as u8 as char;
                sample.push(if x.is_multiple_of(7) { '\n' } else { c });
            }
            let _ = parse(&sample);
            let _ = parse(&format!("{prefix}{sample}"));
        }
    }

    #[test]
    fn blocking_modules_stay_blocking() {
        let text = "stage 100\nmodule mul 200 blocking\npartition P1 8\ninput a 8 P1\n";
        let d = parse(text).unwrap();
        assert!(!d.cdfg().library().pipelined(&crate::OperatorClass::Mul));
        let again = write(d.cdfg());
        assert!(again.contains("mul 200 blocking"), "{again}");
    }
}
