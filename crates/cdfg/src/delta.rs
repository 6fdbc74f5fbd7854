//! Design deltas: the edit vocabulary of incremental resynthesis.
//!
//! A [`DesignDelta`] is an ordered list of small edits — the kinds of
//! changes a designer makes between synthesis runs under fixed pin
//! constraints: widen a value, drop a dead output, move an operation to
//! another chip, add an operation, or change the initiation rate.
//! [`DesignDelta::apply`] produces the edited graph *plus* the
//! bookkeeping an incremental flow needs: a stable mapping from old to
//! new operation ids and the set of directly touched operations (the
//! seed of the dirty region; see `docs/INCREMENTAL.md`).
//!
//! Edits keep operation ids stable wherever possible: new operations
//! and values are appended at the end, and only [`DeltaOp::OpRemoved`]
//! renumbers. This is what makes commit-level trail reuse in the pin
//! checker sound — the clean prefix of commits refers to the same
//! operations before and after the edit.

use std::collections::BTreeSet;

use mcs_codec::fnv::fnv1a;

use crate::graph::{Cdfg, ConditionVector, Edge, GraphError, OpKind, Operation, Value};
use crate::ids::{OpId, PartitionId, ValueId};
use crate::OperatorClass;

/// One edit of a design between synthesis runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaOp {
    /// Change the bit width of the value produced by the named functional
    /// operation; the change cascades through every I/O transfer carrying
    /// the value.
    WidthChanged {
        /// Name of the producing functional operation.
        op: String,
        /// New bit width (must be positive).
        bits: u32,
    },
    /// Re-synthesize at a different initiation rate. No graph change.
    RateChanged {
        /// The new rate `L`.
        rate: u32,
    },
    /// Move a functional operation to another chip. Transfers are
    /// inserted (appended) for every edge the move makes cross-chip, and
    /// existing transfers of the result value are re-sourced.
    Repartitioned {
        /// Name of the functional operation to move.
        op: String,
        /// Destination chip (1-based partition index).
        to: u32,
    },
    /// Remove an operation that has no consumers (a sink: a dead
    /// functional op or a primary output).
    OpRemoved {
        /// Name of the operation to remove.
        op: String,
    },
    /// Add a functional operation consuming existing values.
    OpAdded {
        /// Name of the new operation (also names its result value).
        name: String,
        /// Operator class (`add`, `sub`, `mul`, or a custom name).
        class: OperatorClass,
        /// Home chip (1-based partition index).
        partition: u32,
        /// Names of producing operations whose results it consumes;
        /// transfers are inserted automatically when an input lives on
        /// another chip.
        inputs: Vec<String>,
        /// Result bit width.
        bits: u32,
    },
}

/// Why a delta could not be parsed or applied.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// The edit spec text is malformed.
    Parse(String),
    /// No operation with this name exists.
    UnknownOp(String),
    /// The partition index is out of range (or the environment).
    UnknownChip(u32),
    /// The edit needs a functional operation but the name resolves to an
    /// I/O, split, or merge node.
    NotFunc(String),
    /// Removal target still has consumers.
    HasConsumers(String),
    /// The edit is not expressible as a local change (for example a width
    /// change cascading into a TDM split, or a move that collapses an
    /// existing transfer into a self-transfer).
    Unsupported(String),
    /// The edited graph failed structural validation.
    Rebuild(GraphError),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Parse(s) => write!(f, "bad edit spec: {s}"),
            DeltaError::UnknownOp(s) => write!(f, "no operation named `{s}`"),
            DeltaError::UnknownChip(i) => write!(f, "no chip with index {i}"),
            DeltaError::NotFunc(s) => write!(f, "`{s}` is not a functional operation"),
            DeltaError::HasConsumers(s) => write!(f, "`{s}` still has consumers"),
            DeltaError::Unsupported(s) => write!(f, "unsupported edit: {s}"),
            DeltaError::Rebuild(e) => write!(f, "edited design is invalid: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<GraphError> for DeltaError {
    fn from(e: GraphError) -> Self {
        DeltaError::Rebuild(e)
    }
}

/// An ordered list of edits applied as one atomic delta.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DesignDelta {
    /// The edits, applied in order.
    pub edits: Vec<DeltaOp>,
}

/// The result of applying a delta: the edited graph plus the mapping
/// and dirty-seed bookkeeping the incremental flow consumes.
#[derive(Clone, Debug)]
pub struct AppliedDelta {
    /// The edited, revalidated graph.
    pub cdfg: Cdfg,
    /// Old operation id -> new operation id (`None` for removed ops).
    /// Indexed by old `OpId`.
    pub op_map: Vec<Option<OpId>>,
    /// Operations in the *new* graph directly touched by the edits:
    /// added/moved ops, inserted or re-sourced transfers, and the
    /// producers and carriers of width-changed values.
    pub dirty: BTreeSet<OpId>,
    /// Rate override from [`DeltaOp::RateChanged`], if any.
    pub rate: Option<u32>,
}

/// Accepts `P2` or `2` as a chip index.
fn parse_chip(token: &str) -> Result<u32, DeltaError> {
    let digits = token.strip_prefix('P').unwrap_or(token);
    digits
        .parse()
        .map_err(|_| DeltaError::Parse(format!("`{token}` is not a chip index")))
}

impl DesignDelta {
    /// Parses the semicolon-separated edit spec of `mcs-hls resynth
    /// --edit`:
    ///
    /// ```text
    /// width:OP=BITS         widen/narrow OP's result value
    /// rate:N                resynthesize at initiation rate N
    /// move:OP=CHIP          move OP to chip CHIP (accepts `2` or `P2`)
    /// drop:OP               remove the sink operation OP
    /// add:NAME=CLASS,CHIP,BITS[,IN..]   add a functional operation
    /// ```
    ///
    /// # Errors
    ///
    /// [`DeltaError::Parse`] describing the offending clause.
    pub fn parse(spec: &str) -> Result<DesignDelta, DeltaError> {
        let mut edits = Vec::new();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let clause = clause.trim();
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| DeltaError::Parse(format!("`{clause}` has no `kind:` prefix")))?;
            let eq = |rest: &str| -> Result<(String, String), DeltaError> {
                rest.split_once('=')
                    .map(|(a, b)| (a.trim().to_string(), b.trim().to_string()))
                    .ok_or_else(|| DeltaError::Parse(format!("`{clause}` needs `=`")))
            };
            match kind.trim() {
                "width" => {
                    let (op, bits) = eq(rest)?;
                    let bits: u32 = bits
                        .parse()
                        .ok()
                        .filter(|&b| b > 0)
                        .ok_or_else(|| DeltaError::Parse(format!("bad width in `{clause}`")))?;
                    edits.push(DeltaOp::WidthChanged { op, bits });
                }
                "rate" => {
                    let rate: u32 = rest
                        .trim()
                        .parse()
                        .ok()
                        .filter(|&r| r > 0)
                        .ok_or_else(|| DeltaError::Parse(format!("bad rate in `{clause}`")))?;
                    edits.push(DeltaOp::RateChanged { rate });
                }
                "move" => {
                    let (op, chip) = eq(rest)?;
                    edits.push(DeltaOp::Repartitioned {
                        op,
                        to: parse_chip(&chip)?,
                    });
                }
                "drop" => edits.push(DeltaOp::OpRemoved {
                    op: rest.trim().to_string(),
                }),
                "add" => {
                    let (name, body) = eq(rest)?;
                    let mut parts = body.split(',').map(str::trim);
                    let class = parts
                        .next()
                        .filter(|s| !s.is_empty())
                        .ok_or_else(|| DeltaError::Parse(format!("`{clause}` needs a class")))?;
                    let chip = parts
                        .next()
                        .ok_or_else(|| DeltaError::Parse(format!("`{clause}` needs a chip")))?;
                    let bits: u32 = parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&b| b > 0)
                        .ok_or_else(|| DeltaError::Parse(format!("bad width in `{clause}`")))?;
                    edits.push(DeltaOp::OpAdded {
                        name,
                        class: OperatorClass::from_token(class),
                        partition: parse_chip(chip)?,
                        inputs: parts.map(str::to_string).collect(),
                        bits,
                    });
                }
                other => return Err(DeltaError::Parse(format!("unknown edit kind `{other}`"))),
            }
        }
        if edits.is_empty() {
            return Err(DeltaError::Parse("empty edit spec".into()));
        }
        Ok(DesignDelta { edits })
    }

    /// The canonical spec text (parse/spec round-trips).
    pub fn spec(&self) -> String {
        self.edits
            .iter()
            .map(|e| match e {
                DeltaOp::WidthChanged { op, bits } => format!("width:{op}={bits}"),
                DeltaOp::RateChanged { rate } => format!("rate:{rate}"),
                DeltaOp::Repartitioned { op, to } => format!("move:{op}={to}"),
                DeltaOp::OpRemoved { op } => format!("drop:{op}"),
                DeltaOp::OpAdded {
                    name,
                    class,
                    partition,
                    inputs,
                    bits,
                } => {
                    let mut s = format!("add:{name}={},{partition},{bits}", class.token());
                    for i in inputs {
                        s.push(',');
                        s.push_str(i);
                    }
                    s
                }
            })
            .collect::<Vec<_>>()
            .join(";")
    }

    /// FNV-1a digest of the canonical spec — the delta half of the serve
    /// cache key `(parent digest, delta digest)`.
    pub fn digest(&self) -> u64 {
        fnv1a(self.spec().as_bytes())
    }

    /// The last rate override in the delta, if any.
    pub fn rate_override(&self) -> Option<u32> {
        self.edits.iter().rev().find_map(|e| match e {
            DeltaOp::RateChanged { rate } => Some(*rate),
            _ => None,
        })
    }

    /// Applies every edit in order and rebuilds a validated graph.
    ///
    /// # Errors
    ///
    /// The first edit that cannot be applied, or
    /// [`DeltaError::Rebuild`] if the edited graph violates a structural
    /// invariant.
    pub fn apply(&self, cdfg: &Cdfg) -> Result<AppliedDelta, DeltaError> {
        let original_ops = cdfg.ops().len();
        let (library, partitions, mut ops, mut values, mut edges) = cdfg.clone().into_parts();
        // old index -> current index, updated by removals.
        let mut map: Vec<Option<usize>> = (0..original_ops).map(Some).collect();
        let mut dirty: BTreeSet<usize> = BTreeSet::new();
        let mut rate = None;

        for edit in &self.edits {
            match edit {
                DeltaOp::RateChanged { rate: r } => rate = Some(*r),
                DeltaOp::WidthChanged { op, bits } => {
                    let oi = find_op(&ops, op)?;
                    if !matches!(ops[oi].kind, OpKind::Func(_)) {
                        return Err(DeltaError::NotFunc(op.clone()));
                    }
                    let root = ops[oi].result.ok_or_else(|| {
                        DeltaError::Unsupported(format!("`{op}` produces no value"))
                    })?;
                    dirty.insert(oi);
                    // Cascade through the transfer chain of the value.
                    let mut work = vec![root.index()];
                    let mut seen = BTreeSet::new();
                    while let Some(vi) = work.pop() {
                        if !seen.insert(vi) {
                            continue;
                        }
                        values[vi].bits = *bits;
                        for (i, o) in ops.iter().enumerate() {
                            match o.kind {
                                OpKind::Io { value, .. } if value.index() == vi => {
                                    dirty.insert(i);
                                    if let Some(r) = o.result {
                                        work.push(r.index());
                                    }
                                }
                                OpKind::Split { .. }
                                    if edges
                                        .iter()
                                        .any(|e| e.to.index() == i && e.value.index() == vi) =>
                                {
                                    return Err(DeltaError::Unsupported(format!(
                                        "width change on `{op}` cascades into TDM split `{}`",
                                        o.name
                                    )));
                                }
                                _ => {}
                            }
                        }
                    }
                }
                DeltaOp::OpRemoved { op } => {
                    let oi = find_op(&ops, op)?;
                    if edges.iter().any(|e| e.from.index() == oi) {
                        return Err(DeltaError::HasConsumers(op.clone()));
                    }
                    // Mark the (surviving) producers dirty before indices move.
                    let preds: Vec<usize> = edges
                        .iter()
                        .filter(|e| e.to.index() == oi)
                        .map(|e| e.from.index())
                        .collect();
                    edges.retain(|e| e.to.index() != oi);
                    let removed_value = ops[oi].result.map(ValueId::index);
                    ops.remove(oi);
                    if let Some(vi) = removed_value {
                        values.remove(vi);
                        let shift_v = |v: &mut ValueId| {
                            if v.index() > vi {
                                *v = ValueId::new(v.index() as u32 - 1);
                            }
                        };
                        for e in &mut edges {
                            shift_v(&mut e.value);
                        }
                        for o in &mut ops {
                            if let Some(r) = &mut o.result {
                                shift_v(r);
                            }
                            if let OpKind::Io { value, .. } = &mut o.kind {
                                shift_v(value);
                            }
                        }
                    }
                    let shift_op = |id: &mut OpId| {
                        if id.index() > oi {
                            *id = OpId::new(id.index() as u32 - 1);
                        }
                    };
                    for e in &mut edges {
                        shift_op(&mut e.from);
                        shift_op(&mut e.to);
                    }
                    for m in map.iter_mut() {
                        *m = match *m {
                            Some(i) if i == oi => None,
                            Some(i) if i > oi => Some(i - 1),
                            other => other,
                        };
                    }
                    dirty = dirty
                        .into_iter()
                        .filter(|&i| i != oi)
                        .map(|i| if i > oi { i - 1 } else { i })
                        .collect();
                    dirty.extend(preds.into_iter().map(|i| if i > oi { i - 1 } else { i }));
                }
                DeltaOp::Repartitioned { op, to } => {
                    let oi = find_op(&ops, op)?;
                    if !matches!(ops[oi].kind, OpKind::Func(_)) {
                        return Err(DeltaError::NotFunc(op.clone()));
                    }
                    let dest = chip(&partitions, *to)?;
                    let old = ops[oi].partition;
                    if old == dest {
                        return Err(DeltaError::Unsupported(format!(
                            "`{op}` already lives on {dest}"
                        )));
                    }
                    ops[oi].partition = dest;
                    dirty.insert(oi);
                    // Inputs: chain a transfer for every edge whose source
                    // side no longer matches the new home.
                    let in_edges: Vec<usize> = (0..edges.len())
                        .filter(|&i| edges[i].to.index() == oi)
                        .collect();
                    for ei in in_edges {
                        let producer = edges[ei].from.index();
                        let sp = ops[producer].source_partition();
                        if sp == dest {
                            continue;
                        }
                        let v = edges[ei].value;
                        let degree = edges[ei].degree;
                        let spec = IoInsert {
                            name: format!("{}>{}", values[v.index()].name, dest),
                            value: v,
                            from: sp,
                            to: dest,
                            producer: Some(OpId::new(producer as u32)),
                            degree,
                            condition: ops[oi].condition.clone(),
                        };
                        let io = insert_io(&mut ops, &mut values, &mut edges, spec);
                        dirty.insert(io.index());
                        let dest_value = ops[io.index()].result.expect("io result");
                        edges[ei] = Edge {
                            from: io,
                            to: OpId::new(oi as u32),
                            value: dest_value,
                            degree: 0,
                        };
                    }
                    // Result value: re-source existing transfers, bridge
                    // consumers left behind on the old chip.
                    if let Some(r) = ops[oi].result {
                        for (i, o) in ops.iter_mut().enumerate() {
                            if let OpKind::Io { value, from, to } = &mut o.kind {
                                if *value == r {
                                    if *to == dest {
                                        return Err(DeltaError::Unsupported(format!(
                                            "moving `{op}` to {dest} collapses transfer `{}`",
                                            o.name
                                        )));
                                    }
                                    *from = dest;
                                    o.partition = dest;
                                    dirty.insert(i);
                                }
                            }
                        }
                        let out_edges: Vec<usize> = (0..edges.len())
                            .filter(|&i| {
                                edges[i].from.index() == oi && !ops[edges[i].to.index()].is_io()
                            })
                            .collect();
                        for ei in out_edges {
                            let consumer = edges[ei].to.index();
                            let sink = ops[consumer].sink_partition();
                            if sink == dest {
                                continue;
                            }
                            let degree = edges[ei].degree;
                            let spec = IoInsert {
                                name: format!("{}>{}", values[r.index()].name, sink),
                                value: r,
                                from: dest,
                                to: sink,
                                producer: Some(OpId::new(oi as u32)),
                                degree: 0,
                                condition: ops[consumer].condition.clone(),
                            };
                            let io = insert_io(&mut ops, &mut values, &mut edges, spec);
                            dirty.insert(io.index());
                            let dest_value = ops[io.index()].result.expect("io result");
                            edges[ei] = Edge {
                                from: io,
                                to: OpId::new(consumer as u32),
                                value: dest_value,
                                degree,
                            };
                        }
                    }
                }
                DeltaOp::OpAdded {
                    name,
                    class,
                    partition,
                    inputs,
                    bits,
                } => {
                    let dest = chip(&partitions, *partition)?;
                    let mut in_values = Vec::new();
                    for input in inputs {
                        let pi = find_op(&ops, input)?;
                        let v = ops[pi].result.ok_or_else(|| {
                            DeltaError::Unsupported(format!("`{input}` produces no value"))
                        })?;
                        let sp = ops[pi].source_partition();
                        if sp == dest {
                            in_values.push((OpId::new(pi as u32), v));
                        } else {
                            let spec = IoInsert {
                                name: format!("{}>{}", values[v.index()].name, dest),
                                value: v,
                                from: sp,
                                to: dest,
                                producer: Some(OpId::new(pi as u32)),
                                degree: 0,
                                condition: ConditionVector::always(),
                            };
                            let io = insert_io(&mut ops, &mut values, &mut edges, spec);
                            dirty.insert(io.index());
                            in_values.push((io, ops[io.index()].result.expect("io result")));
                        }
                    }
                    let oi = ops.len();
                    ops.push(Operation {
                        name: name.clone(),
                        kind: OpKind::Func(class.clone()),
                        partition: dest,
                        result: None,
                        condition: ConditionVector::always(),
                    });
                    let vi = values.len();
                    values.push(Value {
                        name: name.clone(),
                        bits: *bits,
                    });
                    ops[oi].result = Some(ValueId::new(vi as u32));
                    for (producer, v) in in_values {
                        edges.push(Edge {
                            from: producer,
                            to: OpId::new(oi as u32),
                            value: v,
                            degree: 0,
                        });
                    }
                    dirty.insert(oi);
                }
            }
        }

        let cdfg = Cdfg::from_parts(library, partitions, ops, values, edges)?;
        Ok(AppliedDelta {
            cdfg,
            op_map: map
                .into_iter()
                .map(|m| m.map(|i| OpId::new(i as u32)))
                .collect(),
            dirty: dirty.into_iter().map(|i| OpId::new(i as u32)).collect(),
            rate,
        })
    }
}

fn find_op(ops: &[Operation], name: &str) -> Result<usize, DeltaError> {
    ops.iter()
        .position(|o| o.name == name)
        .ok_or_else(|| DeltaError::UnknownOp(name.to_string()))
}

fn chip(partitions: &[crate::Partition], index: u32) -> Result<PartitionId, DeltaError> {
    if index == 0 || index as usize >= partitions.len() {
        return Err(DeltaError::UnknownChip(index));
    }
    Ok(PartitionId::new(index))
}

struct IoInsert {
    name: String,
    value: ValueId,
    from: PartitionId,
    to: PartitionId,
    producer: Option<OpId>,
    degree: u32,
    condition: ConditionVector,
}

/// Appends an I/O transfer op (and its destination-side value) and the
/// producer edge; returns the new op id. Appending keeps every existing
/// id stable.
fn insert_io(
    ops: &mut Vec<Operation>,
    values: &mut Vec<Value>,
    edges: &mut Vec<Edge>,
    spec: IoInsert,
) -> OpId {
    let oi = OpId::new(ops.len() as u32);
    ops.push(Operation {
        name: spec.name.clone(),
        kind: OpKind::Io {
            value: spec.value,
            from: spec.from,
            to: spec.to,
        },
        partition: spec.from,
        result: None,
        condition: spec.condition,
    });
    let bits = values[spec.value.index()].bits;
    let vi = ValueId::new(values.len() as u32);
    values.push(Value {
        name: format!("{}@{}", spec.name, spec.to),
        bits,
    });
    ops[oi.index()].result = Some(vi);
    if let Some(producer) = spec.producer {
        edges.push(Edge {
            from: producer,
            to: oi,
            value: spec.value,
            degree: spec.degree,
        });
    }
    oi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::elliptic;

    fn base() -> Cdfg {
        elliptic::partitioned().into_cdfg()
    }

    #[test]
    fn parse_and_spec_round_trip() {
        let spec = "width:m1=16;rate:6;move:a3=2;drop:O1;add:extra=add,1,8,m1,a3";
        let d = DesignDelta::parse(spec).expect("parses");
        assert_eq!(d.spec(), spec);
        assert_eq!(DesignDelta::parse(&d.spec()).unwrap(), d);
        assert_eq!(d.rate_override(), Some(6));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in [
            "",
            "width:m1",
            "width:m1=0",
            "rate:zero",
            "move:m1",
            "teleport:m1=2",
            "add:x=",
        ] {
            assert!(
                matches!(DesignDelta::parse(bad), Err(DeltaError::Parse(_))),
                "accepted {bad:?}"
            );
        }
    }

    #[test]
    fn digests_differ_per_edit() {
        let a = DesignDelta::parse("width:m1=16").unwrap();
        let b = DesignDelta::parse("width:m1=12").unwrap();
        assert_ne!(a.digest(), b.digest());
        assert_eq!(
            a.digest(),
            DesignDelta::parse("width:m1=16").unwrap().digest()
        );
    }

    #[test]
    fn a_width_past_the_ceiling_is_refused() {
        let g = base();
        let f = g.func_ops().next().expect("has functional operations");
        let spec = format!("width:{}=4294967295", g.op(f).name);
        let err = DesignDelta::parse(&spec).unwrap().apply(&g).unwrap_err();
        assert!(
            matches!(
                err,
                DeltaError::Rebuild(GraphError::WidthTooLarge {
                    bits: 4_294_967_295,
                    limit: crate::MAX_VALUE_BITS,
                    ..
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn width_change_cascades_through_transfers() {
        let g = base();
        // Find a functional op whose value crosses chips.
        let io = g.io_ops().next().expect("has transfers");
        let (v, _, _) = g.op(io).io_endpoints().unwrap();
        let producer = g
            .op_ids()
            .find(|&o| g.op(o).result == Some(v) && !g.op(o).is_io());
        let Some(producer) = producer else {
            return; // all transfers source externals in this design
        };
        let name = g.op(producer).name.clone();
        let d = DesignDelta {
            edits: vec![DeltaOp::WidthChanged { op: name, bits: 24 }],
        };
        let applied = d.apply(&g).expect("applies");
        assert_eq!(applied.cdfg.ops().len(), g.ops().len());
        assert!(applied.dirty.contains(&producer));
        assert!(applied.dirty.contains(&io));
        assert_eq!(applied.cdfg.io_bits(io), 24);
        // Ids are stable: the map is the identity.
        assert!(applied
            .op_map
            .iter()
            .enumerate()
            .all(|(i, m)| *m == Some(OpId::new(i as u32))));
    }

    #[test]
    fn drop_removes_a_sink_and_renumbers() {
        let g = base();
        // Primary outputs are sinks.
        let sink = g
            .op_ids()
            .find(|&o| g.succs(o).is_empty())
            .expect("has a sink");
        let name = g.op(sink).name.clone();
        let d = DesignDelta {
            edits: vec![DeltaOp::OpRemoved { op: name.clone() }],
        };
        let applied = d.apply(&g).expect("applies");
        assert_eq!(applied.cdfg.ops().len(), g.ops().len() - 1);
        assert_eq!(applied.op_map[sink.index()], None);
        // A non-sink cannot be dropped.
        let busy = g
            .op_ids()
            .find(|&o| !g.succs(o).is_empty())
            .expect("has a producer");
        let d = DesignDelta {
            edits: vec![DeltaOp::OpRemoved {
                op: g.op(busy).name.clone(),
            }],
        };
        assert!(matches!(d.apply(&g), Err(DeltaError::HasConsumers(_))));
    }

    #[test]
    fn add_appends_and_keeps_ids_stable() {
        let g = base();
        let producer = g
            .func_ops()
            .next()
            .map(|o| g.op(o).name.clone())
            .expect("has func ops");
        let chip = g.op(g.func_ops().next().unwrap()).partition;
        let d = DesignDelta {
            edits: vec![DeltaOp::OpAdded {
                name: "bonus".into(),
                class: OperatorClass::Add,
                partition: chip.index() as u32,
                inputs: vec![producer],
                bits: 8,
            }],
        };
        let applied = d.apply(&g).expect("applies");
        assert!(applied.cdfg.ops().len() > g.ops().len());
        assert!(applied
            .op_map
            .iter()
            .enumerate()
            .all(|(i, m)| *m == Some(OpId::new(i as u32))));
        let added = applied
            .cdfg
            .op_ids()
            .find(|&o| applied.cdfg.op(o).name == "bonus")
            .expect("added op exists");
        assert!(applied.dirty.contains(&added));
    }

    #[test]
    fn move_inserts_transfers_and_revalidates() {
        let g = base();
        // Move the first functional op of chip 1 to chip 2.
        let op = g
            .func_ops()
            .find(|&o| g.op(o).partition == PartitionId::new(1))
            .expect("chip 1 has ops");
        let d = DesignDelta {
            edits: vec![DeltaOp::Repartitioned {
                op: g.op(op).name.clone(),
                to: 2,
            }],
        };
        match d.apply(&g) {
            Ok(applied) => {
                assert_eq!(applied.cdfg.op(op).partition, PartitionId::new(2));
                assert!(applied.dirty.contains(&op));
                applied.cdfg.validate().expect("edited graph validates");
            }
            // Some moves legitimately collapse an existing transfer.
            Err(DeltaError::Unsupported(_)) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }

    #[test]
    fn unknown_names_and_chips_are_reported() {
        let g = base();
        let d = DesignDelta {
            edits: vec![DeltaOp::WidthChanged {
                op: "nope".into(),
                bits: 8,
            }],
        };
        assert!(matches!(d.apply(&g), Err(DeltaError::UnknownOp(_))));
        let d = DesignDelta {
            edits: vec![DeltaOp::Repartitioned {
                op: g.op(g.func_ops().next().unwrap()).name.clone(),
                to: 99,
            }],
        };
        assert!(matches!(d.apply(&g), Err(DeltaError::UnknownChip(_))));
    }
}
