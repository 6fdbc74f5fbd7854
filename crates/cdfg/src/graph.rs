//! The partitioned control/data-flow graph (CDFG).
//!
//! Nodes are operations (functional operations and I/O transfer operations),
//! arcs are data dependencies. Each arc carries a *degree* `d`: the value
//! consumed was produced `d` execution instances earlier (Section 7.1). A
//! degree of zero is an ordinary intra-instance dependence; degrees greater
//! than zero are *data recursive edges*.
//!
//! I/O transfers follow the model of Section 2.2.1: a single I/O operation
//! node stands for the simultaneous output operation of the source partition
//! and input operation of the destination partition. A value required by
//! several partitions is transferred by several I/O operation nodes, all
//! tagged with the same *transferred value* so that pin- and bus-sharing
//! optimizations can recognize them (the `W_v` sets of the formulations).

use std::collections::BTreeMap;

use crate::ids::{CondId, EdgeId, OpId, PartitionId, ValueId};
use crate::library::{Library, OperatorClass};

/// A wire-level datum with a bit width (the `B_v` of the formulations).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Value {
    /// Human-readable name used in reports ("X5", "I3", ...).
    pub name: String,
    /// Bit width of the value.
    pub bits: u32,
}

/// The payload of an operation node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A functional operation executing on a module of the given class
    /// inside one partition.
    Func(OperatorClass),
    /// An I/O transfer of `value` from partition `from` to partition `to`.
    /// Either endpoint may be [`PartitionId::ENVIRONMENT`] for system
    /// primary inputs/outputs.
    Io {
        /// The transferred value (the original, producer-side value). All
        /// I/O operations sharing this id form the set `W_v`.
        value: ValueId,
        /// Source partition.
        from: PartitionId,
        /// Destination partition.
        to: PartitionId,
    },
    /// Time-division multiplexing: splits a wide value into `parts`
    /// sub-values transferred separately (Section 7.3, Figure 7.8).
    Split {
        /// Number of sub-values produced.
        parts: u32,
    },
    /// Time-division multiplexing: merges previously split sub-values back
    /// into a wide value.
    Merge,
}

/// A conjunction of conditional-branch literals (Section 7.2).
///
/// Two operations are *mutually exclusive* iff their condition vectors
/// require opposite polarities of some branch variable; such operations can
/// never execute in the same instance and may share resources.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConditionVector {
    literals: Vec<(CondId, bool)>,
}

impl ConditionVector {
    /// The always-true condition (unconditional operation).
    pub fn always() -> Self {
        ConditionVector::default()
    }

    /// Builds a condition vector from literals; duplicates collapse, and
    /// contradictory literals are kept (the vector is then unsatisfiable,
    /// which validation rejects).
    pub fn new<I: IntoIterator<Item = (CondId, bool)>>(literals: I) -> Self {
        let mut literals: Vec<_> = literals.into_iter().collect();
        literals.sort();
        literals.dedup();
        ConditionVector { literals }
    }

    /// Returns the literals, sorted by condition variable.
    pub fn literals(&self) -> &[(CondId, bool)] {
        &self.literals
    }

    /// `true` for unconditional operations.
    pub fn is_always(&self) -> bool {
        self.literals.is_empty()
    }

    /// `true` if the vector requires both polarities of some variable and
    /// therefore can never hold.
    pub fn is_contradictory(&self) -> bool {
        self.literals
            .windows(2)
            .any(|w| w[0].0 == w[1].0 && w[0].1 != w[1].1)
    }

    /// Two operations guarded by mutually exclusive conditions never execute
    /// in the same instance (Section 7.2).
    pub fn mutually_exclusive(&self, other: &ConditionVector) -> bool {
        let mut a = self.literals.iter().peekable();
        let mut b = other.literals.iter().peekable();
        while let (Some(&&(ca, pa)), Some(&&(cb, pb))) = (a.peek(), b.peek()) {
            match ca.cmp(&cb) {
                std::cmp::Ordering::Less => {
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    if pa != pb {
                        return true;
                    }
                    a.next();
                    b.next();
                }
            }
        }
        false
    }
}

/// An operation node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operation {
    /// Human-readable name used in schedule/table rendering.
    pub name: String,
    /// What the operation does.
    pub kind: OpKind,
    /// Home partition. For functional operations this is the chip executing
    /// the operation; for I/O operations it equals the source partition.
    pub partition: PartitionId,
    /// The value produced by the operation, if any. For I/O operations this
    /// is the destination-side copy of the transferred value.
    pub result: Option<ValueId>,
    /// Guard condition (Section 7.2); `always` for unconditional operations.
    pub condition: ConditionVector,
}

impl Operation {
    /// `true` for I/O transfer operations.
    pub fn is_io(&self) -> bool {
        matches!(self.kind, OpKind::Io { .. })
    }

    /// For an I/O operation, the `(value, from, to)` triple.
    pub fn io_endpoints(&self) -> Option<(ValueId, PartitionId, PartitionId)> {
        match self.kind {
            OpKind::Io { value, from, to } => Some((value, from, to)),
            _ => None,
        }
    }
}

/// A data-dependence arc. `degree > 0` marks a data recursive edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Producer operation.
    pub from: OpId,
    /// Consumer operation.
    pub to: OpId,
    /// The value flowing along the edge.
    pub value: ValueId,
    /// Number of execution instances between production and consumption.
    pub degree: u32,
}

/// How the I/O pins of a partition are organized (Section 4.3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PortMode {
    /// Each pin is either an input or an output pin; the split may be fixed
    /// by the user or left to the synthesizer.
    #[default]
    Unidirectional,
    /// Pins can act as inputs or outputs at different times, enabling ports
    /// shared between input and output transfers.
    Bidirectional,
}

/// A chip of the multi-chip design.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Display name.
    pub name: String,
    /// Total number of pins available for data transfers (`T_i`); power and
    /// control pins are excluded per Section 3.1.1.
    pub total_pins: u32,
    /// If set, the user pre-divided the pins into `(inputs, outputs)`;
    /// otherwise the synthesizer chooses the split (the `o_j` variables).
    pub fixed_split: Option<(u32, u32)>,
    /// Functional units available per operator class (resource constraints).
    pub resources: BTreeMap<OperatorClass, u32>,
    /// Pin directionality.
    pub port_mode: PortMode,
}

/// Errors reported by [`Cdfg::validate`] and the builder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An edge crosses partitions without passing through an I/O node.
    CrossPartitionEdge {
        /// The offending edge.
        edge: EdgeId,
        /// Producer partition.
        from: PartitionId,
        /// Consumer partition.
        to: PartitionId,
    },
    /// An I/O operation transfers a value to/from the wrong partition.
    InconsistentIo {
        /// The offending I/O operation.
        op: OpId,
        /// Explanation.
        reason: &'static str,
    },
    /// The degree-0 dependence subgraph contains a cycle; only recursive
    /// edges may close loops.
    CyclicDependence {
        /// An operation on the cycle.
        on: OpId,
    },
    /// A value has zero bit width.
    ZeroWidthValue {
        /// The offending value.
        value: ValueId,
    },
    /// An operation is guarded by a contradictory condition vector.
    ContradictoryCondition {
        /// The offending operation.
        op: OpId,
    },
    /// An I/O operation transfers between identical partitions.
    SelfTransfer {
        /// The offending I/O operation.
        op: OpId,
    },
    /// An id is out of range.
    UnknownId {
        /// Which id space.
        what: &'static str,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::CrossPartitionEdge { edge, from, to } => write!(
                f,
                "edge {edge} crosses from {from} to {to} without an I/O operation"
            ),
            GraphError::InconsistentIo { op, reason } => {
                write!(f, "I/O operation {op} is inconsistent: {reason}")
            }
            GraphError::CyclicDependence { on } => write!(
                f,
                "degree-0 dependence cycle through {on}; use recursive edges for loops"
            ),
            GraphError::ZeroWidthValue { value } => {
                write!(f, "value {value} has zero bit width")
            }
            GraphError::ContradictoryCondition { op } => {
                write!(f, "operation {op} has a contradictory condition vector")
            }
            GraphError::SelfTransfer { op } => {
                write!(f, "I/O operation {op} transfers within a single partition")
            }
            GraphError::UnknownId { what } => write!(f, "unknown {what} id"),
        }
    }
}

impl std::error::Error for GraphError {}

/// A validated, partitioned control/data-flow graph.
///
/// Construct one with [`CdfgBuilder`]. The graph owns the module
/// [`Library`], the partitions, operations, values and edges, and exposes
/// the derived adjacency used by every synthesis algorithm in the workspace.
#[derive(Clone, Debug)]
pub struct Cdfg {
    library: Library,
    partitions: Vec<Partition>,
    ops: Vec<Operation>,
    values: Vec<Value>,
    edges: Vec<Edge>,
    preds: Vec<Vec<EdgeId>>,
    succs: Vec<Vec<EdgeId>>,
}

impl Cdfg {
    /// The module library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// All partitions including the pseudo environment partition 0.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Number of partitions including the environment.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Looks up a partition.
    pub fn partition(&self, id: PartitionId) -> &Partition {
        &self.partitions[id.index()]
    }

    /// Mutable partition access (used by flows that adjust pin budgets).
    pub fn partition_mut(&mut self, id: PartitionId) -> &mut Partition {
        &mut self.partitions[id.index()]
    }

    /// All operations.
    pub fn ops(&self) -> &[Operation] {
        &self.ops
    }

    /// Looks up an operation.
    pub fn op(&self, id: OpId) -> &Operation {
        &self.ops[id.index()]
    }

    /// All values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Looks up a value.
    pub fn value(&self, id: ValueId) -> &Value {
        &self.values[id.index()]
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up an edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.index()]
    }

    /// Ids of all operations, in creation order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len() as u32).map(OpId::new)
    }

    /// Incoming edges of an operation.
    pub fn preds(&self, op: OpId) -> &[EdgeId] {
        &self.preds[op.index()]
    }

    /// Outgoing edges of an operation.
    pub fn succs(&self, op: OpId) -> &[EdgeId] {
        &self.succs[op.index()]
    }

    /// Ids of all I/O operations, in creation order.
    pub fn io_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.op_ids().filter(|&id| self.op(id).is_io())
    }

    /// Ids of all functional operations, in creation order.
    pub fn func_ops(&self) -> impl Iterator<Item = OpId> + '_ {
        self.op_ids()
            .filter(|&id| matches!(self.op(id).kind, OpKind::Func(_)))
    }

    /// Groups I/O operations by transferred value: the `W_v` sets of
    /// Sections 3.1.1 and 4.1.1. Keys are original (producer-side) values.
    pub fn io_ops_by_value(&self) -> BTreeMap<ValueId, Vec<OpId>> {
        let mut map: BTreeMap<ValueId, Vec<OpId>> = BTreeMap::new();
        for id in self.io_ops() {
            if let Some((value, _, _)) = self.op(id).io_endpoints() {
                map.entry(value).or_default().push(id);
            }
        }
        map
    }

    /// I/O operations that input a value to `partition` (the `IS_i` sets).
    pub fn input_io_ops(&self, partition: PartitionId) -> Vec<OpId> {
        self.io_ops()
            .filter(|&id| self.op(id).io_endpoints().map(|(_, _, to)| to) == Some(partition))
            .collect()
    }

    /// I/O operations that output a value from `partition`.
    pub fn output_io_ops(&self, partition: PartitionId) -> Vec<OpId> {
        self.io_ops()
            .filter(|&id| self.op(id).io_endpoints().map(|(_, from, _)| from) == Some(partition))
            .collect()
    }

    /// Distinct values output from `partition` (the `OS_j` sets of
    /// Section 3.1.1; a value transferred to several partitions appears
    /// once).
    pub fn output_values(&self, partition: PartitionId) -> Vec<ValueId> {
        let mut vs: Vec<ValueId> = self
            .output_io_ops(partition)
            .into_iter()
            .filter_map(|id| self.op(id).io_endpoints().map(|(v, _, _)| v))
            .collect();
        vs.sort();
        vs.dedup();
        vs
    }

    /// Functional operations homed on `partition`.
    pub fn partition_func_ops(&self, partition: PartitionId) -> Vec<OpId> {
        self.func_ops()
            .filter(|&id| self.op(id).partition == partition)
            .collect()
    }

    /// Bit width of the value transferred by an I/O operation (`B_w`).
    ///
    /// # Panics
    ///
    /// Panics if `op` is not an I/O operation.
    pub fn io_bits(&self, op: OpId) -> u32 {
        let (value, _, _) = self
            .op(op)
            .io_endpoints()
            .expect("io_bits called on a non-I/O operation");
        self.value(value).bits
    }

    /// Number of clock cycles the operation occupies.
    pub fn op_cycles(&self, op: OpId) -> u32 {
        match &self.op(op).kind {
            OpKind::Func(class) => self.library.cycles(class),
            _ => 1,
        }
    }

    /// Combinational delay of the operation in nanoseconds.
    pub fn op_delay_ns(&self, op: OpId) -> u64 {
        match &self.op(op).kind {
            OpKind::Func(class) => self.library.delay_ns(class),
            OpKind::Io { .. } => self.library.io_delay_ns(),
            OpKind::Split { .. } | OpKind::Merge => 0,
        }
    }

    /// A topological order of the operations considering only degree-0
    /// edges. Recursive edges never constrain the order.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::CyclicDependence`] if degree-0 edges close a
    /// cycle.
    pub fn topo_order(&self) -> Result<Vec<OpId>, GraphError> {
        let n = self.ops.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            if e.degree == 0 {
                indegree[e.to.index()] += 1;
            }
        }
        let mut queue: Vec<OpId> = (0..n as u32)
            .map(OpId::new)
            .filter(|id| indegree[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let op = queue[head];
            head += 1;
            order.push(op);
            for &eid in self.succs(op) {
                let e = self.edge(eid);
                if e.degree == 0 {
                    indegree[e.to.index()] -= 1;
                    if indegree[e.to.index()] == 0 {
                        queue.push(e.to);
                    }
                }
            }
        }
        if order.len() != n {
            let on = (0..n as u32)
                .map(OpId::new)
                .find(|id| indegree[id.index()] > 0)
                .unwrap_or(OpId::new(0));
            return Err(GraphError::CyclicDependence { on });
        }
        Ok(order)
    }

    /// Decomposes the graph into its owned parts. The delta engine edits
    /// the parts and rebuilds with [`Cdfg::from_parts`]; derived adjacency
    /// is dropped here and recomputed there.
    pub(crate) fn into_parts(
        self,
    ) -> (
        Library,
        Vec<Partition>,
        Vec<Operation>,
        Vec<Value>,
        Vec<Edge>,
    ) {
        (
            self.library,
            self.partitions,
            self.ops,
            self.values,
            self.edges,
        )
    }

    /// Rebuilds a graph from edited parts: recomputes the adjacency lists
    /// and revalidates every structural invariant.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub(crate) fn from_parts(
        library: Library,
        partitions: Vec<Partition>,
        ops: Vec<Operation>,
        values: Vec<Value>,
        edges: Vec<Edge>,
    ) -> Result<Cdfg, GraphError> {
        let n = ops.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            if e.from.index() >= n || e.to.index() >= n {
                return Err(GraphError::UnknownId { what: "operation" });
            }
            let id = EdgeId::new(i as u32);
            succs[e.from.index()].push(id);
            preds[e.to.index()].push(id);
        }
        let cdfg = Cdfg {
            library,
            partitions,
            ops,
            values,
            edges,
            preds,
            succs,
        };
        cdfg.validate()?;
        Ok(cdfg)
    }

    /// Checks every structural invariant. Called by the builder; exposed for
    /// graphs mutated after construction.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (i, v) in self.values.iter().enumerate() {
            if v.bits == 0 {
                return Err(GraphError::ZeroWidthValue {
                    value: ValueId::new(i as u32),
                });
            }
        }
        for (i, op) in self.ops.iter().enumerate() {
            let id = OpId::new(i as u32);
            if op.condition.is_contradictory() {
                return Err(GraphError::ContradictoryCondition { op: id });
            }
            if let Some((value, from, to)) = op.io_endpoints() {
                if from == to {
                    return Err(GraphError::SelfTransfer { op: id });
                }
                if value.index() >= self.values.len() {
                    return Err(GraphError::UnknownId { what: "value" });
                }
                // Every producer feeding the I/O node must live in `from`.
                for &eid in self.preds(id) {
                    let producer = self.edge(eid).from;
                    let p = &self.ops[producer.index()];
                    let source = match p.kind {
                        OpKind::Io { to, .. } => to,
                        _ => p.partition,
                    };
                    if source != from {
                        return Err(GraphError::InconsistentIo {
                            op: id,
                            reason: "producer is not in the source partition",
                        });
                    }
                }
                // Every consumer must live in `to`.
                for &eid in self.succs(id) {
                    let consumer = self.edge(eid).to;
                    let c = &self.ops[consumer.index()];
                    let sink = match c.kind {
                        OpKind::Io { from, .. } => from,
                        _ => c.partition,
                    };
                    if sink != to {
                        return Err(GraphError::InconsistentIo {
                            op: id,
                            reason: "consumer is not in the destination partition",
                        });
                    }
                }
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            let eid = EdgeId::new(i as u32);
            if e.from.index() >= self.ops.len() || e.to.index() >= self.ops.len() {
                return Err(GraphError::UnknownId { what: "operation" });
            }
            let from_op = &self.ops[e.from.index()];
            let to_op = &self.ops[e.to.index()];
            // Direct functional-to-functional edges must stay on one chip.
            if !from_op.is_io() && !to_op.is_io() && from_op.partition != to_op.partition {
                return Err(GraphError::CrossPartitionEdge {
                    edge: eid,
                    from: from_op.partition,
                    to: to_op.partition,
                });
            }
        }
        self.topo_order().map(|_| ())
    }
}

/// Incrementally builds a [`Cdfg`].
///
/// The builder tracks which operation produced each value and wires
/// dependence edges automatically; recursive consumption is expressed by
/// giving an input a nonzero degree.
///
/// # Examples
///
/// ```
/// use mcs_cdfg::{CdfgBuilder, Library, OperatorClass};
///
/// # fn main() -> Result<(), mcs_cdfg::GraphError> {
/// let mut b = CdfgBuilder::new(Library::ar_filter());
/// let p1 = b.partition("P1", 48);
/// let p2 = b.partition("P2", 32);
/// let (_, a) = b.input("Ia", 8, p1);
/// let (_, bb) = b.input("Ib", 8, p1);
/// let (_, prod) = b.func("m1", OperatorClass::Mul, p1, &[(a, 0), (bb, 0)], 8);
/// let (_, prod_at_p2) = b.io("X1", prod, p2);
/// let (_, sum) = b.func("a1", OperatorClass::Add, p2, &[(prod_at_p2, 0), (prod_at_p2, 0)], 8);
/// b.output("O1", sum);
/// let cdfg = b.finish()?;
/// assert_eq!(cdfg.io_ops().count(), 4); // Ia, Ib, X1, O1
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CdfgBuilder {
    library: Library,
    partitions: Vec<Partition>,
    ops: Vec<Operation>,
    values: Vec<Value>,
    edges: Vec<Edge>,
    /// Producing op of each value, if any.
    producer: Vec<Option<OpId>>,
    /// Home partition of each value (where it is available for consumption).
    home: Vec<PartitionId>,
    next_cond: u32,
    current_condition: ConditionVector,
}

impl CdfgBuilder {
    /// Creates a builder; partition 0 (the environment) is pre-created with
    /// unlimited pins. Call [`CdfgBuilder::environment_pins`] to constrain
    /// system pins.
    pub fn new(library: Library) -> Self {
        CdfgBuilder {
            library,
            partitions: vec![Partition {
                name: "P0(env)".to_string(),
                total_pins: u32::MAX / 2,
                fixed_split: None,
                resources: BTreeMap::new(),
                port_mode: PortMode::Unidirectional,
            }],
            ops: Vec::new(),
            values: Vec::new(),
            edges: Vec::new(),
            producer: Vec::new(),
            home: Vec::new(),
            next_cond: 0,
            current_condition: ConditionVector::always(),
        }
    }

    /// Constrains the pseudo environment partition to `pins` data pins
    /// (these are the system's own I/O pins, Section 3.1.1).
    pub fn environment_pins(&mut self, pins: u32) -> &mut Self {
        self.partitions[0].total_pins = pins;
        self
    }

    /// Adds a partition with `total_pins` data pins and returns its id.
    pub fn partition(&mut self, name: &str, total_pins: u32) -> PartitionId {
        let id = PartitionId::new(self.partitions.len() as u32);
        self.partitions.push(Partition {
            name: name.to_string(),
            total_pins,
            fixed_split: None,
            resources: BTreeMap::new(),
            port_mode: PortMode::Unidirectional,
        });
        id
    }

    /// Fixes the input/output pin split of a partition.
    pub fn fix_pin_split(&mut self, p: PartitionId, inputs: u32, outputs: u32) -> &mut Self {
        self.partitions[p.index()].fixed_split = Some((inputs, outputs));
        self
    }

    /// Sets the port directionality of a partition.
    pub fn port_mode(&mut self, p: PartitionId, mode: PortMode) -> &mut Self {
        self.partitions[p.index()].port_mode = mode;
        self
    }

    /// Sets the port directionality of every partition, including the
    /// environment.
    pub fn port_mode_all(&mut self, mode: PortMode) -> &mut Self {
        for p in &mut self.partitions {
            p.port_mode = mode;
        }
        self
    }

    /// Grants `count` functional units of `class` to partition `p`.
    pub fn resource(&mut self, p: PartitionId, class: OperatorClass, count: u32) -> &mut Self {
        self.partitions[p.index()].resources.insert(class, count);
        self
    }

    /// Allocates a fresh conditional branch variable (Section 7.2).
    pub fn condition_var(&mut self) -> CondId {
        let id = CondId::new(self.next_cond);
        self.next_cond += 1;
        id
    }

    /// Operations added inside `f` are guarded by `cond == polarity` in
    /// addition to the enclosing guard; conditionals nest.
    pub fn under_condition<R>(
        &mut self,
        cond: CondId,
        polarity: bool,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let saved = self.current_condition.clone();
        let mut lits: Vec<_> = saved.literals().to_vec();
        lits.push((cond, polarity));
        self.current_condition = ConditionVector::new(lits);
        let r = f(self);
        self.current_condition = saved;
        r
    }

    fn push_value(
        &mut self,
        name: &str,
        bits: u32,
        producer: Option<OpId>,
        home: PartitionId,
    ) -> ValueId {
        let id = ValueId::new(self.values.len() as u32);
        self.values.push(Value {
            name: name.to_string(),
            bits,
        });
        self.producer.push(producer);
        self.home.push(home);
        id
    }

    fn push_op(&mut self, op: Operation) -> OpId {
        let id = OpId::new(self.ops.len() as u32);
        self.ops.push(op);
        id
    }

    /// Adds a functional operation of `class` in partition `p`. Each input
    /// is `(value, degree)`; a nonzero degree consumes the value produced
    /// that many instances earlier (data recursive edge). Returns the
    /// operation and its `bits`-wide result value.
    ///
    /// # Panics
    ///
    /// Panics if an input value is not available in partition `p` (route it
    /// through [`CdfgBuilder::io`] first).
    pub fn func(
        &mut self,
        name: &str,
        class: OperatorClass,
        p: PartitionId,
        inputs: &[(ValueId, u32)],
        bits: u32,
    ) -> (OpId, ValueId) {
        let op = self.push_op(Operation {
            name: name.to_string(),
            kind: OpKind::Func(class),
            partition: p,
            result: None,
            condition: self.current_condition.clone(),
        });
        let result = self.push_value(name, bits, Some(op), p);
        self.ops[op.index()].result = Some(result);
        for &(value, degree) in inputs {
            assert_eq!(
                self.home[value.index()],
                p,
                "value {} is not available in partition {p}; transfer it with io() first",
                self.values[value.index()].name,
            );
            if let Some(prod) = self.producer[value.index()] {
                self.edges.push(Edge {
                    from: prod,
                    to: op,
                    value,
                    degree,
                });
            }
        }
        (op, result)
    }

    /// Adds an I/O operation transferring `value` from its home partition to
    /// partition `to`; returns the I/O node and the destination-side copy of
    /// the value. `degree` 0 transfers the value produced in the same
    /// instance.
    pub fn io(&mut self, name: &str, value: ValueId, to: PartitionId) -> (OpId, ValueId) {
        self.io_with_degree(name, value, to, 0)
    }

    /// Like [`CdfgBuilder::io`] but the consumer-facing edge carries a
    /// recursion degree: the destination consumes the value produced
    /// `degree` instances earlier.
    pub fn io_with_degree(
        &mut self,
        name: &str,
        value: ValueId,
        to: PartitionId,
        degree: u32,
    ) -> (OpId, ValueId) {
        let from = self.home[value.index()];
        let bits = self.values[value.index()].bits;
        let op = self.push_op(Operation {
            name: name.to_string(),
            kind: OpKind::Io { value, from, to },
            partition: from,
            result: None,
            condition: self.current_condition.clone(),
        });
        // Edge from the producer to the I/O node (same instance: the value
        // must exist before it can be driven off-chip).
        if let Some(prod) = self.producer[value.index()] {
            self.edges.push(Edge {
                from: prod,
                to: op,
                value,
                degree: 0,
            });
        }
        let dest_name = format!("{name}@{to}");
        let dest = self.push_value(&dest_name, bits, Some(op), to);
        self.ops[op.index()].result = Some(dest);
        // A nonzero degree is carried by the consumer edges created when the
        // destination value is used; record it by moving the degree onto the
        // destination value's producer edge bookkeeping. The consumer edge
        // degree is added in `func` via the `(value, degree)` input syntax;
        // `degree` here shifts the transfer itself across instances.
        if degree > 0 {
            // Re-tag the producer edge: the I/O op itself runs `degree`
            // instances after production is irrelevant; instead the transfer
            // happens once per instance carrying the value produced
            // `degree` instances earlier. Model: producer -> io edge keeps
            // degree, consumers read same-instance.
            if let Some(last) = self.edges.last_mut() {
                if last.to == op {
                    last.degree = degree;
                }
            }
        }
        (op, dest)
    }

    /// Creates a value produced by the outside world (no producing
    /// operation, homed in the environment). Transfer it on-chip with
    /// [`CdfgBuilder::io`]; transferring the *same* external value to two
    /// partitions yields two I/O operations in the same `W_v` set, like the
    /// elliptic filter's `Ia`/`Ib` pair (Section 4.4.2).
    pub fn external_value(&mut self, name: &str, bits: u32) -> ValueId {
        self.push_value(name, bits, None, PartitionId::ENVIRONMENT)
    }

    /// Adds a system primary input of `bits` width delivered to partition
    /// `to`; returns the I/O node and the on-chip value.
    pub fn input(&mut self, name: &str, bits: u32, to: PartitionId) -> (OpId, ValueId) {
        let source = self.external_value(name, bits);
        self.io(name, source, to)
    }

    /// Declares an I/O transfer whose source value does not exist yet
    /// (needed for feedback paths). Returns the I/O node and the
    /// destination-side value, immediately usable by consumers in `to`.
    /// Bind the real source later with [`CdfgBuilder::bind_io_source`].
    pub fn io_pending(
        &mut self,
        name: &str,
        bits: u32,
        from: PartitionId,
        to: PartitionId,
    ) -> (OpId, ValueId) {
        let placeholder = self.push_value(&format!("{name}.src"), bits, None, from);
        let op = self.push_op(Operation {
            name: name.to_string(),
            kind: OpKind::Io {
                value: placeholder,
                from,
                to,
            },
            partition: from,
            result: None,
            condition: self.current_condition.clone(),
        });
        let dest = self.push_value(&format!("{name}@{to}"), bits, Some(op), to);
        self.ops[op.index()].result = Some(dest);
        (op, dest)
    }

    /// Binds the source of a pending I/O transfer created with
    /// [`CdfgBuilder::io_pending`]. `degree` is the recursion degree of the
    /// transfer: the destination consumes the value produced `degree`
    /// instances earlier (zero for a plain forward transfer).
    ///
    /// # Panics
    ///
    /// Panics if `io` is not an I/O operation, or if `value` is not homed
    /// in the transfer's source partition, or if the bit widths differ.
    pub fn bind_io_source(&mut self, io: OpId, value: ValueId, degree: u32) {
        let (old, from) = match self.ops[io.index()].kind {
            OpKind::Io { value, from, .. } => (value, from),
            _ => panic!("bind_io_source called on a non-I/O operation"),
        };
        assert_eq!(
            self.home[value.index()],
            from,
            "bound source value must live in the transfer's source partition"
        );
        assert_eq!(
            self.values[value.index()].bits,
            self.values[old.index()].bits,
            "bound source value must match the declared bit width"
        );
        if let OpKind::Io {
            value: ref mut v, ..
        } = self.ops[io.index()].kind
        {
            *v = value;
        }
        if let Some(prod) = self.producer[value.index()] {
            self.edges.push(Edge {
                from: prod,
                to: io,
                value,
                degree,
            });
        }
    }

    /// Adds a system primary output transferring `value` to the outside
    /// world; returns the I/O node.
    pub fn output(&mut self, name: &str, value: ValueId) -> OpId {
        let (op, _) = self.io(name, value, PartitionId::ENVIRONMENT);
        op
    }

    /// Adds a TDM split node dividing `value` into `parts` sub-values of the
    /// given widths (Section 7.3). Returns the split node and the sub-values.
    ///
    /// # Panics
    ///
    /// Panics if the widths do not sum to the width of `value`.
    pub fn split(&mut self, name: &str, value: ValueId, widths: &[u32]) -> (OpId, Vec<ValueId>) {
        let total = widths.iter().try_fold(0u32, |acc, &w| acc.checked_add(w));
        assert_eq!(
            total,
            Some(self.values[value.index()].bits),
            "split widths must sum to the value width"
        );
        let home = self.home[value.index()];
        let op = self.push_op(Operation {
            name: name.to_string(),
            kind: OpKind::Split {
                parts: widths.len() as u32,
            },
            partition: home,
            result: None,
            condition: self.current_condition.clone(),
        });
        if let Some(prod) = self.producer[value.index()] {
            self.edges.push(Edge {
                from: prod,
                to: op,
                value,
                degree: 0,
            });
        }
        let parts = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let v = self.push_value(&format!("{name}.{i}"), w, Some(op), home);
                v
            })
            .collect();
        (op, parts)
    }

    /// Adds a TDM merge node recombining sub-values (available in partition
    /// `p`) into one `bits`-wide value.
    pub fn merge(
        &mut self,
        name: &str,
        p: PartitionId,
        parts: &[ValueId],
        bits: u32,
    ) -> (OpId, ValueId) {
        let op = self.push_op(Operation {
            name: name.to_string(),
            kind: OpKind::Merge,
            partition: p,
            result: None,
            condition: self.current_condition.clone(),
        });
        for &value in parts {
            assert_eq!(
                self.home[value.index()],
                p,
                "merge input must be available in the merging partition"
            );
            if let Some(prod) = self.producer[value.index()] {
                self.edges.push(Edge {
                    from: prod,
                    to: op,
                    value,
                    degree: 0,
                });
            }
        }
        let result = self.push_value(name, bits, Some(op), p);
        self.ops[op.index()].result = Some(result);
        (op, result)
    }

    /// The operation producing `value`, if any — a builder-time lookup for
    /// tools that wire raw edges with [`CdfgBuilder::add_edge`].
    pub fn producer_of(&self, value: ValueId) -> Option<OpId> {
        self.producer[value.index()]
    }

    /// The partition `value` is available in — a builder-time lookup for
    /// front ends that validate statements before committing them.
    pub fn home_of(&self, value: ValueId) -> PartitionId {
        self.home[value.index()]
    }

    /// The bit width of `value` at build time.
    pub fn value_bits(&self, value: ValueId) -> u32 {
        self.values[value.index()].bits
    }

    /// Adds a raw dependence edge. Needed for feedback edges the
    /// value-driven API cannot express, such as recursive edges back into an
    /// operation created earlier.
    pub fn add_edge(&mut self, edge: Edge) -> &mut Self {
        self.edges.push(edge);
        self
    }

    /// Number of operations added so far.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Finalizes and validates the graph.
    ///
    /// # Errors
    ///
    /// Returns the first violated structural invariant.
    pub fn finish(self) -> Result<Cdfg, GraphError> {
        let n = self.ops.len();
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId::new(i as u32);
            succs[e.from.index()].push(id);
            preds[e.to.index()].push(id);
        }
        let cdfg = Cdfg {
            library: self.library,
            partitions: self.partitions,
            ops: self.ops,
            values: self.values,
            edges: self.edges,
            preds,
            succs,
        };
        cdfg.validate()?;
        Ok(cdfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_chip_builder() -> (CdfgBuilder, PartitionId, PartitionId) {
        let mut b = CdfgBuilder::new(Library::ar_filter());
        let p1 = b.partition("P1", 48);
        let p2 = b.partition("P2", 32);
        (b, p1, p2)
    }

    #[test]
    fn builder_wires_edges_automatically() {
        let (mut b, p1, _) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let (_, c) = b.input("b", 8, p1);
        let (op, _) = b.func("m", OperatorClass::Mul, p1, &[(a, 0), (c, 0)], 8);
        let g = b.finish().unwrap();
        assert_eq!(g.preds(op).len(), 2);
        assert_eq!(g.io_ops().count(), 2);
        assert_eq!(g.func_ops().count(), 1);
    }

    #[test]
    fn cross_partition_requires_io() {
        let (mut b, p1, p2) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (_, m2) = b.io("X", m, p2);
        let (_, s) = b.func("s", OperatorClass::Add, p2, &[(m2, 0)], 8);
        b.output("o", s);
        let g = b.finish().unwrap();
        assert_eq!(g.io_ops().count(), 3);
        g.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "not available in partition")]
    fn consuming_foreign_value_panics() {
        let (mut b, p1, p2) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let _ = b.func("s", OperatorClass::Add, p2, &[(a, 0)], 8);
    }

    #[test]
    fn io_ops_grouped_by_transferred_value() {
        let (mut b, p1, p2) = two_chip_builder();
        let p3 = b.partition("P3", 32);
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (io1, m2) = b.io("X@2", m, p2);
        let (io2, m3) = b.io("X@3", m, p3);
        let _ = b.func("s2", OperatorClass::Add, p2, &[(m2, 0)], 8);
        let _ = b.func("s3", OperatorClass::Add, p3, &[(m3, 0)], 8);
        let g = b.finish().unwrap();
        let groups = g.io_ops_by_value();
        let w_v: Vec<_> = groups
            .values()
            .filter(|ops| ops.len() == 2)
            .flatten()
            .copied()
            .collect();
        assert_eq!(w_v, vec![io1, io2]);
        // OS_{P1} contains the value once even though transferred twice.
        assert_eq!(g.output_values(p1).len(), 1);
        assert_eq!(g.output_io_ops(p1).len(), 2);
    }

    #[test]
    fn topo_order_ignores_recursive_edges() {
        let (mut b, p1, _) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        // s consumes its own previous result: a degree-1 self-loop through f.
        let (s_op, s) = b.func("s", OperatorClass::Add, p1, &[(a, 0)], 8);
        let (f_op, f) = b.func("f", OperatorClass::Add, p1, &[(s, 0)], 8);
        // Feedback: s also consumes f from the previous instance.
        b.edges.push(Edge {
            from: f_op,
            to: s_op,
            value: f,
            degree: 1,
        });
        let g = b.finish().unwrap();
        let order = g.topo_order().unwrap();
        let pos = |id: OpId| order.iter().position(|&x| x == id).unwrap();
        assert!(pos(s_op) < pos(f_op));
    }

    #[test]
    fn degree_zero_cycle_is_rejected() {
        let (mut b, p1, _) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let (s_op, s) = b.func("s", OperatorClass::Add, p1, &[(a, 0)], 8);
        let (f_op, f) = b.func("f", OperatorClass::Add, p1, &[(s, 0)], 8);
        b.edges.push(Edge {
            from: f_op,
            to: s_op,
            value: f,
            degree: 0,
        });
        assert!(matches!(
            b.finish(),
            Err(GraphError::CyclicDependence { .. })
        ));
    }

    #[test]
    fn condition_vectors_detect_mutual_exclusion() {
        let c0 = CondId::new(0);
        let c1 = CondId::new(1);
        let t = ConditionVector::new([(c0, true)]);
        let f = ConditionVector::new([(c0, false)]);
        let tf = ConditionVector::new([(c0, true), (c1, false)]);
        assert!(t.mutually_exclusive(&f));
        assert!(f.mutually_exclusive(&tf)); // c0 differs
        assert!(!t.mutually_exclusive(&tf));
        assert!(!t.mutually_exclusive(&ConditionVector::always()));
        assert!(ConditionVector::new([(c0, true), (c0, false)]).is_contradictory());
    }

    #[test]
    fn under_condition_guards_ops() {
        let (mut b, p1, _) = two_chip_builder();
        let c = b.condition_var();
        let (_, a) = b.input("a", 8, p1);
        let (t_op, _) = b.under_condition(c, true, |b| {
            b.func("t", OperatorClass::Add, p1, &[(a, 0)], 8)
        });
        let (f_op, _) = b.under_condition(c, false, |b| {
            b.func("f", OperatorClass::Add, p1, &[(a, 0)], 8)
        });
        let g = b.finish().unwrap();
        assert!(g
            .op(t_op)
            .condition
            .mutually_exclusive(&g.op(f_op).condition));
    }

    #[test]
    fn split_and_merge_model_tdm() {
        let (mut b, p1, p2) = two_chip_builder();
        let (_, a) = b.input("a", 32, p1);
        let (_, w) = b.func("w", OperatorClass::Add, p1, &[(a, 0)], 32);
        let (_, parts) = b.split("sp", w, &[16, 16]);
        let (_, lo) = b.io("Xlo", parts[0], p2);
        let (_, hi) = b.io("Xhi", parts[1], p2);
        let (_, merged) = b.merge("mg", p2, &[lo, hi], 32);
        let (_, s) = b.func("s", OperatorClass::Add, p2, &[(merged, 0)], 32);
        b.output("o", s);
        let g = b.finish().unwrap();
        assert_eq!(g.io_bits(g.input_io_ops(p2)[0]), 16);
        assert_eq!(g.value(merged).bits, 32);
    }

    #[test]
    fn self_transfer_rejected() {
        let (mut b, p1, _) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        // Force an io to the same partition by hand.
        let (op, _) = b.io("bad", a, p1);
        let err = b.finish().unwrap_err();
        assert_eq!(err, GraphError::SelfTransfer { op });
    }

    #[test]
    fn io_with_degree_marks_recursive_transfer() {
        let (mut b, p1, p2) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (io, m2) = b.io_with_degree("X", m, p2, 1);
        let (_, s) = b.func("s", OperatorClass::Add, p2, &[(m2, 0)], 8);
        b.output("o", s);
        let g = b.finish().unwrap();
        let rec: Vec<_> = g.edges().iter().filter(|e| e.degree > 0).collect();
        assert_eq!(rec.len(), 1);
        assert_eq!(rec[0].to, io);
    }

    #[test]
    fn cross_partition_edge_without_io_rejected() {
        let (mut b, p1, p2) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let (f_op, f) = b.func("f", OperatorClass::Add, p1, &[(a, 0)], 8);
        // A consumer on P2 wired directly to P1's value, bypassing io().
        let (g_op, _) = b.func("g", OperatorClass::Add, p2, &[], 8);
        b.add_edge(Edge {
            from: f_op,
            to: g_op,
            value: f,
            degree: 0,
        });
        assert!(matches!(
            b.finish(),
            Err(GraphError::CrossPartitionEdge { .. })
        ));
    }

    #[test]
    fn zero_width_value_rejected() {
        let (mut b, p1, _) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let _ = b.func("f", OperatorClass::Add, p1, &[(a, 0)], 0);
        assert!(matches!(b.finish(), Err(GraphError::ZeroWidthValue { .. })));
    }

    #[test]
    fn contradictory_condition_rejected() {
        let (mut b, p1, _) = two_chip_builder();
        let c = b.condition_var();
        let (_, a) = b.input("a", 8, p1);
        b.under_condition(c, true, |b| {
            b.under_condition(c, false, |b| {
                let _ = b.func("f", OperatorClass::Add, p1, &[(a, 0)], 8);
            });
        });
        assert!(matches!(
            b.finish(),
            Err(GraphError::ContradictoryCondition { .. })
        ));
    }

    #[test]
    fn inconsistent_io_source_rejected() {
        let (mut b, p1, p2) = two_chip_builder();
        let (_, a) = b.input("a", 8, p1);
        let (_, m) = b.func("m", OperatorClass::Mul, p1, &[(a, 0)], 8);
        let (_, m2) = b.io("X", m, p2);
        // A transfer claiming to leave P1 but sourcing a P2-homed value.
        let (io, _) = b.io_pending("bad", 8, p1, p2);
        if let OpKind::Io { value, .. } = &mut b.ops[io.index()].kind {
            *value = m2; // m2 lives on P2, not P1
        }
        b.edges.push(Edge {
            from: b.producer_of(m2).unwrap(),
            to: io,
            value: m2,
            degree: 0,
        });
        assert!(matches!(b.finish(), Err(GraphError::InconsistentIo { .. })));
    }

    #[test]
    fn error_messages_name_the_culprit() {
        let err = GraphError::CyclicDependence { on: OpId::new(3) };
        assert!(err.to_string().contains("op3"));
        let err = GraphError::ZeroWidthValue {
            value: ValueId::new(7),
        };
        assert!(err.to_string().contains("v7"));
    }
}
