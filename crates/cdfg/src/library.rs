//! Hardware module library.
//!
//! Per Section 2.2 of the paper, module selection happens before scheduling:
//! for every operation class there is exactly one functional-unit type per
//! partition. A module is characterized by its combinational delay and, for
//! multi-cycle units, by the number of clock cycles it occupies.

use std::collections::BTreeMap;
use std::fmt;

/// The class of a functional operation.
///
/// The two filter benchmarks only need adders and multipliers, but users may
/// define arbitrary named classes (comparators, ALUs, ...).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OperatorClass {
    /// Two-input addition.
    Add,
    /// Two-input subtraction.
    Sub,
    /// Two-input multiplication.
    Mul,
    /// A user-defined operation class.
    Custom(String),
}

impl OperatorClass {
    /// The class named by a `.mcs` or delta token: `add`, `sub` and `mul`
    /// name the built-in classes, any other token a custom class.
    pub fn from_token(token: &str) -> OperatorClass {
        match token {
            "add" => OperatorClass::Add,
            "sub" => OperatorClass::Sub,
            "mul" => OperatorClass::Mul,
            other => OperatorClass::Custom(other.to_string()),
        }
    }

    /// The token [`OperatorClass::from_token`] reads back as this class.
    pub fn token(&self) -> &str {
        match self {
            OperatorClass::Add => "add",
            OperatorClass::Sub => "sub",
            OperatorClass::Mul => "mul",
            OperatorClass::Custom(name) => name,
        }
    }

    /// Short mnemonic used in schedule/table rendering.
    pub fn symbol(&self) -> &str {
        match self {
            OperatorClass::Add => "+",
            OperatorClass::Sub => "-",
            OperatorClass::Mul => "*",
            OperatorClass::Custom(name) => name,
        }
    }
}

impl fmt::Display for OperatorClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A hardware module implementing one [`OperatorClass`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Module {
    /// The operation class this module implements.
    pub class: OperatorClass,
    /// Combinational delay in nanoseconds.
    pub delay_ns: u64,
    /// `true` if a multi-cycle unit accepts a new operation every cycle.
    /// Non-pipelined multi-cycle units (like the elliptic filter multiplier)
    /// block for their whole duration.
    pub pipelined: bool,
}

/// The module set of a design plus the global clocking scheme.
///
/// The paper assumes a single global clock whose period (the *stage time*) is
/// fixed by the user. Chaining packs several combinational operations into
/// one stage as long as their accumulated delay fits.
///
/// # Examples
///
/// ```
/// use mcs_cdfg::{Library, Module, OperatorClass};
///
/// let mut lib = Library::new(250);
/// lib.insert(Module { class: OperatorClass::Add, delay_ns: 30, pipelined: true });
/// lib.insert(Module { class: OperatorClass::Mul, delay_ns: 210, pipelined: true });
/// assert_eq!(lib.cycles(&OperatorClass::Add), 1);
/// assert!(lib.chainable(&OperatorClass::Add));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Library {
    stage_ns: u64,
    io_delay_ns: u64,
    modules: BTreeMap<OperatorClass, Module>,
}

impl Library {
    /// Creates a library with the given clock period (stage time) in ns and
    /// a default I/O transfer delay of 10 ns (the value used throughout the
    /// paper's experiments).
    ///
    /// # Panics
    ///
    /// Panics if `stage_ns` is zero.
    pub fn new(stage_ns: u64) -> Self {
        assert!(stage_ns > 0, "stage time must be positive");
        Library {
            stage_ns,
            io_delay_ns: 10,
            modules: BTreeMap::new(),
        }
    }

    /// Clock period in nanoseconds.
    pub fn stage_ns(&self) -> u64 {
        self.stage_ns
    }

    /// Delay of an I/O transfer in nanoseconds. I/O transfers are activated
    /// at the beginning of a clock cycle and complete within the cycle.
    pub fn io_delay_ns(&self) -> u64 {
        self.io_delay_ns
    }

    /// Overrides the estimated I/O transfer delay.
    ///
    /// # Panics
    ///
    /// Panics if the delay exceeds the stage time (I/O transfers must
    /// complete in a single cycle per Section 2.2).
    pub fn set_io_delay_ns(&mut self, delay_ns: u64) {
        assert!(
            delay_ns <= self.stage_ns,
            "I/O transfers must complete within one cycle"
        );
        self.io_delay_ns = delay_ns;
    }

    /// Registers (or replaces) the module for one operation class.
    pub fn insert(&mut self, module: Module) {
        self.modules.insert(module.class.clone(), module);
    }

    /// Looks up the module for a class.
    pub fn module(&self, class: &OperatorClass) -> Option<&Module> {
        self.modules.get(class)
    }

    /// Number of clock cycles the class occupies (`ceil(delay / stage)`).
    ///
    /// Unknown classes default to a single cycle.
    pub fn cycles(&self, class: &OperatorClass) -> u32 {
        match self.modules.get(class) {
            Some(m) => m.delay_ns.div_ceil(self.stage_ns).max(1) as u32,
            None => 1,
        }
    }

    /// Combinational delay of the class in nanoseconds (stage time for
    /// unknown classes).
    pub fn delay_ns(&self, class: &OperatorClass) -> u64 {
        match self.modules.get(class) {
            Some(m) => m.delay_ns,
            None => self.stage_ns,
        }
    }

    /// Whether operations of this class may be chained with others in a
    /// single control step. Per Section 7.4 multi-cycle operations are never
    /// chained.
    pub fn chainable(&self, class: &OperatorClass) -> bool {
        self.cycles(class) == 1
    }

    /// Whether the module for this class is pipelined (relevant only for
    /// multi-cycle modules).
    pub fn pipelined(&self, class: &OperatorClass) -> bool {
        self.modules.get(class).is_none_or(|m| m.pipelined)
    }

    /// Iterates over the registered modules in deterministic class order.
    pub fn iter(&self) -> impl Iterator<Item = &Module> {
        self.modules.values()
    }

    /// The library used by the AR-filter experiments: 250 ns stage, 30 ns
    /// adders, 210 ns multipliers, 10 ns I/O transfers (Sections 3.4, 4.4.1).
    pub fn ar_filter() -> Self {
        let mut lib = Library::new(250);
        lib.insert(Module {
            class: OperatorClass::Add,
            delay_ns: 30,
            pipelined: true,
        });
        lib.insert(Module {
            class: OperatorClass::Mul,
            delay_ns: 210,
            pipelined: true,
        });
        lib
    }

    /// The library used by the elliptic-filter experiments: additions and
    /// I/O transfers take one cycle, multiplications take two cycles and are
    /// not pipelined (Section 4.4.2). The stage time is normalized to 100 ns.
    pub fn elliptic_filter() -> Self {
        let mut lib = Library::new(100);
        lib.set_io_delay_ns(100);
        lib.insert(Module {
            class: OperatorClass::Add,
            delay_ns: 100,
            pipelined: true,
        });
        lib.insert(Module {
            class: OperatorClass::Mul,
            delay_ns: 200,
            pipelined: false,
        });
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_round_up() {
        let lib = Library::ar_filter();
        assert_eq!(lib.cycles(&OperatorClass::Add), 1);
        assert_eq!(lib.cycles(&OperatorClass::Mul), 1); // 210 <= 250
        let lib = Library::elliptic_filter();
        assert_eq!(lib.cycles(&OperatorClass::Add), 1);
        assert_eq!(lib.cycles(&OperatorClass::Mul), 2);
    }

    #[test]
    fn multicycle_is_not_chainable() {
        let lib = Library::elliptic_filter();
        assert!(lib.chainable(&OperatorClass::Add));
        assert!(!lib.chainable(&OperatorClass::Mul));
        assert!(!lib.pipelined(&OperatorClass::Mul));
    }

    #[test]
    fn unknown_class_defaults_to_one_stage() {
        let lib = Library::new(100);
        let c = OperatorClass::Custom("alu".into());
        assert_eq!(lib.cycles(&c), 1);
        assert_eq!(lib.delay_ns(&c), 100);
        assert!(lib.module(&c).is_none());
    }

    #[test]
    #[should_panic(expected = "stage time must be positive")]
    fn zero_stage_rejected() {
        let _ = Library::new(0);
    }

    #[test]
    #[should_panic(expected = "within one cycle")]
    fn io_delay_longer_than_stage_rejected() {
        let mut lib = Library::new(100);
        lib.set_io_delay_ns(150);
    }

    #[test]
    fn operator_class_symbols() {
        assert_eq!(OperatorClass::Add.to_string(), "+");
        assert_eq!(OperatorClass::Mul.to_string(), "*");
        assert_eq!(OperatorClass::Sub.to_string(), "-");
        assert_eq!(OperatorClass::Custom("cmp".into()).to_string(), "cmp");
    }

    #[test]
    fn iter_is_deterministic() {
        let lib = Library::ar_filter();
        let classes: Vec<_> = lib.iter().map(|m| m.class.clone()).collect();
        assert_eq!(classes, vec![OperatorClass::Add, OperatorClass::Mul]);
    }
}
