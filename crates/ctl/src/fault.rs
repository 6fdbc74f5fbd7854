//! Debug-only fault injection for the test suite.
//!
//! Production code marks interruption-safe sites with
//! [`faultpoint!`](crate::faultpoint):
//!
//! ```
//! mcs_ctl::faultpoint!("doc::example");
//! ```
//!
//! In release builds the macro expands to nothing. In debug builds it
//! consults a process-global registry: tests arm a site with [`arm`]
//! and the next thread to pass it panics (or stalls), which is how the
//! fault-injection suite proves that a panicking worker degrades its
//! contribution instead of aborting the whole process.
//!
//! Tests that arm faults must not run concurrently with each other;
//! use [`disarm_all`] in a guard so a failing test cannot leak an armed
//! fault into the next one.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// What an armed faultpoint does to the thread that hits it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic with a deterministic message naming the site.
    Panic,
    /// Sleep for the given number of milliseconds, then continue.
    /// Models a stalled worker; keep it small in tests.
    Stall(u64),
}

#[derive(Debug, Default)]
struct Registry {
    armed: HashMap<String, FaultAction>,
    hits: HashMap<String, u64>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

/// Arm `site` so the next [`hit`] triggers `action`. The fault stays
/// armed (every hit triggers) until [`disarm`] or [`disarm_all`].
pub fn arm(site: &str, action: FaultAction) {
    let mut reg = registry().lock().expect("fault registry");
    reg.armed.insert(site.to_string(), action);
}

/// Disarm a single site.
pub fn disarm(site: &str) {
    let mut reg = registry().lock().expect("fault registry");
    reg.armed.remove(site);
}

/// Disarm every site. Call from a test's cleanup guard.
pub fn disarm_all() {
    let mut reg = registry().lock().expect("fault registry");
    reg.armed.clear();
}

/// How many times `site` was reached (armed or not) since process
/// start. Lets tests assert a site is actually on the exercised path.
pub fn hits(site: &str) -> u64 {
    let reg = registry().lock().expect("fault registry");
    reg.hits.get(site).copied().unwrap_or(0)
}

/// Called by [`faultpoint!`](crate::faultpoint) in debug builds. Counts
/// the visit and triggers the armed action, if any.
pub fn hit(site: &str) {
    let action = {
        let mut reg = registry().lock().expect("fault registry");
        *reg.hits.entry(site.to_string()).or_insert(0) += 1;
        reg.armed.get(site).copied()
    };
    match action {
        None => {}
        Some(FaultAction::Panic) => panic!("injected fault at {site}"),
        Some(FaultAction::Stall(ms)) => std::thread::sleep(std::time::Duration::from_millis(ms)),
    }
}

/// Marks an interruption-safe site for fault injection.
///
/// Expands to a registry probe in debug builds and to nothing in
/// release builds, so faultpoints cost nothing in shipped binaries.
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {{
        #[cfg(debug_assertions)]
        {
            $crate::fault::hit($site);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_faultpoint_is_a_noop() {
        faultpoint!("test::noop");
        // Debug builds count the hit; release builds compile the site
        // away entirely.
        if cfg!(debug_assertions) {
            assert!(hits("test::noop") >= 1);
        } else {
            assert_eq!(hits("test::noop"), 0);
        }
    }

    #[test]
    fn armed_panic_fires_and_disarms_cleanly() {
        arm("test::boom", FaultAction::Panic);
        let r = std::panic::catch_unwind(|| faultpoint!("test::boom"));
        disarm("test::boom");
        // An armed site panics only where faultpoints exist: debug builds.
        assert_eq!(r.is_err(), cfg!(debug_assertions));
        // After disarm the same site is inert again.
        faultpoint!("test::boom");
    }

    #[test]
    fn stall_returns_control() {
        arm("test::stall", FaultAction::Stall(1));
        faultpoint!("test::stall");
        disarm_all();
    }
}
