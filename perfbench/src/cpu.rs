//! Process CPU time, the benchmark's clock for compute-bound work.
//!
//! On a shared virtual machine the hypervisor takes the CPU away for
//! stretches ("steal"; 30 to 50 % of this VM's CPU time in busy phases),
//! and wall-clock timings of single-threaded compute swing with it. The
//! kernel's per-task run time excludes steal, so CPU time measures the
//! work itself. For a single-threaded call on an unshared machine it
//! equals the wall time.

#[cfg(target_os = "linux")]
mod imp {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process, exited
    /// ones included.
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    pub fn process_cpu_s() -> f64 {
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `clock_gettime` writes one `timespec` (two 64-bit
        // fields on 64-bit Linux) through a pointer to a live, properly
        // aligned local, and reads nothing else.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
        assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
        t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::sync::OnceLock;
    use std::time::Instant;

    /// Elsewhere the benchmark falls back to wall time.
    pub fn process_cpu_s() -> f64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

/// CPU seconds this process has run, over all its threads.
pub fn process_cpu_s() -> f64 {
    imp::process_cpu_s()
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let before = super::process_cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::process_cpu_s() > before, "{x}");
    }
}
