//! Process CPU time and the host-speed reference.
//!
//! The benchmark runs on shared hosts whose speed drifts with their
//! neighbours, by a factor of up to two within minutes. Two measures keep
//! that drift out of the end-to-end metrics:
//!
//! - rounds and set-up are timed in process CPU time (user + system, over
//!   all threads), which leaves out the time the process lost the core to
//!   the hypervisor or to other processes;
//! - a unit of fixed *reference work*, owned by the benchmark and
//!   independent of the program under test, is timed after every round.
//!   It tells how fast the host's memory system served the process around
//!   that round, and the round's time is scaled to a host on which one
//!   unit takes [`REFERENCE_UNIT_NS`].
//!
//! The reference is a burst of independent random loads from a table
//! larger than the L2 cache, sized per workload. On a loaded host the
//! rounds slow down about in proportion to it. On a 2-vCPU KVM guest of an
//! Intel Xeon host with a 300 MiB shared L3 cache, over 192 episodes of
//! `flash-1k` in one run, whose episode round times spread by a factor of
//! 1.9, the log-log slope of episode round time against episode reference
//! time was 1.0 with a 64 MiB table (correlation 0.94). Over 39 episodes of
//! `steady-16k` (spread 2.2) it was 1.1 with a 256 MiB table (correlation
//! 0.97), and 1.6 with the 64 MiB one; over 86 of `churn-faults-4k`, 0.85
//! with 64 MiB (correlation 0.90). Compute-only work and dependent pointer
//! chasing followed the drift far less (slopes 2–4). The reference runs
//! between rounds, not only between episodes, because the host's speed
//! changes within seconds.

use std::hint::black_box;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by this process so far, over all its threads, in ns.
pub fn process_cpu_ns() -> u64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec and the clock id is a
    // constant every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
}

/// CPU ns one unit of reference work takes on the reference host. Scaled
/// times read as if measured there.
pub const REFERENCE_UNIT_NS: f64 = 1.0e6;

/// Random loads per unit.
const LOADS: usize = 1 << 16;

/// The reference work: [`LOADS`] loads from random places of a table
/// larger than the L2 cache, each independent of the last, so that many are
/// in flight at once and the unit measures how fast the memory system
/// serves a burst of misses.
pub struct Reference {
    table: Vec<u32>,
    state: u64,
}

impl Reference {
    /// Allocates a table of 2^`bits` entries and fills it, so every page of
    /// it is resident.
    pub fn new(bits: u32) -> Reference {
        Reference {
            table: (0..1u32 << bits).collect(),
            state: 0x2545_F491_4F6C_DD1D,
        }
    }

    /// Bytes the reference keeps resident.
    pub fn resident_bytes(&self) -> usize {
        self.table.len() * std::mem::size_of::<u32>()
    }

    /// Does one unit of work and returns the CPU ns it took.
    pub fn unit_ns(&mut self) -> u64 {
        let start = process_cpu_ns();
        black_box(self.unit());
        process_cpu_ns() - start
    }

    /// One unit of reference work; returns the XOR of the loaded entries.
    fn unit(&mut self) -> u32 {
        let shift = 64 - self.table.len().trailing_zeros();
        let mut s = self.state;
        let mut acc = 0u32;
        for _ in 0..LOADS {
            s = xorshift(s);
            acc ^= self.table[(s >> shift) as usize];
        }
        self.state = s;
        acc
    }
}

fn xorshift(mut s: u64) -> u64 {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    s
}

/// Host-speed factor: scales a CPU time measured next to a unit of
/// reference work that took `unit_ns` to the reference host. It is
/// [`REFERENCE_UNIT_NS`] over `unit_ns`, and 1 when no unit was timed
/// (`unit_ns` = 0).
pub fn speed_scale(unit_ns: u64) -> f64 {
    if unit_ns > 0 {
        REFERENCE_UNIT_NS / unit_ns as f64
    } else {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// CPU time of the calling thread alone, in ns.
    fn thread_cpu_ns() -> u64 {
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut t = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: as in `process_cpu_ns`.
        assert_eq!(unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut t) }, 0);
        t.tv_sec as u64 * 1_000_000_000 + t.tv_nsec as u64
    }

    fn busy(steps: u64) -> u64 {
        let mut h = 1u64;
        for i in 0..steps {
            h = black_box(h.wrapping_mul(31).wrapping_add(i));
        }
        h
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let t0 = process_cpu_ns();
        busy(5_000_000);
        assert!(process_cpu_ns() > t0, "busy work consumed no CPU time");
    }

    #[test]
    fn worker_threads_count_towards_process_time() {
        let t0 = process_cpu_ns();
        let worker_ns = std::thread::scope(|s| {
            s.spawn(|| {
                let start = thread_cpu_ns();
                busy(20_000_000);
                thread_cpu_ns() - start
            })
            .join()
            .expect("worker")
        });
        assert!(worker_ns > 0);
        assert!(process_cpu_ns() - t0 >= worker_ns);
    }

    #[test]
    fn units_load_across_the_whole_table_and_are_reproducible() {
        let (mut a, mut b) = (Reference::new(12), Reference::new(12));
        let first = a.unit();
        assert_eq!(first, b.unit());
        assert_ne!(first, a.unit(), "each unit continues the random stream");
        // The index is the top bits of the stream: every entry is reachable.
        let shift = 64 - 12;
        let (mut s, mut seen) = (0x2545_F491_4F6C_DD1Du64, vec![false; 1 << 12]);
        for _ in 0..LOADS {
            s = xorshift(s);
            seen[(s >> shift) as usize] = true;
        }
        assert!(seen.iter().all(|&x| x), "some entries are never loaded");
        assert_eq!(a.resident_bytes(), 4 << 12);
    }

    #[test]
    fn speed_scale_maps_the_reference_unit_to_one() {
        assert_eq!(speed_scale(REFERENCE_UNIT_NS as u64), 1.0);
        assert_eq!(speed_scale(2 * REFERENCE_UNIT_NS as u64), 0.5);
        assert_eq!(speed_scale(0), 1.0, "no unit timed: times stay as measured");
    }
}
