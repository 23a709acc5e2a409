//! What every workload shares: the run's arguments, the result it fills
//! in, and the process-level measurements (set-up time, peak RSS).

use crate::metrics::{self, Def};
use crate::spans::SpanLog;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Share of a traced run's window that runs with span recording still
/// off: the plain reference `ledger.trace_overhead_pct` compares against.
pub const PLAIN_SHARE: f64 = 1.0 / 3.0;

/// Sub-windows a throughput metric is the median of.
pub const SUBWINDOWS: usize = 5;

pub const MIB: f64 = 1024.0 * 1024.0;

/// `len` bytes (a multiple of 8) from the SplitMix64 stream seeded with
/// `stream`: the values the KV workloads store and the bodies the echoes
/// carry.
pub fn seeded_bytes(stream: u64, len: usize) -> Vec<u8> {
    let mut rng = symbi_load::rng::SplitMix64::new(stream);
    let mut v = Vec::with_capacity(len);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v
}

pub fn unix_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans, read counters and run the probe ladder.
    pub traced: bool,
    /// Stop after set-up (a set-up rehearsal; see `setup_s`).
    pub setup_only: bool,
    /// When this process was spawned (unix ns): `setup_s` counts from here.
    pub spawn_unix_ns: u64,
    /// Scratch directory of this run; removed when the run ends.
    pub dir: PathBuf,
    pub spans: SpanLog,
}

impl Ctx {
    /// Samples per probe: 2 000 at the full window, fewer in a smoke run.
    pub fn probe_samples(&self) -> usize {
        ((2000.0 * self.seconds / metrics::RUN_SECONDS) as usize).clamp(50, 2000)
    }

    /// Nanoseconds of the measured window.
    pub fn window_ns(&self) -> u64 {
        (self.seconds * 1e9) as u64
    }

    /// Where in the window span recording switches on (`u64::MAX`: never).
    pub fn traced_from_ns(&self) -> u64 {
        if self.traced {
            (self.seconds * PLAIN_SHARE * 1e9) as u64
        } else {
            u64::MAX
        }
    }
}

#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Fingerprint of the generated inputs: equal seeds give equal values.
    pub sequence_hash: u64,
    /// Output checks that did not hold; any entry makes the run incorrect.
    pub errors: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        // Catch a typo at the first run instead of printing a 0 forever.
        metrics::unit_of(name);
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// Mark set-up as finished: `setup_s` is process spawn to now.
    pub fn setup_done(&mut self, ctx: &Ctx) {
        self.set(
            "setup_s",
            unix_ns().saturating_sub(ctx.spawn_unix_ns) as f64 / 1e9,
        );
    }

    /// `ledger.trace_overhead_pct` with both of its bases: `ops_per_s` of
    /// the plain stretch of a traced run and of its traced stretch.
    pub fn set_trace_overhead(&mut self, plain: f64, traced: f64) {
        self.set("ledger.plain_ops_per_s", plain);
        self.set("ledger.traced_ops_per_s", traced);
        self.set(
            "ledger.trace_overhead_pct",
            if plain > 0.0 {
                100.0 * (plain - traced) / plain
            } else {
                0.0
            },
        );
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// `(name, value, unit)` for each metric of `defs`, 0 where unset.
    pub fn rows<'a>(
        &'a self,
        defs: &'a [Def],
    ) -> impl Iterator<Item = (&'static str, f64, &'static str)> + 'a {
        defs.iter().map(|d| (d.name, self.get(d.name), d.unit))
    }
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes of all regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Mean nanoseconds per call of `f` over `n` calls.
pub fn mean_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let start = Instant::now();
    for i in 0..n {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Restrict this process — every thread it will start — to one CPU.
///
/// The latency workloads need it on a small VM: waking a thread on another,
/// halted vCPU costs tens of microseconds per hop, a request crosses
/// several, and whether a run pays depends on where the scheduler happens
/// to have put a dozen threads. The same binary and seed read a get p50 of
/// 0.21 ms or 0.36 ms; on one CPU no hop needs an inter-processor wake-up
/// and the median repeats within 2 %. `hepnos_traced` needs it for another
/// reason: its 2 clients, 8 handler streams, progress loops, monitors and
/// collector are some fifteen runnable threads, and on two shared vCPUs
/// their events/s measured the scheduler (rounds of one run ±4 %, runs on
/// the gate's host 7.6 % apart; pinned, ±1.5 % and 0.8 %): on one CPU it is
/// the CPU cost of an event. Returns whether the kernel agreed.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mask: u64 = 1; // CPU 0
                       // SAFETY: `sched_setaffinity(2)` reads `cpusetsize` bytes from `mask`;
                       // the pointer is to a live, aligned u64 and the size passed is its own.
                       // pid 0 names the calling thread, which is the only thread at this
                       // point, and the threads it starts inherit the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> bool {
    false
}
