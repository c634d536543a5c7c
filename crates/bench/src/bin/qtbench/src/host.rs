//! The host guard: a fixed calibration loop owned by the benchmark, the
//! `/proc/stat` steal share, and peak resident sets.
//!
//! Shared hosts switch speed between levels over minutes and run slower
//! for a while after heavy builds. The guard runs the same loop between
//! consecutive workload runs, so each run has a reading before and after
//! it; when the two readings differ by more than
//! [`UNSTABLE_SHIFT`], the workload's numbers were taken on a moving host
//! and the run is flagged `host_unstable`.

use std::time::Instant;

use crate::metrics::splitmix64;
use qtaccel_telemetry::json::{Json, Parsed};

/// Probe shift (|after/before - 1|) beyond which a run is flagged.
pub const UNSTABLE_SHIFT: f64 = 0.10;

/// 1 MiB of `u64`s: resident in L2, so the loop measures core speed and
/// L2 latency, not DRAM.
const TABLE_WORDS: usize = 1 << 17;
/// About a millisecond per pass, a second in all: other tenants'
/// interference comes in bursts, and many short passes spread over a
/// second almost always include one in a quiet stretch. Back-to-back
/// probes on an idle 2-CPU host moved by more than 10% in about one pair
/// in forty this way, against one in five with 32 passes of 12 ms.
const STEPS: u64 = 1 << 16;
const PASSES: usize = 1024;

/// Nanoseconds per step of a dependent splitmix chain over a 1 MiB table.
/// Every step's load address depends on the previous step's result, so
/// the loop cannot overlap iterations. One untimed pass wakes the core
/// up; the fastest of the timed passes reads the host's speed level,
/// since interference only ever adds time.
pub fn calibrate() -> f64 {
    let table: Vec<u64> = (0..TABLE_WORDS as u64).map(splitmix64).collect();
    let mut x = 0x5154_4341_4c49_4252u64;
    let mut pass = || {
        let t = Instant::now();
        for _ in 0..STEPS {
            x = splitmix64(x ^ table[(x as usize) & (TABLE_WORDS - 1)]);
        }
        std::hint::black_box(x);
        t.elapsed().as_secs_f64() * 1e9 / STEPS as f64
    };
    pass();
    (0..PASSES).map(|_| pass()).fold(f64::INFINITY, f64::min)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

/// `None` where `/proc/stat` is unreadable (non-Linux hosts).
pub fn cpu_times() -> Option<CpuTimes> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already counted in user, so the total stops at steal.
    Some(CpuTimes {
        total: fields.iter().take(8).sum(),
        steal: *fields.get(7)?,
    })
}

/// The guard around one workload's child process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Guard {
    pub probe_before_ns: f64,
    pub probe_after_ns: f64,
    pub steal_share: f64,
}

impl Guard {
    /// Run `f` between two `/proc/stat` reads and two calibration probes:
    /// `probe_before_ns`, taken by the caller (the previous guard's after
    /// probe, when runs follow each other), and one taken after `f`.
    pub fn around<T>(probe_before_ns: f64, f: impl FnOnce() -> T) -> (T, Self) {
        let before = cpu_times();
        let out = f();
        let after = cpu_times();
        let probe_after_ns = calibrate();
        let steal_share = match (before, after) {
            (Some(b), Some(a)) if a.total > b.total => {
                (a.steal - b.steal) as f64 / (a.total - b.total) as f64
            }
            _ => 0.0,
        };
        (
            out,
            Self {
                probe_before_ns,
                probe_after_ns,
                steal_share,
            },
        )
    }

    pub fn shift(self) -> f64 {
        (self.probe_after_ns / self.probe_before_ns - 1.0).abs()
    }

    pub fn unstable(self) -> bool {
        self.shift() > UNSTABLE_SHIFT
    }

    pub fn to_json(self) -> Json {
        Json::Obj(vec![
            ("probe_before_ns", Json::Num(self.probe_before_ns)),
            ("probe_after_ns", Json::Num(self.probe_after_ns)),
            ("probe_shift", Json::Num(self.shift())),
            ("steal_share", Json::Num(self.steal_share)),
            ("unstable", Json::Bool(self.unstable())),
        ])
    }

    pub fn from_parsed(p: &Parsed) -> Option<Self> {
        Some(Self {
            probe_before_ns: p.get("probe_before_ns")?.as_f64()?,
            probe_after_ns: p.get("probe_after_ns")?.as_f64()?,
            steal_share: p.get("steal_share")?.as_f64()?,
        })
    }
}

/// The largest peak resident set of this process's waited-for children
/// (and their waited-for descendants) in MiB: `getrusage(RUSAGE_CHILDREN)`,
/// whose `ru_maxrss` Linux reports in KiB.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_mb() -> Option<f64> {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s, `ru_maxrss` first.
    #[repr(C)]
    struct Rusage {
        utime: [i64; 2],
        stime: [i64; 2],
        maxrss: i64,
        rest: [i64; 13],
    }
    const RUSAGE_CHILDREN: i32 = -1;
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the layout
    // the C library expects on this target, and `getrusage` writes only it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut usage) };
    (rc == 0).then(|| usage.maxrss as f64 / 1024.0)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_mb() -> Option<f64> {
    None
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_and_proc_readings_are_sane() {
        let ns = calibrate();
        assert!(ns.is_finite() && ns > 0.0, "{ns}");
        if let Some(t) = cpu_times() {
            assert!(t.total >= t.steal);
        }
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
        // A reaped child that held a 32 MiB string raises the children's
        // peak past it.
        if children_peak_rss_mb().is_some() {
            let status = std::process::Command::new("sh")
                .args([
                    "-c",
                    "x=$(head -c 33554432 /dev/zero | tr '\\0' a); test ${#x} -gt 0",
                ])
                .status();
            if status.is_ok_and(|s| s.success()) {
                let mb = children_peak_rss_mb().expect("readable");
                assert!((32.0..4096.0).contains(&mb), "{mb} MiB");
            }
        }
        let g = Guard {
            probe_before_ns: 10.0,
            probe_after_ns: 11.5,
            steal_share: 0.0,
        };
        assert!(g.unstable(), "a 15% probe move is flagged");
        assert_eq!(
            Guard::from_parsed(&qtaccel_telemetry::json::parse(&g.to_json().compact()).unwrap()),
            Some(g)
        );
    }
}
