//! Host readings from `/proc` and `getrusage`: process CPU and peak
//! memory, plus the noise record printed beside every run (steal time,
//! run-queue wait, load average).

use std::fs;
use std::time::Duration;

/// Kernel clock ticks per second for `/proc/*/stat` and `/proc/stat`
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters this module does not read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

/// User + system CPU seconds of this process, all threads (exited ones
/// included), at microsecond resolution.
pub fn self_cpu_s() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills for RUSAGE_SELF on 64-bit Linux; the call writes
    // only inside it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// User + system CPU seconds of process `pid` from `/proc/<pid>/stat`
/// (10 ms resolution).
pub fn pid_cpu_s(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_pid_cpu_s(&stat)
}

fn parse_pid_cpu_s(stat: &str) -> Option<f64> {
    // Fields after the parenthesised command name; utime and stime
    // are fields 14 and 15 of the whole line.
    let rest = &stat[stat.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = f.get(11)?.parse().ok()?;
    let stime: u64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) of `pid` (or `self`) in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A point-in-time reading of the host counters that expose noise from
/// other tenants: machine-wide steal time and this thread's run-queue
/// wait.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noise {
    steal_s: f64,
    runq_wait_s: f64,
}

impl Noise {
    /// Reads the counters now (zeros where the kernel lacks them).
    pub fn now() -> Noise {
        let steal_s = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let cpu = s.lines().next()?;
                let steal: u64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
                Some(steal as f64 / USER_HZ)
            })
            .unwrap_or(0.0);
        let runq_wait_s = fs::read_to_string("/proc/thread-self/schedstat")
            .ok()
            .and_then(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
            .map_or(0.0, |ns| Duration::from_nanos(ns).as_secs_f64());
        Noise {
            steal_s,
            runq_wait_s,
        }
    }

    /// Counter growth since `earlier`.
    pub fn since(&self, earlier: &Noise) -> Noise {
        Noise {
            steal_s: self.steal_s - earlier.steal_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
        }
    }

    /// Adds another interval's growth.
    pub fn add(&mut self, other: &Noise) {
        self.steal_s += other.steal_s;
        self.runq_wait_s += other.runq_wait_s;
    }

    /// `steal=… runq=…` for a progress line.
    pub fn brief(&self) -> String {
        format!(
            "steal {:.3} s, runq wait {:.4} s",
            self.steal_s, self.runq_wait_s
        )
    }

    /// The run's noise record as one JSON object: host threads, the
    /// steal and run-queue growth over the measured interval, the load
    /// average at the end, and the workload seed.
    pub fn record(&self, seed: u64) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let load = fs::read_to_string("/proc/loadavg").unwrap_or_default();
        let load: Vec<&str> = load.split_whitespace().take(3).collect();
        format!(
            "{{\"nproc\":{nproc},\"steal_s\":{:.3},\"runq_wait_s\":{:.6},\"loadavg\":[{}],\"seed\":{seed}}}",
            self.steal_s,
            self.runq_wait_s,
            load.join(","),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_stat_cpu_fields() {
        // A command name with spaces and parentheses must not shift
        // the fields.
        let stat =
            "4242 (repro (x) y) S 1 4242 4242 0 -1 4194560 1 0 0 0 250 37 0 0 20 0 9 0 1 1 1";
        assert_eq!(parse_pid_cpu_s(stat), Some(2.87));
        assert_eq!(parse_pid_cpu_s("garbage"), None);
    }

    #[test]
    fn own_readings_are_sane() {
        let a = self_cpu_s();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(self_cpu_s() >= a);
        assert!(peak_rss_mib("self").unwrap() > 0.0);
        let n = Noise::now();
        assert!(n.steal_s >= 0.0 && n.runq_wait_s >= 0.0);
        assert!(n.record(7).ends_with("\"seed\":7}"));
    }
}
