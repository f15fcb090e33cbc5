//! Host-side clocks read from `/proc`: per-thread CPU time, run-queue
//! wait and OS time slices, the process's peak resident set, and the
//! machine's load average.
//!
//! `/proc/thread-self/schedstat` holds three numbers for the calling
//! thread: nanoseconds on a CPU, nanoseconds spent runnable but waiting
//! for a CPU, and the number of time slices it ran. Kernels built without
//! scheduler statistics lack the file; the fallback then reads `utime` +
//! `stime` from `/proc/thread-self/stat` (clock ticks, assumed 100 Hz) and
//! counts slices as context switches from `/proc/thread-self/status`. It
//! has no run-queue wait, so that reads as zero.

use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};

/// Which `/proc` source [`ThreadTimes::now`] reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockSource {
    /// `/proc/thread-self/schedstat`: nanosecond CPU time and run-queue
    /// wait, exact slice count.
    Schedstat,
    /// `/proc/thread-self/stat` + `status`: 10 ms tick CPU time, context
    /// switches as slices, no run-queue wait.
    StatFallback,
}

impl ClockSource {
    /// The source available on this machine.
    pub fn detect() -> Self {
        if fs::read_to_string("/proc/thread-self/schedstat").is_ok() {
            ClockSource::Schedstat
        } else {
            ClockSource::StatFallback
        }
    }

    /// One line for the benchmark's output saying which source is in use.
    pub fn describe(self) -> &'static str {
        match self {
            ClockSource::Schedstat => "thread clocks: /proc/thread-self/schedstat",
            ClockSource::StatFallback => {
                "thread clocks: /proc/thread-self/schedstat absent; falling back to \
                 /proc/thread-self/stat utime+stime (10 ms ticks) and context switches \
                 from /proc/thread-self/status; run-queue wait reads 0"
            }
        }
    }
}

/// CPU time, run-queue wait and slices of the calling thread so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadTimes {
    /// Nanoseconds on a CPU.
    pub cpu_ns: u64,
    /// Nanoseconds runnable but waiting for a CPU.
    pub runq_ns: u64,
    /// Time slices run (or context switches, in the fallback).
    pub slices: u64,
}

impl ThreadTimes {
    /// Reads the calling thread's counters from `source`.
    pub fn now(source: ClockSource) -> Self {
        match source {
            ClockSource::Schedstat => read_schedstat().unwrap_or_default(),
            ClockSource::StatFallback => read_stat_fallback().unwrap_or_default(),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(self, earlier: ThreadTimes) -> ThreadTimes {
        ThreadTimes {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_ns: self.runq_ns.saturating_sub(earlier.runq_ns),
            slices: self.slices.saturating_sub(earlier.slices),
        }
    }
}

fn read_schedstat() -> Option<ThreadTimes> {
    let text = fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some(ThreadTimes {
        cpu_ns: it.next()??,
        runq_ns: it.next()??,
        slices: it.next()??,
    })
}

fn read_stat_fallback() -> Option<ThreadTimes> {
    const NS_PER_TICK: u64 = 10_000_000;
    let stat = fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 after `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?;
    let status = fs::read_to_string("/proc/thread-self/status").ok()?;
    let switches: u64 = status
        .lines()
        .filter(|l| l.contains("ctxt_switches:"))
        .filter_map(|l| l.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum();
    Some(ThreadTimes {
        cpu_ns: ticks * NS_PER_TICK,
        runq_ns: 0,
        slices: switches,
    })
}

/// Thread counters summed over many threads (the application threads of
/// one run), safe to add to from any thread.
#[derive(Debug, Default)]
pub struct SharedTimes {
    cpu_ns: AtomicU64,
    runq_ns: AtomicU64,
    slices: AtomicU64,
}

impl SharedTimes {
    /// Adds one thread's counters.
    pub fn add(&self, t: ThreadTimes) {
        // Plain statistics: each counter publishes nothing else, and the
        // run's end (thread joins) orders every add before the read.
        self.cpu_ns.fetch_add(t.cpu_ns, Ordering::Relaxed);
        self.runq_ns.fetch_add(t.runq_ns, Ordering::Relaxed);
        self.slices.fetch_add(t.slices, Ordering::Relaxed);
    }

    /// The sum so far.
    pub fn total(&self) -> ThreadTimes {
        ThreadTimes {
            cpu_ns: self.cpu_ns.load(Ordering::Relaxed),
            runq_ns: self.runq_ns.load(Ordering::Relaxed),
            slices: self.slices.load(Ordering::Relaxed),
        }
    }
}

/// CPU seconds of the whole process so far, every thread included, from
/// `/proc/self/stat` `utime` + `stime` (clock ticks, assumed 100 Hz).
pub fn process_cpu_s() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| {
            let rest = &stat[stat.rfind(')')? + 1..];
            let fields: Vec<&str> = rest.split_whitespace().collect();
            Some(fields.get(11)?.parse::<u64>().ok()? + fields.get(12)?.parse::<u64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks as f64 / 100.0)
}

/// Milliseconds of CPU time the hypervisor gave to other guests, summed
/// over this machine's CPUs (the `steal` column of `/proc/stat`, clock
/// ticks assumed 100 Hz). Stolen time is in no thread's CPU or run-queue
/// clock, yet it stretches wall time.
pub fn steal_ms() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()?
                .split_whitespace()
                .nth(8)?
                .parse::<u64>()
                .ok()
        })
        .map_or(0.0, |ticks| ticks as f64 * 10.0)
}

/// Noise indicators over one run, read on the thread that makes the run.
#[derive(Debug, Clone, Copy)]
pub struct Noise {
    source: ClockSource,
    thread: ThreadTimes,
    cpu_s: f64,
    steal_ms: f64,
}

impl Noise {
    /// Starts measuring.
    pub fn start(source: ClockSource) -> Self {
        Noise {
            source,
            thread: ThreadTimes::now(source),
            cpu_s: process_cpu_s(),
            steal_ms: steal_ms(),
        }
    }

    /// Ends the measurement of a run that took `raw_wall_s`. Returns its
    /// wall time net of hypervisor steal, and one line that prints it
    /// beside the raw wall time, the steal, the calling thread's run-queue
    /// wait, the process's CPU seconds and `/proc/loadavg`.
    ///
    /// Steal is time the hypervisor ran other guests on this machine's
    /// CPUs while they had work; no guest clock sees it, yet it stretches
    /// wall time, and on a shared host it comes and goes for minutes at a
    /// time. It is summed over CPUs, so when it reaches the raw wall time
    /// the raw wall time is kept.
    pub fn finish(&self, raw_wall_s: f64) -> (f64, String) {
        let steal_s = (steal_ms() - self.steal_ms) / 1e3;
        let wall_s = if steal_s < raw_wall_s {
            raw_wall_s - steal_s
        } else {
            raw_wall_s
        };
        let thread = ThreadTimes::now(self.source).since(self.thread);
        let line = format!(
            "wall_s={wall_s:.4} raw_wall_s={raw_wall_s:.4} steal_ms={:.0} \
             sched.runq_wait_ms={:.3} (this thread) cpu_s={:.2} loadavg={}",
            steal_s * 1e3,
            thread.runq_ns as f64 / 1e6,
            process_cpu_s() - self.cpu_s,
            loadavg()
        );
        (wall_s, line)
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first three fields of `/proc/loadavg` (1, 5 and 15 minute load).
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg").ok().map_or_else(
        || "n/a".to_owned(),
        |s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_clock_advances_with_work() {
        let source = ClockSource::detect();
        let t0 = ThreadTimes::now(source);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        let d = ThreadTimes::now(source).since(t0);
        assert!(d.cpu_ns > 0, "{d:?}");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
