//! The traced run: host time split across the simulator's layers, from
//! outside.
//!
//! It makes a few untraced reference runs, then one run with thread
//! clocks read around `CvmBuilder::run` (the driver thread: event core,
//! protocol handlers, transport, sinks) and inside the wrapper around the
//! app body (application threads: app code and the instrumented access
//! path). Wall time neither side spent on a CPU is the baton hand-off
//! gap. Further runs switch spans and the verifying oracle on and move to
//! the other shard count; each must reproduce the reference digest.
//! Unit costs and report assembly are timed by direct calls.

use std::sync::Arc;
use std::time::Instant;

use cvm_dsm::RunReport;

use crate::hostclock::{ClockSource, Noise};
use crate::workload::{Expected, Outcome, Probe, RunOpts, Spec, Workload};
use crate::{median, units, Metric};

/// Untraced runs the traced one is compared against.
const REFERENCE_RUNS: usize = 3;

/// Repetitions of each report-assembly timing.
const ASSEMBLY_REPS: usize = 5;

/// Everything the traced run measured and checked.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Operations checked across all runs it made.
    pub attempted: u64,
    /// Checked operations that failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Human-readable lines: the host-time split and the dominant layer.
    pub lines: Vec<String>,
}

/// Tallies checks over every run the traced mode makes, against the
/// digest of the first reference run.
struct Checks {
    digest: Option<u64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn take(&mut self, what: &str, out: &Outcome) {
        self.attempted += out.attempted();
        let mut failed = out.failed();
        self.failures
            .extend(out.failures.iter().map(|f| format!("{what}: {f}")));
        let digest = out.digest();
        match self.digest {
            None => self.digest = Some(digest),
            Some(d) if d != digest => {
                self.failures.push(format!(
                    "{what}: virtual digest {digest:016x} differs from reference {d:016x}"
                ));
                failed = out.attempted();
            }
            Some(_) => {}
        }
        self.failed += failed;
    }
}

/// Runs the traced mode of `spec`.
pub fn run(spec: &Spec, expected: &Expected, source: ClockSource) -> Traced {
    let mut checks = Checks {
        digest: None,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
    };
    let mut lines = Vec::new();
    // Every wall time below is net of hypervisor steal (see `Noise`).
    let mut timed = |what: &str, run: &dyn Fn() -> Outcome| {
        let noise = Noise::start(source);
        let mut out = run();
        let (wall_s, line) = noise.finish(out.wall_s);
        out.wall_s = wall_s;
        lines.push(format!("{what}: {line}"));
        checks.take(what, &out);
        out
    };
    let refs: Vec<Outcome> = (0..REFERENCE_RUNS)
        .map(|i| timed(&format!("reference {i}"), &|| spec.run_plain(expected)))
        .collect();
    let ref_wall = median(&refs.iter().map(|o| o.wall_s).collect::<Vec<_>>());
    let base = &refs[0];

    let probe = Arc::new(Probe::new(source));
    let wrapped = |opts: RunOpts| move || spec.run_wrapped(expected, &opts);
    let traced = timed(
        "traced",
        &wrapped(RunOpts {
            probe: Some(Arc::clone(&probe)),
            ..RunOpts::default()
        }),
    );
    let spans = timed(
        "spans on",
        &wrapped(RunOpts {
            spans: true,
            ..RunOpts::default()
        }),
    );
    let verify = timed(
        "verify on",
        &wrapped(RunOpts {
            verify: true,
            ..RunOpts::default()
        }),
    );
    // The planner verdict: the same workload at the other shard count.
    let other_shards = if spec.shards() == 1 { 2 } else { 1 };
    let other = timed(
        &format!("shards {other_shards}"),
        &wrapped(RunOpts {
            shards: Some(other_shards),
            ..RunOpts::default()
        }),
    );
    let (wall_1, wall_2, sharded) = if spec.shards() == 1 {
        (ref_wall, other.wall_s, &other)
    } else {
        (other.wall_s, ref_wall, base)
    };

    let driver = probe.driver();
    let app = probe.app.total();
    let wall_ms = traced.wall_s * 1e3;
    let driver_ms = driver.cpu_ns as f64 / 1e6;
    let app_ms = app.cpu_ns as f64 / 1e6;
    let gap_ms = wall_ms - driver_ms - app_ms;
    let slices = driver.slices + app.slices;
    let msgs = base.msgs();

    let mut m = vec![
        Metric::new("trace.wall_ms", wall_ms, "ms"),
        Metric::new("driver.cpu_ms", driver_ms, "ms"),
        Metric::new("driver.slices", driver.slices as f64, "count"),
        Metric::new(
            "driver.ns_per_msg",
            ratio(driver.cpu_ns as f64, msgs as f64),
            "ns",
        ),
        Metric::new("app.cpu_ms", app_ms, "ms"),
        Metric::new("app.slices", app.slices as f64, "count"),
        Metric::new("baton.gap_ms", gap_ms, "ms"),
        Metric::new(
            "baton.gap_us_per_slice",
            ratio(gap_ms * 1e3, slices as f64),
            "us",
        ),
        Metric::new(
            "sched.runq_wait_ms",
            (driver.runq_ns + app.runq_ns) as f64 / 1e6,
            "ms",
        ),
        Metric::new(
            "sched.slices_per_s",
            ratio(slices as f64, traced.wall_s),
            "1/s",
        ),
        Metric::new(
            "planner.planned_bursts",
            sharded
                .reports
                .iter()
                .map(|r| r.planned_bursts)
                .sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "planner.modelled_overlap_ms",
            sharded
                .reports
                .iter()
                .map(|r| r.overlap_saved_ns)
                .sum::<u64>() as f64
                / 1e6,
            "ms",
        ),
        Metric::new("planner.host_speedup", ratio(wall_1, wall_2), "x"),
    ];
    for (name, ns) in units::all() {
        m.push(Metric::new(name, ns, "ns"));
    }
    m.extend(assembly(base));
    m.extend([
        Metric::new("spans.on_ratio", ratio(spans.wall_s, ref_wall), "x"),
        Metric::new("verify.on_ratio", ratio(verify.wall_s, ref_wall), "x"),
    ]);
    m.extend(work_counts(base));
    m.push(Metric::new(
        "trace.overhead_ratio",
        ratio(traced.wall_s, ref_wall),
        "x",
    ));

    lines.extend(host_split(
        spec.workload,
        wall_ms,
        driver_ms,
        app_ms,
        gap_ms,
        slices,
    ));
    Traced {
        metrics: m,
        attempted: checks.attempted,
        failed: checks.failed.min(checks.attempted),
        failures: checks.failures,
        lines,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Median ms of `reps` calls of `f`.
fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// Report assembly on the reference run's reports: JSON, text, parsing
/// back, and the serve ladder's summary.
fn assembly(base: &Outcome) -> Vec<Metric> {
    let reports = &base.reports;
    let texts: Vec<String> = reports.iter().map(|r| r.to_json(10).to_string()).collect();
    let to_json = time_ms(ASSEMBLY_REPS, || {
        for r in reports {
            std::hint::black_box(r.to_json(10).to_string());
        }
    });
    let display = time_ms(ASSEMBLY_REPS, || {
        for r in reports {
            std::hint::black_box(r.to_string());
        }
    });
    let parse = time_ms(ASSEMBLY_REPS, || {
        for t in &texts {
            std::hint::black_box(cvm_sim::JsonValue::parse(t).is_ok());
        }
    });
    let summary = base.serve.as_ref().map_or(0.0, |s| {
        time_ms(ASSEMBLY_REPS, || {
            std::hint::black_box(s.render_summary());
            std::hint::black_box(s.to_json().to_string());
        })
    });
    vec![
        Metric::new("report.to_json_ms", to_json, "ms"),
        Metric::new("report.display_ms", display, "ms"),
        Metric::new("report.json_parse_ms", parse, "ms"),
        Metric::new("serve.summary_ms", summary, "ms"),
    ]
}

/// Deterministic work counts of the reference run, summed over cells.
fn work_counts(base: &Outcome) -> Vec<Metric> {
    let sum = |f: fn(&RunReport) -> u64| base.reports.iter().map(f).sum::<u64>() as f64;
    // Lock-wait share of node time, weighted by each cell's makespan.
    let total_ns: f64 = base
        .reports
        .iter()
        .map(|r| r.total_time.as_ns() as f64)
        .sum();
    let lock_ns: f64 = base
        .reports
        .iter()
        .map(|r| r.fraction(|n| n.lock) * r.total_time.as_ns() as f64)
        .sum();
    let twin_peak = base
        .reports
        .iter()
        .map(|r| r.mem_peaks.twin_global_peak)
        .max()
        .unwrap_or(0);
    vec![
        Metric::new(
            "dsm.thread_switches",
            sum(|r| r.stats.thread_switches),
            "count",
        ),
        Metric::new("dsm.remote_faults", sum(|r| r.stats.remote_faults), "count"),
        Metric::new("dsm.remote_locks", sum(|r| r.stats.remote_locks), "count"),
        Metric::new("dsm.diffs_created", sum(|r| r.stats.diffs_created), "count"),
        Metric::new("dsm.twins_created", sum(|r| r.stats.twins_created), "count"),
        Metric::new("net.kb", sum(|r| r.net.total_bytes()) / 1024.0, "KiB"),
        Metric::new("mem.twin_peak_kb", twin_peak as f64 / 1024.0, "KiB"),
        Metric::new("wait.lock_frac", ratio(lock_ns, total_ns), "fraction"),
        Metric::new(
            "serve.requests",
            base.served.iter().sum::<u64>() as f64,
            "count",
        ),
    ]
}

/// The "where host time goes" lines and the dominant-layer verdict.
fn host_split(
    workload: Workload,
    wall_ms: f64,
    driver_ms: f64,
    app_ms: f64,
    gap_ms: f64,
    slices: u64,
) -> Vec<String> {
    let pct = |x: f64| 100.0 * ratio(x, wall_ms);
    let mut lines = vec![
        format!("where host time goes ({}, traced run):", workload.name()),
        format!("  wall            {wall_ms:>10.1} ms  100.0%"),
        format!(
            "  driver thread   {driver_ms:>10.1} ms  {:>5.1}%",
            pct(driver_ms)
        ),
        format!("  app threads     {app_ms:>10.1} ms  {:>5.1}%", pct(app_ms)),
        format!("  hand-off gap    {gap_ms:>10.1} ms  {:>5.1}%", pct(gap_ms)),
        format!(
            "  OS slices       {slices:>10}     {:.0}/host s",
            ratio(slices as f64, wall_ms / 1e3)
        ),
    ];
    let (dominant, _) = [("driver", driver_ms), ("app", app_ms), ("gap", gap_ms)]
        .into_iter()
        .fold(
            ("none", f64::MIN),
            |best, x| if x.1 > best.1 { x } else { best },
        );
    let predicted = match workload {
        Workload::Sor => Some("app"),
        Workload::WaterNsq64 => Some("driver"),
        // Its prediction is the highest slice rate of the three
        // workloads, which one run cannot judge: compare the
        // sched.slices_per_s rows.
        Workload::ServeLadder => None,
    };
    lines.push(match predicted {
        Some(p) if p == dominant => {
            format!("dominant layer: {dominant} (predicted {p}): as predicted")
        }
        Some(p) => format!("dominant layer: {dominant} (predicted {p}): NOT as predicted"),
        None => format!(
            "dominant layer: {dominant}; predicted: most OS slices per host second of the three \
             workloads (compare sched.slices_per_s)"
        ),
    });
    lines
}
