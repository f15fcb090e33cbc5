//! `cvm-hostbench`: host-time benchmark of the cvm simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload sor|water-nsq-64|serve-ladder --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload end to end for `--seconds` seconds, and
//! for at least one run of each of its inputs (every run checked), and
//! reports the end-to-end metrics. `--trace 1` makes the traced run
//! instead and reports the per-layer metrics. Either way the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

use std::process::ExitCode;
use std::time::Instant;

use cvm_hostbench::hostclock::{self, ClockSource, Noise};
use cvm_hostbench::workload::{
    Expected, Outcome, Size, Spec, Workload, P99_LIMIT_MS, QUOTED_RATE_RPS,
};
use cvm_hostbench::{interpolated_percentile, median, result_json, traced, Metric};
use cvm_sim::workq::seed_split;
use cvm_sim::Log2Hist;

const USAGE: &str = "usage: cvm-hostbench --workload sor|water-nsq-64|serve-ladder \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Set-up is timed in samples of [`SETUP_SAMPLE_S`] each (one set-up
/// takes well under a microsecond on the batch workloads), a few before
/// every run; the median sample's per-set-up time is reported.
const SETUP_SAMPLE_S: f64 = 0.005;
const SETUP_SAMPLES_PER_RUN: usize = 5;

/// Inputs per process: runs cycle through this many seeds split from
/// `--seed`, and the virtual metrics are medians over them, which keeps
/// the seed-dependent serve metrics steady from one `--seed` to the next.
const INPUTS: u64 = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cvm-hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = Spec {
        workload: args.workload,
        size: Size::Full,
        seed: args.seed,
    };
    let source = ClockSource::detect();
    println!(
        "cvm-hostbench workload={} seed={} seconds={} trace={} cores={}",
        spec.workload.name(),
        spec.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!("{}", source.describe());
    // Each run's inputs come from one of INPUTS seeds split from --seed,
    // in turn, so that seed-dependent virtual metrics are medians over
    // several arrival streams rather than one.
    let t0 = Instant::now();
    let inputs: Vec<(Spec, Expected)> = (0..INPUTS)
        .map(|k| {
            let s = Spec {
                seed: seed_split(spec.seed, k),
                ..spec
            };
            (s, s.expected())
        })
        .collect();
    println!(
        "inputs: {INPUTS} seeds split from --seed {}; oracles: {:.3} s (not timed in any metric)",
        spec.seed,
        t0.elapsed().as_secs_f64()
    );

    let (attempted, failed, failures, metrics) = if args.trace {
        let (spec, expected) = &inputs[0];
        let t = traced::run(spec, expected, source);
        for line in &t.lines {
            println!("{line}");
        }
        (t.attempted, t.failed, t.failures, t.metrics)
    } else {
        untraced(&inputs, args.seconds, source)
    };
    for f in &failures {
        println!("FAILED {f}");
    }
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(failed == 0, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

/// Times the workload end to end for `seconds`, and for at least one run
/// of every input, checking every run. Run `i` uses input `i % INPUTS`;
/// repeated runs of one input must reproduce its virtual digest.
fn untraced(
    inputs: &[(Spec, Expected)],
    seconds: f64,
    source: ClockSource,
) -> (u64, u64, Vec<String>, Vec<Metric>) {
    let mut setup = SetupTimer::new(&inputs[0].0);
    let start = Instant::now();
    let mut walls = Vec::new();
    // The first outcome of each input.
    let mut firsts: Vec<Outcome> = Vec::new();
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    while walls.len() < inputs.len() || start.elapsed().as_secs_f64() < seconds {
        let run = walls.len();
        let (spec, expected) = &inputs[run % inputs.len()];
        setup.sample(spec);
        let noise = Noise::start(source);
        let out = spec.run_plain(expected);
        let (wall_s, noise) = noise.finish(out.wall_s);
        let mut run_failed = out.failed();
        let mut run_failures: Vec<String> = out
            .failures
            .iter()
            .map(|f| format!("run {run}: {f}"))
            .collect();
        if let Some(f) = firsts.get(run % inputs.len()) {
            if f.digest() != out.digest() {
                run_failures.push(format!(
                    "run {run}: virtual digest {:016x} differs from {:016x} of run {} (same input)",
                    out.digest(),
                    f.digest(),
                    run % inputs.len()
                ));
                run_failed = out.attempted();
            }
        }
        let check = if run_failures.is_empty() {
            "ok"
        } else {
            "FAILED"
        };
        println!("run {run}: seed={} {noise} check={check}", spec.seed);
        attempted += out.attempted();
        failed += run_failed;
        failures.extend(run_failures);
        walls.push(wall_s);
        if firsts.len() < inputs.len() {
            firsts.push(out);
        }
    }
    let setup_s = setup.median();
    println!(
        "setup_s: {:.3} us per set-up (median of {} samples of {} set-ups)",
        setup_s * 1e6,
        setup.samples.len(),
        setup.per_sample
    );
    // Virtual figures: the median over inputs.
    let over_inputs =
        |f: &dyn Fn(&Outcome) -> f64| median(&firsts.iter().map(f).collect::<Vec<_>>());
    let serve: Vec<[f64; 3]> = firsts.iter().map(serve_metrics).collect();
    let serve_median = |i: usize| median(&serve.iter().map(|m| m[i]).collect::<Vec<_>>());
    let metrics = vec![
        Metric::new("wall_s", median(&walls), "s"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", hostclock::peak_rss_mb(), "MiB"),
        Metric::new(
            "virtual_s",
            over_inputs(&|o| o.virtual_ns() as f64 / 1e9),
            "sim_s",
        ),
        Metric::new("msgs", over_inputs(&|o| o.msgs() as f64), "count"),
        Metric::new("serve_p50_ms", serve_median(0), "sim_ms"),
        Metric::new("serve_p99_ms", serve_median(1), "sim_ms"),
        Metric::new("max_rate_rps", serve_median(2), "req/sim_s"),
    ];
    (attempted, failed.min(attempted), failures, metrics)
}

/// Set-up timing, spread over the whole measurement so that it sees the
/// same machine conditions as the runs: a few samples before each run,
/// each sample a batch of set-ups.
struct SetupTimer {
    per_sample: usize,
    samples: Vec<f64>,
}

impl SetupTimer {
    /// An untimed warm-up set-up that also sizes the samples.
    fn new(spec: &Spec) -> Self {
        let t0 = Instant::now();
        spec.setup_once();
        let per_sample = (SETUP_SAMPLE_S / t0.elapsed().as_secs_f64().max(1e-9)).ceil() as usize;
        SetupTimer {
            per_sample: per_sample.clamp(1, 1_000_000),
            samples: Vec::new(),
        }
    }

    /// Takes [`SETUP_SAMPLES_PER_RUN`] more samples.
    fn sample(&mut self, spec: &Spec) {
        for _ in 0..SETUP_SAMPLES_PER_RUN {
            let t0 = Instant::now();
            for _ in 0..self.per_sample {
                spec.setup_once();
            }
            self.samples
                .push(t0.elapsed().as_secs_f64() / self.per_sample as f64);
        }
    }

    /// Median seconds per set-up.
    fn median(&self) -> f64 {
        median(&self.samples)
    }
}

/// `serve_p50_ms`, `serve_p99_ms` and `max_rate_rps` of one outcome. On
/// the serve ladder they are the 1500 rps cell's request latency
/// percentiles, interpolated inside their `Log2Hist` buckets, and the
/// highest rate that keeps up within the p99 limit. A batch job is one
/// request: both percentiles are its makespan and the rate is jobs per
/// virtual second.
fn serve_metrics(out: &Outcome) -> [f64; 3] {
    let Some(ladder) = &out.serve else {
        let ms = out.virtual_ns() as f64 / 1e6;
        return [ms, ms, 1e3 / ms];
    };
    let p99_ms = |h: &Log2Hist| interpolated_percentile(h, 99.0) / 1e6;
    let rate = ladder
        .cells
        .iter()
        .filter(|c| !c.saturated() && p99_ms(&c.report.hist.request_ns) <= P99_LIMIT_MS)
        .map(|c| c.rate_rps)
        .fold(0.0, f64::max);
    let Some(quoted) = ladder.cells.iter().find(|c| c.rate_rps == QUOTED_RATE_RPS) else {
        return [0.0, 0.0, rate];
    };
    let h = &quoted.report.hist.request_ns;
    let (p50, p99) = (interpolated_percentile(h, 50.0) / 1e6, p99_ms(h));
    println!(
        "serve seed {}: {QUOTED_RATE_RPS} rps cell n={} p50={p50:.3} ms p99={p99:.3} ms \
         (Log2Hist bucket upper bounds: p50={:.3} ms p99={:.3} ms); max_rate_rps={rate}",
        ladder.config.scenario.seed,
        h.count(),
        h.p50() as f64 / 1e6,
        h.p99() as f64 / 1e6
    );
    [p50, p99, rate]
}
