//! The three workloads: how each is set up, run, and checked.
//!
//! Every run goes through the workspace crates' public functions. The
//! plain path is the one a user takes (`checksum_of_config`,
//! `run_serve`) and is what the end-to-end metrics time. The wrapped path
//! builds the same system with `sor::build`, `water_nsq::build` or
//! `kv::build` and hands `CvmBuilder::run` a benchmark-owned wrapper
//! around the app body, so the traced run can read each application
//! thread's clocks and switch instrumentation on or off.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cvm_apps::common::close;
use cvm_apps::kv::gen::OpenLoopGen;
use cvm_apps::kv::scenario::ServeScenario;
use cvm_apps::kv::{self, KvConfig};
use cvm_apps::sor::{self, SorConfig};
use cvm_apps::water_nsq::{self, WaterNsqConfig};
use cvm_apps::AppBody;
use cvm_dsm::protocol::ProtocolKind;
use cvm_dsm::{CvmBuilder, CvmConfig, RunReport, ThreadCtx};
use cvm_harness::serve::{run_serve, ServeConfig, ServeReport};
use cvm_net::MsgClass;
use cvm_sim::workq::seed_split;
use cvm_sim::{Fnv64, SimRng, Zipf};

use crate::hostclock::{ClockSource, SharedTimes, ThreadTimes};

/// Relative tolerance of the batch checksums against their sequential
/// oracles.
const CHECKSUM_TOLERANCE: f64 = 1e-9;

/// The serve-ladder deck, parsed at set-up like a user's scenario file.
const SERVE_DECK: &str = include_str!("../serve-ladder.ini");

/// The ladder cell whose request latency the serve metrics quote.
pub const QUOTED_RATE_RPS: f64 = 1500.0;

/// A cell counts toward `max_rate_rps` only with a p99 at or below this
/// many virtual milliseconds (and an overhang within the harness's
/// keep-up threshold).
pub const P99_LIMIT_MS: f64 = 50.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// SOR on 8 nodes x 4 threads: application access path bound.
    Sor,
    /// Water-Nsq on 64 nodes x 4 threads at 2 shards, `home-lazy`:
    /// driver bound.
    WaterNsq64,
    /// The session store's open-loop rate ladder: hand-off and lock bound.
    ServeLadder,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Sor, Workload::WaterNsq64, Workload::ServeLadder];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sor => "sor",
            Workload::WaterNsq64 => "water-nsq-64",
            Workload::ServeLadder => "serve-ladder",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: the benchmarked one, or a seconds-scale smoke size of
/// the same shape for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` measures.
    Full,
    /// Small inputs and topologies that run in seconds in a debug build.
    Smoke,
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload.
    pub workload: Workload,
    /// Which size.
    pub size: Size,
    /// The workload seed; it reaches the program only as
    /// `CvmConfig::seed` or `ServeScenario::seed`.
    pub seed: u64,
}

/// What a correct run must produce, from the sequential oracles.
#[derive(Debug, Clone)]
pub enum Expected {
    /// A batch job's final checksum.
    Checksum(f64),
    /// One entry per serve ladder cell.
    Cells(Vec<CellExpect>),
}

/// The oracle for one serve cell: every generator thread's arrival
/// stream replayed from its seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellExpect {
    /// Requests that arrive inside the window (all must be served).
    pub arrivals: u64,
    /// Wrapping sum of the write deltas those requests apply.
    pub table_sum: u64,
}

/// Instrumentation switches for a wrapped run.
#[derive(Debug, Clone, Default)]
pub struct RunOpts {
    /// Event-core shards; `None` keeps the workload's own count.
    pub shards: Option<usize>,
    /// `CvmConfig::spans`.
    pub spans: bool,
    /// `CvmConfig::verify`.
    pub verify: bool,
    /// Thread clocks to collect, if any.
    pub probe: Option<Arc<Probe>>,
}

/// Thread clocks of wrapped runs: the driver (the thread that calls
/// `CvmBuilder::run`) and the sum over application threads, each read
/// inside the wrapper when the body starts and when it returns.
#[derive(Debug)]
pub struct Probe {
    source: ClockSource,
    /// Application threads, summed.
    pub app: SharedTimes,
    /// The driver thread, summed over `CvmBuilder::run` calls.
    driver: Mutex<ThreadTimes>,
}

impl Probe {
    /// An empty probe reading `source`.
    pub fn new(source: ClockSource) -> Self {
        Probe {
            source,
            app: SharedTimes::default(),
            driver: Mutex::new(ThreadTimes::default()),
        }
    }

    /// Driver thread totals so far.
    pub fn driver(&self) -> ThreadTimes {
        *self
            .driver
            .lock()
            .expect("probe lock poisoned by a panicking run")
    }
}

/// A finished, checked run (or ladder of runs).
#[derive(Debug)]
pub struct Outcome {
    /// Host seconds from building the system to its report, summed over
    /// ladder cells.
    pub wall_s: f64,
    /// One report per cell (batch jobs have one cell).
    pub reports: Vec<RunReport>,
    /// Requests served per cell (serve only).
    pub served: Vec<u64>,
    /// The harness's ladder report (plain serve runs only).
    pub serve: Option<ServeReport>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Whether each checked cell failed.
    cell_failed: Vec<bool>,
}

impl Outcome {
    fn new(cells: usize) -> Self {
        Outcome {
            wall_s: 0.0,
            reports: Vec::new(),
            served: Vec::new(),
            serve: None,
            failures: Vec::new(),
            cell_failed: vec![false; cells],
        }
    }

    /// Records a failed check of cell `cell`, or of every cell.
    fn fail(&mut self, cell: Option<usize>, msg: String) {
        match cell {
            Some(i) => self.cell_failed[i] = true,
            None => self.cell_failed.fill(true),
        }
        self.failures.push(msg);
    }

    /// Run-level checks every cell must pass: not degraded, every thread
    /// finished, no oracle findings.
    fn check_report(&mut self, cell: usize, tag: &str, report: &RunReport) {
        if report.degraded() {
            self.fail(
                Some(cell),
                format!(
                    "{tag}: degraded ({} delivery failures, {} unfinished threads)",
                    report.failures.len(),
                    report.unfinished_threads
                ),
            );
        }
        if !report.findings.is_empty() {
            let n = report.findings.len();
            self.fail(Some(cell), format!("{tag}: {n} oracle findings"));
        }
    }

    /// Checked operations: one per cell (a batch job is one cell).
    pub fn attempted(&self) -> u64 {
        self.cell_failed.len() as u64
    }

    /// Checked operations that failed.
    pub fn failed(&self) -> u64 {
        self.cell_failed.iter().filter(|&&f| f).count() as u64
    }

    /// Simulated makespan, summed over cells, in virtual ns.
    pub fn virtual_ns(&self) -> u64 {
        self.reports.iter().map(|r| r.total_time.as_ns()).sum()
    }

    /// Protocol messages, summed over cells.
    pub fn msgs(&self) -> u64 {
        self.reports.iter().map(|r| r.net.total_count()).sum()
    }

    /// Digest of everything virtual: makespan, `DsmStats` and per-class
    /// message and byte counts of every cell, in ladder order.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv64::new();
        for r in &self.reports {
            h.write_u64(r.total_time.as_ns());
            h.write(format!("{:?}", r.stats).as_bytes());
            for class in [
                MsgClass::Barrier,
                MsgClass::Lock,
                MsgClass::Diff,
                MsgClass::Other,
            ] {
                h.write_u64(r.net.class_count(class));
                h.write_u64(r.net.class_bytes(class));
            }
        }
        h.finish()
    }
}

impl Spec {
    /// `(nodes, threads per node, shards)` of the batch workloads.
    fn topology(&self) -> (usize, usize, usize) {
        match (self.workload, self.size) {
            (Workload::Sor, Size::Full) => (8, 4, 1),
            (Workload::Sor, Size::Smoke) => (2, 2, 1),
            (Workload::WaterNsq64, Size::Full) => (64, 4, 2),
            (Workload::WaterNsq64, Size::Smoke) => (4, 2, 2),
            (Workload::ServeLadder, _) => {
                let sc = self.scenario();
                (sc.nodes, sc.threads, 1)
            }
        }
    }

    /// The workload's own event-core shard count.
    pub fn shards(&self) -> usize {
        self.topology().2
    }

    fn sor_config(&self) -> SorConfig {
        match self.size {
            Size::Full => SorConfig::small(),
            Size::Smoke => SorConfig {
                n: 62,
                iters: 2,
                omega: 1.15,
            },
        }
    }

    fn water_config(&self) -> WaterNsqConfig {
        match self.size {
            Size::Full => WaterNsqConfig::small(),
            Size::Smoke => WaterNsqConfig {
                n: 27,
                steps: 1,
                ..WaterNsqConfig::small()
            },
        }
    }

    /// The serve scenario: the deck, parsed, with this spec's seed.
    ///
    /// # Panics
    ///
    /// Panics if the bundled deck does not parse.
    pub fn scenario(&self) -> ServeScenario {
        let mut sc = ServeScenario::parse("serve-ladder", SERVE_DECK).expect("bundled deck parses");
        sc.seed = self.seed;
        if self.size == Size::Smoke {
            sc.nodes = 2;
            sc.kv.duration_ms = 60;
            sc.sweep = vec![500.0, QUOTED_RATE_RPS, 4000.0];
        }
        sc
    }

    /// The batch workloads' coherence protocol. Water-Nsq runs
    /// `home-lazy`: under `lazy-mw` its checksum leaves the oracle's
    /// tolerance at 8 nodes and above (2.4e-3 relative at 64x4), a
    /// protocol defect this benchmark cannot fix.
    pub fn protocol(&self) -> ProtocolKind {
        match self.workload {
            Workload::WaterNsq64 => ProtocolKind::HomeLazy,
            _ => ProtocolKind::LazyMultiWriter,
        }
    }

    /// The batch workloads' system configuration: the paper's costs,
    /// this spec's protocol and seed.
    fn batch_config(&self, shards: usize) -> CvmConfig {
        let (nodes, threads, _) = self.topology();
        let mut cfg = CvmConfig::paper(nodes, threads);
        cfg.seed = self.seed;
        cfg.shards = shards;
        cfg.protocol = self.protocol();
        cfg
    }

    /// One serve cell's system configuration, exactly as the harness's
    /// `run_serve` builds it.
    fn cell_config(sc: &ServeScenario, idx: usize, shards: usize) -> CvmConfig {
        let mut cfg = CvmConfig::paper(sc.nodes, sc.threads);
        cfg.seed = seed_split(sc.seed, idx as u64);
        cfg.shards = shards;
        cfg.local_grant_cap = sc.local_grant_cap;
        cfg
    }

    /// The sequential oracles: the apps' own `oracle` functions for the
    /// batch jobs, and a replay of every generator thread's seeded
    /// arrival, key and mix draws for each serve cell.
    pub fn expected(&self) -> Expected {
        match self.workload {
            Workload::Sor => Expected::Checksum(sor::oracle(&self.sor_config())),
            Workload::WaterNsq64 => Expected::Checksum(water_nsq::oracle(&self.water_config())),
            Workload::ServeLadder => {
                let sc = self.scenario();
                let cells = sc
                    .sweep
                    .iter()
                    .enumerate()
                    .map(|(idx, &rate)| replay_cell(&sc, idx, rate))
                    .collect();
                Expected::Cells(cells)
            }
        }
    }

    /// Set-up only: scenario parsing (serve), `CvmBuilder::new` and app
    /// construction, for every cell. Nothing runs.
    pub fn setup_once(&self) {
        match self.workload {
            Workload::Sor | Workload::WaterNsq64 => {
                let (b, body) = self.build_batch(self.batch_config(self.shards()));
                std::hint::black_box((&b, &body));
            }
            Workload::ServeLadder => {
                let sc = self.scenario();
                for (idx, &rate) in sc.sweep.iter().enumerate() {
                    let (b, body) = build_cell(&sc, rate, Self::cell_config(&sc, idx, 1));
                    std::hint::black_box((&b, &body));
                }
            }
        }
    }

    fn build_batch(&self, cfg: CvmConfig) -> (CvmBuilder, AppBody) {
        let mut b = CvmBuilder::new(cfg);
        let body = match self.workload {
            Workload::Sor => sor::build(&mut b, self.sor_config()),
            _ => water_nsq::build(&mut b, self.water_config()),
        };
        (b, body)
    }

    /// The end-to-end run, as a user runs it: `checksum_of_config` for
    /// the batch jobs, the harness's `run_serve` (one worker, one shard)
    /// for the ladder. Every output is checked against `expected`.
    pub fn run_plain(&self, expected: &Expected) -> Outcome {
        match (self.workload, expected) {
            (Workload::ServeLadder, Expected::Cells(cells)) => self.run_plain_serve(cells),
            (_, Expected::Checksum(want)) => self.run_plain_batch(*want),
            _ => panic!("oracle does not match workload {}", self.workload.name()),
        }
    }

    fn run_plain_batch(&self, want: f64) -> Outcome {
        let cfg = self.batch_config(self.shards());
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| match self.workload {
            Workload::Sor => sor::checksum_of_config(&self.sor_config(), cfg),
            _ => water_nsq::checksum_of_config(&self.water_config(), cfg),
        }));
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = Outcome::new(1);
        out.wall_s = wall_s;
        match run {
            Ok((got, report)) => {
                if !close(got, want, CHECKSUM_TOLERANCE) {
                    let rel = (got - want).abs() / want.abs().max(1.0);
                    out.fail(
                        Some(0),
                        format!(
                            "job: checksum {got:.12e} vs oracle {want:.12e} (rel {rel:.2e} > {CHECKSUM_TOLERANCE:e})"
                        ),
                    );
                }
                out.check_report(0, "job", &report);
                out.reports.push(report);
            }
            Err(p) => out.fail(None, format!("job: run panicked: {}", panic_text(&*p))),
        }
        out
    }

    fn run_plain_serve(&self, cells: &[CellExpect]) -> Outcome {
        let sc = self.scenario();
        let config = ServeConfig {
            scenario: sc,
            workers: 1,
            shards: 1,
        };
        let t0 = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(|| run_serve(config)));
        let wall_s = t0.elapsed().as_secs_f64();
        let mut out = Outcome::new(cells.len());
        out.wall_s = wall_s;
        match run {
            Ok(report) => {
                for (i, (cell, want)) in report.cells.iter().zip(cells).enumerate() {
                    let tag = format!("cell {:.0} rps", cell.rate_rps);
                    if cell.served != want.arrivals {
                        let msg = format!(
                            "{tag}: served {} of {} arrivals",
                            cell.served, want.arrivals
                        );
                        out.fail(Some(i), msg);
                    }
                    if cell.table_sum != want.table_sum {
                        let msg = format!(
                            "{tag}: table sum {} vs replayed deltas {}",
                            cell.table_sum, want.table_sum
                        );
                        out.fail(Some(i), msg);
                    }
                    let samples = cell.report.hist.request_ns.count();
                    if samples != cell.served {
                        let msg = format!(
                            "{tag}: {samples} latency samples for {} requests",
                            cell.served
                        );
                        out.fail(Some(i), msg);
                    }
                    out.check_report(i, &tag, &cell.report);
                    out.served.push(cell.served);
                    out.reports.push(cell.report.clone());
                }
                if report.cells.len() != cells.len() {
                    let msg = format!(
                        "ladder: {} cells vs {} expected",
                        report.cells.len(),
                        cells.len()
                    );
                    out.fail(None, msg);
                }
                out.serve = Some(report);
            }
            Err(p) => out.fail(None, format!("ladder: run panicked: {}", panic_text(&*p))),
        }
        out
    }

    /// The same system built through `build` with a benchmark-owned
    /// wrapper around the app body, under `opts`. Batch checksums are not
    /// reachable on this path; callers compare [`Outcome::digest`] with a
    /// checked plain run instead. Serve cells still check served requests
    /// against the replayed arrivals (the store asserts its own table
    /// sum).
    pub fn run_wrapped(&self, expected: &Expected, opts: &RunOpts) -> Outcome {
        let shards = opts.shards.unwrap_or(self.shards());
        let instrument = |mut cfg: CvmConfig| {
            cfg.spans = opts.spans;
            cfg.verify = opts.verify;
            cfg
        };
        match (self.workload, expected) {
            (Workload::ServeLadder, Expected::Cells(cells)) => {
                let sc = self.scenario();
                let mut out = Outcome::new(cells.len());
                for ((idx, &rate), want) in sc.sweep.iter().enumerate().zip(cells) {
                    let tag = format!("cell {rate:.0} rps");
                    let cfg = instrument(Self::cell_config(&sc, idx, shards));
                    let t0 = Instant::now();
                    let (b, body) = build_cell(&sc, rate, cfg);
                    let run = run_probed(b, body, opts.probe.as_ref());
                    out.wall_s += t0.elapsed().as_secs_f64();
                    match run {
                        Ok(report) => {
                            let served = report.hist.request_ns.count();
                            if served != want.arrivals {
                                let msg =
                                    format!("{tag}: served {served} of {} arrivals", want.arrivals);
                                out.fail(Some(idx), msg);
                            }
                            out.check_report(idx, &tag, &report);
                            out.served.push(served);
                            out.reports.push(report);
                        }
                        Err(e) => out.fail(Some(idx), format!("{tag}: {e}")),
                    }
                }
                out
            }
            (_, Expected::Checksum(_)) => {
                let mut out = Outcome::new(1);
                let t0 = Instant::now();
                let (b, body) = self.build_batch(instrument(self.batch_config(shards)));
                let run = run_probed(b, body, opts.probe.as_ref());
                out.wall_s = t0.elapsed().as_secs_f64();
                match run {
                    Ok(report) => {
                        out.check_report(0, "job", &report);
                        out.reports.push(report);
                    }
                    Err(e) => out.fail(Some(0), format!("job: {e}")),
                }
                out
            }
            _ => panic!("oracle does not match workload {}", self.workload.name()),
        }
    }
}

fn build_cell(sc: &ServeScenario, rate: f64, cfg: CvmConfig) -> (CvmBuilder, AppBody) {
    let mut kv_cfg = sc.kv;
    kv_cfg.rate_rps = rate;
    let mut b = CvmBuilder::new(cfg);
    let body = kv::build(&mut b, kv_cfg);
    (b, body)
}

/// Runs `body` on `b`, reading the driver thread's clocks around
/// `CvmBuilder::run` and each application thread's clocks around its
/// body, when a probe is given.
fn run_probed(
    b: CvmBuilder,
    body: AppBody,
    probe: Option<&Arc<Probe>>,
) -> Result<RunReport, String> {
    let Some(probe) = probe.cloned() else {
        return catch_unwind(AssertUnwindSafe(|| b.run(body)))
            .map_err(|p| format!("run panicked: {}", panic_text(&*p)));
    };
    let inner = Arc::clone(&probe);
    let wrapped = move |ctx: &mut ThreadCtx<'_>| {
        let t0 = ThreadTimes::now(inner.source);
        body(ctx);
        inner.app.add(ThreadTimes::now(inner.source).since(t0));
    };
    let d0 = ThreadTimes::now(probe.source);
    let run = catch_unwind(AssertUnwindSafe(|| b.run(wrapped)));
    let d = ThreadTimes::now(probe.source).since(d0);
    {
        let mut driver = probe
            .driver
            .lock()
            .expect("probe lock poisoned by a panicking run");
        driver.cpu_ns += d.cpu_ns;
        driver.runq_ns += d.runq_ns;
        driver.slices += d.slices;
    }
    run.map_err(|p| format!("run panicked: {}", panic_text(&*p)))
}

/// Replays one serve cell's generator threads: the same seeds, the same
/// draws in the same order as `kv::build`'s body (arrival, key, mix).
fn replay_cell(sc: &ServeScenario, idx: usize, rate: f64) -> CellExpect {
    let threads = sc.nodes * sc.threads;
    let zipf = Zipf::new(sc.kv.keys as u64, sc.kv.theta);
    // The driver derives one stream per thread, in global-id order, from
    // the cell's seed.
    let mut root = SimRng::seed_from(seed_split(sc.seed, idx as u64));
    let mut want = CellExpect {
        arrivals: 0,
        table_sum: 0,
    };
    for gid in 0..threads {
        let mut rng = root.derive(gid as u64);
        let mut gen = OpenLoopGen::new(rate / threads as f64, sc.kv.duration_ms, 0);
        while gen.next(&mut rng).is_some() {
            want.arrivals += 1;
            let key = zipf.sample(&mut rng);
            if rng.unit_f64() < sc.kv.write_mix {
                want.table_sum = want.table_sum.wrapping_add(KvConfig::delta_of(key));
            }
        }
    }
    want
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<String>()
        .cloned()
        .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
        .unwrap_or_else(|| "non-string panic".to_owned())
}
