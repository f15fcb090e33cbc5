//! Pinned virtual-time results of the instrumented access path's slow
//! path.
//!
//! A shared access to a resident page normally takes the fast path: it
//! charges `access_base_ns` and copies eight bytes. With the memory-system
//! simulator on, or with model-checker step recording on, every access
//! takes the slow path instead, which also charges cache/TLB costs or
//! records the burst's page footprint. The values below were recorded
//! before the fast path existed. A cost charged differently on the slow
//! path (or the fast path wrongly running there) changes them.

use cvm_apps::{build_app, AppId, Scale};
use cvm_dsm::{CvmBuilder, CvmConfig, RunReport};
use cvm_sim::Fnv64;

/// Which slow-path trigger a run enables.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Memsim,
    Steps,
}

/// The pinned summary of one run.
#[derive(Debug, PartialEq)]
struct Pinned {
    total_ns: u64,
    remote_faults: u64,
    /// FNV-1a over every statistic, per-node breakdown and miss total.
    fingerprint: u64,
    /// Terminal-state hash (0 unless step recording is on).
    state_hash: u64,
    /// FNV-1a over every recorded step's page footprint (0 unless step
    /// recording is on).
    footprint: u64,
}

fn run(app: AppId, mode: Mode) -> RunReport {
    let mut cfg = CvmConfig::paper(2, 2);
    match mode {
        Mode::Memsim => cfg.memsim_enabled = true,
        Mode::Steps => cfg.record_steps = true,
    }
    let mut b = CvmBuilder::new(cfg);
    let body = build_app(&mut b, app, Scale::Tiny);
    b.run(body)
}

fn observed(app: AppId, mode: Mode) -> Pinned {
    let r = run(app, mode);
    let mut h = Fnv64::new();
    let mut stats = String::new();
    r.stats.to_json().write(&mut stats);
    h.write(stats.as_bytes());
    for n in &r.nodes {
        for d in [n.user, n.barrier, n.fault, n.lock, n.idle] {
            h.write_u64(d.as_ns());
        }
        h.write_u64(n.clock.as_ns());
    }
    for m in [r.mem.dcache, r.mem.dtlb, r.mem.itlb] {
        h.write_u64(m);
    }
    let footprint = r.steps.as_ref().map_or(0, |log| {
        let mut f = Fnv64::new();
        for step in log.steps() {
            for pages in [&step.reads, &step.writes] {
                f.write_u64(pages.len() as u64);
                for &p in pages {
                    f.write_u64(u64::from(p));
                }
            }
        }
        f.finish()
    });
    Pinned {
        total_ns: r.total_time.as_ns(),
        remote_faults: r.stats.remote_faults,
        fingerprint: h.finish(),
        state_hash: r.state_hash,
        footprint,
    }
}

#[test]
fn slow_path_results_are_pinned() {
    let pin = |total_ns, remote_faults, fingerprint, state_hash, footprint| Pinned {
        total_ns,
        remote_faults,
        fingerprint,
        state_hash,
        footprint,
    };
    let golden = [
        (
            AppId::Sor,
            Mode::Memsim,
            pin(10068852, 6, 15777639848513243540, 0, 0),
        ),
        (
            AppId::Sor,
            Mode::Steps,
            pin(
                9988302,
                6,
                5266464238819827426,
                15186263184754261223,
                17391626444868942848,
            ),
        ),
        (
            AppId::WaterNsq,
            Mode::Memsim,
            pin(53821912, 26, 16972856822222386291, 0, 0),
        ),
        (
            AppId::WaterNsq,
            Mode::Steps,
            pin(
                53772712,
                26,
                9945456349420289293,
                938174839628342061,
                9700356955039332966,
            ),
        ),
    ];
    for (app, mode, want) in golden {
        let got = observed(app, mode);
        assert_eq!(got, want, "{app} under {mode:?}: slow-path result moved");
    }
}

#[test]
fn slow_path_runs_exercise_their_trigger() {
    let memsim = run(AppId::Sor, Mode::Memsim);
    assert!(memsim.mem.dcache > 0, "memsim run charged no cache misses");
    let steps = run(AppId::Sor, Mode::Steps);
    assert!(
        steps.steps.as_ref().is_some_and(|s| !s.is_empty()),
        "step-recording run logged no steps"
    );
    assert_ne!(steps.state_hash, 0, "step-recording run has no state hash");
}
