//! Smoke sizes of every workload at a second seed: the output check must
//! pass where the program is correct, the traced path must reproduce the
//! plain path's virtual digest, and the check must catch a wrong answer.

use std::sync::Arc;

use cvm_apps::kv::scenario::ServeScenario;
use cvm_hostbench::hostclock::ClockSource;
use cvm_hostbench::workload::{Expected, Probe, RunOpts, Size, Spec, Workload};

const SEED: u64 = 0xB0B;

fn smoke(workload: Workload) -> Spec {
    Spec {
        workload,
        size: Size::Smoke,
        seed: SEED,
    }
}

#[test]
fn every_workload_passes_its_check_at_smoke_size() {
    for w in Workload::ALL {
        let spec = smoke(w);
        let expected = spec.expected();
        let out = spec.run_plain(&expected);
        assert!(out.attempted() >= 1, "{}: nothing attempted", w.name());
        assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
        assert_eq!(out.failed(), 0);
        assert!(
            out.virtual_ns() > 0 && out.msgs() > 0,
            "{}: empty run",
            w.name()
        );
    }
}

#[test]
fn traced_and_instrumented_runs_reproduce_the_plain_digest() {
    let source = ClockSource::detect();
    for w in Workload::ALL {
        let spec = smoke(w);
        let expected = spec.expected();
        let plain = spec.run_plain(&expected);
        let probe = Arc::new(Probe::new(source));
        let variants = [
            RunOpts {
                probe: Some(Arc::clone(&probe)),
                ..RunOpts::default()
            },
            RunOpts {
                spans: true,
                ..RunOpts::default()
            },
            RunOpts {
                verify: true,
                ..RunOpts::default()
            },
            RunOpts {
                shards: Some(3 - spec.shards()),
                ..RunOpts::default()
            },
        ];
        for opts in &variants {
            let out = spec.run_wrapped(&expected, opts);
            assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
            assert_eq!(out.digest(), plain.digest(), "{}: {opts:?}", w.name());
        }
        let app = probe.app.total();
        assert!(app.slices > 0, "{}: wrapper saw no app slices", w.name());
    }
}

#[test]
fn a_wrong_answer_fails_the_check() {
    let sor = smoke(Workload::Sor);
    let Expected::Checksum(want) = sor.expected() else {
        panic!("sor has a checksum oracle");
    };
    let out = sor.run_plain(&Expected::Checksum(want * (1.0 + 1e-6)));
    assert_eq!(out.failed(), 1, "{:?}", out.failures);

    let serve = smoke(Workload::ServeLadder);
    let Expected::Cells(mut cells) = serve.expected() else {
        panic!("serve has per-cell oracles");
    };
    cells[1].arrivals += 1;
    cells[2].table_sum ^= 1;
    let out = serve.run_plain(&Expected::Cells(cells));
    assert_eq!(out.failed(), 2, "{:?}", out.failures);
}

#[test]
fn seeds_reach_the_serve_digest_but_not_the_batch_one() {
    let other = |w| Spec {
        seed: SEED + 1,
        ..smoke(w)
    };
    for (w, differs) in [(Workload::Sor, false), (Workload::ServeLadder, true)] {
        let a = smoke(w);
        let b = other(w);
        let da = a.run_plain(&a.expected()).digest();
        let db = b.run_plain(&b.expected()).digest();
        assert_eq!(da != db, differs, "{}", w.name());
    }
}

#[test]
fn the_serve_deck_is_the_session_builtin_with_a_longer_window() {
    let spec = Spec {
        workload: Workload::ServeLadder,
        size: Size::Full,
        seed: 42,
    };
    let deck = spec.scenario();
    let mut session = ServeScenario::builtin("session").expect("builtin");
    session.kv.duration_ms = 2400;
    assert_eq!(deck.kv, session.kv);
    assert_eq!(
        (deck.nodes, deck.threads, deck.local_grant_cap, deck.seed),
        (
            session.nodes,
            session.threads,
            session.local_grant_cap,
            session.seed
        )
    );
    assert_eq!(deck.sweep, session.sweep);
}
