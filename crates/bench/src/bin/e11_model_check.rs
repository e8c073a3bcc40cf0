//! E11 — Schedule-space model checking: the DPOR explorer over the
//! fault-prone shared-memory simulator, and the bounded-preemption
//! interleaving harness over the store's lock-free hot structures.
//!
//! Two engines, one verdict. The *protocol explorer* enumerates
//! message-delivery interleavings of tiny register configurations and
//! checks the paper's consistency conditions on every maximal schedule;
//! dynamic partial-order reduction (sleep sets + backtrack sets) prunes
//! schedules that only permute independent events. The *interleaving
//! harness* runs the `FlightRecorder` seqlock and `ReadyQueue` stealing
//! protocol on virtual threads, exhausting every schedule within a
//! preemption bound.
//!
//! `--quick` bounds each explorer scenario (still ≥10⁴ distinct
//! schedules per protocol) for the per-commit CI job; the default run
//! exhausts what is tractable. Exits nonzero on any violation.

use rsb_bench::{banner, print_table};
use rsb_consistency::Condition;
use rsb_fpsm::OpRequest;
use rsb_mc::explore::{explore, write_op, ExploreConfig, ExploreReport};
use rsb_mc::{sched, sync as mc_sync, thread as vthread};
use rsb_registers::{Abd, AbdAtomic, ReadyQueue, RegisterConfig, RegisterProtocol, Safe};
use rsb_store::{FlightEventKind, FlightRecorder};
use std::sync::{Arc, Mutex};

fn cfg114() -> RegisterConfig {
    RegisterConfig::paper(1, 1, 4).unwrap()
}

/// One writer, one reader — the acceptance scenario (2 clients × 3 base
/// objects).
fn scripts_1w1r() -> Vec<Vec<OpRequest>> {
    vec![vec![write_op(0, 0, 4)], vec![OpRequest::Read]]
}

/// Two writers, one reader — a larger space for the bounded quick pass.
fn scripts_2w1r() -> Vec<Vec<OpRequest>> {
    vec![
        vec![write_op(0, 0, 4)],
        vec![write_op(1, 0, 4)],
        vec![OpRequest::Read],
    ]
}

struct ExploreRow {
    protocol: &'static str,
    scenario: &'static str,
    condition: Condition,
    report: ExploreReport,
}

fn run_explorer(
    proto: &impl RegisterProtocol,
    protocol: &'static str,
    scenario: &'static str,
    scripts: &[Vec<OpRequest>],
    condition: Condition,
    max_schedules: u64,
) -> ExploreRow {
    let report = explore(
        proto,
        scripts,
        &ExploreConfig {
            condition,
            max_schedules,
            ..ExploreConfig::default()
        },
    );
    ExploreRow {
        protocol,
        scenario,
        condition,
        report,
    }
}

/// DPOR pruning factor on the 1w+1r safe-register scenario (single
/// round-trip per operation, so the naive enumerator has a chance to
/// finish): full backtrack sets and no sleep sets against the DPOR
/// count. The naive space is budget-capped, so the factor is a lower
/// bound when the cap bites.
fn pruning_factor(quick: bool) -> (u64, u64, bool, String) {
    let proto = Safe::new(cfg114());
    let scripts = scripts_1w1r();
    let dpor = explore(&proto, &scripts, &ExploreConfig::default());
    assert!(dpor.exhausted, "DPOR must exhaust the 1w+1r space");
    let naive_cap: u64 = if quick { 300_000 } else { 3_000_000 };
    let naive = explore(
        &proto,
        &scripts,
        &ExploreConfig {
            dpor: false,
            max_schedules: naive_cap,
            ..ExploreConfig::default()
        },
    );
    let factor = naive.schedules as f64 / dpor.schedules as f64;
    let shown = if naive.exhausted {
        format!("{factor:.1}x")
    } else {
        format!(">={factor:.1}x (naive capped)")
    };
    (dpor.schedules, naive.schedules, naive.exhausted, shown)
}

// ---------------------------------------------------------------------------
// Interleaving harness scenarios (mirrors crates/mc/tests/interleavings.rs).
// ---------------------------------------------------------------------------

fn harness_cfg(preemption_bound: usize) -> sched::Config {
    sched::Config {
        preemption_bound,
        max_schedules: 500_000,
        max_steps: 100_000,
    }
}

fn recorder_tear_scenario() -> Result<sched::Report, sched::ModelError> {
    sched::model(&harness_cfg(3), || {
        let rec = Arc::new(FlightRecorder::new(4));
        let r1 = Arc::clone(&rec);
        let r2 = Arc::clone(&rec);
        let w1 = vthread::spawn(move || {
            r1.record(FlightEventKind::SubmitRead, Some(1), 11);
        });
        let w2 = vthread::spawn(move || {
            r2.record(FlightEventKind::SubmitWrite, Some(2), 22);
        });
        for e in rec.dump() {
            let intact = match e.kind {
                FlightEventKind::SubmitRead => e.shard == Some(1) && e.detail == 11,
                FlightEventKind::SubmitWrite => e.shard == Some(2) && e.detail == 22,
                _ => false,
            };
            assert!(intact, "torn or foreign event escaped dump(): {e:?}");
        }
        w1.join().unwrap();
        w2.join().unwrap();
        assert_eq!(rec.dump().len(), 2);
    })
}

fn recorder_wrap_scenario() -> Result<sched::Report, sched::ModelError> {
    sched::model(&harness_cfg(3), || {
        let rec = Arc::new(FlightRecorder::new(2));
        let log = Arc::new(Mutex::new(Vec::<(u64, u64)>::new()));
        let handles: Vec<_> = (0..2u64)
            .map(|w| {
                let rec = Arc::clone(&rec);
                let log = Arc::clone(&log);
                vthread::spawn(move || {
                    for k in 0..2u64 {
                        let detail = 10 * (w + 1) + k;
                        let seq = rec.record(FlightEventKind::Steal, Some(w as usize), detail);
                        log.lock().unwrap().push((seq, detail));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = log.lock().unwrap();
        for e in rec.dump() {
            assert!(
                log.contains(&(e.seq, e.detail)),
                "dump mixed sequence {} with payload {}",
                e.seq,
                e.detail
            );
        }
    })
}

fn steal_half_scenario() -> Result<sched::Report, sched::ModelError> {
    sched::model(&harness_cfg(3), || {
        let q = Arc::new(ReadyQueue::new());
        for _ in 0..4 {
            let s = q.register_slot();
            q.enqueue(s);
        }
        let qa = Arc::clone(&q);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let ra = Arc::clone(&ran);
        let home = vthread::spawn(move || {
            while let Some(s) = qa.pop() {
                ra.lock().unwrap().push(s);
                qa.finish(s, false);
            }
        });
        let qb = Arc::clone(&q);
        let rb = Arc::clone(&ran);
        let thief = vthread::spawn(move || {
            for s in qb.pop_half() {
                rb.lock().unwrap().push(s);
                qb.finish(s, false);
            }
        });
        home.join().unwrap();
        thief.join().unwrap();
        let mut all = ran.lock().unwrap().clone();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3], "each slot runs exactly once");
    })
}

fn dirty_requeue_scenario() -> Result<sched::Report, sched::ModelError> {
    sched::model(&harness_cfg(3), || {
        let q = Arc::new(ReadyQueue::new());
        let slot = q.register_slot();
        q.enqueue(slot);
        let qw = Arc::clone(&q);
        let runs = Arc::new(Mutex::new(0u32));
        let rw = Arc::clone(&runs);
        let worker = vthread::spawn(move || {
            while let Some(s) = qw.pop() {
                *rw.lock().unwrap() += 1;
                qw.finish(s, false);
            }
        });
        q.enqueue(slot);
        worker.join().unwrap();
        while let Some(s) = q.pop() {
            *runs.lock().unwrap() += 1;
            q.finish(s, false);
        }
        let runs = *runs.lock().unwrap();
        assert!(runs == 1 || runs == 2, "wakeup lost or duplicated: {runs}");
        assert!(q.is_empty());
    })
}

/// Per slot: a modelled ownership flag (every access a scheduling
/// point, so other threads run inside an ownership interval), and
/// (runs, dirty re-enqueues).
type SlotLog = (Vec<mc_sync::AtomicBool>, Mutex<Vec<(u32, u32)>>);

/// Runs an owned slot once and releases it, asserting no other thread
/// owns it meanwhile and counting a dirty re-enqueue.
fn run_owned(q: &ReadyQueue, log: &SlotLog, s: usize) {
    // audit:allow(atomics-relaxed) — the modelled flag only marks the
    // ownership interval; the harness serializes every access.
    let twice = log.0[s].swap(true, mc_sync::Ordering::Relaxed);
    assert!(!twice, "slot {s} owned by two threads at once");
    log.1.lock().unwrap()[s].0 += 1;
    // audit:allow(atomics-relaxed) — see the swap above.
    log.0[s].store(false, mc_sync::Ordering::Relaxed);
    if q.finish(s, false) {
        log.1.lock().unwrap()[s].1 += 1;
    }
}

/// A waiter's `claim` races a home `pop` (the root thread, which also
/// re-enqueues the claimed slot), a thief's `pop_half` and the re-enqueue
/// itself: no slot is owned twice, and each runs once plus once per
/// dirty re-enqueue or fresh enqueue.
fn claim_scenario() -> Result<sched::Report, sched::ModelError> {
    sched::model(&harness_cfg(3), || {
        let q = Arc::new(ReadyQueue::new());
        for _ in 0..2 {
            let s = q.register_slot();
            q.enqueue(s);
        }
        let log: Arc<SlotLog> = Arc::new((
            (0..2).map(|_| mc_sync::AtomicBool::new(false)).collect(),
            Mutex::new(vec![(0, 0); 2]),
        ));
        let (qh, lh) = (Arc::clone(&q), Arc::clone(&log));
        let helper = vthread::spawn(move || {
            if qh.claim(0) {
                run_owned(&qh, &lh, 0);
            }
        });
        let (qt, lt) = (Arc::clone(&q), Arc::clone(&log));
        let thief = vthread::spawn(move || {
            for s in qt.pop_half() {
                run_owned(&qt, &lt, s);
            }
        });
        let fresh = u32::from(q.enqueue(0));
        while let Some(s) = q.pop() {
            run_owned(&q, &log, s);
        }
        helper.join().unwrap();
        thief.join().unwrap();
        while let Some(s) = q.pop() {
            run_owned(&q, &log, s);
        }
        assert!(q.is_empty());
        let counts = log.1.lock().unwrap();
        assert_eq!(counts[1].0, 1, "slot 1 runs exactly once");
        assert_eq!(
            counts[0].0,
            1 + counts[0].1 + fresh,
            "slot 0 lost or re-ran"
        );
    })
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    banner(
        "E11 (model checking)",
        "DPOR schedule exploration + bounded-preemption interleaving harness",
    );
    let mut failures = 0usize;

    // -- Protocol explorer ---------------------------------------------------
    // Exhaustive acceptance scenario plus bounded larger spaces; quick
    // mode still drives ≥10⁴ distinct schedules through each protocol.
    let bounded: u64 = if quick { 15_000 } else { 120_000 };
    let rows = vec![
        run_explorer(
            &Abd::new(cfg114()),
            "abd",
            "1w+1r exhaustive",
            &scripts_1w1r(),
            Condition::StrongRegularity,
            u64::MAX,
        ),
        run_explorer(
            &Abd::new(cfg114()),
            "abd",
            "2w+1r bounded",
            &scripts_2w1r(),
            Condition::StrongRegularity,
            bounded,
        ),
        run_explorer(
            &AbdAtomic::new(cfg114()),
            "abd-atomic",
            "1w+1r bounded",
            &scripts_1w1r(),
            Condition::Atomicity,
            bounded,
        ),
        run_explorer(
            &Safe::new(cfg114()),
            "safe",
            "2w+1r bounded",
            &scripts_2w1r(),
            Condition::StrongSafety,
            bounded,
        ),
    ];
    let header = vec![
        "protocol",
        "scenario",
        "condition",
        "schedules",
        "events",
        "max_depth",
        "exhausted",
        "violations",
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.protocol.to_string(),
                r.scenario.to_string(),
                r.condition.to_string(),
                r.report.schedules.to_string(),
                r.report.events.to_string(),
                r.report.max_depth.to_string(),
                r.report.exhausted.to_string(),
                r.report.violations.len().to_string(),
            ]
        })
        .collect();
    print_table("protocol explorer (DPOR)", &header, &table);
    for r in &rows {
        if !r.report.ok() {
            failures += 1;
            let cx = &r.report.violations[0];
            println!(
                "VIOLATION {}/{} ({}): {}\n  trace: {}",
                r.protocol, r.scenario, r.condition, cx.message, cx.trace
            );
        }
    }
    let exhaustive = &rows[0].report;
    assert!(
        exhaustive.exhausted,
        "2-client x 3-object abd must be covered exhaustively"
    );

    let (dpor_n, naive_n, naive_done, factor) = pruning_factor(quick);
    println!(
        "DPOR pruning (safe 1w+1r): {dpor_n} schedules vs naive {}{naive_n} -> factor {factor}",
        if naive_done { "" } else { ">=" },
    );

    // -- Interleaving harness ------------------------------------------------
    let scenarios: Vec<(&str, Result<sched::Report, sched::ModelError>)> = vec![
        ("recorder claim/write/publish", recorder_tear_scenario()),
        ("recorder ring wrap-around", recorder_wrap_scenario()),
        ("ready-queue steal-half", steal_half_scenario()),
        ("ready-queue dirty requeue", dirty_requeue_scenario()),
        ("ready-queue claim vs pop/steal", claim_scenario()),
    ];
    let header = vec!["scenario", "schedules", "points", "complete", "verdict"];
    let mut table = Vec::new();
    for (name, outcome) in &scenarios {
        match outcome {
            Ok(rep) => table.push(vec![
                (*name).to_string(),
                rep.schedules.to_string(),
                rep.points.to_string(),
                rep.complete.to_string(),
                "ok".to_string(),
            ]),
            Err(e) => {
                failures += 1;
                table.push(vec![
                    (*name).to_string(),
                    e.schedules_before.to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "VIOLATION".to_string(),
                ]);
                println!(
                    "VIOLATION {name}: {}\n  decisions: {:?}",
                    e.message, e.decisions
                );
            }
        }
    }
    print_table("interleaving harness (preemption bound 3)", &header, &table);

    if failures > 0 {
        println!("e11: {failures} scenario(s) FAILED");
        std::process::exit(1);
    }
    println!("e11: all schedule spaces clean");
}
