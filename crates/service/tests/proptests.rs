//! Property tests for the service layer: supervisor state-machine
//! invariants under random fault schedules, admission-ledger accounting
//! under random offer streams, and kill-resume determinism at random
//! restore points.

use proptest::prelude::*;

use ins_service::admission::{AdmissionConfig, AdmissionController, AdmissionVerdict, WorkClass};
use ins_service::harness::{ServiceCore, ServiceSpec};
use ins_service::supervisor::{EngineFault, EngineStatus, MAX_FAILURES};
use ins_sim::replay::ReplayFeed;

fn feed(rows: u64) -> ReplayFeed {
    let mut csv = String::from("# time_s, solar_w, work_gb\n");
    for i in 0..rows {
        csv.push_str(&format!(
            "{}, {:.1}, {:.1}\n",
            i * 60,
            300.0 + i as f64,
            1.5
        ));
    }
    ReplayFeed::parse(&csv).expect("synthetic feed parses")
}

fn core(seed: u64, ticks: u64) -> ServiceCore {
    let mut spec = ServiceSpec::prototype("insure", seed);
    spec.replay = Some(feed(ticks + 4));
    ServiceCore::try_new(spec).expect("core builds")
}

proptest! {
    /// Under an arbitrary fault schedule the supervisor's ledger stays
    /// coherent: every non-primary period is counted in `safe_periods`,
    /// every fault lands in exactly one of the panic/stall counters, and
    /// the admission ledger accounts for every request at every tick.
    #[test]
    fn random_fault_schedules_keep_the_ledgers_coherent(
        seed in 1u64..500,
        faults in proptest::collection::vec((0u64..24, any::<bool>()), 0..12)
    ) {
        let ticks = 24u64;
        let mut c = core(seed, ticks);
        let mut injected = 0u64;
        for t in 0..ticks {
            for (at, is_panic) in &faults {
                if *at == t {
                    c.inject(if *is_panic { EngineFault::Panicked } else { EngineFault::Stalled });
                    injected += 1;
                }
            }
            let line = c.tick().expect("not drained");
            prop_assert!(c.admission().fully_accounted(), "unaccounted at tick {t}: {line}");
        }
        let counters = c.supervisor_counters();
        // Every surfaced fault is a panic or a stall, and faults can only
        // surface if they were injected.
        prop_assert!(counters.panics + counters.stalls <= injected);
        // Each telemetry line's source label matches the safe-period count.
        let safe_lines = c
            .telemetry()
            .iter()
            .filter(|l| !l.contains("source=primary"))
            .count() as u64;
        prop_assert_eq!(safe_lines, counters.safe_periods);
        // The status is always one of the three legal states.
        let label = c.engine_status().label();
        prop_assert!(matches!(label, "running" | "restarting" | "quarantined"));
    }

    /// Kill-resume determinism at an arbitrary restore point: the
    /// resumed tail is byte-identical to the uninterrupted run.
    #[test]
    fn resume_is_byte_identical_at_any_restore_point(
        seed in 1u64..200,
        kill_at in 0u64..12
    ) {
        let total = 12u64;
        let mut a = core(seed, total);
        for _ in 0..total { a.tick(); }

        let mut b = core(seed, total);
        b.fast_forward(kill_at);
        for _ in kill_at..total { b.tick(); }

        prop_assert_eq!(&a.telemetry()[kill_at as usize..], b.telemetry());
    }

    /// The admission ladder never drops silently and never fails a
    /// stream while replayable batch work still occupies the queue.
    #[test]
    fn admission_accounts_for_every_offer(
        offers in proptest::collection::vec(
            (any::<bool>(), 0.5f64..8.0, any::<bool>()),
            1..60
        ),
        capacity in 5.0f64..30.0
    ) {
        let mut a = AdmissionController::new(AdmissionConfig {
            queue_capacity_gb: capacity,
            release_per_period_gb: 4.0,
        });
        let mut step = 0usize;
        for (is_stream, gb, degraded) in offers {
            let class = if is_stream { WorkClass::Stream } else { WorkClass::Batch };
            let verdict = a.offer(class, gb, degraded);
            if verdict == AdmissionVerdict::Failed {
                // Streams fail only as a last resort: the eviction pass
                // has already removed every queued batch request.
                prop_assert_eq!(class, WorkClass::Stream);
            }
            prop_assert!(a.fully_accounted(), "unaccounted after offer {step}");
            step += 1;
            if step.is_multiple_of(5) {
                let _ = a.release();
                prop_assert!(a.fully_accounted(), "unaccounted after release");
            }
        }
        let _ = a.flush();
        prop_assert_eq!(a.queued_requests(), 0);
        let s = a.counters(WorkClass::Stream);
        let b = a.counters(WorkClass::Batch);
        prop_assert_eq!(s.offered, s.resolved());
        prop_assert_eq!(b.offered, b.resolved());
    }

    /// Queued volume never exceeds capacity and never goes negative,
    /// whatever the interleaving of offers, releases and flushes.
    #[test]
    fn queue_volume_stays_bounded(
        ops in proptest::collection::vec((0u8..4, 0.5f64..6.0), 1..80)
    ) {
        let config = AdmissionConfig {
            queue_capacity_gb: 12.0,
            release_per_period_gb: 3.0,
        };
        let mut a = AdmissionController::new(config);
        for (op, gb) in ops {
            match op {
                0 => { let _ = a.offer(WorkClass::Stream, gb, false); }
                1 => { let _ = a.offer(WorkClass::Batch, gb, false); }
                2 => { let _ = a.release(); }
                _ => { let _ = a.offer(WorkClass::Stream, gb, true); }
            }
            prop_assert!(a.queued_gb() >= 0.0);
            prop_assert!(
                a.queued_gb() <= config.queue_capacity_gb + 1e-9,
                "queue overflowed: {}",
                a.queued_gb()
            );
            prop_assert!(a.fully_accounted());
        }
    }
}

/// Quarantine is absorbing: once reached, no later tick leaves it (not
/// a proptest — the schedule is crafted — but it guards the terminal
/// state against regressions alongside the random-schedule property).
#[test]
fn quarantine_is_an_absorbing_state() {
    let mut spec = ServiceSpec::prototype("insure", 9);
    spec.replay = Some(feed(40));
    let mut c = ServiceCore::try_new(spec).expect("core builds");
    // Back-to-back failures exhaust the restart budget on tick 15:
    // restarts come 1, 2, 4 and 8 periods after each failure.
    for _ in 0..MAX_FAILURES {
        c.inject(EngineFault::Panicked);
    }
    let mut quarantined_at = None;
    for t in 0..30u64 {
        c.tick();
        match (quarantined_at, c.engine_status()) {
            (None, EngineStatus::Quarantined) => quarantined_at = Some(t),
            (Some(_), status) => assert_eq!(status, EngineStatus::Quarantined),
            _ => {}
        }
    }
    assert_eq!(quarantined_at, Some(15));
}
