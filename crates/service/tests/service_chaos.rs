//! Chaos tests for the supervised service: watchdog takeover timing,
//! kill-resume determinism, quarantine, and drain accounting — all
//! driven through the deterministic in-process [`ServiceCore`], no
//! threads or wall clocks involved.

use ins_service::harness::{ServiceCore, ServiceSpec};
use ins_service::resume::feed_digest;
use ins_service::supervisor::{DecisionSource, EngineFault, EngineStatus, MAX_FAILURES};
use ins_sim::replay::ReplayFeed;

fn feed() -> ReplayFeed {
    // A synthetic morning: irradiance ramps up, stream work arrives
    // every control period (60 s rows, 30 minutes).
    let mut csv = String::from("# time_s, solar_w, work_gb\n");
    for i in 0..30u64 {
        let t = i * 60;
        let solar = 200.0 + 40.0 * i as f64;
        let work = 2.0 + (i % 3) as f64;
        csv.push_str(&format!("{t}, {solar:.1}, {work:.1}\n"));
    }
    ReplayFeed::parse(&csv).expect("synthetic feed parses")
}

fn spec_with_feed(engine: &str, seed: u64) -> ServiceSpec {
    let mut spec = ServiceSpec::prototype(engine, seed);
    spec.replay = Some(feed());
    spec
}

#[test]
fn healthy_service_serves_from_the_primary_engine() {
    let mut core = ServiceCore::try_new(spec_with_feed("insure", 11)).expect("core builds");
    for _ in 0..5 {
        let line = core.tick().expect("not drained");
        assert!(line.contains("source=primary"), "{line}");
        assert!(line.contains("engine=insure"), "{line}");
    }
    assert_eq!(core.engine_status(), EngineStatus::Running);
    assert_eq!(core.supervisor_counters().safe_periods, 0);
    assert!(core.admission().fully_accounted());
}

/// The tentpole timing guarantee: a stalled engine is replaced by safe
/// mode within *exactly one* control period — the very tick in which
/// the stall surfaces is already decided by `SafeModePolicy`, never by
/// the wedged engine, and never left undecided.
#[test]
fn stalled_engine_is_replaced_within_one_control_period() {
    let mut core = ServiceCore::try_new(spec_with_feed("insure", 11)).expect("core builds");
    let line = core.tick().expect("healthy tick");
    assert!(line.contains("source=primary"), "{line}");

    core.inject(EngineFault::Stalled);
    let line = core.tick().expect("stalled tick");
    // Same-period takeover, visible in the telemetry of that period.
    assert!(line.contains("source=safe-stall"), "{line}");
    assert_eq!(
        core.last_source(),
        Some(DecisionSource::SafeMode(EngineFault::Stalled))
    );
    assert!(matches!(
        core.engine_status(),
        EngineStatus::Restarting { .. }
    ));
    let counters = core.supervisor_counters();
    assert_eq!(counters.stalls, 1);
    assert_eq!(counters.safe_periods, 1);
}

#[test]
fn panicked_engine_restarts_and_returns_to_primary() {
    let mut core = ServiceCore::try_new(spec_with_feed("insure", 11)).expect("core builds");
    core.inject(EngineFault::Panicked);
    let line = core.tick().expect("panic tick");
    assert!(line.contains("source=safe-panic"), "{line}");
    // Base backoff is one control period: the very next tick restarts
    // the engine and serves from the primary again.
    let line = core.tick().expect("restart tick");
    assert!(line.contains("source=primary"), "{line}");
    let counters = core.supervisor_counters();
    assert_eq!(counters.restarts, 1);
    assert_eq!(counters.panics, 1);
}

#[test]
fn poison_engine_is_quarantined_and_safe_mode_serves_forever() {
    let spec = spec_with_feed("insure", 11);
    let mut core = ServiceCore::with_executor(
        spec,
        Box::new(ins_service::supervisor::InlineExecutor::try_new("insure").expect("engine")),
    )
    .expect("core builds");
    // Poison: every decision attempt faults. Restarts come 1, 2, 4 and 8
    // periods after each failure, so the fifth failure, which exhausts
    // the restart budget, lands on tick 15.
    for _ in 0..MAX_FAILURES {
        core.inject(EngineFault::Panicked);
    }
    let mut saw_quarantine = false;
    for _ in 0..20 {
        let line = core.tick().expect("tick");
        if core.engine_status() == EngineStatus::Quarantined {
            saw_quarantine = true;
            assert!(
                line.contains("source=safe-quarantined") || line.contains("source=safe-panic"),
                "{line}"
            );
        }
    }
    assert!(saw_quarantine, "engine was never quarantined");
    assert_eq!(core.engine_status(), EngineStatus::Quarantined);
    // Quarantine is terminal: everything after is safe mode.
    let line = core.tick().expect("tick");
    assert!(line.contains("source=safe-quarantined"), "{line}");
}

/// Kill-resume determinism, in process: a fresh core fast-forwarded to
/// tick `k` emits byte-identical telemetry to an uninterrupted run from
/// `k` onward. This is the exact property the CI chaos job checks
/// across a real SIGKILL.
#[test]
fn resumed_run_is_byte_identical_from_the_restore_point() {
    let total = 20u64;
    for kill_at in [1u64, 7, 13] {
        let mut uninterrupted =
            ServiceCore::try_new(spec_with_feed("insure", 23)).expect("core builds");
        for _ in 0..total {
            uninterrupted.tick();
        }

        let mut resumed = ServiceCore::try_new(spec_with_feed("insure", 23)).expect("core builds");
        resumed.fast_forward(kill_at);
        for _ in kill_at..total {
            resumed.tick();
        }

        let full = uninterrupted.telemetry();
        let tail = resumed.telemetry();
        assert_eq!(tail.len() as u64, total - kill_at);
        assert_eq!(
            &full[kill_at as usize..],
            tail,
            "telemetry diverged after resume at tick {kill_at}"
        );
    }
}

#[test]
fn resume_token_round_trips_through_the_spec() {
    let spec = spec_with_feed("insure", 47);
    let mut core = ServiceCore::try_new(spec.clone()).expect("core builds");
    core.tick();
    core.tick();
    let token = core.resume_token();
    assert_eq!(token.ticks, 2);
    spec.accepts(&token).expect("token matches its own spec");

    // A different seed, engine or feed refuses the token.
    let other = spec_with_feed("insure", 48);
    assert!(other.accepts(&token).is_err());
    let other = spec_with_feed("noopt", 47);
    assert!(other.accepts(&token).is_err());
    let mut other = spec_with_feed("insure", 47);
    other.replay = None;
    assert!(other.accepts(&token).is_err());
}

/// The core hashes its feed once, for its first token: every token it
/// issues carries that digest and is accepted by its spec.
#[test]
fn resume_tokens_carry_the_feed_digest_at_every_tick() {
    for spec in [
        spec_with_feed("insure", 47),
        ServiceSpec::prototype("noopt", 47),
    ] {
        let digest = feed_digest(spec.replay.as_ref());
        let mut core = ServiceCore::try_new(spec.clone()).expect("core builds");
        core.fast_forward(3);
        for ticks in 3..8 {
            let token = core.resume_token();
            assert_eq!((token.ticks, token.digest), (ticks, digest));
            spec.accepts(&token).expect("token matches its own spec");
            core.tick();
        }
    }
}

/// The no-silent-drops acceptance gate: at drain time the queue is
/// empty and `offered ≡ served + degraded + shed + failed` holds as an
/// exact four-way identity, per class and in total.
#[test]
fn drain_resolves_every_offered_request_exactly() {
    let mut core = ServiceCore::try_new(spec_with_feed("insure", 11)).expect("core builds");
    use ins_service::admission::WorkClass;
    for i in 0..12u64 {
        core.tick();
        // Extra foreground offers, both classes, some while faulting.
        if i % 3 == 0 {
            core.inject(EngineFault::Panicked);
        }
        core.offer(WorkClass::Batch, 3.0);
        core.offer(WorkClass::Stream, 1.5);
        assert!(core.admission().fully_accounted(), "mid-run accounting");
    }
    let report = core.drain();
    assert!(core.drained());
    assert!(report.line.starts_with("drain "), "{}", report.line);
    assert!(report.line.contains("accounted=true"), "{}", report.line);

    let admission = core.admission();
    assert_eq!(admission.queued_requests(), 0, "drain empties the queue");
    for class in [WorkClass::Stream, WorkClass::Batch] {
        let c = admission.counters(class);
        assert_eq!(
            c.offered,
            c.resolved(),
            "{} requests must resolve exactly",
            class.label()
        );
    }

    // Draining twice is idempotent.
    let again = core.drain();
    assert_eq!(again.flushed_gb, 0.0);
    assert!(core.tick().is_none(), "no ticks after drain");
}

#[test]
fn degraded_periods_shed_batch_but_keep_streams() {
    let mut core = ServiceCore::try_new(spec_with_feed("insure", 11)).expect("core builds");
    use ins_service::admission::{AdmissionVerdict, WorkClass};
    core.inject(EngineFault::Stalled);
    core.tick();
    assert!(matches!(
        core.engine_status(),
        EngineStatus::Restarting { .. }
    ));
    // While the engine is down, batch is shed at the door and stream is
    // still admitted (as degraded service).
    assert_eq!(core.offer(WorkClass::Batch, 2.0), AdmissionVerdict::Shed);
    assert_eq!(core.offer(WorkClass::Stream, 2.0), AdmissionVerdict::Queued);
    assert!(core.admission().fully_accounted());
}

/// Safe-mode periods must still advance the plant deterministically:
/// two cores with the same injected fault schedule produce identical
/// telemetry.
#[test]
fn fault_schedules_are_deterministic_too() {
    let run = || {
        let mut core = ServiceCore::try_new(spec_with_feed("insure", 31)).expect("core builds");
        for i in 0..15u64 {
            if i == 2 || i == 9 {
                core.inject(EngineFault::Panicked);
            }
            if i == 5 {
                core.inject(EngineFault::Stalled);
            }
            core.tick();
        }
        core.telemetry().to_vec()
    };
    assert_eq!(run(), run());
}
