//! Memory budget of a service left running: its plant keeps no per-step
//! sample history. After a few control periods each of the plant's four
//! traces holds one sample, the latest, which is all telemetry reads.
//! Every step still feeds the traces' statistics.

use ins_service::harness::{ServiceCore, ServiceSpec};
use ins_sim::time::SimTime;

#[test]
fn ticks_keep_one_sample_per_trace() {
    let spec = ServiceSpec::prototype("insure", 11);
    let (dt, period) = (spec.dt, spec.control_period);
    let ticks = 3;
    let mut core = ServiceCore::try_new(spec).expect("core builds");
    for _ in 0..ticks {
        core.tick().expect("a live service never drains itself");
    }
    let sys = core.system();
    assert_eq!(sys.now(), SimTime::ZERO + period * ticks);
    for trace in [
        sys.trace_solar(),
        sys.trace_load(),
        sys.trace_stored(),
        sys.trace_pack_voltage(),
    ] {
        let name = trace.name();
        assert_eq!(trace.len(), 1, "{name} keeps its history");
        assert_eq!(trace.last().map(|s| s.time), Some(sys.now() - dt), "{name}");
        assert_eq!(
            trace.stats().count(),
            ticks * period.as_secs() / dt.as_secs(),
            "{name} summarizes every step"
        );
    }
}
