//! One experiment module per paper table/figure family.
//!
//! | module | reproduces |
//! |---|---|
//! | [`costs`] | Fig. 1, Fig. 3, Fig. 22, Fig. 23, Fig. 24, Fig. 25 |
//! | [`sizing`] | Table 2, Table 3, Table 7 |
//! | [`buffer`] | Fig. 4, Fig. 14 |
//! | [`traces`] | Fig. 5, Fig. 15, Fig. 16 |
//! | [`logs`] | Table 6 |
//! | [`micro`] | Fig. 17, Fig. 18, Fig. 19 |
//! | [`fullsys`] | Fig. 20, Fig. 21 |
//! | [`hetero`] | §6.2's system-level low-power-node comparison |
//! | [`endurance`] | multi-day Eq. 1 screening + sunshine-fraction sweep |
//! | [`ablation`] | DESIGN.md's design-choice ablations |
//! | [`faults`] | fault-rate sweep: graceful degradation under injected faults |
//! | [`recovery`] | checkpoint interval × fault rate: goodput, lost work, MTTR |
//! | [`fleet`] | fleet resilience: sites × fault rate × breaker policy |

pub mod ablation;
pub mod buffer;
pub mod costs;
pub mod endurance;
pub mod faults;
pub mod fleet;
pub mod fullsys;
pub mod hetero;
pub mod logs;
pub mod micro;
pub mod recovery;
pub mod sizing;
pub mod traces;

use ins_core::controller::{BaselineController, InsureController, PowerController};
use ins_core::metrics::RunMetrics;
use ins_core::system::{InSituSystem, SystemBuilder};
use ins_sim::fault::FaultTargets;
use ins_sim::time::{SimDuration, SimTime};
use ins_solar::SolarTrace;

/// The step of the one-day evaluation runs.
pub(crate) const STEP: SimDuration = SimDuration::from_secs(30);

/// The prototype's shape, which the fault schedules target: three
/// battery units and four servers.
pub(crate) const TARGETS: FaultTargets = FaultTargets {
    units: 3,
    servers: 4,
};

/// The controller an experiment names: `"insure"`, else the
/// unified-buffer baseline.
pub(crate) fn controller(name: &str) -> Box<dyn PowerController> {
    if name == "insure" {
        Box::new(InsureController::default())
    } else {
        Box::new(BaselineController::new())
    }
}

/// The evaluation day's system: the prototype's units on `solar` under
/// `controller`, stepped every 30 s. Run it with [`run_day`].
pub(crate) fn day(solar: SolarTrace, controller: Box<dyn PowerController>) -> SystemBuilder {
    InSituSystem::builder(solar, controller)
        .unit_count(TARGETS.units)
        .time_step(STEP)
}

/// Runs `sys` to the end of the evaluation day, 23:59:30, and collects
/// its metrics.
pub(crate) fn run_day(sys: &mut InSituSystem) -> RunMetrics {
    sys.run_until(SimTime::from_hms(23, 59, 30));
    RunMetrics::collect(sys)
}
