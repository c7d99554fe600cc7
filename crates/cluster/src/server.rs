//! Server power-state machine.
//!
//! A physical machine is either serving VMs or in one of the expensive
//! transitional states the paper charges against the optimizer: booting
//! (half of the ≈ 15-minute on/off cycle) or checkpointing VM state and
//! shutting down (the other half). Energy spent in transitional states is
//! counted but *not effective* — the distinction behind Table 6's
//! "Effective kWh Usage" column.

use ins_sim::time::SimDuration;
use ins_sim::units::{Hours, WattHours, Watts};

use crate::dvfs::DutyCycle;
use crate::profiles::ServerProfile;

/// Power state of one physical machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerState {
    /// Powered down, drawing nothing.
    Off,
    /// Booting; becomes [`PowerState::On`] when the timer expires.
    Booting {
        /// Time left until the machine is serving.
        remaining: SimDuration,
    },
    /// Serving VMs.
    On,
    /// Checkpointing VM state and shutting down; becomes
    /// [`PowerState::Off`] when the timer expires.
    SavingAndShuttingDown {
        /// Time left until fully off.
        remaining: SimDuration,
    },
    /// Crashed hard and cooling down before a restart is allowed; becomes
    /// [`PowerState::Off`] when the timer expires. Power-on requests are
    /// ignored until then (bounded restart with exponential backoff).
    CrashedCoolingDown {
        /// Time left until the machine may boot again.
        remaining: SimDuration,
    },
}

/// Base crash-restart cooldown; doubles per consecutive crash, bounded by
/// [`MAX_CRASH_BACKOFF_DOUBLINGS`].
pub const BASE_CRASH_COOLDOWN: SimDuration = SimDuration::from_secs(120);

/// Cap on backoff doublings, bounding the cooldown at 2^5 × the base
/// (64 minutes) no matter how often a machine crash-loops.
pub const MAX_CRASH_BACKOFF_DOUBLINGS: u32 = 5;

/// One physical machine.
///
/// # Examples
///
/// ```
/// use ins_cluster::server::{PowerState, Server};
/// use ins_cluster::profiles::ServerProfile;
/// use ins_sim::time::SimDuration;
///
/// let mut s = Server::new(ServerProfile::xeon_proliant());
/// s.power_on();
/// // Ride through the 10-minute boot.
/// for _ in 0..10 {
///     s.step(SimDuration::from_minutes(1), 1.0, Default::default());
/// }
/// assert_eq!(s.state(), PowerState::On);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Server {
    profile: ServerProfile,
    state: PowerState,
    on_off_cycles: u64,
    total_energy: WattHours,
    effective_energy: WattHours,
    on_time: Hours,
    elapsed: Hours,
    crash_count: u64,
    lost_checkpoints: u64,
    checkpoint_broken: bool,
}

impl Server {
    /// Creates a powered-off server.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`ServerProfile::validate`].
    #[must_use]
    pub fn new(profile: ServerProfile) -> Self {
        profile
            .validate()
            .unwrap_or_else(|e| panic!("invalid server profile: {e}"));
        Self::with_valid(profile)
    }

    /// A powered-off server whose `profile` passes
    /// [`ServerProfile::validate`].
    pub(crate) fn with_valid(profile: ServerProfile) -> Self {
        Self {
            profile,
            state: PowerState::Off,
            on_off_cycles: 0,
            total_energy: WattHours::ZERO,
            effective_energy: WattHours::ZERO,
            on_time: Hours::ZERO,
            elapsed: Hours::ZERO,
            crash_count: 0,
            lost_checkpoints: 0,
            checkpoint_broken: false,
        }
    }

    /// The server's hardware profile.
    #[must_use]
    #[inline]
    pub fn profile(&self) -> &ServerProfile {
        &self.profile
    }

    /// Current power state.
    #[must_use]
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// `true` while serving VMs.
    #[must_use]
    #[inline]
    pub fn is_on(&self) -> bool {
        self.state == PowerState::On
    }

    /// `true` while fully off.
    #[must_use]
    pub fn is_off(&self) -> bool {
        self.state == PowerState::Off
    }

    /// Completed or started on/off power cycles (each power-down counts
    /// one, matching the paper's "On/Off Cycles" log column).
    #[must_use]
    pub fn on_off_cycles(&self) -> u64 {
        self.on_off_cycles
    }

    /// Total energy consumed in any state.
    #[must_use]
    pub fn total_energy(&self) -> WattHours {
        self.total_energy
    }

    /// Energy consumed while productive ([`PowerState::On`]).
    #[must_use]
    pub fn effective_energy(&self) -> WattHours {
        self.effective_energy
    }

    /// Hours spent serving.
    #[must_use]
    pub fn on_time(&self) -> Hours {
        self.on_time
    }

    /// Hours simulated in total.
    #[must_use]
    pub fn elapsed(&self) -> Hours {
        self.elapsed
    }

    /// Availability: fraction of elapsed time spent serving.
    #[must_use]
    pub fn availability(&self) -> f64 {
        if self.elapsed.value() <= 0.0 {
            0.0
        } else {
            self.on_time / self.elapsed
        }
    }

    /// Requests power-on. No-op unless the server is fully off.
    pub fn power_on(&mut self) {
        if self.state == PowerState::Off {
            self.state = PowerState::Booting {
                remaining: self.profile.boot_time,
            };
        }
    }

    /// Hard power loss: the machine drops to [`PowerState::Off`]
    /// immediately from any state, with no checkpoint (in-flight VM state
    /// is lost; the subsequent boot pays the full restart cost). Counts an
    /// on/off cycle unless the machine was already off. A crash cooldown
    /// is unaffected — the machine is already down and must still wait.
    pub fn force_off(&mut self) {
        if matches!(
            self.state,
            PowerState::Off | PowerState::CrashedCoolingDown { .. }
        ) {
            return;
        }
        self.state = PowerState::Off;
        self.on_off_cycles += 1;
    }

    /// Requests checkpoint-and-power-off. No-op unless currently on.
    ///
    /// If the checkpoint path is broken
    /// ([`Server::set_checkpoint_broken`]), the orderly save cannot
    /// happen: the machine drops straight to off, the in-flight state is
    /// lost, and [`Server::lost_checkpoints`] counts the loss.
    pub fn power_off(&mut self) {
        if self.state != PowerState::On {
            return;
        }
        if self.checkpoint_broken {
            self.lost_checkpoints += 1;
            self.state = PowerState::Off;
        } else {
            self.state = PowerState::SavingAndShuttingDown {
                remaining: self.profile.shutdown_time,
            };
        }
        self.on_off_cycles += 1;
    }

    /// Hard crash: the machine drops off the bus immediately from any
    /// live state, losing un-checkpointed VM state, and must cool down
    /// before it will accept a power-on. The cooldown doubles with each
    /// crash (bounded), so a crash-looping machine backs off instead of
    /// flapping. Crashing an off or already-cooling machine is a no-op.
    pub fn crash(&mut self) {
        if matches!(
            self.state,
            PowerState::Off | PowerState::CrashedCoolingDown { .. }
        ) {
            return;
        }
        self.crash_count += 1;
        self.lost_checkpoints += 1;
        self.on_off_cycles += 1;
        let doublings = (self.crash_count - 1).min(u64::from(MAX_CRASH_BACKOFF_DOUBLINGS));
        let cooldown = SimDuration::from_secs(BASE_CRASH_COOLDOWN.as_secs() << doublings);
        self.state = PowerState::CrashedCoolingDown {
            remaining: cooldown,
        };
    }

    /// Times this machine has crashed.
    #[must_use]
    pub fn crash_count(&self) -> u64 {
        self.crash_count
    }

    /// Checkpoints lost to crashes or a broken checkpoint path.
    #[must_use]
    pub fn lost_checkpoints(&self) -> u64 {
        self.lost_checkpoints
    }

    /// `true` while the crash-restart cooldown is running.
    #[must_use]
    pub fn is_crash_cooling(&self) -> bool {
        matches!(self.state, PowerState::CrashedCoolingDown { .. })
    }

    /// `true` when orderly shutdowns cannot save state.
    #[must_use]
    #[inline]
    pub fn checkpoint_broken(&self) -> bool {
        self.checkpoint_broken
    }

    /// Marks the checkpoint path broken or repaired.
    pub fn set_checkpoint_broken(&mut self, broken: bool) {
        self.checkpoint_broken = broken;
    }

    /// Instantaneous power draw at the given utilization and duty cycle.
    ///
    /// Transitional states draw the idle floor (disks and fans spin, no
    /// useful work); serving draws the profile's interpolated power.
    #[must_use]
    #[inline]
    pub fn power_draw(&self, utilization: f64, duty: DutyCycle) -> Watts {
        match self.state {
            PowerState::Off | PowerState::CrashedCoolingDown { .. } => Watts::ZERO,
            PowerState::Booting { .. } | PowerState::SavingAndShuttingDown { .. } => {
                self.profile.idle_power
            }
            PowerState::On => self.profile.power_at(utilization, duty.fraction()),
        }
    }

    /// Advances the state machine by `dt` under the given load, recording
    /// energy. Returns the power drawn during the step.
    #[inline]
    pub fn step(&mut self, dt: SimDuration, utilization: f64, duty: DutyCycle) -> Watts {
        let draw = self.power_draw(utilization, duty);
        let dt_h = dt.as_hours();
        self.elapsed += dt_h;
        self.total_energy += draw * dt_h;
        match self.state {
            PowerState::On => {
                self.on_time += dt_h;
                self.effective_energy += draw * dt_h;
            }
            PowerState::Booting { remaining } => {
                let left = remaining.saturating_sub(dt);
                self.state = if left.is_zero() {
                    PowerState::On
                } else {
                    PowerState::Booting { remaining: left }
                };
            }
            PowerState::SavingAndShuttingDown { remaining } => {
                let left = remaining.saturating_sub(dt);
                self.state = if left.is_zero() {
                    PowerState::Off
                } else {
                    PowerState::SavingAndShuttingDown { remaining: left }
                };
            }
            PowerState::CrashedCoolingDown { remaining } => {
                let left = remaining.saturating_sub(dt);
                self.state = if left.is_zero() {
                    PowerState::Off
                } else {
                    PowerState::CrashedCoolingDown { remaining: left }
                };
            }
            PowerState::Off => {}
        }
        draw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minutes(n: u64) -> SimDuration {
        SimDuration::from_minutes(n)
    }

    #[test]
    fn boot_takes_profile_time() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        s.power_on();
        for _ in 0..9 {
            s.step(minutes(1), 0.0, DutyCycle::FULL);
            assert!(!s.is_on());
        }
        s.step(minutes(1), 0.0, DutyCycle::FULL);
        assert!(s.is_on());
    }

    #[test]
    fn shutdown_counts_a_cycle_and_costs_energy() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        s.power_on();
        for _ in 0..10 {
            s.step(minutes(1), 0.0, DutyCycle::FULL);
        }
        s.power_off();
        assert_eq!(s.on_off_cycles(), 1);
        for _ in 0..5 {
            assert!(!s.is_off());
            s.step(minutes(1), 0.0, DutyCycle::FULL);
        }
        assert!(s.is_off());
        // Boot + shutdown consumed idle power but zero effective energy.
        assert!(s.total_energy().value() > 0.0);
        assert_eq!(s.effective_energy().value(), 0.0);
    }

    #[test]
    fn power_draw_by_state() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        assert_eq!(s.power_draw(1.0, DutyCycle::FULL), Watts::ZERO);
        s.power_on();
        assert_eq!(s.power_draw(1.0, DutyCycle::FULL), Watts::new(280.0));
        for _ in 0..10 {
            s.step(minutes(1), 0.0, DutyCycle::FULL);
        }
        assert_eq!(s.power_draw(1.0, DutyCycle::FULL), Watts::new(450.0));
        assert_eq!(s.power_draw(1.0, DutyCycle::new(0.5)), Watts::new(365.0));
    }

    #[test]
    fn availability_tracks_serving_time() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        s.power_on();
        for _ in 0..20 {
            s.step(minutes(1), 1.0, DutyCycle::FULL);
        }
        // 10 min boot + 10 min on out of 20 elapsed.
        assert!((s.availability() - 0.5).abs() < 1e-9);
        assert!((s.on_time().value() - 10.0 / 60.0).abs() < 1e-9);
    }

    #[test]
    fn redundant_requests_are_noops() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        s.power_off(); // off → off
        assert_eq!(s.on_off_cycles(), 0);
        s.power_on();
        s.power_on(); // booting → booting
        s.step(minutes(1), 0.0, DutyCycle::FULL);
        assert!(matches!(s.state(), PowerState::Booting { .. }));
        // power_off during boot is ignored (cannot checkpoint mid-boot).
        s.power_off();
        assert!(matches!(s.state(), PowerState::Booting { .. }));
    }

    fn boot_up(s: &mut Server) {
        s.power_on();
        for _ in 0..10 {
            s.step(minutes(1), 0.0, DutyCycle::FULL);
        }
        assert!(s.is_on());
    }

    #[test]
    fn crash_drops_power_and_blocks_restart() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        boot_up(&mut s);
        s.crash();
        assert!(s.is_crash_cooling());
        assert_eq!(s.crash_count(), 1);
        assert_eq!(s.lost_checkpoints(), 1);
        assert_eq!(s.power_draw(1.0, DutyCycle::FULL), Watts::ZERO);
        // Power-on is ignored during the 2-minute cooldown.
        s.power_on();
        assert!(s.is_crash_cooling());
        s.step(minutes(1), 0.0, DutyCycle::FULL);
        s.power_on();
        assert!(!s.is_on() && !s.is_off());
        s.step(minutes(1), 0.0, DutyCycle::FULL);
        assert!(s.is_off(), "cooldown expired");
        s.power_on();
        assert!(matches!(s.state(), PowerState::Booting { .. }));
    }

    #[test]
    fn crash_backoff_doubles_and_is_bounded() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        let mut cooldowns = Vec::new();
        for _ in 0..8 {
            boot_up(&mut s);
            s.crash();
            let PowerState::CrashedCoolingDown { remaining } = s.state() else {
                panic!("expected cooldown");
            };
            cooldowns.push(remaining.as_secs());
            // Wait out the cooldown.
            while !s.is_off() {
                s.step(minutes(1), 0.0, DutyCycle::FULL);
            }
        }
        assert_eq!(cooldowns[0], 120);
        assert_eq!(cooldowns[1], 240);
        assert_eq!(*cooldowns.last().unwrap(), 120 << 5, "backoff is capped");
        for pair in cooldowns.windows(2) {
            assert!(pair[1] >= pair[0], "backoff never shrinks");
        }
    }

    #[test]
    fn crash_of_down_machine_is_a_noop() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        s.crash();
        assert!(s.is_off());
        assert_eq!(s.crash_count(), 0);
    }

    #[test]
    fn broken_checkpoint_path_makes_power_off_abrupt() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        boot_up(&mut s);
        s.set_checkpoint_broken(true);
        assert!(s.checkpoint_broken());
        s.power_off();
        // No orderly SavingAndShuttingDown phase: state was unsaveable.
        assert!(s.is_off());
        assert_eq!(s.lost_checkpoints(), 1);
        assert_eq!(s.on_off_cycles(), 1);

        // Repaired: orderly shutdown returns.
        boot_up(&mut s);
        s.set_checkpoint_broken(false);
        s.power_off();
        assert!(matches!(
            s.state(),
            PowerState::SavingAndShuttingDown { .. }
        ));
        assert_eq!(s.lost_checkpoints(), 1);
    }

    #[test]
    fn force_off_does_not_cancel_crash_cooldown() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        boot_up(&mut s);
        s.crash();
        let cycles = s.on_off_cycles();
        s.force_off();
        assert!(s.is_crash_cooling(), "cooldown survives power loss");
        assert_eq!(s.on_off_cycles(), cycles);
    }

    #[test]
    fn effective_energy_only_accrues_while_on() {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        s.power_on();
        for _ in 0..10 {
            s.step(minutes(1), 0.0, DutyCycle::FULL);
        }
        let boot_energy = s.total_energy();
        for _ in 0..60 {
            s.step(minutes(1), 1.0, DutyCycle::FULL);
        }
        assert!((s.effective_energy().value() - 450.0).abs() < 1e-6);
        assert!((s.total_energy().value() - (boot_energy.value() + 450.0)).abs() < 1e-6);
    }
}
