//! The server rack: a VM target over physical machines.
//!
//! The prototype runs 8 Xen VMs on 4 physical machines, two per PM (§5).
//! The node allocator adjusts the number of active VMs (stream workloads)
//! or the clock duty cycle (batch workloads); this module maps a target VM
//! count onto server power states and tracks the control-action counters
//! the paper logs in Table 6 ("Power Ctrl. Times", "On/Off Cycles",
//! "VM Ctrl. Times"). The running VM count is derived from the machines
//! ([`Rack::active_vms`]); no per-instance placement is kept.

use ins_sim::time::SimDuration;
use ins_sim::units::{WattHours, Watts};

use crate::dvfs::DutyCycle;
use crate::profiles::ServerProfile;
use crate::server::{PowerState, Server};

/// A homogeneous rack of physical machines with a VM target.
///
/// # Examples
///
/// ```
/// use ins_cluster::rack::Rack;
/// use ins_cluster::profiles::ServerProfile;
/// use ins_sim::time::SimDuration;
///
/// let mut rack = Rack::prototype(); // 4 ProLiant machines, 8 VM slots
/// rack.set_target_vms(8);
/// for _ in 0..15 {
///     rack.step(SimDuration::from_minutes(1), 1.0);
/// }
/// assert_eq!(rack.active_vms(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rack {
    servers: Vec<Server>,
    target_vms: u32,
    duty: DutyCycle,
    vm_control_actions: u64,
    duty_control_actions: u64,
}

impl Rack {
    /// Creates a rack of `n` identical machines, all off, targeting zero
    /// VMs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or the profile is invalid.
    #[must_use]
    pub fn new(profile: ServerProfile, n: usize) -> Self {
        assert!(n > 0, "rack needs at least one server");
        Self {
            servers: (0..n).map(|_| Server::new(profile.clone())).collect(),
            target_vms: 0,
            duty: DutyCycle::FULL,
            vm_control_actions: 0,
            duty_control_actions: 0,
        }
    }

    /// The prototype rack: four HP ProLiant machines (8 VM slots).
    #[must_use]
    pub fn prototype() -> Self {
        Self::new(ServerProfile::xeon_proliant(), 4)
    }

    /// The physical machines.
    #[must_use]
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Total VM slots across all machines.
    #[must_use]
    pub fn total_vm_slots(&self) -> u32 {
        self.servers.iter().map(|s| s.profile().vm_slots).sum()
    }

    /// The VM count currently requested.
    #[must_use]
    pub fn target_vms(&self) -> u32 {
        self.target_vms
    }

    /// VMs actually running right now (bounded by machines that finished
    /// booting).
    #[must_use]
    pub fn active_vms(&self) -> u32 {
        let slots = self
            .servers
            .iter()
            .filter(|s| s.is_on())
            .map(|s| s.profile().vm_slots)
            .sum::<u32>();
        self.target_vms.min(slots)
    }

    /// Current duty cycle.
    #[must_use]
    pub fn duty(&self) -> DutyCycle {
        self.duty
    }

    /// Sets the duty cycle; counts one control action if it changed.
    pub fn set_duty(&mut self, duty: DutyCycle) {
        if (duty.fraction() - self.duty.fraction()).abs() > 1e-12 {
            self.duty = duty;
            self.duty_control_actions += 1;
        }
    }

    /// Sets the target VM count, clamped to the rack's slots. Powers
    /// machines on/off as needed (fewest machines that fit the target);
    /// counts one VM control action if the target changed. Machines in a
    /// crash cooldown are routed around: healthy machines substitute for
    /// them, so a crash degrades capacity only when none are spare.
    pub fn set_target_vms(&mut self, vms: u32) {
        let vms = vms.min(self.total_vm_slots());
        if vms != self.target_vms {
            self.target_vms = vms;
            self.vm_control_actions += 1;
        }
        self.apply_power_targets();
    }

    /// Maps the VM target onto machine power states, skipping machines in
    /// a crash cooldown and preferring machines that are already live so a
    /// recovered machine does not evict its substitute.
    ///
    /// The first `needed` live machines (serving or booting) stay up, in
    /// index order; healthy spares, lowest index first, cover whatever
    /// the live ones do not; everything else powers off.
    fn apply_power_targets(&mut self) {
        // Machines needed assuming uniform slot counts.
        let slots_per = self.servers[0].profile().vm_slots.max(1);
        let needed = self.target_vms.div_ceil(slots_per) as usize;
        let is_live = |s: &Server| matches!(s.state(), PowerState::On | PowerState::Booting { .. });
        let live_kept = self
            .servers
            .iter()
            .filter(|s| is_live(s))
            .count()
            .min(needed);
        let (mut live_seen, mut spares_seen) = (0, 0);
        for server in &mut self.servers {
            let grant = if is_live(server) {
                live_seen += 1;
                live_seen <= needed
            } else if server.is_crash_cooling() {
                false
            } else {
                spares_seen += 1;
                live_kept + spares_seen <= needed
            };
            if grant {
                server.power_on();
            } else {
                server.power_off();
            }
        }
    }

    /// Crashes one machine (see [`Server::crash`]) and immediately
    /// re-maps the VM target onto the survivors so a healthy spare boots
    /// as a substitute. Returns `false` if the index is out of range.
    pub fn crash_server(&mut self, index: usize) -> bool {
        let Some(server) = self.servers.get_mut(index) else {
            return false;
        };
        server.crash();
        self.apply_power_targets();
        true
    }

    /// Marks one machine's checkpoint path broken or repaired (see
    /// [`Server::set_checkpoint_broken`]). Returns `false` if the index is
    /// out of range.
    pub fn set_checkpoint_broken(&mut self, index: usize, broken: bool) -> bool {
        let Some(server) = self.servers.get_mut(index) else {
            return false;
        };
        server.set_checkpoint_broken(broken);
        true
    }

    /// Machines currently in a crash cooldown.
    #[must_use]
    pub fn crash_cooling_count(&self) -> usize {
        self.servers.iter().filter(|s| s.is_crash_cooling()).count()
    }

    /// Total crashes across the rack.
    #[must_use]
    pub fn total_crashes(&self) -> u64 {
        self.servers.iter().map(Server::crash_count).sum()
    }

    /// Total checkpoints lost to crashes or broken checkpoint paths.
    #[must_use]
    pub fn total_lost_checkpoints(&self) -> u64 {
        self.servers.iter().map(Server::lost_checkpoints).sum()
    }

    /// Immediately checkpoints and powers off every machine (the TPM's
    /// low-state-of-charge emergency path).
    pub fn shutdown_all(&mut self) {
        self.set_target_vms(0);
    }

    /// Hard power loss across the rack: every machine drops straight to
    /// off (no checkpoint window) — what a brown-out does to servers whose
    /// supply actually collapsed.
    pub fn force_shutdown_all(&mut self) {
        if self.target_vms != 0 {
            self.target_vms = 0;
            self.vm_control_actions += 1;
        }
        for server in &mut self.servers {
            server.force_off();
        }
    }

    /// Power the rack would draw right now at the given utilization.
    #[must_use]
    pub fn power_demand(&self, utilization: f64) -> Watts {
        self.servers
            .iter()
            .map(|s| s.power_draw(utilization, self.duty))
            .sum()
    }

    /// Advances all machines by `dt` at the given utilization; returns the
    /// rack's power draw during the step.
    pub fn step(&mut self, dt: SimDuration, utilization: f64) -> Watts {
        let duty = self.duty;
        self.servers
            .iter_mut()
            .map(|s| s.step(dt, utilization, duty))
            .sum()
    }

    /// Aggregate compute capacity right now: active VMs × duty ×
    /// per-profile speed, normalized so 1.0 ≡ one full-speed prototype VM.
    #[must_use]
    pub fn compute_capacity(&self) -> f64 {
        let speed = self.servers[0].profile().relative_speed;
        f64::from(self.active_vms()) * self.duty.throughput_scale() * speed
    }

    /// Total energy consumed by all machines.
    #[must_use]
    pub fn total_energy(&self) -> WattHours {
        self.servers.iter().map(Server::total_energy).sum()
    }

    /// Energy consumed while machines were productive.
    #[must_use]
    pub fn effective_energy(&self) -> WattHours {
        self.servers.iter().map(Server::effective_energy).sum()
    }

    /// Sum of per-machine on/off cycles.
    #[must_use]
    pub fn on_off_cycles(&self) -> u64 {
        self.servers.iter().map(Server::on_off_cycles).sum()
    }

    /// VM-target control actions taken so far.
    #[must_use]
    pub fn vm_control_actions(&self) -> u64 {
        self.vm_control_actions
    }

    /// Duty-cycle control actions taken so far.
    #[must_use]
    pub fn duty_control_actions(&self) -> u64 {
        self.duty_control_actions
    }

    /// Mean availability across machines.
    #[must_use]
    pub fn availability(&self) -> f64 {
        self.servers.iter().map(Server::availability).sum::<f64>() / self.servers.len() as f64
    }

    /// `true` when at least one machine is serving.
    #[must_use]
    pub fn any_serving(&self) -> bool {
        self.servers.iter().any(Server::is_on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn settle(rack: &mut Rack, minutes: u64) {
        for _ in 0..minutes {
            rack.step(SimDuration::from_minutes(1), 1.0);
        }
    }

    #[test]
    fn prototype_has_8_slots() {
        let rack = Rack::prototype();
        assert_eq!(rack.total_vm_slots(), 8);
        assert_eq!(rack.active_vms(), 0);
        assert!(!rack.any_serving());
    }

    #[test]
    fn vm_target_maps_to_fewest_machines() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(5); // needs 3 machines
        settle(&mut rack, 15);
        let on = rack.servers().iter().filter(|s| s.is_on()).count();
        assert_eq!(on, 3);
        assert_eq!(rack.active_vms(), 5);
    }

    #[test]
    fn target_clamps_to_slots() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(100);
        assert_eq!(rack.target_vms(), 8);
    }

    #[test]
    fn scale_down_checkpoints_and_counts_cycles() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(8);
        settle(&mut rack, 15);
        rack.set_target_vms(4);
        settle(&mut rack, 10);
        assert_eq!(rack.active_vms(), 4);
        assert_eq!(rack.on_off_cycles(), 2, "two machines cycled off");
        assert_eq!(rack.vm_control_actions(), 2);
    }

    #[test]
    fn duty_changes_count_once_per_change() {
        let mut rack = Rack::prototype();
        rack.set_duty(DutyCycle::new(0.5));
        rack.set_duty(DutyCycle::new(0.5));
        rack.set_duty(DutyCycle::FULL);
        assert_eq!(rack.duty_control_actions(), 2);
    }

    #[test]
    fn power_demand_scales_with_vms_and_duty() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(8);
        settle(&mut rack, 15);
        let full = rack.power_demand(1.0);
        assert!(
            (full.value() - 1800.0).abs() < 1e-9,
            "4 × 450 W at full tilt"
        );
        rack.set_duty(DutyCycle::new(0.5));
        let halved = rack.power_demand(1.0);
        assert!(
            (halved.value() - 1460.0).abs() < 1e-9,
            "4 × 365 W at 50 % duty"
        );
    }

    #[test]
    fn compute_capacity_tracks_vms_and_duty() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(8);
        settle(&mut rack, 15);
        assert_eq!(rack.compute_capacity(), 8.0);
        rack.set_duty(DutyCycle::new(0.5));
        assert_eq!(rack.compute_capacity(), 4.0);
        rack.set_target_vms(4);
        settle(&mut rack, 10);
        assert_eq!(rack.compute_capacity(), 2.0);
    }

    #[test]
    fn shutdown_all_turns_everything_off() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(8);
        settle(&mut rack, 15);
        rack.shutdown_all();
        settle(&mut rack, 10);
        assert!(!rack.any_serving());
        assert_eq!(rack.power_demand(1.0), Watts::ZERO);
        assert_eq!(rack.on_off_cycles(), 4);
    }

    #[test]
    fn crash_routes_vms_to_a_spare_machine() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(4); // machines 0 and 1 carry the load
        settle(&mut rack, 15);
        assert!(rack.crash_server(0));
        assert_eq!(rack.crash_cooling_count(), 1);
        assert_eq!(rack.total_crashes(), 1);
        // Machine 2 boots as the substitute; after its boot the rack is
        // back to 4 active VMs despite the crash.
        settle(&mut rack, 15);
        assert_eq!(rack.active_vms(), 4);
        assert!(rack.servers()[2].is_on());
        assert!(rack.total_lost_checkpoints() >= 1);
    }

    #[test]
    fn crash_with_no_spares_degrades_capacity() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(8); // all four machines needed
        settle(&mut rack, 15);
        rack.crash_server(3);
        settle(&mut rack, 5);
        // No spare exists: capacity drops until the cooldown expires.
        assert_eq!(rack.active_vms(), 6);
        // After the 2-minute cooldown plus reboot, capacity returns.
        rack.set_target_vms(8);
        settle(&mut rack, 20);
        rack.set_target_vms(8);
        settle(&mut rack, 15);
        assert_eq!(rack.active_vms(), 8);
    }

    #[test]
    fn crash_of_unknown_server_is_rejected() {
        let mut rack = Rack::prototype();
        assert!(!rack.crash_server(99));
        assert!(!rack.set_checkpoint_broken(99, true));
    }

    #[test]
    fn recovered_machine_does_not_evict_substitute() {
        let mut rack = Rack::prototype();
        rack.set_target_vms(2);
        settle(&mut rack, 15);
        rack.crash_server(0);
        settle(&mut rack, 15); // machine 1 took over
        assert!(rack.servers()[1].is_on());
        // Machine 0's cooldown is long over; re-asserting the target must
        // keep the live substitute rather than flap back to machine 0.
        rack.set_target_vms(2);
        settle(&mut rack, 2);
        assert!(rack.servers()[1].is_on());
        assert!(rack.servers()[0].is_off());
    }

    #[test]
    #[should_panic(expected = "rack needs at least one server")]
    fn rejects_empty_rack() {
        let _ = Rack::new(ServerProfile::xeon_proliant(), 0);
    }
}
