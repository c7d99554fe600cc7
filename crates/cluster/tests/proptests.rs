//! Property tests for the cluster model.

use proptest::prelude::*;

use ins_cluster::dvfs::DutyCycle;
use ins_cluster::profiles::ServerProfile;
use ins_cluster::rack::Rack;
use ins_cluster::server::{PowerState, Server, BASE_CRASH_COOLDOWN, MAX_CRASH_BACKOFF_DOUBLINGS};
use ins_sim::time::SimDuration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Power draw is always within [0, peak × machines] and energy
    /// accumulates monotonically under arbitrary control sequences.
    #[test]
    fn rack_power_and_energy_bounded(
        ops in proptest::collection::vec((0u8..3, 0u32..9, 0.0f64..=1.0), 1..60)
    ) {
        let mut rack = Rack::prototype();
        let peak_total = 4.0 * 450.0;
        let mut last_energy = 0.0;
        for (kind, vms, frac) in ops {
            match kind {
                0 => rack.set_target_vms(vms),
                1 => rack.set_duty(DutyCycle::new(frac)),
                _ => {
                    let draw = rack.step(SimDuration::from_minutes(1), frac);
                    prop_assert!(draw.value() >= 0.0);
                    prop_assert!(draw.value() <= peak_total + 1e-9);
                }
            }
            let e = rack.total_energy().value();
            prop_assert!(e >= last_energy - 1e-9, "energy decreased");
            last_energy = e;
            prop_assert!(rack.effective_energy() <= rack.total_energy());
            prop_assert!(rack.active_vms() <= rack.total_vm_slots());
        }
    }

    /// Availability is a fraction and on/off cycles only grow.
    #[test]
    fn server_counters_monotone(
        ops in proptest::collection::vec((0u8..3, 1u64..20), 1..80)
    ) {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        let mut last_cycles = 0;
        for (kind, minutes) in ops {
            match kind {
                0 => s.power_on(),
                1 => s.power_off(),
                _ => {
                    s.step(SimDuration::from_minutes(minutes), 0.5, DutyCycle::FULL);
                }
            }
            prop_assert!(s.on_off_cycles() >= last_cycles);
            last_cycles = s.on_off_cycles();
            prop_assert!((0.0..=1.0).contains(&s.availability()));
        }
    }

    /// force_off from any reachable state lands in Off exactly.
    #[test]
    fn force_off_always_lands_off(
        ops in proptest::collection::vec((0u8..3, 1u64..12), 0..30)
    ) {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        for (kind, minutes) in ops {
            match kind {
                0 => s.power_on(),
                1 => s.power_off(),
                _ => {
                    s.step(SimDuration::from_minutes(minutes), 1.0, DutyCycle::FULL);
                }
            }
        }
        s.force_off();
        prop_assert!(s.is_off());
        prop_assert_eq!(s.power_draw(1.0, DutyCycle::FULL).value(), 0.0);
    }

    /// VM targets always map to the minimal machine count.
    #[test]
    fn vm_placement_is_minimal(vms in 0u32..9) {
        let mut rack = Rack::prototype();
        rack.set_target_vms(vms);
        for _ in 0..15 {
            rack.step(SimDuration::from_minutes(1), 1.0);
        }
        let on = rack.servers().iter().filter(|s| s.is_on()).count() as u32;
        prop_assert_eq!(on, vms.div_ceil(2), "vms {} → machines {}", vms, on);
        prop_assert_eq!(rack.active_vms(), vms.min(8));
    }

    /// Re-targeting and crashes map the VM target onto exactly the
    /// machines the two-pass grant-list reference picks, from any
    /// reachable mix of live, off, shutting-down and cooling machines.
    #[test]
    fn power_mapping_matches_the_two_pass_reference(
        ops in proptest::collection::vec((0u8..3, 0u32..9, 0usize..4, 1u64..20), 1..60)
    ) {
        let mut rack = Rack::prototype();
        for (kind, vms, machine, minutes) in ops {
            match kind {
                0 => {
                    let expected = two_pass_mapping(rack.servers().to_vec(), vms.min(8));
                    rack.set_target_vms(vms);
                    prop_assert_eq!(rack.servers(), &expected[..]);
                }
                1 => {
                    let mut crashed = rack.servers().to_vec();
                    crashed[machine].crash();
                    let expected = two_pass_mapping(crashed, rack.target_vms());
                    rack.crash_server(machine);
                    prop_assert_eq!(rack.servers(), &expected[..]);
                }
                _ => {
                    rack.step(SimDuration::from_minutes(minutes), 1.0);
                }
            }
        }
    }

    /// The crash-restart cooldown doubles per consecutive crash and is
    /// exactly `BASE << MAX_CRASH_BACKOFF_DOUBLINGS` from the cap onward,
    /// for any crash-loop length.
    #[test]
    fn crash_backoff_doubles_then_caps(crashes in 1u64..24) {
        let mut s = Server::new(ServerProfile::xeon_proliant());
        for n in 1..=crashes {
            s.power_on();
            prop_assert!(!s.is_off(), "power-on must leave Off before crash {n}");
            s.crash();
            let remaining = match s.state() {
                PowerState::CrashedCoolingDown { remaining } => remaining,
                other => panic!("crash must enter cooldown, got {other:?}"),
            };
            let doublings = (n - 1).min(u64::from(MAX_CRASH_BACKOFF_DOUBLINGS));
            prop_assert_eq!(
                remaining.as_secs(),
                BASE_CRASH_COOLDOWN.as_secs() << doublings,
                "crash {} cooldown", n
            );
            // The cap bounds every cooldown, no matter the loop length.
            prop_assert!(
                remaining.as_secs()
                    <= BASE_CRASH_COOLDOWN.as_secs() << MAX_CRASH_BACKOFF_DOUBLINGS
            );
            // Drain the cooldown so the next iteration can boot again.
            s.step(remaining, 0.0, DutyCycle::FULL);
            s.step(SimDuration::from_secs(1), 0.0, DutyCycle::FULL);
            prop_assert!(s.is_off(), "cooldown must expire to Off");
        }
    }

    /// Duty cycle arithmetic stays in range and is reversible at the ends.
    #[test]
    fn duty_cycle_bounded(start in 0.0f64..=1.0, steps in 0usize..40) {
        let mut d = DutyCycle::new(start);
        for i in 0..steps {
            d = if i % 2 == 0 { d.lowered() } else { d.raised() };
            prop_assert!((0.0..=1.0).contains(&d.fraction()));
        }
        let mut up = d;
        for _ in 0..10 {
            up = up.raised();
        }
        prop_assert_eq!(up, DutyCycle::FULL);
    }
}

/// The rack's VM-target mapping written as two passes over a grant list
/// (two VM slots per machine): keep the first live machines (serving or
/// booting), then bring up healthy spares, lowest index first, until the
/// target's machines are granted; power the rest off.
fn two_pass_mapping(mut servers: Vec<Server>, target_vms: u32) -> Vec<Server> {
    let needed = target_vms.div_ceil(2) as usize;
    let mut grant = vec![false; servers.len()];
    let mut granted = 0;
    for (i, s) in servers.iter().enumerate() {
        if granted < needed && matches!(s.state(), PowerState::On | PowerState::Booting { .. }) {
            grant[i] = true;
            granted += 1;
        }
    }
    for (i, s) in servers.iter().enumerate() {
        if granted < needed && !grant[i] && !s.is_crash_cooling() {
            grant[i] = true;
            granted += 1;
        }
    }
    for (s, granted) in servers.iter_mut().zip(grant) {
        if granted {
            s.power_on();
        } else {
            s.power_off();
        }
    }
    servers
}
