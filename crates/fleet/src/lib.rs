//! # `ins-fleet` — fleet federation for InSURE
//!
//! The paper's scale-out analysis (Figs. 23/24) stops at a handful of
//! servers in one site. This crate takes the next step the roadmap
//! calls for: a *fleet* of geo-distributed in-situ sites serving one
//! global request population, where robustness stops being per-component
//! fault injection and becomes a distributed-systems problem.
//!
//! * [`site`] — one federated [`site::Site`]: a full
//!   `ins_core::system::InSituSystem` plus its WAN-facing state
//!   (blackout / partition / slowdown windows, breaker, retry gate,
//!   availability accounting),
//! * [`breaker`] — the per-site Closed/Open/Half-open
//!   [`breaker::CircuitBreaker`], driven purely by observable error and
//!   brownout signals,
//! * [`router`] — the [`router::Router`]: energy-surplus request
//!   steering with deadline timeouts, hedged retries, capped-exponential
//!   per-site backoff and graceful degradation (shed batch first, serve
//!   streams at reduced rate, never silently drop),
//! * [`fleet`] — the [`fleet::Fleet`] tying N sites, the router and a
//!   seeded fleet-level fault process together on one clock,
//! * [`metrics`] — [`metrics::FleetMetrics`]: global goodput, per-site
//!   availability, retry/hedge/trip counters, misrouted energy.
//!
//! Determinism: site `i`'s entire world derives from
//! `SimRng::seed(fleet_seed).fork_seed("site-{i}")`, fleet faults draw
//! on the separate `"fault-arrivals-fleet"` fork, and the router and
//! breakers consume no randomness at all — so a fleet trajectory is a
//! pure function of its [`fleet::FleetConfig`] and replays
//! byte-identically at any worker count.
//!
//! # Examples
//!
//! ```
//! use ins_fleet::fleet::{Fleet, FleetConfig};
//! use ins_sim::time::SimDuration;
//!
//! let mut config = FleetConfig::new(11, 2);
//! config.horizon = SimDuration::from_hours(2);
//! let mut fleet = Fleet::new(config);
//! fleet.run_to_horizon();
//! let m = fleet.metrics();
//! assert!(m.all_requests_resolved(), "nothing is silently dropped");
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod breaker;
pub mod fleet;
pub mod metrics;
pub mod router;
pub mod site;

pub use breaker::{BreakerPolicy, BreakerState, CircuitBreaker};
pub use fleet::{Fleet, FleetConfig};
pub use metrics::FleetMetrics;
pub use router::{Router, RouterPolicy};
pub use site::{Site, SiteId};
