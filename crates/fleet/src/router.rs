//! Fault-tolerant request routing across the fleet.
//!
//! Each routing tick the router ranks sites by energy surplus (state of
//! charge blended with instantaneous solar — steer the load to where
//! the renewables are) and places that tick's discrete stream and batch
//! requests. Robustness is by construction:
//!
//! * **Deadline timeouts** — a request sent to a dark, partitioned or
//!   slow site misses its deadline and resolves as a failed *attempt*,
//!   never a hang.
//! * **Sequential retry** — a failed attempt moves to the next-ranked
//!   site, paced per site by the shared capped-exponential
//!   [`Backoff`](ins_sim::backoff::Backoff) retry gate.
//! * **Hedged requests** — when the chosen site's predicted latency
//!   exceeds the hedge threshold, the same request also fires at the
//!   next-best site; the first on-time response wins and the loser's
//!   work is charged to the misrouted-energy meter.
//! * **Circuit breakers** — per-site admission (see
//!   [`crate::breaker`]); an Open site is skipped without a WAN round
//!   trip.
//! * **Graceful degradation** — streams route first and may be served
//!   partially (reduced rate) when capacity is scarce; batch takes only
//!   leftover capacity and is *shed* (an explicit, counted outcome)
//!   when it does not fit. Every offered request resolves to exactly
//!   one of served / shed / failed — nothing is silently dropped.
//!
//! The router consumes no randomness: rankings, hedges and outcomes are
//! pure functions of the sites' observable state, so fleet trajectories
//! replay byte-identically from the fault seed.

use ins_sim::ledger::ClassCounters;
use ins_sim::time::{SimDuration, SimTime};

use crate::site::Site;

/// Routing thresholds and per-tick demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterPolicy {
    /// Response deadline; a slower response is a timeout.
    pub deadline_ms: f64,
    /// Predicted latency above which a hedge fires at the next-best site.
    pub hedge_after_ms: f64,
    /// Maximum routing attempts (primary + sequential retries) per request.
    pub max_attempts: u32,
    /// Stream requests offered per routing tick.
    pub stream_requests_per_tick: u32,
    /// Size of one stream request, GB.
    pub stream_request_gb: f64,
    /// Batch requests offered per routing tick.
    pub batch_requests_per_tick: u32,
    /// Size of one batch request, GB.
    pub batch_request_gb: f64,
}

impl RouterPolicy {
    /// The default fleet demand: a 500 ms deadline with hedging past
    /// 100 ms, up to 3 attempts, 6 × 0.012 GB stream requests and
    /// 1 × 0.06 GB batch request per minute tick — about half of what a
    /// healthy 3-site fleet processes at its daytime duty point, leaving
    /// headroom for the load to fail over when a site goes dark.
    #[must_use]
    pub fn prototype() -> Self {
        Self {
            deadline_ms: 500.0,
            hedge_after_ms: 100.0,
            max_attempts: 3,
            stream_requests_per_tick: 6,
            stream_request_gb: 0.012,
            batch_requests_per_tick: 1,
            batch_request_gb: 0.06,
        }
    }
}

/// How a single routed request resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// Served in full.
    Served,
    /// Served partially (capacity-limited reduced rate).
    Degraded,
    /// All attempts failed (timeouts / dark sites).
    Failed,
    /// No routable site had capacity; nothing was attempted.
    NoCapacity,
}

/// One routing tick's mutable view: the clock, the surplus-ranked
/// candidate order and the router's per-site capacity ledger.
struct TickLedger<'a> {
    now: SimTime,
    tick: SimDuration,
    sites: &'a mut [Site],
    order: &'a [usize],
    remaining: &'a mut [f64],
}

/// The fleet router: policy plus lifetime counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Router {
    policy: RouterPolicy,
    /// Stream-class request accounting.
    pub stream: ClassCounters,
    /// Batch-class request accounting.
    pub batch: ClassCounters,
    /// Sequential re-attempts after a failed attempt.
    pub retries: u64,
    /// Hedged (duplicated) sends.
    pub hedges: u64,
    /// Hedges whose loser also completed on time (duplicate work).
    pub duplicate_serves: u64,
    /// Energy burned on work that produced no accepted response
    /// (late responses, hedge losers), watt-hours.
    pub misrouted_wh: f64,
    /// Per-tick working lists, refilled on every tick: each site's
    /// surplus score, the ranked site order and the capacity ledger.
    /// Their contents are a function of the sites' state, so a cloned
    /// router forks identically.
    scores: Vec<f64>,
    order: Vec<usize>,
    remaining: Vec<f64>,
}

impl Router {
    /// A router with zeroed counters.
    #[must_use]
    pub fn new(policy: RouterPolicy) -> Self {
        Self {
            policy,
            stream: ClassCounters::default(),
            batch: ClassCounters::default(),
            retries: 0,
            hedges: 0,
            duplicate_serves: 0,
            misrouted_wh: 0.0,
            scores: Vec::new(),
            order: Vec::new(),
            remaining: Vec::new(),
        }
    }

    /// The installed policy.
    #[must_use]
    pub fn policy(&self) -> RouterPolicy {
        self.policy
    }

    /// Routes one tick's worth of requests. `flap` marks an active
    /// [`ins_sim::fault::FaultKind::RoutingFlap`] window: the
    /// surplus-ranked order is rotated by `tick_index`, modeling a churning
    /// health signal, while staying fully deterministic.
    pub fn route_tick(
        &mut self,
        now: SimTime,
        tick: SimDuration,
        sites: &mut [Site],
        flap: bool,
        tick_index: u64,
    ) {
        if sites.is_empty() {
            return;
        }
        // Availability accounting happens here so that per-site
        // availability reflects exactly what the router could see.
        for site in sites.iter_mut() {
            let routable = site.reachable(now) && site.serving(now);
            site.record_tick(routable);
        }
        let scores = &mut self.scores;
        scores.clear();
        scores.extend(sites.iter().map(|s| s.surplus_score(now)));
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        order.extend(0..sites.len());
        order.sort_by(|&a, &b| ins_sim::units::total_order(scores[b], scores[a]).then(a.cmp(&b)));
        if flap {
            let shift = tick_index as usize % order.len();
            order.rotate_left(shift);
        }
        // The router's capacity ledger. For sites it can observe, the
        // real tick capacity; for dark/partitioned sites, the stale
        // nameplate figure — the router does not get remote omniscience,
        // it has to send, time out and let the breaker learn.
        let mut remaining = std::mem::take(&mut self.remaining);
        remaining.clear();
        remaining.extend(sites.iter().map(|s| {
            if s.reachable(now) && s.serving(now) {
                s.capacity_gb(now, tick)
            } else {
                s.nominal_capacity_gb(tick)
            }
        }));
        let mut led = TickLedger {
            now,
            tick,
            sites,
            order: &order,
            remaining: &mut remaining,
        };

        // Streams first: they hold priority over the shared capacity.
        for _ in 0..self.policy.stream_requests_per_tick {
            let size = self.policy.stream_request_gb;
            self.stream.offered += 1;
            self.stream.offered_gb += size;
            // Prefer a site that can take the whole request; only when
            // no site fits it does the stream degrade to partial service
            // (reduced rate) at whatever capacity is left.
            let mut outcome = self.place(&mut led, size, true);
            if outcome.0 == Placement::NoCapacity {
                outcome = self.place(&mut led, size, false);
            }
            let (placement, served_gb) = outcome;
            match placement {
                Placement::Served => {
                    self.stream.served += 1;
                    self.stream.served_gb += served_gb;
                }
                Placement::Degraded => {
                    self.stream.served_degraded += 1;
                    self.stream.served_gb += served_gb;
                }
                Placement::Failed | Placement::NoCapacity => self.stream.failed += 1,
            }
        }
        // Batch rides leftovers and is shed — explicitly — when the
        // fleet cannot take it whole.
        for _ in 0..self.policy.batch_requests_per_tick {
            let size = self.policy.batch_request_gb;
            self.batch.offered += 1;
            self.batch.offered_gb += size;
            let (placement, served_gb) = self.place(&mut led, size, true);
            match placement {
                Placement::Served => {
                    self.batch.served += 1;
                    self.batch.served_gb += served_gb;
                }
                Placement::Degraded => {
                    // Unreachable with require_full, kept for totality.
                    self.batch.served_degraded += 1;
                    self.batch.served_gb += served_gb;
                }
                Placement::NoCapacity => self.batch.shed += 1,
                Placement::Failed => self.batch.failed += 1,
            }
        }
        self.order = order;
        self.remaining = remaining;
    }

    /// Places one request of `size` GB. With `require_full` a candidate
    /// must fit the whole request (batch semantics); otherwise partial
    /// capacity yields a degraded serve (stream semantics). Returns the
    /// placement and the GB actually served.
    fn place(&mut self, led: &mut TickLedger, size: f64, require_full: bool) -> (Placement, f64) {
        let now = led.now;
        let deadline = self.policy.deadline_ms;
        let mut attempts = 0u32;
        let mut attempted_any = false;
        let mut pos = 0usize;
        while pos < led.order.len() && attempts < self.policy.max_attempts {
            let p = led.order[pos];
            pos += 1;
            // Router-side bookkeeping: skip sites with no admitted
            // budget or no capacity left this tick, without charging the
            // breaker — nothing was sent.
            let fits = if require_full {
                led.remaining[p] >= size
            } else {
                led.remaining[p] > 0.0
            };
            if !fits
                || !led.sites[p].retry_gate().ready(now)
                || !led.sites[p].breaker_mut().allows(now)
            {
                continue;
            }
            attempts += 1;
            if attempted_any {
                self.retries += 1;
            }
            attempted_any = true;
            let up = led.sites[p].reachable(now) && led.sites[p].serving(now);
            if !up {
                // The request is on the wire; nobody answers. Timeout.
                led.sites[p].breaker_mut().record_failure(now);
                let _ = led.sites[p].retry_gate_mut().record_failure(now);
                continue;
            }
            let take = led.remaining[p].min(size);
            let energy_p = led.sites[p].energy_per_gb_wh(now, led.tick);
            led.remaining[p] -= take;
            let lat_p = led.sites[p].latency_ms(now);
            let p_on_time = lat_p <= deadline;
            // Hedge: predicted-slow primary fires a duplicate at the
            // next admitted, live candidate with capacity.
            let hedge = if lat_p > self.policy.hedge_after_ms {
                find_hedge(led, pos, size, require_full)
            } else {
                None
            };
            let Some(h) = hedge else {
                if p_on_time {
                    led.sites[p].breaker_mut().record_success(now);
                    led.sites[p].retry_gate_mut().record_success();
                    let full = take >= size - 1e-12;
                    let placement = if full {
                        Placement::Served
                    } else {
                        Placement::Degraded
                    };
                    return (placement, take);
                }
                // Processed, but the response came back late: the energy
                // is spent and the attempt failed.
                self.misrouted_wh += take * energy_p;
                led.sites[p].breaker_mut().record_failure(now);
                let _ = led.sites[p].retry_gate_mut().record_failure(now);
                continue;
            };
            self.hedges += 1;
            let take_h = led.remaining[h].min(size);
            let energy_h = led.sites[h].energy_per_gb_wh(now, led.tick);
            led.remaining[h] -= take_h;
            let h_on_time = led.sites[h].latency_ms(now) <= deadline;
            if p_on_time {
                // Primary wins; the hedge was duplicate work either way.
                self.misrouted_wh += take_h * energy_h;
                if h_on_time {
                    self.duplicate_serves += 1;
                    led.sites[h].breaker_mut().record_success(now);
                } else {
                    led.sites[h].breaker_mut().record_failure(now);
                }
                led.sites[p].breaker_mut().record_success(now);
                led.sites[p].retry_gate_mut().record_success();
                let full = take >= size - 1e-12;
                return (
                    if full {
                        Placement::Served
                    } else {
                        Placement::Degraded
                    },
                    take,
                );
            }
            if h_on_time {
                // The hedge saves the request; the primary's work is lost.
                self.misrouted_wh += take * energy_p;
                led.sites[p].breaker_mut().record_failure(now);
                let _ = led.sites[p].retry_gate_mut().record_failure(now);
                led.sites[h].breaker_mut().record_success(now);
                led.sites[h].retry_gate_mut().record_success();
                let full = take_h >= size - 1e-12;
                return (
                    if full {
                        Placement::Served
                    } else {
                        Placement::Degraded
                    },
                    take_h,
                );
            }
            // Both late: all that energy bought nothing.
            self.misrouted_wh += take * energy_p + take_h * energy_h;
            led.sites[p].breaker_mut().record_failure(now);
            let _ = led.sites[p].retry_gate_mut().record_failure(now);
            led.sites[h].breaker_mut().record_failure(now);
            let _ = led.sites[h].retry_gate_mut().record_failure(now);
        }
        if attempted_any {
            (Placement::Failed, 0.0)
        } else {
            (Placement::NoCapacity, 0.0)
        }
    }
}

/// The next admitted, reachable, serving candidate with capacity —
/// the hedge target. Scans the ranked order from `pos` on.
fn find_hedge(led: &mut TickLedger, pos: usize, size: f64, require_full: bool) -> Option<usize> {
    let now = led.now;
    for i in pos..led.order.len() {
        let h = led.order[i];
        let fits = if require_full {
            led.remaining[h] >= size
        } else {
            led.remaining[h] > 0.0
        };
        if fits
            && led.sites[h].retry_gate().ready(now)
            && led.sites[h].breaker_mut().allows(now)
            && led.sites[h].reachable(now)
            && led.sites[h].serving(now)
        {
            return Some(h);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerPolicy;
    use crate::site::{Site, SiteId};
    use ins_core::controller::InsureController;
    use ins_core::system::{InSituSystem, WorkloadModel};
    use ins_solar::trace::high_generation_day;

    fn mk_site(id: usize, latency_ms: f64) -> Site {
        let solar = high_generation_day(100 + id as u64);
        let system = InSituSystem::builder(solar.clone(), Box::new(InsureController::default()))
            .unit_count(3)
            .workload(WorkloadModel::video())
            .time_step(SimDuration::from_secs(30))
            .build();
        Site::new(
            SiteId(id),
            system,
            solar,
            BreakerPolicy::standard(),
            latency_ms,
        )
    }

    fn warm_sites(n: usize) -> Vec<Site> {
        let mut sites: Vec<Site> = (0..n).map(|i| mk_site(i, 40.0 + 15.0 * i as f64)).collect();
        let morning = SimTime::from_secs(9 * 3600);
        for s in &mut sites {
            s.advance_to(morning);
        }
        sites
    }

    #[test]
    fn healthy_fleet_serves_everything_in_full() {
        let mut sites = warm_sites(3);
        let now = SimTime::from_secs(9 * 3600);
        let mut router = Router::new(RouterPolicy::prototype());
        for i in 0..10 {
            router.route_tick(now, SimDuration::from_minutes(1), &mut sites, false, i);
        }
        assert_eq!(router.stream.offered, 60);
        assert_eq!(router.stream.served, 60);
        assert_eq!(router.stream.failed, 0);
        assert_eq!(router.batch.shed, 0);
        assert_eq!(
            router.stream.resolved(),
            router.stream.offered,
            "no silent drops"
        );
        assert_eq!(router.batch.resolved(), router.batch.offered);
    }

    #[test]
    fn blacked_out_fleet_fails_requests_until_breakers_open() {
        let mut sites = warm_sites(2);
        let now = SimTime::from_secs(9 * 3600);
        for s in &mut sites {
            s.begin_blackout(now, SimDuration::from_hours(2));
        }
        let mut router = Router::new(RouterPolicy::prototype());
        let mut t = now;
        for i in 0..15 {
            router.route_tick(t, SimDuration::from_minutes(1), &mut sites, false, i);
            t += SimDuration::from_minutes(1);
        }
        // Dark sites time requests out: everything resolves (nothing
        // silently dropped), nothing is served, and the sustained
        // timeouts trip both breakers.
        assert_eq!(router.stream.resolved(), router.stream.offered);
        assert_eq!(router.batch.resolved(), router.batch.offered);
        assert_eq!(router.stream.served + router.stream.served_degraded, 0);
        assert_eq!(router.batch.served, 0);
        let trips: u64 = sites.iter().map(|s| s.breaker().trips()).sum();
        assert!(trips >= 2, "both dark sites must trip their breakers");
    }

    #[test]
    fn slow_primary_is_saved_by_a_hedge() {
        let mut sites = warm_sites(2);
        let now = SimTime::from_secs(9 * 3600);
        // Site 0 ranks first on surplus? Force determinism: slow site 0
        // way past the deadline; the hedge to site 1 must save requests.
        sites[0].begin_slowdown(now, 100.0, SimDuration::from_hours(1));
        let mut router = Router::new(RouterPolicy::prototype());
        router.route_tick(now, SimDuration::from_minutes(1), &mut sites, false, 0);
        assert_eq!(router.stream.resolved(), router.stream.offered);
        assert!(
            router.hedges > 0 || router.stream.served == router.stream.offered,
            "either hedges fired or ranking already avoided the slow site"
        );
        assert_eq!(
            router.stream.served + router.stream.served_degraded,
            router.stream.offered,
            "hedging keeps streams served despite a 100x slow site"
        );
    }

    #[test]
    fn partitioned_site_drives_retries_and_breaker_failures() {
        let mut sites = warm_sites(2);
        let now = SimTime::from_secs(9 * 3600);
        for s in &mut sites {
            s.begin_partition(now, SimDuration::from_hours(1));
        }
        let mut router = Router::new(RouterPolicy::prototype());
        let mut t = now;
        for i in 0..30 {
            router.route_tick(t, SimDuration::from_minutes(1), &mut sites, false, i);
            t += SimDuration::from_minutes(1);
        }
        assert_eq!(router.stream.served, 0);
        assert_eq!(router.stream.failed, router.stream.offered);
        assert!(router.retries > 0, "sequential retries must fire");
        let trips: u64 = sites.iter().map(|s| s.breaker().trips()).sum();
        assert!(trips > 0, "persistent timeouts must trip breakers");
        assert_eq!(router.stream.resolved(), router.stream.offered);
    }
}
