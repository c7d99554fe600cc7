//! Byte-stable telemetry lines.
//!
//! One line per control period, `key=value` fields in a fixed order,
//! floats always formatted to three decimals. The line is the unit of
//! the kill-resume determinism contract: a resumed run must reproduce
//! the uninterrupted run's lines *byte-identically* from the restore
//! point onward, so nothing wall-clock, locale- or pointer-dependent
//! may appear here.

use core::fmt::Write as _;

use ins_sim::ledger::ClassCounters;
use ins_sim::time::SimTime;

/// Everything one telemetry line carries.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Control-period index (0-based; monotonic over the service's
    /// life, surviving kill/resume).
    pub tick: u64,
    /// Simulated instant at the period's end.
    pub now: SimTime,
    /// Engine registry key (e.g. `insure`).
    pub engine: String,
    /// Decision provenance label (see
    /// [`crate::supervisor::DecisionSource::label`]); `init` before the
    /// first decision.
    pub source: &'static str,
    /// Classified state label; `unknown` before the first decision.
    pub state: &'static str,
    /// Active VMs at period end.
    pub active_vms: u32,
    /// Duty-cycle fraction at period end.
    pub duty: f64,
    /// Harvested solar power at period end, W.
    pub solar_w: f64,
    /// Mean unit state of charge at period end.
    pub mean_soc: f64,
    /// Work waiting in the plant, GB.
    pub pending_gb: f64,
    /// Work processed so far, GB.
    pub processed_gb: f64,
    /// Stream-class ledger.
    pub stream: ClassCounters,
    /// Batch-class ledger.
    pub batch: ClassCounters,
    /// Requests still queued at the intake.
    pub queued: u64,
    /// Brownouts so far.
    pub brownouts: u64,
    /// Durable checkpoints written so far.
    pub checkpoints: u64,
    /// Control periods served by safe mode so far.
    pub safe_periods: u64,
    /// Engine restarts so far.
    pub restarts: u64,
}

impl TelemetrySnapshot {
    /// Formats the line. Field order and float precision are frozen —
    /// CI diffs these bytes across kill/resume runs.
    #[must_use]
    pub fn line(&self) -> String {
        let mut out = String::with_capacity(LINE_CAPACITY);
        out.push_str("tick=");
        push_uint(&mut out, self.tick);
        out.push_str(" t=");
        push_uint(&mut out, self.now.as_secs());
        for (key, text) in [
            (" engine=", self.engine.as_str()),
            (" source=", self.source),
            (" state=", self.state),
        ] {
            out.push_str(key);
            out.push_str(text);
        }
        out.push_str(" vms=");
        push_uint(&mut out, u64::from(self.active_vms));
        for (key, x) in [
            (" duty=", self.duty),
            (" solar_w=", self.solar_w),
            (" soc=", self.mean_soc),
            (" pending_gb=", self.pending_gb),
            (" processed_gb=", self.processed_gb),
        ] {
            out.push_str(key);
            push_fixed3(&mut out, x);
        }
        let (stream, batch) = (&self.stream, &self.batch);
        for (key, n) in [
            (" offered=", stream.offered + batch.offered),
            (" served=", stream.served + batch.served),
            (" degraded=", stream.served_degraded + batch.served_degraded),
            (" shed=", stream.shed + batch.shed),
            (" failed=", stream.failed + batch.failed),
            (" queued=", self.queued),
            (" brownouts=", self.brownouts),
            (" ckpt=", self.checkpoints),
            (" safe_periods=", self.safe_periods),
            (" restarts=", self.restarts),
        ] {
            out.push_str(key);
            push_uint(&mut out, n);
        }
        out
    }
}

/// Room for a typical line without regrowing.
const LINE_CAPACITY: usize = 320;

const DIGITS: [char; 10] = ['0', '1', '2', '3', '4', '5', '6', '7', '8', '9'];

/// Appends `n` in decimal, as `{}` prints it.
fn push_uint(out: &mut String, mut n: u64) {
    // Least significant first; `u64::MAX` has 20 digits.
    let mut reversed = ['0'; 20];
    let mut len = 0;
    for slot in &mut reversed {
        *slot = DIGITS[(n % 10) as usize];
        len += 1;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(reversed[..len].iter().rev());
}

/// Appends `x` with three decimals, as `{:.3}` prints it.
///
/// std rounds the exact binary value of `x`, ties to even. The fast
/// path rounds `m = |x| · 1000` instead, which is within half an ulp
/// (at most `m · 1.2e-16`) of `|x| · 1000` exactly. When the fractional part of
/// `m` is further than `m · 1e-15` from one half, both lie on the same
/// side of the tie and round to the same integer. Near-ties, NaN, the
/// infinities and magnitudes of `1e12` and up go to std.
fn push_fixed3(out: &mut String, x: f64) {
    let m = x.abs() * 1000.0;
    let frac = m - m.floor();
    if m < 1e15 && (frac - 0.5).abs() > m * 1e-15 {
        // std prints the sign of `-0.0` and of negatives that round to
        // zero: `-0.000`.
        if x.is_sign_negative() {
            out.push('-');
        }
        let thousandths = m.round() as u64;
        push_uint(out, thousandths / 1000);
        out.push('.');
        let decimals = thousandths % 1000;
        for digit in [decimals / 100, decimals / 10 % 10, decimals % 10] {
            out.push(DIGITS[digit as usize]);
        }
    } else {
        let _ = write!(out, "{x:.3}");
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    /// The line as `format!` writes it: [`TelemetrySnapshot::line`] must
    /// produce these bytes for every snapshot.
    fn reference_line(s: &TelemetrySnapshot) -> String {
        let offered = s.stream.offered + s.batch.offered;
        let served = s.stream.served + s.batch.served;
        let degraded = s.stream.served_degraded + s.batch.served_degraded;
        let shed = s.stream.shed + s.batch.shed;
        let failed = s.stream.failed + s.batch.failed;
        format!(
            "tick={} t={} engine={} source={} state={} vms={} duty={:.3} \
             solar_w={:.3} soc={:.3} pending_gb={:.3} processed_gb={:.3} \
             offered={} served={} degraded={} shed={} failed={} queued={} \
             brownouts={} ckpt={} safe_periods={} restarts={}",
            s.tick,
            s.now.as_secs(),
            s.engine,
            s.source,
            s.state,
            s.active_vms,
            s.duty,
            s.solar_w,
            s.mean_soc,
            s.pending_gb,
            s.processed_gb,
            offered,
            served,
            degraded,
            shed,
            failed,
            s.queued,
            s.brownouts,
            s.checkpoints,
            s.safe_periods,
            s.restarts,
        )
    }

    /// An integer of class `kind`: zero, the maximum, or random bits at
    /// a random length.
    fn awkward_uint(kind: u64, bits: u64) -> u64 {
        match kind {
            0 => 0,
            1 => u64::MAX,
            2 => bits >> (bits % 64),
            _ => bits,
        }
    }

    /// A float of class `kind`, from the places where rounding to three
    /// decimals goes wrong or std prints something other than digits.
    fn awkward_float(kind: u64, bits: u64, negative: bool) -> f64 {
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let k = bits >> 24;
        let x = match kind {
            0 => return f64::from_bits(bits),
            1 => (k as f64 + 0.5) / 1000.0,
            2 => k as f64 / 1024.0,
            3 => (2 * (k >> 16) + 1) as f64 / 16.0,
            4 => 0.0,
            5 => unit * 1e-4,
            6 => 1e12 * (1.0 + unit * 1e8),
            7 => f64::NAN,
            8 => f64::INFINITY,
            _ => unit * 2000.0,
        };
        if negative {
            -x
        } else {
            x
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn line_matches_the_format_reference(
            ints in collection::vec((0u64..4, any::<u64>()), 18),
            floats in collection::vec((0u64..10, any::<u64>(), any::<bool>()), 5),
            names in (0usize..3, 0usize..3, 0usize..3),
        ) {
            let u: Vec<u64> = ints.iter().map(|&(kind, bits)| awkward_uint(kind, bits)).collect();
            let f: Vec<f64> = floats
                .iter()
                .map(|&(kind, bits, negative)| awkward_float(kind, bits, negative))
                .collect();
            let counters = |c: &[u64]| ClassCounters {
                offered: c[0],
                served: c[1],
                served_degraded: c[2],
                shed: c[3],
                failed: c[4],
                ..ClassCounters::default()
            };
            // The line sums the two ledgers: batch takes what stream
            // leaves, so no sum overflows.
            let rest: Vec<u64> = (0..5).map(|i| u[8 + i].min(u64::MAX - u[3 + i])).collect();
            let (stream, batch) = (counters(&u[3..8]), counters(&rest));
            let s = TelemetrySnapshot {
                tick: u[0],
                now: SimTime::from_secs(u[1]),
                engine: ["insure", "noopt", ""][names.0].to_string(),
                source: ["init", "primary", "safe-quarantined"][names.1],
                state: ["unknown", "surplus", "deficit"][names.2],
                active_vms: (u[2] & u64::from(u32::MAX)) as u32,
                duty: f[0],
                solar_w: f[1],
                mean_soc: f[2],
                pending_gb: f[3],
                processed_gb: f[4],
                stream,
                batch,
                queued: u[13],
                brownouts: u[14],
                checkpoints: u[15],
                safe_periods: u[16],
                restarts: u[17],
            };
            prop_assert_eq!(s.line(), reference_line(&s));
        }
    }

    #[test]
    fn floats_print_as_std_prints_them() {
        for (x, printed) in [
            (0.0625, "0.062"),
            (0.1875, "0.188"),
            (0.0005, "0.001"),
            (1.0005, "1.000"),
            (-0.0, "-0.000"),
            (-0.0001, "-0.000"),
            (f64::NAN, "NaN"),
            (f64::INFINITY, "inf"),
            (f64::NEG_INFINITY, "-inf"),
            (1e20, "100000000000000000000.000"),
        ] {
            let mut out = String::new();
            push_fixed3(&mut out, x);
            assert_eq!(out, printed, "{x:e}");
            assert_eq!(format!("{x:.3}"), printed, "std, {x:e}");
        }
    }

    fn snapshot() -> TelemetrySnapshot {
        TelemetrySnapshot {
            tick: 3,
            now: SimTime::from_secs(240),
            engine: "insure".to_string(),
            source: "primary",
            state: "surplus",
            active_vms: 4,
            duty: 1.0,
            solar_w: 1023.4567,
            mean_soc: 0.61234,
            pending_gb: 12.0,
            processed_gb: 3.5,
            stream: ClassCounters {
                offered: 5,
                served: 4,
                ..ClassCounters::default()
            },
            batch: ClassCounters {
                offered: 1,
                shed: 1,
                ..ClassCounters::default()
            },
            queued: 1,
            brownouts: 0,
            checkpoints: 2,
            safe_periods: 0,
            restarts: 0,
        }
    }

    #[test]
    fn line_format_is_frozen() {
        assert_eq!(
            snapshot().line(),
            "tick=3 t=240 engine=insure source=primary state=surplus vms=4 \
             duty=1.000 solar_w=1023.457 soc=0.612 pending_gb=12.000 \
             processed_gb=3.500 offered=6 served=4 degraded=0 shed=1 failed=0 \
             queued=1 brownouts=0 ckpt=2 safe_periods=0 restarts=0"
        );
    }

    #[test]
    fn identical_snapshots_format_identically() {
        assert_eq!(snapshot().line(), snapshot().line());
    }
}
