//! CSV export of simulation traces and metric tables.
//!
//! The prototype "automatically collects various log data" (§5); a
//! downstream user of this reproduction will want the same series out of
//! the simulator for plotting. Everything here renders to a `String` so
//! the caller decides where it goes (file, stdout, pipe).

use ins_core::metrics::RunMetrics;
use ins_core::system::InSituSystem;
use ins_sim::trace::Trace;

/// Renders one trace as two-column CSV (`seconds,value`).
///
/// # Examples
///
/// ```
/// use ins_bench::export::trace_to_csv;
/// use ins_sim::trace::Trace;
/// use ins_sim::time::SimTime;
///
/// let mut t = Trace::new("solar W");
/// t.record(SimTime::from_secs(0), 0.0);
/// t.record(SimTime::from_secs(60), 850.5);
/// let csv = trace_to_csv(&t);
/// assert!(csv.starts_with("seconds,solar W\n"));
/// assert!(csv.contains("60,850.5"));
/// ```
#[must_use]
pub fn trace_to_csv(trace: &Trace) -> String {
    let mut out = format!("seconds,{}\n", escape(trace.name()));
    for s in trace.iter() {
        out.push_str(&format!(
            "{},{}\n",
            s.time.as_secs(),
            csv_number(s.value, None)
        ));
    }
    out
}

/// Renders the full set of a system run's traces side by side:
/// `seconds,solar_w,load_w,stored_wh,pack_v` (one row per step; all four
/// traces are recorded on the same clock, so rows align).
#[must_use]
pub fn system_traces_to_csv(system: &InSituSystem) -> String {
    let mut out = String::from("seconds,solar_w,load_w,stored_wh,pack_v\n");
    let rows = system
        .trace_solar()
        .iter()
        .zip(system.trace_load())
        .zip(system.trace_stored())
        .zip(system.trace_pack_voltage());
    for (((solar, load), stored), volts) in rows {
        out.push_str(&format!(
            "{},{},{},{},{}\n",
            solar.time.as_secs(),
            csv_number(solar.value, Some(1)),
            csv_number(load.value, Some(1)),
            csv_number(stored.value, Some(1)),
            csv_number(volts.value, Some(3))
        ));
    }
    out
}

/// Renders a set of run metrics as one CSV row per run, with a header.
#[must_use]
pub fn metrics_to_csv(rows: &[RunMetrics]) -> String {
    let mut out = String::from(
        "controller,elapsed_h,uptime,service_availability,processed_gb,\
         gb_per_hour,latency_min,buffer_mean_wh,service_life_days,\
         gb_per_ah,ah_through,load_kwh,effective_kwh,power_ctrl,on_off,\
         vm_ctrl,min_v,end_v,volt_sigma,solar_kwh,brownouts,emergencies\n",
    );
    for m in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},\
             {},{},{},{},{},{},{},{},{},{},{}\n",
            escape(&m.controller),
            csv_number(m.elapsed_hours, Some(2)),
            csv_number(m.uptime, Some(4)),
            csv_number(m.service_availability, Some(4)),
            csv_number(m.processed_gb, Some(2)),
            csv_number(m.throughput_gb_per_hour, Some(3)),
            csv_number(m.mean_latency_minutes, Some(2)),
            csv_number(m.mean_stored_energy_wh, Some(1)),
            csv_number(m.expected_service_life_days, Some(1)),
            csv_number(m.gb_per_amp_hour, Some(3)),
            csv_number(m.discharge_throughput_ah, Some(2)),
            csv_number(m.load_kwh, Some(3)),
            csv_number(m.effective_kwh, Some(3)),
            m.power_ctrl_times,
            m.on_off_cycles,
            m.vm_ctrl_times,
            csv_number(m.min_voltage, Some(2)),
            csv_number(m.end_voltage, Some(2)),
            csv_number(m.voltage_sigma, Some(4)),
            csv_number(m.solar_kwh, Some(3)),
            m.brownouts,
            m.emergency_shutdowns
        ));
    }
    out
}

/// Formats a float as a CSV field, guarding against non-finite values.
///
/// CSV consumers (spreadsheets, pandas with default settings) choke on
/// `inf`/`NaN` tokens, so non-finite values render as an *empty field* —
/// the conventional CSV spelling of "missing". `precision` of
/// `Some(p)` renders with `p` fixed decimal places; `None` uses the
/// shortest round-trip representation.
#[must_use]
pub fn csv_number(v: f64, precision: Option<usize>) -> String {
    if !v.is_finite() {
        return String::new();
    }
    match precision {
        Some(p) => format!("{v:.p$}"),
        None => format!("{v}"),
    }
}

/// Quotes a CSV field if it contains a comma or quote.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Escapes a string for embedding inside a JSON string literal (without
/// the surrounding quotes).
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats a number as a JSON value. JSON has no `Infinity`/`NaN`
/// literals, so non-finite values render as `null` (the fault-free
/// reference column uses `f64::INFINITY` for its inter-arrival time).
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ins_core::controller::InsureController;
    use ins_sim::time::{SimDuration, SimTime};
    use ins_solar::trace::high_generation_day;

    fn short_run() -> InSituSystem {
        let mut sys = InSituSystem::builder(
            high_generation_day(1),
            Box::new(InsureController::default()),
        )
        .time_step(SimDuration::from_secs(60))
        .build();
        sys.run_until(SimTime::from_hms(2, 0, 0));
        sys
    }

    #[test]
    fn trace_csv_has_one_row_per_sample() {
        let sys = short_run();
        let csv = trace_to_csv(sys.trace_solar());
        let rows = csv.lines().count();
        assert_eq!(rows, sys.trace_solar().len() + 1);
        assert!(csv.starts_with("seconds,"));
    }

    #[test]
    fn system_csv_aligns_all_series() {
        let sys = short_run();
        let csv = system_traces_to_csv(&sys);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "seconds,solar_w,load_w,stored_wh,pack_v"
        );
        let first = lines.next().unwrap();
        assert_eq!(first.split(',').count(), 5);
        assert_eq!(csv.lines().count(), sys.trace_solar().len() + 1);
    }

    #[test]
    fn metrics_csv_round_trips_field_count() {
        let sys = short_run();
        let m = RunMetrics::collect(&sys);
        let csv = metrics_to_csv(&[m.clone(), m]);
        let mut lines = csv.lines();
        let header_fields = lines.next().unwrap().split(',').count();
        for line in lines {
            assert_eq!(line.split(',').count(), header_fields);
        }
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn escaping_handles_commas_and_quotes() {
        assert_eq!(escape("plain"), "plain");
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("line\nbreak"), "line\\nbreak");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn csv_number_guards_non_finite_values() {
        assert_eq!(csv_number(850.5, None), "850.5");
        assert_eq!(csv_number(2.5, Some(3)), "2.500");
        assert_eq!(csv_number(f64::INFINITY, Some(2)), "");
        assert_eq!(csv_number(f64::NEG_INFINITY, None), "");
        assert_eq!(csv_number(f64::NAN, Some(1)), "");
    }

    #[test]
    fn metrics_csv_never_leaks_inf_or_nan() {
        let sys = short_run();
        let mut m = RunMetrics::collect(&sys);
        // Degenerate runs can produce non-finite derived metrics (e.g. a
        // zero-throughput run's service life); they must never reach the
        // CSV as `inf`/`NaN` tokens.
        m.expected_service_life_days = f64::INFINITY;
        m.gb_per_amp_hour = f64::NAN;
        m.mean_latency_minutes = f64::NEG_INFINITY;
        let csv = metrics_to_csv(&[m]);
        assert!(!csv.contains("inf"), "inf leaked into CSV:\n{csv}");
        assert!(!csv.contains("NaN"), "NaN leaked into CSV:\n{csv}");
        // Field alignment survives the empty placeholders.
        let mut lines = csv.lines();
        let header_fields = lines.next().unwrap().split(',').count();
        assert_eq!(lines.next().unwrap().split(',').count(), header_fields);
    }

    #[test]
    fn trace_csv_renders_non_finite_samples_as_empty_fields() {
        use ins_sim::trace::Trace;
        let mut t = Trace::new("odd");
        t.record(SimTime::from_secs(0), 1.25);
        t.record(SimTime::from_secs(60), f64::NAN);
        let csv = trace_to_csv(&t);
        assert!(csv.contains("0,1.25\n"));
        assert!(csv.contains("60,\n"));
        assert!(!csv.contains("NaN"));
    }

    #[test]
    fn json_number_maps_non_finite_to_null() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(-3.0), "-3");
        assert_eq!(json_number(f64::INFINITY), "null");
        assert_eq!(json_number(f64::NAN), "null");
    }
}
