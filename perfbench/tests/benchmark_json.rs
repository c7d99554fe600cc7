//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this crate prints.

use perfbench::report::{valid_name, END_TO_END, PER_LAYER};
use perfbench::workloads::NAMES;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// Every `"name": "<value>"` in the section that starts at `"<section>"`
/// and ends at the next `]`.
fn names_in(json: &str, section: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let value = rest.split('"').nth(1).expect("quoted name");
            value.to_string()
        })
        .collect()
}

#[test]
fn workloads_and_metrics_match_the_crate() {
    let json = benchmark_json();
    assert_eq!(names_in(&json, "workloads"), NAMES.to_vec());
    let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&json, "end_to_end"), e2e);
    let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
    assert_eq!(names_in(&json, "per_layer"), layers);
}

#[test]
fn every_metric_name_matches_the_allowed_pattern() {
    let json = benchmark_json();
    for section in ["workloads", "end_to_end", "per_layer"] {
        for name in names_in(&json, section) {
            assert!(valid_name(&name), "{name}");
        }
    }
}
