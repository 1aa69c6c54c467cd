//! The benchmark's self-test: a tiny run of every workload reports every
//! metric `BENCHMARK.json` lists, under its listed unit, and the
//! deterministic metrics repeat exactly across runs and shard counts.
//!
//! Run with `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use b2b_perfbench::report::{Metric, Report, DETERMINISTIC_END_TO_END, DETERMINISTIC_PER_LAYER};
use b2b_perfbench::{host, run, RunConfig, Scale, Workload};

fn tiny(workload: Workload, shards: usize) -> Report {
    let cfg =
        RunConfig { workload, seed: 7, seconds: 0.0, trace: true, shards, scale: Scale::Tiny };
    let report = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(report.problems.is_empty(), "{}: {:?}", workload.name(), report.problems);
    report
}

/// (name, unit) pairs of one metric list in `BENCHMARK.json`, in order.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |obj: &str, key: &str| {
        let at = obj.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        obj[at..at + obj[at..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
}

fn named(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics.iter().map(|m| (m.name.to_string(), m.unit.to_string())).collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} missing"))
        .value
}

#[test]
fn every_listed_metric_is_reported_with_its_unit() {
    let valid = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    };
    for workload in Workload::ALL {
        let report = tiny(workload, host::cores());
        assert_eq!(named(&report.end_to_end), listed("end_to_end"), "{}", workload.name());
        assert_eq!(named(&report.per_layer), listed("per_layer"), "{}", workload.name());
        for m in report.end_to_end.iter().chain(&report.per_layer) {
            assert!(valid(m.name), "bad metric name {}", m.name);
            assert!(!m.unit.is_empty(), "{} has no unit", m.name);
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
    }
}

#[test]
fn deterministic_metrics_repeat_across_runs_and_shard_counts() {
    let sharded = host::cores().max(2);
    for workload in Workload::ALL {
        let first = tiny(workload, 1);
        let again = tiny(workload, 1);
        let wide = tiny(workload, sharded);
        for name in DETERMINISTIC_END_TO_END.iter().chain(&DETERMINISTIC_PER_LAYER) {
            let v = value(&first, name);
            assert_eq!(v, value(&again, name), "{}: {name} differs between runs", workload.name());
            assert_eq!(
                v,
                value(&wide, name),
                "{}: {name} differs between 1 and {sharded} shards",
                workload.name()
            );
        }
        // Instances moved into shard slices depend on the shard count, so
        // they repeat only between runs at the same count.
        let moved = "wfms.settle.moved_per_round";
        assert_eq!(value(&first, moved), value(&again, moved), "{}: {moved}", workload.name());
        assert_eq!((first.attempted, first.failed), (wide.attempted, wide.failed));
    }
}
