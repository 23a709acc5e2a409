//! Runs `symbi-ledger smoke` — every workload with 2-s windows, through
//! the same code paths and output checks as a full run — and holds the
//! names it prints against `BENCHMARK.json`. A CI step only has to call
//! `cargo test --release -p symbi-ledger`.

use std::collections::BTreeSet;
use std::process::Command;

const MANIFEST: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

/// Every `"name": "..."` inside the array that follows `"<section>":`.
/// `BENCHMARK.json` nests nothing inside these arrays but flat objects,
/// so the first `]` closes the section.
fn names_in(manifest: &str, section: &str) -> BTreeSet<String> {
    let start = manifest
        .find(&format!("\"{section}\":"))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
    let body = &manifest[start..];
    let body = &body[..body.find(']').expect("section array closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|rest| {
            rest.split('"')
                .nth(1)
                .expect("name is a string")
                .to_string()
        })
        .collect()
}

// The latency limits and the open-loop validity checks are stated for an
// optimised build; an unoptimised one misses them by an order of magnitude.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "smoke measures an optimised build: cargo test --release -p symbi-ledger"
)]
fn smoke_prints_exactly_the_names_in_benchmark_json() {
    let manifest = std::fs::read_to_string(MANIFEST).expect("read BENCHMARK.json");
    let workloads = names_in(&manifest, "workloads");
    let mut metrics = names_in(&manifest, "end_to_end");
    metrics.extend(names_in(&manifest, "per_layer"));
    assert_eq!(workloads.len(), 5);
    assert!(metrics.contains("setup_s"));

    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_symbi-ledger"))
        .arg("smoke")
        .output()
        .expect("run symbi-ledger smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed an output check:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Rows are "<workload> <metric> <value> <unit>"; the last line is the
    // JSON document.
    let mut seen_workloads = BTreeSet::new();
    let mut seen_metrics = BTreeSet::new();
    for line in stdout.lines().filter(|l| !l.starts_with('{')) {
        let fields: Vec<&str> = line.split(' ').collect();
        assert_eq!(fields.len(), 4, "unexpected row: {line}");
        fields[2].parse::<f64>().expect("value is a number");
        seen_workloads.insert(fields[0].to_string());
        seen_metrics.insert(fields[1].to_string());
    }
    assert_eq!(seen_workloads, workloads, "workload names differ");
    assert_eq!(seen_metrics, metrics, "metric names differ");
    assert!(
        stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"commit\":")),
        "smoke ends with its JSON document"
    );
    assert!(
        started.elapsed().as_secs() < 30,
        "smoke took {:?}",
        started.elapsed()
    );
}

#[test]
fn run_seconds_matches_the_binary_default() {
    // `symbi-ledger run` without --seconds must measure what the gate does.
    let manifest = std::fs::read_to_string(MANIFEST).expect("read BENCHMARK.json");
    let seconds: String = manifest
        .split("\"run_seconds\":")
        .nth(1)
        .expect("run_seconds present")
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    let help = Command::new(env!("CARGO_BIN_EXE_symbi-ledger"))
        .arg("help")
        .output()
        .expect("run symbi-ledger help");
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(
        text.contains(&format!("--seconds {seconds} ")),
        "help does not state --seconds {seconds}:\n{text}"
    );
}
