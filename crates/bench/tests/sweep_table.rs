//! The sweep table against the committed files, without running a
//! simulation: a stale or hand-trimmed `BENCH_*.json` fails here, in
//! `cargo test`, not only in CI's `probe --check` step.

use std::collections::BTreeSet;
use std::path::PathBuf;

use fortika_bench::json;
use fortika_bench::sweeps::{closed_form_audit, json_point, Field, Point, SWEEPS};
use fortika_core::{LatencySummary, RunReport, StackKind};
use fortika_net::Counters;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

#[test]
fn table_files_are_exactly_the_committed_bench_files() {
    let table: BTreeSet<String> = SWEEPS.iter().map(|s| s.file()).collect();
    assert_eq!(table.len(), SWEEPS.len(), "two sweeps share a file");
    let committed: BTreeSet<String> = std::fs::read_dir(repo_root())
        .expect("repo root")
        .map(|entry| entry.expect("dir entry").file_name().into_string().unwrap())
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    assert_eq!(table, committed);
}

#[test]
fn every_committed_file_holds_its_sweeps_operating_set() {
    for sweep in &SWEEPS {
        let file = sweep.file();
        let text = std::fs::read_to_string(repo_root().join(&file)).expect(&file);
        let doc = json::parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            doc.get("benchmark").and_then(json::Value::as_str),
            Some(sweep.benchmark),
            "{file}"
        );
        let committed = doc.get("points").and_then(json::Value::as_array).unwrap();
        assert_eq!(
            committed.len(),
            (sweep.points)().len(),
            "{file}: committed points vs the table's operating set — regenerate with \
             `cargo run --release -p fortika-bench --bin probe`"
        );
    }
}

fn fixed_report() -> RunReport {
    RunReport {
        kind: StackKind::Modular,
        n: 3,
        offered_load: 2000.0,
        msg_size: 16384,
        seed: 7,
        early_latency_ms: LatencySummary {
            mean: 12.34567,
            ci95: 0.5,
            min: 1.0,
            max: 99.0,
            p50: 10.0,
            p90: 20.25,
            p99: 30.99996,
            samples: 400,
        },
        throughput_msgs_per_sec: 987.654,
        delivered_total: 6000,
        admitted_in_window: 2000,
        lost_samples: 0,
        instances_per_proc: 500.0,
        avg_batch_m: 3.9996,
        msgs_in_window: 16000,
        bytes_in_window: 1 << 26,
        msgs_per_instance: 32.0004,
        bytes_per_instance: 131_072.26,
        max_cpu_utilization: 1.0,
        mean_cpu_utilization: 0.75,
        max_durability_utilization: 0.125,
        counters: Counters::new(),
        oracle: None,
        trace: None,
        latency_decomposition: None,
        minimized_scenario: None,
    }
}

/// One emitter writes every record of every file, so one golden covers
/// them: the common fields, then the point's own in order.
#[test]
fn json_point_golden() {
    let common = "    {\"stack\": \"modular\", \"n\": 3, \"offered_load\": 2000, \
                  \"msg_size\": 16384, \"latency_ms\": {\"mean\": 12.3457, \"p50\": 10.0000, \
                  \"p90\": 20.2500, \"p99\": 31.0000}, \"throughput_msgs_per_sec\": 987.65, \
                  \"batch_m\": 4.000, \"max_cpu_utilization\": 1.0000, \
                  \"msgs_per_instance\": 32.000, \"bytes_per_instance\": 131072.3";
    let r = fixed_report();
    let mut p = Point::new("golden", StackKind::Modular, (3, 2000.0, 16384));
    assert_eq!(json_point(&p, &r), format!("{common}}}"));
    p.fields = vec![
        ("regime", Field::Text("wan")),
        ("pipeline_depth", Field::Count(4)),
        (
            "cpu",
            Field::Measured(|_, r| format!("{:.2}", r.mean_cpu_utilization)),
        ),
    ];
    assert_eq!(
        json_point(&p, &r),
        format!("{common}, \"regime\": \"wan\", \"pipeline_depth\": 4, \"cpu\": 0.75}}")
    );
}

/// The fixed report is a modular run at n = 3 and M ≈ 4 that carries
/// half its offered load, so §5.2 holds it to 2 · (M + 4) ≈ 16 messages
/// and 2 · 2 · M · 16 KiB ≈ 262 118 payload bytes per instance.
#[test]
fn closed_form_audit_holds_saturated_good_runs_to_section_52() {
    let p = Point::new("audit", StackKind::Modular, (3, 2000.0, 16384));
    let mut r = fixed_report();
    r.bytes_per_instance = 270_000.0;
    assert!(
        closed_form_audit(&p, &r).is_err(),
        "32 msgs/instance is twice the form"
    );
    r.msgs_per_instance = 16.1;
    assert_eq!(closed_form_audit(&p, &r), Ok(()));
    r.bytes_per_instance = 131_072.0;
    assert!(
        closed_form_audit(&p, &r).is_err(),
        "half the form's payload"
    );
    r.throughput_msgs_per_sec = 1990.0;
    assert_eq!(
        closed_form_audit(&p, &r),
        Ok(()),
        "a run that keeps up with its load is not saturated"
    );
}
