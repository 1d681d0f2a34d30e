//! The sweep table against the committed files: each sweep regenerates
//! through the one driver, [`run_sweep`], and its document must be
//! byte-equal to the committed `BENCH_*.json`. A drifted simulation, a
//! stale file or a hand-edited one fails `cargo test` here, one test
//! per sweep so the six run in parallel.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use fortika_bench::sweeps::{
    closed_form_audit, json_point, modularity_check, run_sweep, Field, Point, Run, SWEEPS,
};
use fortika_chaos::CoverageReport;
use fortika_core::{LatencySummary, RunReport, StackKind};
use fortika_net::Counters;
use fortika_trace::json;

fn repo_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    manifest.ancestors().nth(2).unwrap().to_path_buf()
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

/// Regenerates sweep `name` and requires it byte-equal to its committed
/// file. On a difference the fresh copy is left under `target/bench/`
/// and the failure names the file and its first differing line. The
/// runs' branch-coverage tally goes to `target/coverage-sweep-<name>.json`.
fn regenerates_byte_equal(name: &str) {
    let sweep = SWEEPS.iter().find(|s| s.name == name).unwrap();
    let file = sweep.file();
    let committed = std::fs::read_to_string(repo_root().join(&file)).expect(&file);
    let doc = json::parse(&committed).unwrap_or_else(|e| panic!("{file}: {e}"));
    let points = doc.get("points").and_then(json::Value::as_array).unwrap();
    for want in ["modular", "monolithic"] {
        let stack = |p: &json::Value| p.get("stack").and_then(json::Value::as_str) == Some(want);
        assert!(points.iter().any(stack), "{file}: no {want} points");
    }

    let mut coverage = CoverageReport::new();
    let fresh = run_sweep(sweep, |_, r| coverage.absorb(&r.counters))
        .unwrap_or_else(|e| panic!("{name} sweep failed: {e}"));
    let tally = repo_root().join(format!("target/coverage-sweep-{name}.json"));
    coverage.write_json(&tally).expect("coverage tally");
    if fresh == committed {
        return;
    }

    let copy = repo_root().join("target/bench").join(&file);
    std::fs::create_dir_all(copy.parent().unwrap()).unwrap();
    std::fs::write(&copy, &fresh).unwrap();
    let first = fresh
        .lines()
        .zip(committed.lines())
        .enumerate()
        .find(|(_, (now, was))| now != was);
    let drift = match first {
        Some((i, (now, was))) => format!(
            "line {}:\n    committed: {}\n    generated: {}",
            i + 1,
            was.trim(),
            now.trim()
        ),
        None => format!(
            "{} lines generated, {} committed",
            fresh.lines().count(),
            committed.lines().count()
        ),
    };
    panic!(
        "{file} differs from its committed sweep, {drift}\nThe simulation drifted or the \
         committed file is stale (the generated copy is {}); compare the two, then regenerate \
         with `cargo run --release -p fortika-bench --bin probe` and commit the result",
        copy.display()
    );
}

/// One byte-equality test per row of [`SWEEPS`], and a check that no
/// row goes without one.
macro_rules! sweep_tests {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                regenerates_byte_equal($name);
            }
        )*

        #[test]
        fn every_sweep_has_a_byte_equality_test() {
            let table: Vec<&str> = SWEEPS.iter().map(|s| s.name).collect();
            assert_eq!(table, [$($name),*]);
        }
    };
}

sweep_tests! {
    modularity_sweep_is_byte_equal => "modularity",
    degraded_sweep_is_byte_equal => "degraded",
    stable_write_sweep_is_byte_equal => "stable_write",
    pipeline_sweep_is_byte_equal => "pipeline",
    wide_window_sweep_is_byte_equal => "wide_window",
    decomposition_sweep_is_byte_equal => "decomposition",
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
        suspicions: 0,
        longest_silence: Vec::new(),
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
            Field::Measured(|_, r, w| w.fixed("", r.mean_cpu_utilization, 2)),
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

/// `BENCH_modularity.json`'s committed records as runs of its operating
/// set: [`fixed_report`] with the fields the paper's claims read.
fn committed_modularity_runs() -> Vec<Run> {
    let sweep = &SWEEPS[0];
    let text = std::fs::read_to_string(repo_root().join(sweep.file())).unwrap();
    let doc = json::parse(&text).unwrap();
    let records = doc.get("points").and_then(json::Value::as_array).unwrap();
    let num = |record: &json::Value, path: &[&str]| {
        let field = path.iter().try_fold(record, |v, key| v.get(key));
        field.and_then(json::Value::as_f64).unwrap()
    };
    let mut runs = Vec::new();
    for (p, record) in (sweep.points)().into_iter().zip(records) {
        assert_eq!(num(record, &["offered_load"]), p.load);
        let mut r = fixed_report();
        r.offered_load = p.load;
        r.early_latency_ms.mean = num(record, &["latency_ms", "mean"]);
        r.throughput_msgs_per_sec = num(record, &["throughput_msgs_per_sec"]);
        r.max_cpu_utilization = num(record, &["max_cpu_utilization"]);
        runs.push((p, r));
    }
    runs
}

/// `kind`'s run at n and `load` msgs/s with 16 KiB payloads.
fn at(runs: &mut [Run], kind: StackKind, n: usize, load: f64) -> &mut RunReport {
    let same = |p: &Point| (p.kind, p.n, p.load, p.size) == (kind, n, load, 16384);
    &mut runs.iter_mut().find(|(p, _)| same(p)).unwrap().1
}

#[test]
fn modularity_check_holds_the_committed_sweep() {
    assert_eq!(modularity_check(&committed_modularity_runs()), Ok(()));
}

/// Carrying 200 of 250 msgs/s offered, the modular stack leaves Fig.
/// 10's linear region, which the sweep reproduces.
#[test]
fn modularity_check_fails_a_reproduced_claim_leaving_its_band() {
    let mut runs = committed_modularity_runs();
    at(&mut runs, StackKind::Modular, 3, 250.0).throughput_msgs_per_sec = 200.0;
    let err = modularity_check(&runs).unwrap_err();
    let claim = "1 verdict(s) on the paper's claims flipped:\n    \
                 Fig. 10: throughput = offered load at <= 500 msgs/s (n=3)";
    assert!(err.starts_with(claim), "{err}");
    assert!(err.ends_with("now Disagrees, asserted Reproduces"), "{err}");
}

/// With the monolith's latency at 250 msgs/s made the modular stack's,
/// the two are "close", as Fig. 8 says and the sweep does not.
#[test]
fn modularity_check_fails_a_disagreeing_claim_entering_its_band() {
    let mut runs = committed_modularity_runs();
    let modular = at(&mut runs, StackKind::Modular, 7, 250.0)
        .early_latency_ms
        .mean;
    at(&mut runs, StackKind::Monolithic, 7, 250.0)
        .early_latency_ms
        .mean = modular;
    let err = modularity_check(&runs).unwrap_err();
    let claim = "1 verdict(s) on the paper's claims flipped:\n    \
                 Fig. 8: latency close at 250 msgs/s (n=7)";
    assert!(err.starts_with(claim), "{err}");
    assert!(err.ends_with("now Reproduces, asserted Disagrees"), "{err}");
}
