//! `BENCHMARK.json` (the contract the acceptance driver reads) must say
//! what the code measures: same workloads, same metrics, same units,
//! directions and bounds, and stay inside the driver's limits.

use fortika_benchmark::json::Json;
use fortika_benchmark::metrics::{END_TO_END, PER_LAYER};
use fortika_benchmark::workloads;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");

fn str_of<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn is_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn contract_matches_the_code() {
    assert!(CONTRACT.len() <= 64 * 1024);
    let doc = Json::parse(CONTRACT).expect("BENCHMARK.json is JSON");
    let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let command: Vec<&str> = doc
        .get("command")
        .unwrap()
        .elements()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.len() <= 32 && command.iter().all(|a| a.len() <= 200));
    assert!(command.contains(&"benchmark/Cargo.toml"));
    let paths: Vec<&str> = doc
        .get("paths")
        .unwrap()
        .elements()
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let specs = workloads::all();
    let listed = doc.get("workloads").unwrap().elements();
    assert_eq!(listed.len(), specs.len());
    for (entry, spec) in listed.iter().zip(&specs) {
        assert_eq!(entry.members().len(), 2);
        assert_eq!(str_of(entry, "name"), spec.name);
        assert_eq!(str_of(entry, "why"), spec.why);
        assert!(is_name(spec.name));
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.name
        );
    }

    let e2e = doc.get("end_to_end").unwrap().elements();
    assert_eq!(e2e.len(), END_TO_END.len());
    for (entry, def) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(entry.members().len(), 4);
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit);
        assert_eq!(str_of(entry, "better"), def.better.label());
        assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(def.bound));
        assert!(is_name(def.name) && is_unit(def.unit));
    }

    let layers = doc.get("per_layer").unwrap().elements();
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (entry, def) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(entry.members().len(), 3);
        assert_eq!(str_of(entry, "name"), def.name);
        assert_eq!(str_of(entry, "unit"), def.unit);
        assert_eq!(str_of(entry, "better"), def.better.label());
        assert!(is_name(def.name) && is_unit(def.unit), "{}", def.name);
    }
}
