//! Result files and their comparison.
//!
//! A child process measures one workload and leaves a *detail* document
//! (and, as its last line of output, the short result line the
//! acceptance driver reads). `run` gathers the details of every
//! workload into one *results* document (`out/latest.json`, the format
//! of `baseline/*.json`); `compare` reads two of those back.

use crate::json::Json;
use crate::measure::{EndToEndRun, Gate, PerLayerRun};
use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::Summary;

/// Version of the results document.
pub const SCHEMA: f64 = 1.0;

fn gate_members(gate: &Gate) -> Vec<(&'static str, Json)> {
    vec![
        ("correct", Json::Bool(gate.correct())),
        ("attempted", Json::Num(gate.attempted as f64)),
        ("failed", Json::Num(gate.failed as f64)),
        (
            "problems",
            Json::Arr(gate.problems.iter().map(Json::str).collect()),
        ),
    ]
}

fn summary_members(unit: &str, s: &Summary) -> Vec<(&'static str, Json)> {
    vec![
        ("value", Json::Num(s.median)),
        ("unit", Json::str(unit)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("n", Json::Num(s.n as f64)),
    ]
}

/// The detail document of an end-to-end run.
pub fn end_to_end_detail(run: &EndToEndRun) -> Json {
    let metrics = END_TO_END.iter().zip(&run.metrics).map(|(def, (name, s))| {
        assert_eq!(def.name, *name);
        (def.name, Json::obj(summary_members(def.unit, s)))
    });
    let mut members = gate_members(&run.gate);
    members.push(("reps", Json::Num(run.reps as f64)));
    members.push(("latency_samples", Json::Num(run.latency_samples as f64)));
    members.push(("metrics", Json::obj(metrics)));
    Json::obj(members)
}

/// The detail document of a per-layer run.
pub fn per_layer_detail(run: &PerLayerRun) -> Json {
    let metrics = PER_LAYER.iter().zip(&run.metrics).map(|(def, (name, v))| {
        assert_eq!(def.name, *name);
        (
            def.name,
            Json::obj([
                ("value", Json::Num(*v)),
                ("unit", Json::str(def.unit)),
                ("kind", Json::str(def.kind.label())),
            ]),
        )
    });
    let mut members = gate_members(&run.gate);
    members.push(("metrics", Json::obj(metrics)));
    Json::obj(members)
}

/// The result line the acceptance driver reads: exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, each metric exactly
/// `value` and `unit`.
pub fn result_line(detail: &Json) -> String {
    let metrics = detail
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                Json::obj([
                    ("value", m.get("value").cloned().unwrap_or(Json::Null)),
                    ("unit", m.get("unit").cloned().unwrap_or(Json::Null)),
                ]),
            )
        });
    Json::obj([
        (
            "correct",
            detail.get("correct").cloned().unwrap_or(Json::Bool(false)),
        ),
        (
            "attempted",
            detail.get("attempted").cloned().unwrap_or(Json::Num(0.0)),
        ),
        (
            "failed",
            detail.get("failed").cloned().unwrap_or(Json::Num(0.0)),
        ),
        ("metrics", Json::obj(metrics)),
    ])
    .to_line()
}

/// `workload metric value unit` lines for every metric of a detail.
pub fn metric_lines(workload: &str, detail: &Json) -> Vec<String> {
    detail
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .map(|(name, m)| {
            format!(
                "{workload} {name} {} {}",
                Json::Num(m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN)).to_line(),
                m.get("unit").and_then(Json::as_str).unwrap_or("?"),
            )
        })
        .collect()
}

/// One workload's entry in the results document, merged from its two
/// details. The gate fields are the worse of the two runs.
pub fn workload_entry(why: &str, end_to_end: &Json, per_layer: &Json) -> Json {
    let num = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let correct = [end_to_end, per_layer]
        .iter()
        .all(|d| d.get("correct").and_then(Json::as_bool) == Some(true));
    let problems: Vec<Json> = [end_to_end, per_layer]
        .iter()
        .flat_map(|d| d.get("problems").map(Json::elements).unwrap_or_default())
        .cloned()
        .collect();
    let attempted = num(end_to_end, "attempted");
    let failed = num(end_to_end, "failed").max(num(per_layer, "failed"));
    let e2e = END_TO_END.iter().map(|def| {
        let m = end_to_end.get("metrics").and_then(|m| m.get(def.name));
        let mut members: Vec<(String, Json)> = m.map(Json::members).unwrap_or_default().to_vec();
        members.push(("better".into(), Json::str(def.better.label())));
        members.push(("bound".into(), Json::Num(def.bound)));
        let unresolved = m
            .and_then(read_summary)
            .is_some_and(|s| s.spread() > def.bound);
        members.push(("unresolved".into(), Json::Bool(unresolved)));
        (def.name, Json::Obj(members))
    });
    Json::obj([
        ("why", Json::str(why)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        (
            "failed_share",
            Json::Num(if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            }),
        ),
        ("problems", Json::Arr(problems)),
        (
            "reps",
            end_to_end.get("reps").cloned().unwrap_or(Json::Null),
        ),
        (
            "latency_samples",
            end_to_end
                .get("latency_samples")
                .cloned()
                .unwrap_or(Json::Null),
        ),
        ("end_to_end", Json::obj(e2e)),
        (
            "per_layer",
            per_layer
                .get("metrics")
                .cloned()
                .unwrap_or(Json::Obj(vec![])),
        ),
    ])
}

/// The paper's headline, derived and not gated: for each
/// `modular-*`/`mono-*` pair, modular ÷ monolithic median latency and
/// throughput.
pub fn cost_of_modularity(workloads: &[(String, Json)]) -> Vec<(String, f64, f64)> {
    let value = |entry: &Json, metric: &str| {
        entry
            .get("end_to_end")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
    };
    workloads
        .iter()
        .filter_map(|(name, modular)| {
            let pair = name.strip_prefix("modular-")?;
            let (_, mono) = workloads
                .iter()
                .find(|(n, _)| *n == format!("mono-{pair}"))?;
            let ratio = |metric| Some(value(modular, metric)? / value(mono, metric)?);
            Some((
                pair.to_string(),
                ratio("model_latency_p50_ms")?,
                ratio("model_throughput_msgs_s")?,
            ))
        })
        .collect()
}

fn read_summary(m: &Json) -> Option<Summary> {
    let num = |k| m.get(k).and_then(Json::as_f64);
    let median = num("value")?;
    Some(Summary {
        median,
        q1: num("q1").unwrap_or(median),
        q3: num("q3").unwrap_or(median),
        n: num("n").unwrap_or(1.0) as usize,
    })
}

/// What `compare` concludes about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Same,
    /// Better by more than the bound.
    Better,
    /// Worse by more than the bound: a regression.
    Worse,
    /// Either side's inter-quartile spread exceeds the bound, so the
    /// runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `b` against baseline `a` for one end-to-end metric.
pub fn verdict(def: &EndToEnd, a: &Summary, b: &Summary) -> Verdict {
    if a.spread() > def.bound || b.spread() > def.bound {
        return Verdict::Unresolved;
    }
    let change = if a.median == b.median {
        0.0
    } else {
        (b.median - a.median) / a.median.abs()
    };
    let worse_by = match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    // NaN (a metric missing on one side, or 0 → non-zero) is a
    // regression: the comparison must not pass by accident.
    if worse_by.is_nan() || worse_by > def.bound {
        Verdict::Worse
    } else if worse_by < -def.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// `failed_share` has no tolerance: any increase is a regression.
const FAILED_SHARE: EndToEnd = EndToEnd {
    name: "failed_share",
    unit: "ratio",
    better: Better::Lower,
    bound: 0.0,
    host: false,
};

/// One row of `compare`'s table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: &'static str,
    /// Baseline side.
    pub a: Summary,
    /// Candidate side.
    pub b: Summary,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The outcome of comparing two results documents.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// One row per workload × end-to-end metric (and `failed_share`).
    pub rows: Vec<Row>,
    /// Count-kind per-layer metrics that differ, as `workload metric`.
    /// Informative: on one commit they must all be identical.
    pub counts_differ: Vec<String>,
    /// Count-kind per-layer metrics compared.
    pub counts_compared: usize,
}

impl Comparison {
    /// True if any row is a regression.
    pub fn any_worse(&self) -> bool {
        self.rows.iter().any(|r| r.verdict == Verdict::Worse)
    }
}

/// Compares candidate `b` against baseline `a`.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        if doc.get("schema").and_then(Json::as_f64) != Some(SCHEMA) {
            return Err("not a results document of this schema".into());
        }
        Ok(doc
            .get("workloads")
            .map(Json::members)
            .unwrap_or_default()
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut out = Comparison {
        rows: Vec::new(),
        counts_differ: Vec::new(),
        counts_compared: 0,
    };
    for (name, ea) in &wa {
        let Some((_, eb)) = wb.iter().find(|(n, _)| n == name) else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        let missing = Summary::exact(f64::NAN);
        for def in &END_TO_END {
            let read = |e: &Json| {
                e.get("end_to_end")
                    .and_then(|m| m.get(def.name))
                    .and_then(read_summary)
                    .unwrap_or(missing)
            };
            let (sa, sb) = (read(ea), read(eb));
            out.rows.push(Row {
                workload: name.clone(),
                metric: def.name,
                a: sa,
                b: sb,
                bound: def.bound,
                verdict: verdict(def, &sa, &sb),
            });
        }
        let share = |e: &Json| {
            Summary::exact(
                e.get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN),
            )
        };
        let (sa, sb) = (share(ea), share(eb));
        out.rows.push(Row {
            workload: name.clone(),
            metric: FAILED_SHARE.name,
            a: sa,
            b: sb,
            bound: 0.0,
            verdict: verdict(&FAILED_SHARE, &sa, &sb),
        });
        for def in PER_LAYER
            .iter()
            .filter(|d| d.kind == crate::metrics::LayerKind::Count)
        {
            let read = |e: &Json| {
                e.get("per_layer")
                    .and_then(|m| m.get(def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
            };
            out.counts_compared += 1;
            if read(ea) != read(eb) {
                out.counts_differ.push(format!("{name} {}", def.name));
            }
        }
    }
    Ok(out)
}

/// Renders a comparison as an aligned table plus a summary.
pub fn render(c: &Comparison) -> String {
    let cell = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
    let mut out = format!(
        "{:<28} {:<28} {:>42} {:>42} {:>6}  verdict\n",
        "workload", "metric", "a: median [q1, q3]", "b: median [q1, q3]", "bound"
    );
    for r in &c.rows {
        out.push_str(&format!(
            "{:<28} {:<28} {:>42} {:>42} {:>6}  {}\n",
            r.workload,
            r.metric,
            cell(&r.a),
            cell(&r.b),
            r.bound,
            r.verdict.label()
        ));
    }
    let count = |v| c.rows.iter().filter(|r| r.verdict == v).count();
    out.push_str(&format!(
        "{} same, {} better, {} worse, {} unresolved; count-kind per-layer metrics: {} of {} identical\n",
        count(Verdict::Same),
        count(Verdict::Better),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        c.counts_compared - c.counts_differ.len(),
        c.counts_compared,
    ));
    for d in &c.counts_differ {
        out.push_str(&format!("  differs: {d}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::LayerKind;

    fn e2e_run(host_us: &[f64], p50_ms: f64) -> EndToEndRun {
        let values = [
            Summary::of(&[0.5, 0.4, 0.45]),
            Summary::exact(p50_ms),
            Summary::exact(12.0),
            Summary::exact(400.0),
            Summary::exact(5.0),
            Summary::of(host_us),
            Summary::exact(9.5),
        ];
        EndToEndRun {
            gate: Gate {
                attempted: 1000,
                failed: 0,
                problems: vec![],
            },
            metrics: END_TO_END.iter().map(|m| m.name).zip(values).collect(),
            reps: host_us.len(),
            latency_samples: 900,
        }
    }

    fn per_layer_run(bump: f64) -> Json {
        let metrics = PER_LAYER.iter().map(|d| {
            (
                d.name,
                Json::obj([
                    ("value", Json::Num(1.0 + bump)),
                    ("unit", Json::str(d.unit)),
                    ("kind", Json::str(d.kind.label())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Num(1000.0)),
            ("failed", Json::Num(0.0)),
            ("problems", Json::Arr(vec![])),
            ("metrics", Json::obj(metrics)),
        ])
    }

    fn results(host_us: &[f64], p50_ms: f64, bump: f64) -> Json {
        let entry = workload_entry(
            "why",
            &end_to_end_detail(&e2e_run(host_us, p50_ms)),
            &per_layer_run(bump),
        );
        Json::obj([
            ("schema", Json::Num(SCHEMA)),
            ("workloads", Json::obj([("modular-steady-1k", entry)])),
        ])
    }

    #[test]
    fn written_results_compare_equal_to_themselves_after_a_round_trip() {
        let doc = results(&[5.0, 5.1, 5.05, 4.95, 5.0], 8.0, 0.0);
        let back = Json::parse(&doc.to_pretty()).expect("own output parses");
        assert_eq!(back, doc);
        let c = compare(&doc, &back).unwrap();
        assert_eq!(c.rows.len(), END_TO_END.len() + 1);
        assert!(c.rows.iter().all(|r| r.verdict == Verdict::Same), "{c:?}");
        assert!(c.counts_differ.is_empty());
        assert_eq!(
            c.counts_compared,
            PER_LAYER
                .iter()
                .filter(|d| d.kind == LayerKind::Count)
                .count()
        );
        assert!(!c.any_worse());
        assert!(render(&c).contains("0 worse"));
    }

    #[test]
    fn compare_tells_worse_better_and_unresolved_apart() {
        let base = results(&[5.0, 5.1, 5.05, 4.95, 5.0], 8.0, 0.0);
        // Host cost up 30 %, modelled latency down 20 %, counts moved.
        let slow = results(&[6.5, 6.6, 6.55, 6.45, 6.5], 6.4, 1.0);
        let c = compare(&base, &slow).unwrap();
        let verdict_of = |m: &str| c.rows.iter().find(|r| r.metric == m).unwrap().verdict;
        assert_eq!(verdict_of("host_us_per_delivered_msg"), Verdict::Worse);
        assert_eq!(verdict_of("model_latency_p50_ms"), Verdict::Better);
        assert_eq!(verdict_of("model_throughput_msgs_s"), Verdict::Same);
        assert_eq!(verdict_of("failed_share"), Verdict::Same);
        assert!(c.any_worse());
        assert_eq!(c.counts_differ.len(), c.counts_compared);
        // A side whose quartiles are wider than the bound decides nothing.
        let noisy = results(&[5.0, 9.0, 4.0, 7.0, 6.0], 8.0, 0.0);
        let c = compare(&base, &noisy).unwrap();
        let host = c
            .rows
            .iter()
            .find(|r| r.metric == "host_us_per_delivered_msg")
            .unwrap();
        assert_eq!(host.verdict, Verdict::Unresolved);
        assert!(!c.any_worse());
        let entry = noisy
            .get("workloads")
            .unwrap()
            .get("modular-steady-1k")
            .unwrap();
        let flagged = |m: &str| {
            entry
                .get("end_to_end")
                .unwrap()
                .get(m)
                .unwrap()
                .get("unresolved")
                .unwrap()
                .as_bool()
        };
        assert_eq!(flagged("host_us_per_delivered_msg"), Some(true));
        assert_eq!(flagged("model_latency_p50_ms"), Some(false));
    }

    #[test]
    fn any_failed_message_is_a_regression_and_mismatched_files_are_errors() {
        let def = FAILED_SHARE;
        let v = |a: f64, b: f64| verdict(&def, &Summary::exact(a), &Summary::exact(b));
        assert_eq!(v(0.0, 0.0), Verdict::Same);
        assert_eq!(v(0.0, 0.001), Verdict::Worse);
        assert_eq!(v(0.001, 0.0), Verdict::Better);
        let doc = results(&[5.0], 8.0, 0.0);
        assert!(compare(&doc, &Json::obj([("schema", Json::Num(SCHEMA))])).is_err());
        assert!(compare(&Json::Null, &doc).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let detail = end_to_end_detail(&e2e_run(&[5.0, 5.2, 5.1], 8.0));
        let line = Json::parse(&result_line(&detail)).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().members();
        assert_eq!(metrics.len(), END_TO_END.len());
        for (_, m) in metrics {
            let keys: Vec<&str> = m.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["value", "unit"]);
        }
        assert_eq!(metric_lines("w", &detail)[0], "w setup_s 0.45 s");
    }

    #[test]
    fn cost_of_modularity_pairs_by_name() {
        let entry = |p50: f64| {
            workload_entry(
                "",
                &end_to_end_detail(&e2e_run(&[5.0], p50)),
                &per_layer_run(0.0),
            )
        };
        let workloads = vec![
            ("modular-steady-1k".to_string(), entry(8.0)),
            ("mono-steady-1k".to_string(), entry(4.0)),
            ("modular-steady-1k-tracing".to_string(), entry(8.0)),
        ];
        assert_eq!(
            cost_of_modularity(&workloads),
            vec![("steady-1k".to_string(), 2.0, 1.0)]
        );
    }
}
