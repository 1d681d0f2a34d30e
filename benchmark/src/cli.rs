//! Command line: the per-workload measurement the acceptance driver
//! calls, `run` (every workload, one child process each), and
//! `compare`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use crate::json::Json;
use crate::measure::{self, AllocCounter};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report;
use crate::spans::to_chrome_trace;
use crate::workloads;

const USAGE: &str = "\
usage:
  fortika-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick] [--detail <file>] [--out-dir <dir>]
      measure one workload; --trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
  fortika-benchmark run [--seed <n>] [--seconds <s>] [--quick] [--out-dir <dir>]
      measure every workload (one child process each) and write <out-dir>/latest.json
  fortika-benchmark compare <a.json> <b.json>
      judge results b against baseline a; exits non-zero on any regression
  fortika-benchmark list
      print the workloads and the metric tables (unit, direction, bound, what each per-layer metric should move)";

/// Name of the sibling binary that carries the counting allocator.
const TRACED_BIN: &str = "fortika-benchmark-traced";

/// Default measuring time per workload, as in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
    quick: bool,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, String> {
        let mut flags = Flags {
            positional: Vec::new(),
            named: Vec::new(),
            quick: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--quick" => flags.quick = true,
                "--workload" | "--seed" | "--seconds" | "--trace" | "--detail" | "--out-dir" => {
                    let value = it.next().ok_or_else(|| format!("{arg} needs a value"))?;
                    flags.named.push((arg.clone(), value.clone()));
                }
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                other => flags.positional.push(other.to_string()),
            }
        }
        Ok(flags)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn seed(&self, default: Option<u64>) -> Result<u64, String> {
        match (self.get("--seed"), default) {
            (Some(s), _) => s.parse().map_err(|_| format!("bad --seed {s}")),
            (None, Some(d)) => Ok(d),
            (None, None) => Err("--seed is required".into()),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        match self.get("--seconds") {
            None => Ok(DEFAULT_SECONDS),
            Some(s) => match s.parse::<f64>() {
                Ok(v) if v.is_finite() && v > 0.0 && v <= 600.0 => Ok(v),
                _ => Err(format!("bad --seconds {s} (0 < s <= 600)")),
            },
        }
    }

    /// Where result files go: `--out-dir`, else `benchmark/out` when
    /// run from the repository root, else `out` (run from this crate).
    fn out_dir(&self) -> PathBuf {
        match self.get("--out-dir") {
            Some(dir) => PathBuf::from(dir),
            None if Path::new("benchmark/Cargo.toml").exists() => PathBuf::from("benchmark/out"),
            None => PathBuf::from("out"),
        }
    }
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced binary, beside this executable. `cargo run` builds only
/// the binary it runs, so when the sibling is missing it is built here,
/// with the same profile and into the same target directory.
fn traced_exe() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let sibling = me.with_file_name(format!("{TRACED_BIN}{}", std::env::consts::EXE_SUFFIX));
    if sibling.exists() {
        return Ok(sibling);
    }
    let target_dir = me
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| format!("{} is not inside a cargo target directory", me.display()))?;
    eprintln!("building {TRACED_BIN} into {}", target_dir.display());
    let mut build = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    build
        .args(["build", "--offline", "--quiet", "--bin", TRACED_BIN])
        .arg("--manifest-path")
        .arg(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml"))
        .arg("--target-dir")
        .arg(target_dir);
    if !cfg!(debug_assertions) {
        build.arg("--release");
    }
    let status = build
        .status()
        .map_err(|e| format!("cannot run cargo to build {TRACED_BIN}: {e}"))?;
    if status.success() && sibling.exists() {
        Ok(sibling)
    } else {
        Err(format!("building {TRACED_BIN} failed ({status})"))
    }
}

/// Measures one workload in this process and prints its metrics; the
/// last line of output is the result line.
fn measure_one(
    flags: &Flags,
    alloc: Option<AllocCounter>,
    process_start: Instant,
) -> Result<ExitCode, String> {
    let name = flags.get("--workload").ok_or("--workload is required")?;
    let spec = workloads::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workloads::all().iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of: {}", names.join(", "))
    })?;
    let spec = if flags.quick { spec.quick() } else { spec };
    let seed = flags.seed(None)?;
    let seconds = flags.seconds()?;
    let traced = match flags.get("--trace") {
        Some("0") => false,
        Some("1") => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };

    let (detail, gate) = if traced {
        let run = measure::per_layer(&spec, seed, seconds, flags.quick, alloc);
        let trace_file = flags.out_dir().join(format!("trace-{}.json", spec.name));
        write_file(&trace_file, &to_chrome_trace(spec.name, run.spans.spans()))?;
        eprintln!(
            "{} spans recorded; trace written to {}",
            run.spans.spans().len(),
            trace_file.display()
        );
        (report::per_layer_detail(&run), run.gate)
    } else {
        let run = measure::end_to_end(&spec, seed, seconds, flags.quick, process_start);
        eprintln!(
            "{} timed repetitions, {} latency samples",
            run.reps, run.latency_samples
        );
        (report::end_to_end_detail(&run), run.gate)
    };
    for problem in &gate.problems {
        eprintln!("INCORRECT {}: {problem}", spec.name);
    }
    if let Some(path) = flags.get("--detail") {
        write_file(Path::new(path), &detail.to_pretty())?;
    }
    for line in report::metric_lines(spec.name, &detail) {
        println!("{line}");
    }
    println!("{}", report::result_line(&detail));
    Ok(ExitCode::SUCCESS)
}

/// Hands a `--trace 1` measurement to the traced binary, passing the
/// arguments through and its output and exit code back.
fn delegate_to_traced(args: &[String]) -> Result<ExitCode, String> {
    let status = Command::new(traced_exe()?)
        .args(args)
        .status()
        .map_err(|e| format!("cannot start {TRACED_BIN}: {e}"))?;
    Ok(if status.success() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(status.code().unwrap_or(1).clamp(1, 255) as u8)
    })
}

/// Runs one workload in a child process and returns its detail.
fn child_detail(
    exe: &Path,
    workload: &str,
    trace: u8,
    flags: &Flags,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Json, String> {
    let detail_file = out_dir.join(format!("detail-{workload}-trace{trace}.json"));
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", &trace.to_string()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .arg("--detail")
        .arg(&detail_file)
        .arg("--out-dir")
        .arg(out_dir);
    if flags.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}:\n{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let detail = read_json(&detail_file)?;
    // The detail has served its purpose once merged into latest.json.
    let _ = std::fs::remove_file(&detail_file);
    Ok(detail)
}

fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Measures every workload, one after another, each in its own child
/// process (so peak RSS is per workload), and writes `latest.json`.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed = flags.seed(Some(7))?;
    let seconds = flags.seconds()?;
    let out_dir = flags.out_dir();
    let me = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let traced = traced_exe()?;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = load_average();
    println!(
        "# seed {seed}, {seconds} s per workload, nproc {nproc}, 1-minute load average {load}"
    );

    let mut entries: Vec<(String, Json)> = Vec::new();
    for spec in workloads::all() {
        let e2e = child_detail(&me, spec.name, 0, flags, seed, seconds, &out_dir)?;
        let layers = child_detail(&traced, spec.name, 1, flags, seed, seconds, &out_dir)?;
        let entry = report::workload_entry(spec.why, &e2e, &layers);
        for def in &END_TO_END {
            let m = entry.get("end_to_end").and_then(|m| m.get(def.name));
            let field = |k| {
                m.and_then(|m| m.get(k))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let unresolved =
                m.and_then(|m| m.get("unresolved")).and_then(Json::as_bool) == Some(true);
            println!(
                "{} {} {} {}{}",
                spec.name,
                def.name,
                Json::Num(field("value")).to_line(),
                def.unit,
                if def.host {
                    format!(
                        "  # q1 {} q3 {} n {}{}",
                        field("q1"),
                        field("q3"),
                        field("n"),
                        if unresolved {
                            " UNRESOLVED: spread exceeds bound"
                        } else {
                            ""
                        }
                    )
                } else {
                    String::new()
                }
            );
        }
        println!(
            "{} failed_share {} ratio  # {} failed of {} attempted, {} latency samples",
            spec.name,
            Json::Num(
                entry
                    .get("failed_share")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            )
            .to_line(),
            entry
                .get("failed")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            entry
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
            entry
                .get("latency_samples")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN),
        );
        let layer_doc = Json::obj([(
            "metrics",
            entry.get("per_layer").cloned().unwrap_or(Json::Null),
        )]);
        for line in report::metric_lines(spec.name, &layer_doc) {
            println!("{line}");
        }
        for problem in entry
            .get("problems")
            .map(Json::elements)
            .unwrap_or_default()
        {
            println!(
                "INCORRECT {}: {}",
                spec.name,
                problem.as_str().unwrap_or("?")
            );
        }
        entries.push((spec.name.to_string(), entry));
    }

    let ratios = report::cost_of_modularity(&entries);
    for (pair, latency, throughput) in &ratios {
        println!(
            "# cost of modularity on {pair}: modular/mono model_latency_p50_ms x{latency:.3}, model_throughput_msgs_s x{throughput:.3}"
        );
    }
    let all_correct = entries
        .iter()
        .all(|(_, e)| e.get("correct").and_then(Json::as_bool) == Some(true));
    let doc = Json::obj([
        ("schema", Json::Num(report::SCHEMA)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(flags.quick)),
        ("nproc", Json::Num(nproc as f64)),
        ("loadavg_1m", Json::Num(load)),
        ("correct", Json::Bool(all_correct)),
        (
            "cost_of_modularity",
            Json::obj(ratios.iter().map(|(pair, latency, throughput)| {
                (
                    pair.clone(),
                    Json::obj([
                        ("model_latency_p50_ms_ratio", Json::Num(*latency)),
                        ("model_throughput_msgs_s_ratio", Json::Num(*throughput)),
                    ]),
                )
            })),
        ),
        ("workloads", Json::Obj(entries)),
    ]);
    let latest = out_dir.join("latest.json");
    write_file(&latest, &doc.to_pretty())?;
    println!("# results written to {}", latest.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(flags: &Flags) -> Result<ExitCode, String> {
    let [_, a, b] = flags.positional.as_slice() else {
        return Err("compare needs two files".into());
    };
    let comparison = report::compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
    print!("{}", report::render(&comparison));
    Ok(if comparison.any_worse() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Entry point of both binaries. `alloc` is the counting allocator's
/// reader in the traced binary, `None` in the plain one — which hands
/// `--trace 1` measurements over to its traced sibling.
pub fn main(alloc: Option<AllocCounter>) -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome =
        Flags::parse(&args).and_then(|flags| match flags.positional.first().map(String::as_str) {
            Some("run") => run_all(&flags),
            Some("compare") => compare_files(&flags),
            Some("list") => {
                for spec in workloads::all() {
                    println!("workload {}: {}", spec.name, spec.why);
                }
                for m in &END_TO_END {
                    let (unit, better, bound) = (m.unit, m.better.label(), m.bound);
                    println!(
                        "end-to-end {} [{unit}, {better} is better, bound {bound}]",
                        m.name
                    );
                }
                for m in &PER_LAYER {
                    let (unit, better, kind) = (m.unit, m.better.label(), m.kind.label());
                    println!(
                        "per-layer {} [{unit}, {better} is better, {kind}] should move: {}",
                        m.name, m.moves
                    );
                }
                Ok(ExitCode::SUCCESS)
            }
            Some(other) => Err(format!("unknown command {other}")),
            None if flags.get("--trace") == Some("1") && alloc.is_none() => {
                delegate_to_traced(&args)
            }
            None => measure_one(&flags, alloc, process_start),
        });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
