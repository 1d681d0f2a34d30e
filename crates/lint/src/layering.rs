//! Layering rules: the workspace dependency graph must respect the
//! documented layer order.
//!
//! The architecture is a strict stack — `sim < trace < net < framework
//! < {fd, rbcast} < {consensus, abcast, mono} < chaos < core < bench` —
//! and the whole modularity experiment depends on it staying one: the
//! chaos oracle audits *any* stack shape precisely because protocol
//! crates cannot see the harness that drives them. An upward edge (a
//! protocol crate importing `chaos` or `bench`) would let measurement
//! code leak into the measured system; a cycle would dissolve the
//! module boundaries the paper is about.
//!
//! The checker reads `[dependencies]` sections of every member manifest
//! with a line-oriented TOML reader (no `toml` crate — same discipline
//! as `fortika_trace::json`) and enforces:
//!
//! * every `fortika-*` dependency points **strictly down** the layer
//!   table ([`LAYERS`]);
//! * no protocol crate depends on `fortika-chaos`, `fortika-core` or
//!   `fortika-bench` (a sharper diagnostic for the worst upward edges);
//! * `fortika-lint` itself depends on nothing and nothing depends on it
//!   (the analyzer stays outside the graph it polices);
//! * every member is ranked — an unranked crate is a finding, which
//!   forces this table to grow with the workspace instead of rotting.
//!
//! Dev-dependencies are exempt: tests legitimately pull the harness
//! down into lower crates (e.g. `consensus` dev-depends on `chaos`).

use std::collections::BTreeMap;
use std::path::Path;

use crate::report::{Finding, Report};

/// Rule id for all layering findings.
pub const RULE_LAYERING: &str = "layering";

/// The documented layer order: `(crate, rank)`. A crate may depend only
/// on crates of strictly lower rank. Crates sharing a rank are peers
/// and must not depend on each other.
pub const LAYERS: &[(&str, u32)] = &[
    ("fortika-sim", 0),
    ("fortika-trace", 1),
    ("fortika-net", 2),
    ("fortika-framework", 3),
    ("fortika-fd", 4),
    ("fortika-rbcast", 4),
    ("fortika-consensus", 5),
    ("fortika-abcast", 5),
    ("fortika-mono", 5),
    ("fortika-chaos", 6),
    ("fortika-core", 7),
    ("fortika-bench", 8),
    // The umbrella crate re-exports the stacks for examples/tests.
    ("fortika", 9),
];

/// Vendored stand-ins, visible to every layer (they are leaves by
/// construction: the build works offline).
pub const VENDORED: &[&str] = &["bytes"];

/// The protocol crates: everything at or below the stacks, which the
/// harness crates drive and measure.
const PROTOCOL_CRATES: &[&str] = &[
    "fortika-sim",
    "fortika-trace",
    "fortika-net",
    "fortika-framework",
    "fortika-fd",
    "fortika-rbcast",
    "fortika-consensus",
    "fortika-abcast",
    "fortika-mono",
];

/// Crates the protocol layers must never depend on.
const HARNESS_CRATES: &[&str] = &["fortika-chaos", "fortika-core", "fortika-bench"];

/// One parsed member manifest.
#[derive(Debug, Clone)]
pub struct CrateInfo {
    /// Package name (`[package] name = ...`).
    pub name: String,
    /// Workspace-relative manifest path, for diagnostics.
    pub manifest: String,
    /// `[dependencies]` entries: `(dep name, 1-based line)`.
    pub deps: Vec<(String, usize)>,
}

/// Parses `name` and the normal `[dependencies]` of one `Cargo.toml`.
pub fn parse_manifest(rel: &str, content: &str) -> CrateInfo {
    let mut name = String::new();
    let mut deps = Vec::new();
    let mut section = String::new();
    for (idx, raw) in content.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        if line.is_empty() {
            continue;
        }
        if section == "package" && name.is_empty() {
            if let Some(v) = line.strip_prefix("name") {
                let v = v.trim_start();
                if let Some(v) = v.strip_prefix('=') {
                    name = v.trim().trim_matches('"').to_string();
                }
            }
        }
        if section == "dependencies" {
            // `fortika-net.workspace = true` / `bytes = { path = ... }`
            // / `foo = "1.0"` — the dep name is the first key segment.
            let key = line
                .split(['=', ' ', '\t'])
                .next()
                .unwrap_or("")
                .split('.')
                .next()
                .unwrap_or("")
                .trim();
            if !key.is_empty() {
                deps.push((key.to_string(), idx + 1));
            }
        }
    }
    CrateInfo {
        name,
        manifest: rel.to_string(),
        deps,
    }
}

/// Member directories listed in a workspace `Cargo.toml` (the
/// `members = [...]` array, which may span lines).
pub fn workspace_members(root_manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_members = false;
    for raw in root_manifest.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if !in_members {
            if line.starts_with("members") && line.contains('[') {
                in_members = true;
            } else {
                continue;
            }
        }
        for piece in line.split(',') {
            let piece = piece.trim();
            if let Some(start) = piece.find('"') {
                if let Some(end) = piece[start + 1..].find('"') {
                    out.push(piece[start + 1..start + 1 + end].to_string());
                }
            }
        }
        if line.contains(']') {
            break;
        }
    }
    out
}

/// Runs the layering rules over the workspace rooted at `root`.
pub fn check(root: &Path, report: &mut Report) -> std::io::Result<()> {
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut crates: Vec<CrateInfo> = Vec::new();
    // The root package (the umbrella `fortika` crate) lives in the same
    // manifest as the workspace tables.
    crates.push(parse_manifest("Cargo.toml", &root_manifest));
    for member in workspace_members(&root_manifest) {
        let path = root.join(&member).join("Cargo.toml");
        let rel = format!("{member}/Cargo.toml");
        let content = std::fs::read_to_string(&path)?;
        crates.push(parse_manifest(&rel, &content));
    }
    check_graph(&crates, report);
    Ok(())
}

/// The pure graph check, separated so fixture tests can feed synthetic
/// manifests.
pub fn check_graph(crates: &[CrateInfo], report: &mut Report) {
    report.crates_checked += crates.len();
    let ranks: BTreeMap<&str, u32> = LAYERS.iter().copied().collect();
    for c in crates {
        if c.name == "fortika-lint" {
            for (dep, line) in &c.deps {
                report.findings.push(Finding {
                    rule: RULE_LAYERING,
                    file: c.manifest.clone(),
                    line: *line,
                    message: format!(
                        "fortika-lint must stay dependency-free (found `{dep}`): the analyzer \
                         cannot join the graph it polices"
                    ),
                });
            }
            continue;
        }
        let my_rank = ranks.get(c.name.as_str());
        if my_rank.is_none() && !VENDORED.contains(&c.name.as_str()) {
            report.findings.push(Finding {
                rule: RULE_LAYERING,
                file: c.manifest.clone(),
                line: 0,
                message: format!(
                    "crate `{}` is not in the layer table: add it to fortika-lint's LAYERS with \
                     an explicit rank (docs/LINTS.md)",
                    c.name
                ),
            });
        }
        for (dep, line) in &c.deps {
            if dep == "fortika-lint" {
                report.findings.push(Finding {
                    rule: RULE_LAYERING,
                    file: c.manifest.clone(),
                    line: *line,
                    message: "nothing may depend on fortika-lint (tooling, not a library)"
                        .to_string(),
                });
                continue;
            }
            if VENDORED.contains(&dep.as_str()) {
                continue;
            }
            let Some(dep_rank) = ranks.get(dep.as_str()) else {
                if dep.starts_with("fortika") {
                    report.findings.push(Finding {
                        rule: RULE_LAYERING,
                        file: c.manifest.clone(),
                        line: *line,
                        message: format!("dependency `{dep}` is not in the layer table"),
                    });
                } else {
                    report.findings.push(Finding {
                        rule: RULE_LAYERING,
                        file: c.manifest.clone(),
                        line: *line,
                        message: format!(
                            "external dependency `{dep}`: the workspace builds offline from \
                             vendored crates only (vendor it or drop it)"
                        ),
                    });
                }
                continue;
            };
            if PROTOCOL_CRATES.contains(&c.name.as_str()) && HARNESS_CRATES.contains(&dep.as_str())
            {
                report.findings.push(Finding {
                    rule: RULE_LAYERING,
                    file: c.manifest.clone(),
                    line: *line,
                    message: format!(
                        "protocol crate `{}` must not depend on the harness crate `{dep}`: \
                         measurement code cannot leak into the measured system",
                        c.name
                    ),
                });
                continue;
            }
            if let Some(my_rank) = my_rank {
                if dep_rank >= my_rank {
                    report.findings.push(Finding {
                        rule: RULE_LAYERING,
                        file: c.manifest.clone(),
                        line: *line,
                        message: format!(
                            "upward dependency: `{}` (layer {my_rank}) -> `{dep}` (layer \
                             {dep_rank}); the layer order is sim < trace < net < framework < \
                             {{fd, rbcast}} < {{consensus, abcast, mono}} < chaos < core < bench",
                            c.name
                        ),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(specs: &[(&str, &[&str])]) -> Vec<CrateInfo> {
        specs
            .iter()
            .map(|(name, deps)| CrateInfo {
                name: name.to_string(),
                manifest: format!("crates/{name}/Cargo.toml"),
                deps: deps
                    .iter()
                    .enumerate()
                    .map(|(i, d)| (d.to_string(), i + 1))
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn downward_edges_pass_upward_edges_fire() {
        let mut r = Report::default();
        check_graph(
            &graph(&[("fortika-net", &["fortika-sim", "fortika-trace", "bytes"])]),
            &mut r,
        );
        assert!(r.clean(), "{:?}", r.findings);

        let mut r = Report::default();
        check_graph(&graph(&[("fortika-trace", &["fortika-net"])]), &mut r);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("upward dependency"));
    }

    #[test]
    fn peers_cannot_depend_on_each_other() {
        let mut r = Report::default();
        check_graph(&graph(&[("fortika-fd", &["fortika-rbcast"])]), &mut r);
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    }

    #[test]
    fn protocol_crates_cannot_see_the_harness() {
        let mut r = Report::default();
        check_graph(&graph(&[("fortika-mono", &["fortika-chaos"])]), &mut r);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("harness"));
    }

    #[test]
    fn lint_stays_isolated_and_unknown_crates_are_flagged() {
        let mut r = Report::default();
        check_graph(
            &graph(&[
                ("fortika-lint", &["fortika-sim"]),
                ("fortika-shiny", &[]),
                ("fortika-bench", &["fortika-lint"]),
            ]),
            &mut r,
        );
        let msgs: Vec<&str> = r.findings.iter().map(|f| f.message.as_str()).collect();
        assert_eq!(msgs.len(), 3, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("dependency-free")));
        assert!(msgs.iter().any(|m| m.contains("not in the layer table")));
        assert!(msgs
            .iter()
            .any(|m| m.contains("nothing may depend on fortika-lint")));
    }

    #[test]
    fn external_dependencies_are_rejected() {
        let mut r = Report::default();
        check_graph(&graph(&[("fortika-net", &["serde"])]), &mut r);
        assert_eq!(r.findings.len(), 1);
        assert!(r.findings[0].message.contains("vendored"));
    }

    #[test]
    fn manifest_and_members_parsing() {
        let manifest = "[package]\nname = \"fortika-net\"\n\n[dependencies]\nbytes.workspace = true\nfortika-sim.workspace = true\n\n[dev-dependencies]\nfortika-chaos.workspace = true\n";
        let info = parse_manifest("crates/net/Cargo.toml", manifest);
        assert_eq!(info.name, "fortika-net");
        let names: Vec<&str> = info.deps.iter().map(|(d, _)| d.as_str()).collect();
        assert_eq!(names, vec!["bytes", "fortika-sim"], "dev-deps are exempt");

        let ws =
            "[workspace]\nmembers = [\n    \"crates/sim\",\n    \"crates/net\", # comment\n]\n";
        assert_eq!(workspace_members(ws), vec!["crates/sim", "crates/net"]);
    }
}
