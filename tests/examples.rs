//! Every example runs end to end in tier 1: each is pulled in as a
//! module and its `main` called from a test, so the oracle audits,
//! replay checks and invariants each one `assert!`s fail `cargo test`.

#[path = "../examples/crash_recovery.rs"]
mod crash_recovery;
#[path = "../examples/fault_recovery.rs"]
mod fault_recovery;
#[path = "../examples/latency_profile.rs"]
mod latency_profile;
#[path = "../examples/modularity_cost.rs"]
mod modularity_cost;
#[path = "../examples/partition_heal.rs"]
mod partition_heal;
#[path = "../examples/quickstart.rs"]
mod quickstart;
#[path = "../examples/replicated_kv.rs"]
mod replicated_kv;

#[test]
fn crash_recovery_runs() {
    crash_recovery::main();
}

#[test]
fn fault_recovery_runs() {
    fault_recovery::main();
}

#[test]
fn latency_profile_runs() {
    latency_profile::main();
}

#[test]
fn modularity_cost_runs() {
    modularity_cost::main();
}

#[test]
fn partition_heal_runs() {
    partition_heal::main();
}

#[test]
fn quickstart_runs() {
    quickstart::main();
}

#[test]
fn replicated_kv_runs() {
    replicated_kv::main();
}
