//! Determinism gates for `run_suite` (up to `jobs` cases probed at
//! once, idle slots building modules ahead) over the full
//! 16-configuration workload suite:
//!
//! * at every job count each case returns exactly the sequential
//!   result: raw decisions, effort counters and verified output;
//! * chaos: the suite under the `scripts/chaos.sh` seed matrix still
//!   completes with every case verified at `--jobs 4`, and an
//!   always-failing probe environment degrades to quarantined
//!   may-alias — never to unverified output.
//!
//! The verdict tiers are salted per case, so two configurations that
//! built identical modules would still not share verdicts; the suite is
//! nonetheless pinned to build pairwise-distinct modules, so a registry
//! edit that silently duplicates a configuration is caught here.

use std::collections::BTreeSet;
use std::sync::Arc;

use oraql::{
    run_suite, DriverOptions, DriverResult, FaultInjector, FaultPlan, FaultSite, TestCase,
};
use oraql_faults::Rate;
use oraql_workloads as workloads;

/// One suite leg: every case, `jobs` cases at once.
/// Panics if any case fails.
fn run_leg(jobs: usize, faults: Option<FaultPlan>) -> Vec<DriverResult> {
    let opts = DriverOptions {
        jobs,
        faults: faults.map(|p| {
            oraql_faults::quiet_injected_panics();
            Arc::new(FaultInjector::new(p))
        }),
        ..Default::default()
    };
    run_suite(&workloads::all_cases(), &opts)
        .into_iter()
        .map(|r| r.expect("suite case failed"))
        .collect()
}

/// The sixteen configurations build distinct programs.
#[test]
fn workload_modules_are_pairwise_distinct() {
    let cases: Vec<TestCase> = workloads::all_cases();
    assert_eq!(cases.len(), 16);
    let texts: BTreeSet<String> = cases
        .iter()
        .map(|c| oraql_ir::printer::module_str(&(c.build)()))
        .collect();
    assert_eq!(
        texts.len(),
        cases.len(),
        "two configs build identical modules"
    );
}

/// Every job count returns the sequential results byte for byte: raw
/// decisions, effort and verified program output.
#[test]
fn all_legs_agree_with_sequential_decisions() {
    let seq = run_leg(1, None);
    for jobs in [2usize, 8] {
        let par = run_leg(jobs, None);
        assert_eq!(seq.len(), par.len(), "jobs {jobs}");
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.decisions, p.decisions, "jobs {jobs}: {}", s.name);
            assert_eq!(s.effort, p.effort, "jobs {jobs}: {}", s.name);
            assert_eq!(
                s.final_run.stdout, p.final_run.stdout,
                "jobs {jobs}: {}",
                s.name
            );
        }
    }
}

/// The `scripts/chaos.sh` seed matrix with four cases probed at once:
/// the suite completes with every case verified — faults degrade
/// probes, never correctness.
#[test]
fn chaos_seeds_complete_verified_under_deep_speculation() {
    for seed in [1u64, 42, 1337] {
        let plan = FaultPlan::uniform(seed, 1, 24);
        // `run_leg` unwraps every case: completion means each final
        // program was compiled and verified against its baseline
        // despite the injected faults.
        let r = run_leg(4, Some(plan));
        assert_eq!(r.len(), 16, "seed {seed}");
    }
}

/// An always-failing probe environment quarantines to may-alias: no
/// probe verdict can be proven, so nothing is optimistically kept, and
/// the final programs still verify.
#[test]
fn total_probe_failure_degrades_to_may_alias() {
    let plan = FaultPlan::quiet(3).with_rate(FaultSite::CompilePanic, Rate::always());
    oraql_faults::quiet_injected_panics();
    let opts = DriverOptions {
        jobs: 4,
        max_tests: 12,
        probe_retries: 1,
        faults: Some(Arc::new(FaultInjector::new(plan))),
        ..Default::default()
    };
    // A subset keeps the budget-bounded walk quick; the gate is about
    // degradation, not coverage.
    let cases: Vec<TestCase> = ["testsnap_omp", "xsbench", "gridmini"]
        .iter()
        .map(|n| workloads::find_case(n).expect(n))
        .collect();
    let results = run_suite(&cases, &opts);
    let mut quarantined = 0u64;
    for r in results {
        let r = r.expect("case must complete despite total probe failure");
        assert!(!r.fully_optimistic, "{}", r.name);
        quarantined += r.failures.quarantined;
    }
    assert!(quarantined > 0, "quarantine never engaged");
}
