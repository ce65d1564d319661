//! Determinism across job counts: `run_suite` at `--jobs N` returns
//! exactly what `--jobs 1` returns on real workloads (raw decisions,
//! effort counters and verified output), and the probe trace stays
//! consistent with the effort counters.

use oraql::trace::TraceSink;
use oraql::{run_suite, DriverOptions, DriverResult, ProbeKind};
use oraql_workloads as workloads;

/// Two workloads that genuinely bisect (not fully optimistic).
const CASES: [&str; 2] = ["testsnap_omp", "xsbench"];

fn suite(jobs: usize, trace: Option<TraceSink>) -> Vec<DriverResult> {
    let cases: Vec<_> = CASES
        .iter()
        .map(|n| workloads::find_case(n).expect(n))
        .collect();
    let opts = DriverOptions {
        jobs,
        trace,
        ..Default::default()
    };
    run_suite(&cases, &opts)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("jobs={jobs}: {e}")))
        .collect()
}

/// Asserts two suite runs agree byte for byte on every case.
fn assert_same(a: &[DriverResult], b: &[DriverResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.decisions, y.decisions, "{what}: {}", x.name);
        assert_eq!(x.effort, y.effort, "{what}: {}", x.name);
        assert_eq!(x.final_run.stdout, y.final_run.stdout, "{what}: {}", x.name);
    }
}

/// Cases probed at once return exactly the sequential results: keys
/// are salted with the case, so no case sees another's verdicts.
#[test]
fn parallel_jobs_match_sequential_on_workloads() {
    let seq = suite(1, None);
    assert!(seq.iter().all(|r| !r.fully_optimistic));
    for jobs in [2, 4] {
        assert_same(&seq, &suite(jobs, None), &format!("jobs {jobs}"));
    }
}

/// Parallel runs are repeatable run to run.
#[test]
fn parallel_runs_are_repeatable() {
    assert_same(&suite(4, None), &suite(4, None), "jobs 4 twice");
}

/// `jobs = 1` is bit-stable run to run (same probes, same counters).
#[test]
fn sequential_runs_are_bit_stable() {
    assert_same(&suite(1, None), &suite(1, None), "jobs 1 twice");
}

/// At every job count each case's probe trace agrees with its effort
/// counters.
#[test]
fn trace_is_consistent_with_effort() {
    for jobs in [1, 4] {
        let sink = TraceSink::in_memory();
        let results = suite(jobs, Some(sink.clone()));
        let events = sink.events();
        for r in &results {
            let count = |k: ProbeKind| {
                events
                    .iter()
                    .filter(|e| e.case == r.name && e.kind == k)
                    .count() as u64
            };
            let e = &r.effort;
            let what = format!("jobs {jobs}: {}", r.name);
            assert_eq!(count(ProbeKind::Executed), e.tests_run, "{what}");
            assert_eq!(count(ProbeKind::ExeCacheHit), e.tests_cached, "{what}");
            assert_eq!(count(ProbeKind::Deduced), e.tests_deduced, "{what}");
            assert_eq!(
                count(ProbeKind::DecisionCacheHit),
                e.tests_dec_cached,
                "{what}"
            );
        }
    }
}
