//! The traced run: per-layer metrics from the driver's own
//! instrumentation and from the layer replay.

use std::time::{Duration, Instant};

use oraql::trace::{ProbeKind, TraceSink};
use oraql::{run_suite, DriverResult, TestCase};
use oraql_obs::{SpanEvent, SpanSink};

use crate::replay::{self, Mode, Replay};
use crate::workload::{Bench, Inputs, Kind, Results};
use crate::{stats, timed_pass, Outcome, Samples};

/// Latency distribution metrics: median, tail, the tail's percentile
/// and the sample count.
fn put_latency(out: &mut Vec<(String, f64, &'static str)>, name: &str, samples: &[f64]) {
    let (tail, pct) = stats::tail(samples);
    out.push((format!("{name}.p50"), stats::median(samples), "us"));
    out.push((format!("{name}.tail"), tail, "us"));
    out.push((format!("{name}.tail_pct"), pct, "pct"));
    out.push((format!("{name}.samples"), samples.len() as f64, "count"));
}

/// Durations of spans named `name` whose parent span is named `parent`.
fn span_micros(spans: &[SpanEvent], name: &str, parent: &str) -> Vec<f64> {
    let names: std::collections::HashMap<u64, &str> =
        spans.iter().map(|s| (s.id, s.name.as_str())).collect();
    spans
        .iter()
        .filter(|s| s.name == name && names.get(&s.parent) == Some(&parent))
        .map(|s| s.dur_micros as f64)
        .collect()
}

/// The layers the driver itself exposes: registry deltas, effort
/// counters, spans, probe trace, store and client statistics.
fn driver_layers(
    bench: &Bench,
    inputs: &Inputs,
    results: &Results,
    delta: &oraql_obs::Snapshot,
    events: &[oraql::ProbeEvent],
    spans: &[SpanEvent],
    client0: Option<oraql::served::ClientStats>,
) -> Vec<(String, f64, &'static str)> {
    let mut out = Vec::new();
    let counter = |n: &str| delta.counters.get(n).copied().unwrap_or(0);
    let funnel = |n: &str| counter(&format!("oraql_driver_funnel_{n}_total")) as f64;
    let mut put = |name: &str, v: f64, unit: &'static str| out.push((name.to_owned(), v, unit));

    put(
        "gen.generate_us",
        micros(inputs.generate) * f64::from(bench.kind == Kind::GenCorpus),
        "us",
    );
    let effort =
        results
            .iter()
            .flatten()
            .fold(oraql::driver::ProbeEffort::default(), |mut a, r| {
                let e = r.effort;
                a.compiles += e.compiles;
                a.tests_deduced += e.tests_deduced;
                a.spec_launched += e.spec_launched + e.spec_hints;
                a.spec_cancelled += e.spec_cancelled;
                a.spec_wasted += e.spec_wasted;
                a
            });
    let answered: Vec<f64> = events
        .iter()
        .filter(|e| !matches!(e.kind, ProbeKind::Deduced | ProbeKind::Cancelled))
        .map(|e| e.wall_micros as f64)
        .collect();
    put("core.probes", answered.len() as f64, "count");
    put("core.deduced", effort.tests_deduced as f64, "count");
    let exe_hits = funnel("exe_cache_hits") + funnel("content_exe_hits");
    let compiles = funnel("compiles");
    put(
        "core.exe_hit_ratio",
        if compiles > 0.0 {
            exe_hits / compiles
        } else {
            0.0
        },
        "ratio",
    );
    for (metric, counter_name) in [
        ("dec_hits", "dec_cache_hits"),
        ("store_dec_hits", "store_dec_hits"),
        ("server_dec_hits", "server_dec_hits"),
        ("inflight_joins", "inflight_joins"),
        ("compiles", "compiles"),
        ("exe_hits", "exe_cache_hits"),
        ("content_exe_hits", "content_exe_hits"),
        ("vm_runs", "vm_runs"),
    ] {
        put(
            &format!("core.funnel.{metric}"),
            funnel(counter_name),
            "count",
        );
    }
    put("core.spec.launched", effort.spec_launched as f64, "count");
    put("core.spec.cancelled", effort.spec_cancelled as f64, "count");
    put("core.spec.wasted", effort.spec_wasted as f64, "count");
    put(
        "core.spec.useful_ratio",
        replay::ratio(
            effort.spec_launched.saturating_sub(effort.spec_cancelled),
            effort.spec_launched,
        ),
        "ratio",
    );

    let store = inputs.store.as_ref().map(|s| s.stats()).unwrap_or_default();
    put("store.open_us", micros(inputs.store_open), "us");
    put("store.hits", store.hits() as f64, "count");
    put("store.misses", store.misses as f64, "count");
    put("store.appends", store.appends as f64, "count");
    put(
        "store.sync_us",
        span_micros(spans, "store", "case").iter().sum::<f64>() + 0.0,
        "us",
    );
    let journal_bytes = inputs
        .store
        .as_ref()
        .and_then(|s| std::fs::metadata(s.path()).ok())
        .map_or(0, |m| m.len());
    put("store.journal_bytes", journal_bytes as f64, "bytes");

    let client = inputs
        .server
        .as_ref()
        .map(|(_, c)| c.stats())
        .unwrap_or_default();
    let c0 = client0.unwrap_or_default();
    put("served.start_us", micros(inputs.server_start), "us");
    put(
        "served.requests",
        ((client.lookups + client.appends) - (c0.lookups + c0.appends)) as f64,
        "count",
    );
    put(
        "served.retries",
        (client.retries - c0.retries) as f64,
        "count",
    );
    put("served.busy", (client.busy - c0.busy) as f64, "count");

    put_latency(&mut out, "core.probe_us", &answered);
    let compile_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "compile")
        .map(|s| s.dur_micros as f64)
        .collect();
    put_latency(&mut out, "core.compile_us", &compile_spans);
    put_latency(
        &mut out,
        "served.get_us",
        &span_micros(spans, "server", "probe"),
    );
    out
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Relative distance allowed between the replay's compile split and the
/// driver's compile histogram on cold-suite.
const SPLIT_TOLERANCE: f64 = 0.05;

/// Sum of the driver's `oraql_driver_compile_micros` histogram so far.
fn compile_hist_us() -> u64 {
    oraql_obs::global()
        .snapshot()
        .histograms
        .get("oraql_driver_compile_micros")
        .map_or(0, |h| h.sum)
}

/// Replays one case the way the workload's driver ran it and checks
/// that the replay reached the driver's decisions.
fn replay_case(
    rp: &mut Replay,
    bench: &Bench,
    case: &TestCase,
    r: &DriverResult,
) -> Result<(), String> {
    if bench.kind.warm() {
        return rp.fixed_case(case, &r.decisions);
    }
    let d = rp.solve_case(case, bench.kind == Kind::ColdSuite)?;
    // The sequential replay reaches the driver's decisions: exactly at
    // jobs 1, canonically at jobs 2.
    let same = if bench.kind.jobs() == 1 {
        d == r.decisions
    } else {
        d.canonical() == r.decisions.canonical()
    };
    if same {
        Ok(())
    } else {
        Err(format!(
            "{}: replay reached {} but the driver {}",
            case.name,
            d.render(),
            r.decisions.render()
        ))
    }
}

/// The driver's compile-histogram sum and the replay's compile split
/// over the same cases, in microseconds, for the split gate.
#[derive(Default)]
struct SplitGate {
    driver_us: f64,
    replay_us: f64,
}

impl SplitGate {
    /// The replay's split over the driver's compile time; 0 when nothing
    /// was measured.
    fn ratio(&self) -> f64 {
        if self.driver_us > 0.0 {
            self.replay_us / self.driver_us
        } else {
            0.0
        }
    }
}

/// Rounds a cold-suite traced run makes at least, so the split gate sums
/// several rounds, half with the replay first and half with the driver
/// first. The machine slows down in bursts, milliseconds to seconds
/// long, by up to a third, and whichever of the two runs a case second
/// finds its code and data warm: one round moved the ratio by 5–8%.
const SPLIT_ROUNDS: usize = 3;

/// The split gate's measurement, on cold-suite: the driver runs each
/// case, and a replay that times only what the compile histogram covers
/// replays the same case right before or after it (`replay_first`;
/// whichever runs second finds the case's code and data warm), so the
/// two compile the same probes close together in time. The replay must
/// also reach the driver's decisions.
fn split_round(
    bench: &mut Bench,
    gate: &mut SplitGate,
    attempted: &mut u64,
    failures: &mut Vec<String>,
    replay_first: bool,
) -> Result<(), String> {
    let inputs = bench.setup()?;
    let opts = bench.options(&inputs);
    let mut replay = Replay::new(Mode::Split);
    for (i, case) in inputs.cases.iter().enumerate() {
        let mut replay_it = || {
            let split0 = replay.layers.probe_split_ns.get();
            let d = replay.solve_case(case, true);
            (
                (replay.layers.probe_split_ns.get() - split0) as f64 / 1e3,
                d,
            )
        };
        let early = replay_first.then(&mut replay_it);
        let hist0 = compile_hist_us();
        let driver = run_suite(&inputs.cases[i..=i], &opts);
        let driver_us = (compile_hist_us() - hist0) as f64;
        let (replay_us, replayed) = match early {
            Some(r) => r,
            None => replay_it(),
        };
        gate.driver_us += driver_us;
        gate.replay_us += replay_us;
        *attempted += 1;
        match (driver.first(), replayed) {
            (Some(Ok(r)), Ok(d)) if r.decisions == d => {}
            (r, d) => failures.push(format!(
                "{}: split replay reached {:?}, the driver {:?}",
                case.name,
                d.map(|d| d.render()),
                r.map(|r| r
                    .as_ref()
                    .map(|r| r.decisions.render())
                    .map_err(|e| e.to_string()))
            )),
        }
    }
    inputs.teardown()
}

/// One traced pass (probe trace and spans on), then the layer replay of
/// its cases. Pushes the per-layer metrics; returns the pass's wall
/// time.
fn traced_pass(
    bench: &mut Bench,
    s: &mut Samples,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> Result<Duration, String> {
    let inputs = bench.setup()?;
    let trace = TraceSink::in_memory();
    let spans = SpanSink::in_memory();
    let mut opts = bench.options(&inputs);
    opts.trace = Some(trace.clone());
    opts.spans = Some(spans.clone());
    let client0 = opts.server.as_ref().map(|c| c.stats());
    let snap0 = oraql_obs::global().snapshot();
    let t = Instant::now();
    let results = bench.pass(&inputs, &opts);
    let wall = t.elapsed();
    let delta = oraql_obs::global().snapshot().delta(&snap0);
    let checked = bench.check(&inputs, &results);
    *attempted += checked.attempted;
    failures.extend(checked.failures);
    let mut replay = Replay::new(Mode::Layers);
    for (case, r) in inputs.cases.iter().zip(&results) {
        if let Ok(r) = r {
            *attempted += 1;
            if let Err(e) = replay_case(&mut replay, bench, case, r) {
                failures.push(e);
            }
        }
    }
    let mut layers = driver_layers(
        bench,
        &inputs,
        &results,
        &delta,
        &trace.events(),
        &spans.events(),
        client0,
    );
    replay.layers.metrics(&mut layers);
    for (name, v, unit) in layers {
        s.push(&name, v, unit);
    }
    drop(results);
    inputs.teardown()?;
    Ok(wall)
}

/// Checks the replay before anything is reported: one pass whose every
/// replayed compile is compared with `oraql::compile`, and whose replay
/// must reach the driver's decisions and, on cold-suite, compile
/// exactly the driver's probes. Returns what the replay's timers cost:
/// replayed compile time over the reference compiles' time.
fn check_faithful(
    bench: &mut Bench,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> Result<f64, String> {
    let inputs = bench.setup()?;
    let results = bench.pass(&inputs, &bench.options(&inputs));
    let checked = bench.check(&inputs, &results);
    *attempted += checked.attempted;
    failures.extend(checked.failures);
    let mut replay = Replay::new(Mode::Checked);
    for (case, r) in inputs.cases.iter().zip(&results) {
        if let Ok(r) = r {
            *attempted += 1;
            if let Err(e) = replay_case(&mut replay, bench, case, r) {
                failures.push(e);
            }
        }
    }
    failures.extend(replay.unfaithful.iter().cloned());
    if bench.kind == Kind::ColdSuite {
        let driver: u64 = results.iter().flatten().map(|r| r.effort.compiles).sum();
        let replayed = replay.layers.probe_compiles.get();
        if replayed != driver {
            failures.push(format!(
                "replay compiled {replayed} probes, the driver {driver}"
            ));
        }
    }
    drop(results);
    inputs.teardown()?;
    Ok(replay.layers.overhead_ratio())
}

pub(crate) fn traced(bench: &mut Bench, budget: Duration) -> Result<Outcome, String> {
    let mut s = Samples::default();
    let mut attempted = 0;
    let mut failures = Vec::new();
    let replay_overhead = check_faithful(bench, &mut attempted, &mut failures)?;
    let started = Instant::now();
    let mut rounds = 0;
    let (mut wall_plain, mut wall_traced) = (Vec::new(), Vec::new());
    let mut gate = SplitGate::default();
    let min_rounds = if bench.kind == Kind::ColdSuite {
        SPLIT_ROUNDS
    } else {
        1
    };
    while rounds < min_rounds || started.elapsed() < budget {
        rounds += 1;
        if bench.kind == Kind::ColdSuite {
            split_round(
                bench,
                &mut gate,
                &mut attempted,
                &mut failures,
                rounds % 2 == 0,
            )?;
        }
        // The untraced pass is the reference for the tracing overhead;
        // the order alternates between rounds so drift cancels out.
        for traced_turn in [rounds % 2 == 0, rounds % 2 == 1] {
            if traced_turn {
                let wall = traced_pass(bench, &mut s, &mut attempted, &mut failures)?;
                wall_traced.push(wall.as_secs_f64());
            } else {
                let (p, inputs, results) = timed_pass(bench)?;
                drop(results);
                inputs.teardown()?;
                wall_plain.push(p.wall.as_secs_f64());
                attempted += p.checked.attempted;
                failures.extend(p.checked.failures);
            }
        }
    }
    if bench.kind == Kind::ColdSuite {
        // A gate with a target of 1, not a metric with a better
        // direction: printed for the reader, not reported.
        let split_ratio = gate.ratio();
        println!(
            "gate core.split_vs_compile_hist {split_ratio:.4} (allowed 1 +/- {SPLIT_TOLERANCE})"
        );
        if (split_ratio - 1.0).abs() > SPLIT_TOLERANCE {
            failures.push(format!(
                "replay compile split is {split_ratio:.4}x the driver's compile histogram \
                 (allowed 1 +/- {SPLIT_TOLERANCE})"
            ));
        }
    }
    let overhead = stats::median(&wall_traced) / stats::median(&wall_plain);
    s.push("obs.trace_overhead_ratio", overhead, "ratio");
    s.push("obs.replay_overhead_ratio", replay_overhead, "ratio");
    let reported = s
        .order
        .iter()
        .map(|name| {
            let (v, unit) = &s.by_name[name];
            (name.clone(), stats::median(v), *unit)
        })
        .collect();
    Ok(Outcome {
        passes: rounds,
        attempted,
        failures,
        table: s,
        reported,
    })
}
