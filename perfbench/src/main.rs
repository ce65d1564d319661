//! `oraql-perfbench`: the layer-attributed benchmark of the ORAQL
//! probing driver.
//!
//! ```text
//! oraql-perfbench --workload <cold-suite|warm-store|warm-server|gen-corpus>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it repeats set-up plus one measured pass of the
//! workload for `--seconds`, checks every pass's outputs, and reports
//! the median of each end-to-end metric. With `--trace 1` it checks the
//! layer replay against the program, then alternates untraced and traced
//! passes, each followed by a replay of its cases, and reports the
//! per-layer metrics. The last line of standard output is one JSON
//! object; the lines before it are the run's provenance and a readable
//! table. See `README.md` in this directory.

mod replay;
mod stats;
mod sys;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use workload::{Bench, Checked, Inputs, Kind, Results};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("compiles", "count"),
    ("peak_rss_mb", "MB"),
    ("final_insts", "count"),
    ("no_alias_final", "count"),
];

/// Batches of set-ups before the measured passes. One more batch follows
/// every measured pass, so the samples span the run as the passes do;
/// `setup_s` is the median of the batches' means.
const SETUP_BATCHES: usize = 5;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Samples of named metrics, each with its unit.
#[derive(Default)]
struct Samples {
    by_name: BTreeMap<String, (Vec<f64>, &'static str)>,
    order: Vec<String>,
}

impl Samples {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        if !self.by_name.contains_key(name) {
            self.order.push(name.to_owned());
        }
        self.by_name
            .entry(name.to_owned())
            .or_insert_with(|| (Vec::new(), unit))
            .0
            .push(value);
    }

    fn values(&self, name: &str) -> &[f64] {
        self.by_name.get(name).map_or(&[], |(v, _)| v)
    }
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("oraql-perfbench: {e}");
            eprintln!(
                "usage: oraql-perfbench --workload <cold-suite|warm-store|warm-server|gen-corpus> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("oraql-perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    )));
    let mut bench = Bench::prepare(args.kind, args.seed, &work.0)?;
    let budget = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        traced::traced(&mut bench, budget)?
    } else {
        untraced(&mut bench, budget)?
    };

    println!(
        "meta {{\"git_rev\": \"{}\", \"nproc\": {}, \"workload\": \"{}\", \"seed\": {}, \
         \"seconds\": {}, \"trace\": {}, \"passes\": {}, \"params\": {}, \
         \"decisions_digest\": \"{:016x}\"}}",
        sys::git_rev(),
        sys::nproc(),
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.passes,
        bench.params(),
        bench.decisions_digest(),
    );
    for f in outcome.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    println!(
        "{:<36} {:>16} {:>16} {:>16} {:>5}  unit",
        "metric", "median", "q1", "q3", "n"
    );
    for name in &outcome.table.order {
        let (v, unit) = &outcome.table.by_name[name];
        println!(
            "{:<36} {:>16.6} {:>16.6} {:>16.6} {:>5}  {unit}",
            name,
            stats::median(v),
            stats::quantile(v, 0.25),
            stats::quantile(v, 0.75),
            v.len()
        );
    }
    let metrics: Vec<String> = outcome
        .reported
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failures.is_empty(),
        outcome.attempted.max(1),
        outcome.failures.len(),
        metrics.join(", ")
    );
    Ok(())
}

/// What one run found.
struct Outcome {
    passes: usize,
    attempted: u64,
    failures: Vec<String>,
    /// Every sampled metric, for the readable table.
    table: Samples,
    /// The metrics of the JSON line, as medians.
    reported: Vec<(String, f64, &'static str)>,
}

/// One timed pass: the driver over every case, then the checks.
struct Pass {
    wall: Duration,
    cpu: Duration,
    checked: Checked,
}

fn timed_pass(bench: &mut Bench) -> Result<(Pass, Inputs, Results), String> {
    let inputs = bench.setup()?;
    let opts = bench.options(&inputs);
    let cpu0 = sys::cpu_time();
    let t = Instant::now();
    let results = bench.pass(&inputs, &opts);
    let wall = t.elapsed();
    let cpu = sys::cpu_time().saturating_sub(cpu0);
    let checked = bench.check(&inputs, &results);
    Ok((Pass { wall, cpu, checked }, inputs, results))
}

/// One unrecorded pass, so lazy initialisation and allocator growth are
/// not timed. Its outputs are still checked.
fn warm_up(
    bench: &mut Bench,
    attempted: &mut u64,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let (p, inputs, results) = timed_pass(bench)?;
    drop(results);
    inputs.teardown()?;
    *attempted += p.checked.attempted;
    failures.extend(p.checked.failures);
    Ok(())
}

fn untraced(bench: &mut Bench, budget: Duration) -> Result<Outcome, String> {
    let mut s = Samples::default();
    for _ in 0..SETUP_BATCHES {
        s.push("setup_s", bench.setup_batch()?.as_secs_f64(), "s");
    }
    let mut attempted = 0;
    let mut failures = Vec::new();
    warm_up(bench, &mut attempted, &mut failures)?;
    // Peak memory is taken over all measured passes of the run: a
    // single pass's peak depends on which allocator arenas its threads
    // happen to touch.
    sys::reset_peak_rss().map_err(|e| format!("reset peak RSS: {e}"))?;
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed() < budget {
        let (p, inputs, results) = timed_pass(bench)?;
        drop(results);
        inputs.teardown()?;
        passes += 1;
        s.push("setup_s", bench.setup_batch()?.as_secs_f64(), "s");
        let c = &p.checked;
        attempted += c.attempted;
        failures.extend(c.failures.iter().cloned());
        s.push("wall_s", p.wall.as_secs_f64(), "s");
        s.push("cpu_s", p.cpu.as_secs_f64(), "s");
        s.push("compiles", c.compiles as f64, "count");
        s.push("final_insts", c.final_insts as f64, "count");
        s.push("no_alias_final", c.no_alias_final as f64, "count");
        s.push("probe_compiles", c.probe_compiles as f64, "count");
        s.push(
            "failed_frac",
            replay::ratio(c.failures.len() as u64, c.attempted),
            "ratio",
        );
    }
    let peak = sys::peak_rss_mb().map_err(|e| format!("read peak RSS: {e}"))?;
    s.push("peak_rss_mb", peak, "MB");
    let reported = END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_owned(), stats::median(s.values(name)), unit))
        .collect();
    Ok(Outcome {
        passes,
        attempted,
        failures,
        table: s,
        reported,
    })
}
