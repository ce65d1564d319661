//! The ORAQL command-line driver.
//!
//! ```text
//! oraql --list
//! oraql --benchmark <name> [--strategy chunked|frequency] [--dump]
//!       [--trace <file.jsonl>]
//!       [--store <journal>] [--no-store]
//!       [--server <addr>] [--no-server]
//!       [--fault-plan <spec>] [--probe-deadline-ms N]
//!       [--emit-sequence <file>]            # save the final decisions
//! oraql --benchmark <name> --replay <seq>   # compile+run a saved
//!                                           # sequence (or @file)
//! oraql --config <file>
//! oraql --all [--jobs N]
//! oraql trace --probes <trace.jsonl> [--spans <spans.jsonl>] ...
//! oraql gen --plan <spec> [--out DIR] [--run] ...
//! ```
//!
//! Runs the probing workflow on one (or all) of the registered proxy
//! benchmarks and prints the Fig. 4-style query statistics, the probing
//! effort, and (with `--dump`) the Fig. 3-style pessimistic-query
//! report.
//!
//! `--jobs N` (default 1, `--all` only) is the number of cases `--all`
//! probes at once. Each case probes inline, one probe at a time, with
//! its own in-memory verdict cache, so the report is the same at every
//! job count; a slot with no case left to start builds modules ahead
//! for the cases still running. `--trace` writes one JSONL event per
//! probe answer and prints a per-case summary table.
//!
//! `--store <journal>` attaches the crash-safe persistent verdict store
//! (`oraql-store`): probe verdicts are journaled across runs, so a warm
//! re-run answers probes without compiling. A `store = <path>` config
//! key does the same; `--no-store` overrides both.
//!
//! `--server <addr>` (host:port or `unix:<path>`) attaches the shared
//! verdict server (`oraql-served`) as a third cache tier behind the
//! local store: lookups that miss every local tier ask the daemon, and
//! computed verdicts are written through so concurrent drivers share
//! one probe corpus. If the daemon is unreachable the client's circuit
//! breaker fast-fails and the run falls back to the local tiers — a
//! dead server never fails a probe. A `server = <addr>` config key does
//! the same; `--no-server` overrides both.
//!
//! `--fault-plan <spec>` (e.g. `seed=42,vm-trap=1/16,compile-panic=1/32`)
//! arms the deterministic fault injector on the probe path — chaos
//! testing for the probe sandbox. Failed probes retry and then degrade
//! to pessimistic may-alias; counters are reported per run and a fault
//! summary is printed at exit. `--probe-deadline-ms N` puts each probe
//! attempt under a wall-clock watchdog (0 disables). Config keys
//! `fault_plan =` / `probe_deadline_ms =` do the same; the CLI wins.
//!
//! `--metrics-out <path>` writes the process-wide metrics registry
//! (counters, gauges, latency histograms from driver, VM, store, and
//! server client) as a Prometheus-style exposition at exit
//! and prints an additive `--- metrics ---` summary section rendered
//! from the same snapshot. `--spans-out <path>` enables span tracing:
//! one JSONL line per `case > probe > compile|vm|verify|store|server`
//! span. Config keys `metrics_out =` / `spans_out =` do the same; the
//! CLI wins. Both are off by default, so default output is unchanged.
//!
//! `oraql trace` is the offline analyzer: it recomputes the Fig. 2 /
//! Fig. 4 / Fig. 6 tables, the cache-tier funnel, per-case latency
//! quantiles, and a span self-time profile from those JSONL artifacts
//! (see `oraql trace --help`).
//!
//! `oraql gen` materializes and runs seeded aliasing corpora with
//! ground truth by construction (`oraql-gen`; see `oraql gen --help`).
//! Generated case names (`gen:<plan>#<index>`) are first-class
//! benchmark names everywhere a registered name is accepted —
//! `--benchmark`, configs, `--replay` — and carry their label map: the
//! driver cross-checks every final verdict against it (the soundness
//! gate) unless `--no-gate` or `soundness_gate = false` disables it.

use oraql::config::Config;
use oraql::report::{render_report, render_trace_summary, DumpFlags};
use oraql::trace::TraceSink;
use oraql::{Driver, DriverOptions, DriverResult, Strategy, TestCase};
use oraql_workloads as workloads;

fn usage() -> ! {
    eprintln!(
        "usage: oraql --list\n       \
         oraql --benchmark <name> [--strategy chunked|frequency] [--dump] [--max-tests N]\n                \
         [--trace <file.jsonl>]\n                \
         [--store <journal>] [--no-store]\n                \
         [--server <addr>] [--no-server]\n                \
         [--fault-plan <spec>] [--probe-deadline-ms N]\n                \
         [--metrics-out <file.prom>] [--spans-out <file.jsonl>]\n       \
         oraql --config <file>\n       \
         oraql --all [--jobs N]\n       \
         oraql trace --probes <trace.jsonl> [--spans <spans.jsonl>] [--help]\n       \
         oraql gen --plan <spec> [--out <dir>] [--run] [--no-gate] [--help]"
    );
    std::process::exit(2)
}

/// Fetches the value of `flag` or exits with a one-line error.
fn flag_value(args: &[String], i: &mut usize, flag: &str) -> String {
    *i += 1;
    match args.get(*i) {
        Some(v) => v.clone(),
        None => {
            eprintln!("missing value for {flag}");
            std::process::exit(2)
        }
    }
}

/// Fetches and parses the value of `flag` or exits with a one-line
/// error naming the flag and the expected shape.
fn parsed_flag<T: std::str::FromStr>(args: &[String], i: &mut usize, flag: &str, want: &str) -> T {
    let v = flag_value(args, i, flag);
    match v.parse() {
        Ok(x) => x,
        Err(_) => {
            eprintln!("bad {flag} {v:?}: expected {want}");
            std::process::exit(2)
        }
    }
}

/// Compiles and runs one benchmark with a fixed decision sequence (the
/// paper's "program compiled with (almost) perfect alias information").
fn replay(name: &str, seq_arg: &str) -> i32 {
    let Some((case, _)) = prepare_case(name, None) else {
        eprintln!("unknown benchmark {name:?}; try --list");
        return 2;
    };
    let decisions = match oraql::Decisions::from_arg(seq_arg) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("bad sequence: {e}");
            return 2;
        }
    };
    let compiled = oraql::compile::compile(
        &*case.build,
        &oraql::compile::CompileOptions::with_oraql(decisions, case.scope.clone()),
    );
    let Some(main) = compiled.module.find_func("main") else {
        eprintln!("{name}: module has no main function");
        return 1;
    };
    let mut interp = oraql_vm::Interpreter::new(&compiled.module).with_fuel(case.fuel);
    match interp.run(main, vec![]) {
        Ok(_) => {
            print!("{}", interp.stdout());
            let Some(oraql_state) = compiled.oraql.as_ref() else {
                eprintln!("{name}: compile attached no ORAQL pass state");
                return 1;
            };
            let st = oraql_state.lock();
            eprintln!(
                "[oraql] replay: {} optimistic / {} pessimistic unique queries, {} insts",
                st.stats.unique_optimistic,
                st.stats.unique_pessimistic,
                interp.stats().total_insts()
            );
            0
        }
        Err(e) => {
            eprintln!("[oraql] replay failed: {e}");
            1
        }
    }
}

/// Looks up a registered case — or reconstructs a generated one from
/// its `gen:<plan>#<index>` name, together with its ground-truth label
/// map — and applies config-file overrides.
fn prepare_case(
    name: &str,
    cfg: Option<&Config>,
) -> Option<(TestCase, Option<std::sync::Arc<oraql::GroundTruth>>)> {
    let (mut case, truth) = match workloads::find_case(name) {
        Some(c) => (c, None),
        None => {
            let g = oraql_gen::resolve(name)?;
            (g.case, Some(std::sync::Arc::new(g.truth)))
        }
    };
    if let Some(cfg) = cfg {
        // Config overrides the registry defaults.
        if cfg.scope != oraql::compile::Scope::everything() {
            case.scope = cfg.scope.clone();
        }
        if !cfg.ignore.is_empty() {
            case.ignore_patterns = cfg.ignore.clone();
        }
        case.extra_references = cfg.references.clone();
        case.fuel = cfg.fuel;
        case.use_cfl = cfg.use_cfl;
    }
    Some((case, truth))
}

/// Prints one driver result in the report format; returns the exit code.
fn print_result(name: &str, r: &DriverResult, dump: bool, emit_sequence: Option<&str>) -> i32 {
    let info = workloads::find_info(name);
    println!("== {name} ==");
    if let Some(i) = info {
        println!(
            "benchmark: {} | model: {} | files: {}",
            i.benchmark, i.model, i.source_files
        );
    }
    println!(
        "fully optimistic: {} | final sequence: {}",
        r.fully_optimistic,
        truncate(&r.decisions.render(), 72)
    );
    println!(
        "opt queries: {} unique / {} cached | pess queries: {} unique / {} cached",
        r.oraql.unique_optimistic,
        r.oraql.cached_optimistic,
        r.oraql.unique_pessimistic,
        r.oraql.cached_pessimistic
    );
    println!(
        "no-alias results: {} -> {} ({:+.1}%)",
        r.no_alias_original,
        r.no_alias_oraql,
        r.no_alias_delta_percent()
    );
    println!(
        "probing: {} compiles, {} tests run, {} cached, {} dec-cached, {} deduced",
        r.effort.compiles,
        r.effort.tests_run,
        r.effort.tests_cached,
        r.effort.tests_dec_cached,
        r.effort.tests_deduced
    );
    if !r.failures.is_quiet() {
        // Sandbox events only happen under injected faults or genuine
        // probe crashes; the line is omitted on healthy runs so their
        // output stays byte-identical to earlier versions.
        let f = &r.failures;
        println!(
            "sandbox: {} panics, {} deadlines, {} vm errors, {} mismatches, \
             {} store-corrupt, {} server-down, {} server-busy | {} retries, \
             {} quarantined to may-alias",
            f.panics,
            f.deadlines,
            f.vm_errors,
            f.output_mismatches,
            f.store_corrupt,
            f.server_down,
            f.server_busy,
            f.retries,
            f.quarantined
        );
    }
    println!(
        "executed instructions: {} -> {} | host cycles: {} -> {} | device cycles: {} -> {}",
        r.baseline_run.stats.total_insts(),
        r.final_run.stats.total_insts(),
        r.baseline_run.stats.host_cycles,
        r.final_run.stats.host_cycles,
        r.baseline_run.stats.device_cycles,
        r.final_run.stats.device_cycles,
    );
    if let Some(t) = &r.truth {
        // Only generated cases carry a label map; the line is absent on
        // registry benchmarks so their reports stay byte-identical.
        println!("ground truth: {t}");
    }
    if let Some(path) = emit_sequence {
        match std::fs::write(path, r.decisions.render()) {
            Ok(()) => println!("final sequence written to {path} (replay with --replay @{path})"),
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
    if dump {
        println!("--- pessimistic query report ---");
        let text = render_report(
            &r.final_module,
            &r.queries,
            DumpFlags::pessimistic_only(),
            &r.pass_trace,
        );
        if text.is_empty() {
            println!("(no pessimistic queries)");
        } else {
            print!("{text}");
        }
    }
    0
}

fn run_one(
    name: &str,
    mut opts: DriverOptions,
    dump: bool,
    cfg: Option<&Config>,
    emit_sequence: Option<&str>,
    gate: bool,
) -> i32 {
    let Some((case, truth)) = prepare_case(name, cfg) else {
        eprintln!("unknown benchmark {name:?}; try --list");
        return 2;
    };
    if gate {
        opts.ground_truth = truth;
    }
    match Driver::run(&case, opts) {
        Ok(r) => print_result(name, &r, dump, emit_sequence),
        Err(e) => {
            eprintln!("{name}: driver failed: {e}");
            1
        }
    }
}

/// `--all`: every registered benchmark through one suite run, up to
/// `--jobs` cases at once. Reports are printed in registry order and
/// are the same at every job count.
fn run_all(opts: &DriverOptions, dump: bool, cfg: Option<&Config>) -> i32 {
    let cases: Vec<TestCase> = workloads::CASE_INFOS
        .iter()
        .filter_map(|info| prepare_case(info.name, cfg).map(|(c, _)| c))
        .collect();
    let results = oraql::run_suite(&cases, opts);
    let mut worst = 0;
    for (case, result) in cases.iter().zip(&results) {
        match result {
            Ok(r) => {
                worst = worst.max(print_result(&case.name, r, dump, None));
            }
            Err(e) => {
                eprintln!("{}: driver failed: {e}", case.name);
                worst = worst.max(1);
            }
        }
        println!();
    }
    worst
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n])
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `oraql trace ...`: the offline analyzer over a run's JSONL
    // artifacts; no driver machinery is touched.
    if args.first().map(String::as_str) == Some("trace") {
        std::process::exit(workloads::analyze::run_cli(&args[1..]));
    }
    // `oraql gen ...`: the corpus generator / soundness-gate harness.
    if args.first().map(String::as_str) == Some("gen") {
        std::process::exit(workloads::gencli::run_cli(&args[1..]));
    }
    let mut benchmark: Option<String> = None;
    let mut config: Option<Config> = None;
    let mut opts = DriverOptions::default();
    let mut dump = false;
    let mut all = false;
    let mut emit_sequence: Option<String> = None;
    let mut replay_seq: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut store_path: Option<String> = None;
    let mut no_store = false;
    let mut server_addr: Option<String> = None;
    let mut no_server = false;
    let mut fault_plan: Option<String> = None;
    let mut probe_deadline_ms: Option<u64> = None;
    let mut metrics_out: Option<String> = None;
    let mut spans_out: Option<String> = None;
    let mut no_gate = false;
    let mut jobs_given = false;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let flag = flag.as_str();
        match flag {
            "--list" => {
                for info in workloads::CASE_INFOS
                    .iter()
                    .chain(workloads::EXTRA_CASE_INFOS.iter())
                {
                    println!("{:20} {} ({})", info.name, info.benchmark, info.model);
                }
                return;
            }
            "--all" => all = true,
            "--dump" => dump = true,
            "--no-gate" => no_gate = true,
            "--benchmark" | "-b" => benchmark = Some(flag_value(&args, &mut i, flag)),
            "--strategy" | "-s" => {
                let v = flag_value(&args, &mut i, flag);
                opts.strategy = Strategy::parse(&v).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2)
                });
            }
            "--emit-sequence" => emit_sequence = Some(flag_value(&args, &mut i, flag)),
            "--replay" => replay_seq = Some(flag_value(&args, &mut i, flag)),
            "--max-tests" => {
                opts.max_tests = parsed_flag(&args, &mut i, flag, "an integer probe budget");
            }
            "--jobs" | "-j" => {
                jobs_given = true;
                opts.jobs = parsed_flag(&args, &mut i, flag, "an integer >= 1");
                if opts.jobs < 1 {
                    eprintln!("bad {flag}: expected an integer >= 1");
                    std::process::exit(2)
                }
            }
            "--trace" => trace_path = Some(flag_value(&args, &mut i, flag)),
            "--store" => store_path = Some(flag_value(&args, &mut i, flag)),
            "--no-store" => no_store = true,
            "--server" => server_addr = Some(flag_value(&args, &mut i, flag)),
            "--no-server" => no_server = true,
            "--fault-plan" => fault_plan = Some(flag_value(&args, &mut i, flag)),
            "--metrics-out" => metrics_out = Some(flag_value(&args, &mut i, flag)),
            "--spans-out" => spans_out = Some(flag_value(&args, &mut i, flag)),
            "--probe-deadline-ms" => {
                probe_deadline_ms = Some(parsed_flag(&args, &mut i, flag, "a millisecond count"));
            }
            "--config" | "-c" => {
                let path = flag_value(&args, &mut i, flag);
                let cfg = Config::load(&path).unwrap_or_else(|e| {
                    eprintln!("{e}");
                    std::process::exit(2)
                });
                opts.strategy = cfg.strategy;
                opts.max_tests = cfg.max_tests;
                benchmark = Some(cfg.benchmark.clone());
                dump |= cfg.dump;
                config = Some(cfg);
            }
            other => {
                eprintln!("unknown flag {other:?}");
                usage()
            }
        }
        i += 1;
    }
    if jobs_given && !all {
        // One case probes inline: --jobs only means something for a suite.
        eprintln!("--jobs applies to --all only");
        usage()
    }
    opts.trace_passes = dump;
    let sink = trace_path.as_deref().map(|p| {
        TraceSink::to_file(p).unwrap_or_else(|e| {
            eprintln!("cannot open trace file {p}: {e}");
            std::process::exit(2)
        })
    });
    opts.trace = sink.clone();

    // CLI --metrics-out / --spans-out win over the config keys. The
    // span sink streams to its file as spans close; the metrics
    // exposition is written once at exit.
    let metrics_out = metrics_out.or_else(|| config.as_ref().and_then(|c| c.metrics_out.clone()));
    let spans_out = spans_out.or_else(|| config.as_ref().and_then(|c| c.spans_out.clone()));
    let spans = spans_out.as_deref().map(|p| {
        oraql_obs::SpanSink::to_file(std::path::Path::new(p)).unwrap_or_else(|e| {
            eprintln!("cannot open spans file {p}: {e}");
            std::process::exit(2)
        })
    });
    opts.spans = spans.clone();
    // Registry baseline, so the printed section reflects this run even
    // if the process (e.g. under a test harness) did earlier work.
    let snap0 = oraql_obs::global().snapshot();

    // CLI --store wins over the config's `store =` key; --no-store
    // disables both.
    let store_path = if no_store {
        None
    } else {
        store_path.or_else(|| config.as_ref().and_then(|c| c.store.clone()))
    };
    let store = store_path.as_deref().map(|p| match oraql::Store::open(p) {
        Ok(s) => std::sync::Arc::new(s),
        Err(e) => {
            eprintln!("cannot open verdict store {p}: {e}");
            std::process::exit(2)
        }
    });
    opts.store = store.clone();

    // CLI --server wins over the config's `server =` key; --no-server
    // disables both. Dialing is lazy, so a dead daemon costs nothing
    // until the first probe misses every local tier.
    let server_addr = if no_server {
        None
    } else {
        server_addr.or_else(|| config.as_ref().and_then(|c| c.server.clone()))
    };
    let server = server_addr
        .as_deref()
        .map(|addr| std::sync::Arc::new(oraql::served::Client::new(addr)));
    opts.server = server.clone();

    // CLI --fault-plan / --probe-deadline-ms win over the config keys.
    let fault_plan = fault_plan.or_else(|| config.as_ref().and_then(|c| c.fault_plan.clone()));
    let injector = fault_plan.as_deref().map(|spec| {
        let plan = oraql::FaultPlan::parse(spec).unwrap_or_else(|e| {
            eprintln!("bad --fault-plan: {e}");
            std::process::exit(2)
        });
        // Injected panics are expected noise under a fault plan; keep
        // their backtrace banners off stderr.
        oraql::faults::quiet_injected_panics();
        std::sync::Arc::new(oraql::FaultInjector::new(plan))
    });
    opts.faults = injector.clone();
    opts.probe_deadline = probe_deadline_ms
        .or_else(|| config.as_ref().map(|c| c.probe_deadline_ms))
        .filter(|&ms| ms > 0)
        .map(std::time::Duration::from_millis);

    // `--no-gate` wins over the config's `soundness_gate` key (default
    // on). The gate only ever has labels to check on generated cases.
    let gate = !no_gate && config.as_ref().is_none_or(|c| c.soundness_gate);

    let code = if let (Some(name), Some(seq)) = (&benchmark, &replay_seq) {
        replay(name, seq)
    } else if all {
        run_all(&opts, dump, config.as_ref())
    } else if let Some(name) = benchmark {
        run_one(
            &name,
            opts.clone(),
            dump,
            config.as_ref(),
            emit_sequence.as_deref(),
            gate,
        )
    } else {
        usage()
    };

    if let (Some(sink), Some(path)) = (&sink, &trace_path) {
        let dropped = sink.flush();
        if dropped > 0 {
            eprintln!("warning: {dropped} probe trace lines lost writing {path}");
        }
        println!("--- probe trace summary ({path}) ---");
        print!("{}", render_trace_summary(&sink.events()));
    }
    if let (Some(store), Some(path)) = (&store, &store_path) {
        let _ = store.sync();
        println!("--- verdict store ({path}) ---");
        println!("store: {}", store.stats());
    }
    if let (Some(server), Some(addr)) = (&server, &server_addr) {
        println!("--- verdict server ({addr}) ---");
        println!("client: {}", server.stats());
    }
    if let (Some(inj), Some(spec)) = (&injector, &fault_plan) {
        println!("--- fault injection ({spec}) ---");
        for (site, occurrences, fired) in inj.summary() {
            println!(
                "{:20} {occurrences:>8} drawn {fired:>8} fired",
                site.as_str()
            );
        }
        println!("total faults fired: {}", inj.total_fired());
    }
    if let (Some(spans), Some(path)) = (&spans, &spans_out) {
        let dropped = spans.flush();
        if dropped > 0 {
            eprintln!("warning: {dropped} span lines lost writing {path}");
        }
        println!("--- spans ({path}) ---");
        println!("spans recorded: {}", spans.events().len());
    }
    if let Some(path) = &metrics_out {
        let snap = oraql_obs::global().snapshot();
        if let Err(e) = std::fs::write(path, snap.render()) {
            eprintln!("cannot write metrics file {path}: {e}");
        }
        println!("--- metrics ({path}) ---");
        print!("{}", render_metrics_section(&snap.delta(&snap0)));
    }
    std::process::exit(code);
}

/// The end-of-run metrics summary, rendered purely from a registry
/// snapshot delta — the human-readable face of the same numbers the
/// exposition file carries.
fn render_metrics_section(d: &oraql_obs::Snapshot) -> String {
    let c = |name: &str| d.counters.get(name).copied().unwrap_or(0);
    let mut out = String::new();
    out.push_str(&format!(
        "probes: {} total | executed {} exe-cache {} dec-cache {} store {} server {} deduced {} faulted {}\n",
        c("oraql_driver_probes_total"),
        c("oraql_driver_probe_executed_total"),
        c("oraql_driver_probe_exe_cache_total"),
        c("oraql_driver_probe_dec_cache_total"),
        c("oraql_driver_probe_store_total"),
        c("oraql_driver_probe_server_total"),
        c("oraql_driver_probe_deduced_total"),
        c("oraql_driver_probe_faulted_total"),
    ));
    out.push_str(&format!(
        "funnel: dec-cache {} -> store-dec {} -> server-dec {} -> compile {} -> exe-cache {} -> store-exe {} -> server-exe {} -> vm {}\n",
        c("oraql_driver_funnel_dec_cache_hits_total"),
        c("oraql_driver_funnel_store_dec_hits_total"),
        c("oraql_driver_funnel_server_dec_hits_total"),
        c("oraql_driver_funnel_compiles_total"),
        c("oraql_driver_funnel_exe_cache_hits_total"),
        c("oraql_driver_funnel_store_exe_hits_total"),
        c("oraql_driver_funnel_server_exe_hits_total"),
        c("oraql_driver_funnel_vm_runs_total"),
    ));
    out.push_str(&format!(
        "vm: {} runs, {} insts, {} fuel refunds, {} decode lowerings\n",
        c("oraql_vm_runs_total"),
        c("oraql_vm_insts_total"),
        c("oraql_vm_fuel_refunds_total"),
        c("oraql_vm_decode_lowerings_total"),
    ));
    out.push_str(&format!(
        "store: {} appends, {} fsyncs | retries {} quarantined {}\n",
        c("oraql_store_appends_total"),
        c("oraql_store_fsyncs_total"),
        c("oraql_driver_retries_total"),
        c("oraql_driver_quarantined_total"),
    ));
    if let Some(h) = d.histograms.get("oraql_driver_probe_micros") {
        out.push_str(&format!(
            "probe latency (µs): p50 {} p90 {} p99 {} mean {:.1} ({} samples)\n",
            h.quantile(0.5),
            h.quantile(0.9),
            h.quantile(0.99),
            h.mean(),
            h.count
        ));
    }
    out
}
