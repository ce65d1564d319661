//! The layer replay: recompiles a case's probes from the program's
//! public pieces and times the calls into each layer.
//!
//! `oraql::compile` is one opaque call, so the replay rebuilds it from
//! the parts it is made of: the case's build closure, the conservative
//! alias-analysis chain with ORAQL last (every analysis wrapped in
//! [`TimedAA`]), the twelve-pass pipeline (every pass wrapped in
//! [`TimedPass`]), machine lowering for both targets, then module
//! printing plus hashing, the decoded interpreter and the verifier.
//! [`ReplayProber`] drives `Strategy::solve` with the same answer rules
//! as the sequential (`jobs = 1`) driver: an executable hash seen
//! before reuses its verdict and the unique count recorded with it,
//! and, when the driver has a store attached, a decision vector seen
//! before reuses its answer.
//!
//! Every replayed compile can be checked against `oraql::compile` with
//! the same decisions ([`Replay::faithful`]): the module text and the
//! pass statistics must match exactly.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::time::Instant;

use oraql::pass::new_shared_with;
use oraql::strategy::{ProbeOutcome, Prober};
use oraql::{CompileOptions, Decisions, OraqlAA, TestCase, Verifier};
use oraql_analysis::aa::{AliasAnalysis, QueryCtx};
use oraql_analysis::andersen::AndersenAA;
use oraql_analysis::basic::BasicAA;
use oraql_analysis::globals::GlobalsAA;
use oraql_analysis::location::{AliasResult, MemoryLocation};
use oraql_analysis::scoped::ScopedNoAliasAA;
use oraql_analysis::steens::SteensgaardAA;
use oraql_analysis::tbaa::TypeBasedAA;
use oraql_analysis::AAManager;
use oraql_ir::meta::Target;
use oraql_ir::module::{FunctionId, Module};
use oraql_passes::{Pass, PassCx, PassManager, Stats};
use oraql_vm::{InterpMode, Interpreter};

/// Metric names of the analyses, in the order `conservative_chain`
/// registers them, then ORAQL.
pub const AA_NAMES: [&str; 7] = [
    "basic", "scoped", "tbaa", "globals", "steens", "andersen", "oraql",
];
const ORAQL_SLOT: usize = 6;

/// Metric slot of an analysis, by its `AliasAnalysis::name`.
fn aa_slot(name: &str) -> usize {
    match name {
        "BasicAA" => 0,
        "ScopedNoAliasAA" => 1,
        "TypeBasedAA" => 2,
        "GlobalsAA" => 3,
        "SteensgaardAA" => 4,
        "AndersenAA" => 5,
        _ => ORAQL_SLOT,
    }
}

/// Metric names of the twelve pipeline passes, in pipeline order.
pub const PASS_NAMES: [&str; 12] = [
    "memssa",
    "earlycse",
    "gvn1",
    "memcpyopt",
    "licm",
    "gvn2",
    "dse",
    "loopdel",
    "loopvec",
    "slp",
    "sink",
    "dce",
];

/// Work counted against one analysis, and its time on sampled queries.
#[derive(Default)]
pub struct AaTally {
    pub sampled_ns: Cell<u64>,
    pub queries: Cell<u64>,
    pub answered: Cell<u64>,
}

/// Time and queries of one pass; `ns` includes the analyses it called,
/// of which `aa_sampled_ns` is the part timed on sampled queries.
#[derive(Default)]
pub struct PassTally {
    pub ns: Cell<u64>,
    pub aa_sampled_ns: Cell<u64>,
    pub queries: Cell<u64>,
}

/// One alias query in this many is timed. Timing every call into an
/// analysis costs two clock reads per call, which slowed replayed
/// compiles by about a fifth; sampled, the adapters cost about 2%.
/// Counts are exact.
const AA_SAMPLE_EVERY: u64 = 32;

fn add(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Everything the replay measured. Shared by the timing adapters
/// through an `Rc`, so the counters are `Cell`s.
#[derive(Default)]
pub struct Layers {
    pub build_ns: Cell<u64>,
    pub builds: Cell<u64>,
    pub chain_setup_ns: Cell<u64>,
    pub aa: [AaTally; 7],
    /// Time inside any analysis on sampled queries.
    pub aa_sampled_ns: Cell<u64>,
    pub sampled_queries: Cell<u64>,
    /// Sampling state: a linear congruential stream, and whether the
    /// query in flight is sampled.
    lcg: Cell<u64>,
    sampling: Cell<bool>,
    pub passes: [PassTally; 12],
    pub machine_ns: Cell<u64>,
    pub print_hash_ns: Cell<u64>,
    pub vm_ns: Cell<u64>,
    pub vm_runs: Cell<u64>,
    pub vm_insts: Cell<u64>,
    pub verify_ns: Cell<u64>,
    pub oraql_unique: Cell<u64>,
    /// Layer time of probe compiles only (build, chain set-up, analyses,
    /// passes, machine lowering): the part the driver's
    /// `oraql_driver_compile_micros` histogram covers.
    pub probe_split_ns: Cell<u64>,
    pub probe_compiles: Cell<u64>,
    /// Wall time of whole replayed cases, faithfulness checks excluded.
    pub replay_ns: Cell<u64>,
    /// Wall time of replayed compiles, and of the `oraql::compile` calls
    /// that check them: their ratio is what the timers cost.
    pub compile_ns: Cell<u64>,
    pub reference_ns: Cell<u64>,
}

impl Layers {
    fn aa_total(&self, f: impl Fn(&AaTally) -> u64) -> u64 {
        self.aa.iter().map(f).sum()
    }

    /// Chain queries per sampled query: scales sampled analysis time to
    /// an estimate of the total.
    fn aa_scale(&self) -> f64 {
        ratio(self.aa[0].queries.get(), self.sampled_queries.get())
    }

    /// Estimated time inside analyses.
    fn aa_est_ns(&self, sampled_ns: u64) -> u64 {
        (sampled_ns as f64 * self.aa_scale()) as u64
    }

    /// A pass's time without the analyses it called.
    fn pass_self_ns(&self, p: &PassTally) -> u64 {
        p.ns.get()
            .saturating_sub(self.aa_est_ns(p.aa_sampled_ns.get()))
    }

    fn pass_total(&self, f: impl Fn(&PassTally) -> u64) -> u64 {
        self.passes.iter().map(f).sum()
    }

    /// Layer time of compiles so far: build, chain set-up, the
    /// pipeline (passes with the analyses they call) and machine
    /// lowering. Exact; sampling only splits the pipeline's share.
    fn split_ns(&self) -> u64 {
        self.build_ns.get()
            + self.chain_setup_ns.get()
            + self.pass_total(|p| p.ns.get())
            + self.machine_ns.get()
    }

    /// Every attributed nanosecond: compile layers plus print/hash, VM
    /// and verification.
    pub fn attributed_ns(&self) -> u64 {
        self.split_ns() + self.print_hash_ns.get() + self.vm_ns.get() + self.verify_ns.get()
    }

    /// Replayed compile time over the time of the `oraql::compile`
    /// calls that checked them (0 without checks).
    pub fn overhead_ratio(&self) -> f64 {
        ratio(self.compile_ns.get(), self.reference_ns.get())
    }

    /// Per-layer metrics, in microseconds where timed.
    pub fn metrics(&self, out: &mut Vec<(String, f64, &'static str)>) {
        let us = |ns: u64| ns as f64 / 1e3;
        let mut put = |name: String, v: f64, unit: &'static str| out.push((name, v, unit));
        put("workloads.build_us".into(), us(self.build_ns.get()), "us");
        put("workloads.builds".into(), self.builds.get() as f64, "count");
        put(
            "analysis.chain_setup_us".into(),
            us(self.chain_setup_ns.get()),
            "us",
        );
        put(
            "analysis.us".into(),
            us(self.aa_est_ns(self.aa_sampled_ns.get())),
            "us",
        );
        // The chain is asked once per query; the first analysis sees all.
        let queries = self.aa[0].queries.get();
        put("analysis.queries".into(), queries as f64, "count");
        let answered = self.aa_total(|a| a.answered.get());
        put(
            "analysis.answered_ratio".into(),
            ratio(answered, queries),
            "ratio",
        );
        for (i, name) in AA_NAMES.iter().enumerate() {
            if matches!(*name, "steens" | "andersen") {
                continue; // registered only with `use_cfl`, which no workload sets
            }
            let a = &self.aa[i];
            let est = self.aa_est_ns(a.sampled_ns.get());
            put(format!("analysis.{name}.us"), us(est), "us");
            put(
                format!("analysis.{name}.queries"),
                a.queries.get() as f64,
                "count",
            );
            put(
                format!("analysis.{name}.answered"),
                a.answered.get() as f64,
                "count",
            );
        }
        put(
            "analysis.oraql.unique".into(),
            self.oraql_unique.get() as f64,
            "count",
        );
        put(
            "passes.us".into(),
            us(self.pass_total(|p| self.pass_self_ns(p))),
            "us",
        );
        for (i, name) in PASS_NAMES.iter().enumerate() {
            let p = &self.passes[i];
            put(format!("passes.{name}.us"), us(self.pass_self_ns(p)), "us");
            put(
                format!("passes.{name}.queries"),
                p.queries.get() as f64,
                "count",
            );
        }
        put(
            "ir.print_hash_us".into(),
            us(self.print_hash_ns.get()),
            "us",
        );
        put("vm.machine_us".into(), us(self.machine_ns.get()), "us");
        put("vm.run_us".into(), us(self.vm_ns.get()), "us");
        put("vm.runs".into(), self.vm_runs.get() as f64, "count");
        put("vm.insts".into(), self.vm_insts.get() as f64, "count");
        let secs = self.vm_ns.get() as f64 / 1e9;
        let ips = if secs > 0.0 {
            self.vm_insts.get() as f64 / secs
        } else {
            0.0
        };
        put("vm.insts_per_s".into(), ips, "1/s");
        put("core.verify_us".into(), us(self.verify_ns.get()), "us");
        let unattributed = self.replay_ns.get().saturating_sub(self.attributed_ns());
        put("core.replay_unattributed_us".into(), us(unattributed), "us");
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Times the sampled queries one analysis answers.
struct TimedAA {
    inner: Box<dyn AliasAnalysis>,
    slot: usize,
    layers: Rc<Layers>,
}

impl AliasAnalysis for TimedAA {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn alias(&mut self, ctx: &QueryCtx<'_>, a: &MemoryLocation, b: &MemoryLocation) -> AliasResult {
        let l = &self.layers;
        if self.slot == 0 {
            // The chain's head sees every query: decide whether to time
            // this one in every analysis it reaches.
            let x = l
                .lcg
                .get()
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            l.lcg.set(x);
            let sampled = (x >> 32).is_multiple_of(AA_SAMPLE_EVERY);
            l.sampling.set(sampled);
            if sampled {
                add(&l.sampled_queries, 1);
            }
        }
        if !l.sampling.get() {
            return self.inner.alias(ctx, a, b);
        }
        let t = Instant::now();
        let r = self.inner.alias(ctx, a, b);
        let ns = ns_since(t);
        add(&l.aa[self.slot].sampled_ns, ns);
        add(&l.aa_sampled_ns, ns);
        r
    }

    fn stats(&self) -> Vec<(String, u64)> {
        self.inner.stats()
    }
}

/// Times one pass over all functions of a module (the pass manager
/// runs each pass over every function before the next pass starts) and
/// counts the queries it issues. Two clock reads per pass and compile.
struct TimedPass {
    inner: Box<dyn Pass>,
    slot: usize,
    layers: Rc<Layers>,
    /// Set by the call on the first function: (start, functions the
    /// manager visits, sampled analysis time, queries) at that point.
    open: Option<(Instant, usize, u64, u64)>,
}

impl Pass for TimedPass {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&mut self, m: &mut Module, f: FunctionId, cx: &mut PassCx<'_>) {
        if f.0 == 0 {
            self.open = Some((
                Instant::now(),
                m.funcs.len(),
                self.layers.aa_sampled_ns.get(),
                cx.aa.total_queries,
            ));
        }
        self.inner.run(m, f, cx);
        match self.open {
            Some((t, n, aa_before, queries_before)) if f.0 as usize + 1 == n => {
                let tally = &self.layers.passes[self.slot];
                add(&tally.ns, ns_since(t));
                add(
                    &tally.aa_sampled_ns,
                    self.layers.aa_sampled_ns.get() - aa_before,
                );
                add(&tally.queries, cx.aa.total_queries - queries_before);
                self.open = None;
            }
            _ => {}
        }
    }
}

/// One replayed compile: what the driver reads from `oraql::Compiled`.
pub struct Replayed {
    pub module: Module,
    pub stats: Stats,
    pub unique: u64,
}

/// How much the replay instruments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every layer timed, and every compile checked against
    /// `oraql::compile`.
    Checked,
    /// Every layer timed.
    Layers,
    /// Analyses not wrapped, so per-analysis and per-pass self times are
    /// not split out; build, chain set-up, passes and lowering are timed
    /// with a handful of clock reads per compile. The closest the replay
    /// gets to an uninstrumented compile, for comparing with the driver.
    Split,
}

/// The instrumented compiler plus its measurements.
pub struct Replay {
    pub layers: Rc<Layers>,
    mode: Mode,
    /// Faithfulness failures, one line each.
    pub unfaithful: Vec<String>,
    /// Time spent in faithfulness checks (excluded from the replay).
    pub check_ns: u64,
}

impl Replay {
    pub fn new(mode: Mode) -> Replay {
        Replay {
            layers: Rc::new(Layers::default()),
            mode,
            unfaithful: Vec::new(),
            check_ns: 0,
        }
    }

    fn timed_aa(&self, inner: Box<dyn AliasAnalysis>) -> Box<dyn AliasAnalysis> {
        if self.mode == Mode::Split {
            return inner;
        }
        Box::new(TimedAA {
            slot: aa_slot(inner.name()),
            inner,
            layers: Rc::clone(&self.layers),
        })
    }

    /// Per-analysis query and answer counts of one compile, from the
    /// manager's own counters: the chain asks analyses in order and
    /// stops at the first definite answer.
    fn count_queries(&self, aa: &AAManager) {
        let counts = aa.answer_counts();
        let answered =
            |c: &oraql_analysis::aa::AnswerCounts| c.no_alias + c.must_alias + c.partial_alias;
        let mut reaching: u64 = counts.iter().map(answered).sum::<u64>() + aa.fallback_may_alias;
        for (name, c) in aa.analysis_names().into_iter().zip(counts) {
            let tally = &self.layers.aa[aa_slot(name)];
            add(&tally.queries, reaching);
            add(&tally.answered, answered(c));
            reaching -= answered(c);
        }
    }

    /// The standard pipeline's passes, each behind a timer.
    fn pipeline(&self) -> PassManager {
        use oraql_passes::*;
        let passes: [Box<dyn Pass>; 12] = [
            Box::new(memssa_prime::MemorySsaPrime),
            Box::new(earlycse::EarlyCSE),
            Box::new(gvn::Gvn),
            Box::new(memcpyopt::MemCpyOpt),
            Box::new(licm::Licm),
            Box::new(gvn::Gvn),
            Box::new(dse::Dse),
            Box::new(loopdel::LoopDeletion),
            Box::new(loopvec::LoopVectorize),
            Box::new(slp::SlpVectorize),
            Box::new(sink::MachineSink),
            Box::new(dce::Dce),
        ];
        let timed = passes
            .into_iter()
            .enumerate()
            .map(|(slot, inner)| {
                Box::new(TimedPass {
                    inner,
                    slot,
                    layers: Rc::clone(&self.layers),
                    open: None,
                }) as Box<dyn Pass>
            })
            .collect();
        PassManager::new(timed)
    }

    /// `oraql::compile` rebuilt from its parts, with `decisions = None`
    /// for the baseline compile (no ORAQL pass).
    pub fn compile(&mut self, case: &TestCase, decisions: Option<&Decisions>) -> Replayed {
        let l = Rc::clone(&self.layers);
        let started = Instant::now();
        let t = Instant::now();
        let mut module = (case.build)();
        add(&l.build_ns, ns_since(t));
        add(&l.builds, 1);

        let t = Instant::now();
        let mut aa = AAManager::new();
        aa.add(self.timed_aa(Box::new(BasicAA::new())));
        aa.add(self.timed_aa(Box::new(ScopedNoAliasAA::new())));
        aa.add(self.timed_aa(Box::new(TypeBasedAA::new())));
        aa.add(self.timed_aa(Box::new(GlobalsAA::new(&module))));
        if case.use_cfl {
            aa.add(self.timed_aa(Box::new(SteensgaardAA::new(&module))));
            aa.add(self.timed_aa(Box::new(AndersenAA::new(&module))));
        }
        let oraql = decisions.map(|d| {
            let shared = new_shared_with(d.clone(), case.scope.clone(), case.optimism);
            aa.add(self.timed_aa(Box::new(OraqlAA::new(shared.clone()))));
            shared
        });
        add(&l.chain_setup_ns, ns_since(t));

        let mut stats = Stats::new();
        self.pipeline().run(&mut module, &mut aa, &mut stats);
        self.count_queries(&aa);

        let t = Instant::now();
        for target in [Target::Host, Target::Device] {
            let insts = oraql_vm::machine::module_machine_insts(&module, target);
            let spills = oraql_vm::machine::module_spills(&module, target);
            if insts > 0 {
                stats.set(
                    "asm printer",
                    &format!("machine instructions generated ({})", target.name()),
                    insts,
                );
                stats.set(
                    "register allocation",
                    &format!("register spills inserted ({})", target.name()),
                    spills,
                );
            }
        }
        add(&l.machine_ns, ns_since(t));

        for (k, v) in aa.stats() {
            stats.set("alias analysis", &k, v);
        }
        stats.set("alias analysis", "no-alias results", aa.no_alias_total());
        stats.set("alias analysis", "total queries", aa.total_queries);
        let unique = oraql.map_or(0, |s| s.lock().stats.unique());
        add(&l.oraql_unique, unique);
        add(&l.compile_ns, ns_since(started));
        let replayed = Replayed {
            module,
            stats,
            unique,
        };
        if self.mode == Mode::Checked {
            let t = Instant::now();
            self.faithful(case, decisions, &replayed);
            self.check_ns += ns_since(t);
        }
        replayed
    }

    /// Compares one replayed compile with `oraql::compile` under the
    /// same decisions: identical module text, statistics and unique
    /// query count. Also checks that the replayed chain has the
    /// analyses `compile::conservative_chain` registers, in its order.
    fn faithful(&mut self, case: &TestCase, decisions: Option<&Decisions>, replayed: &Replayed) {
        let opts = CompileOptions {
            oraql: decisions.map(|d| (d.clone(), case.scope.clone())),
            use_cfl: case.use_cfl,
            optimism: case.optimism,
            ..CompileOptions::default()
        };
        let t = Instant::now();
        let reference = oraql::compile(&*case.build, &opts);
        add(&self.layers.reference_ns, ns_since(t));
        let what = decisions.map_or("baseline".to_owned(), Decisions::render);
        let mut problems = Vec::new();
        if oraql_ir::printer::module_str(&reference.module)
            != oraql_ir::printer::module_str(&replayed.module)
        {
            problems.push("module text");
        }
        if reference.stats != replayed.stats {
            problems.push("stats");
        }
        let unique = reference.oraql.map_or(0, |s| s.lock().stats.unique());
        if unique != replayed.unique {
            problems.push("unique count");
        }
        let chain = oraql::compile::conservative_chain(&replayed.module, case.use_cfl);
        let expected: Vec<&str> = chain.analysis_names();
        let replay_chain: Vec<&str> = ["BasicAA", "ScopedNoAliasAA", "TypeBasedAA", "GlobalsAA"]
            .into_iter()
            .chain(
                case.use_cfl
                    .then_some(["SteensgaardAA", "AndersenAA"])
                    .into_iter()
                    .flatten(),
            )
            .collect();
        if expected != replay_chain {
            problems.push("analysis chain");
        }
        if !problems.is_empty() {
            self.unfaithful.push(format!(
                "{} [{what}]: replayed compile differs in {}",
                case.name,
                problems.join(", ")
            ));
        }
    }

    /// Prints and hashes a module, as the driver does to key its
    /// executable cache.
    pub fn exe_hash(&self, m: &Module) -> u64 {
        let t = Instant::now();
        let text = oraql_ir::printer::module_str(m);
        let mut h = DefaultHasher::new();
        text.hash(&mut h);
        let hash = h.finish();
        add(&self.layers.print_hash_ns, ns_since(t));
        hash
    }

    /// Runs `main` on the decoded interpreter; `None` for a trap.
    pub fn run(&self, m: &Module, fuel: u64) -> Option<String> {
        let l = &self.layers;
        let t = Instant::now();
        let main = m.find_func("main")?;
        let mut interp = Interpreter::new(m)
            .with_fuel(fuel)
            .with_mode(InterpMode::Decoded);
        let ok = interp.run(main, vec![]).is_ok();
        add(&l.vm_ns, ns_since(t));
        add(&l.vm_runs, 1);
        add(&l.vm_insts, interp.stats().total_insts());
        ok.then(|| interp.stdout().to_owned())
    }

    pub fn verify(&self, v: &Verifier, stdout: &str) -> bool {
        let t = Instant::now();
        let ok = v.check(stdout).is_ok();
        add(&self.layers.verify_ns, ns_since(t));
        ok
    }

    /// Replays one case end to end: baseline compile and run, the
    /// all-optimistic probe, bisection when that fails, and the final
    /// compile. Returns the final decisions, or why the case broke.
    pub fn solve_case(&mut self, case: &TestCase, mirror_store: bool) -> Result<Decisions, String> {
        let started = Instant::now();
        let check_before = self.check_ns;
        let verifier = self.baseline(case)?;
        let mut prober = ReplayProber {
            replay: self,
            case,
            verifier: &verifier,
            exe: HashMap::new(),
            answered: mirror_store.then(HashMap::new),
            tests_run: 0,
        };
        let first = prober.probe(&Decisions::all_optimistic());
        let decisions = if first.pass {
            Decisions::all_optimistic()
        } else {
            oraql::DriverOptions::default().strategy.solve(&mut prober)
        };
        self.final_compile(case, &verifier, &decisions)?;
        self.note_case_time(started, check_before);
        Ok(decisions)
    }

    /// Replays the compiles of a case whose probes were all answered
    /// without compiling: the baseline and the final compile.
    pub fn fixed_case(&mut self, case: &TestCase, decisions: &Decisions) -> Result<(), String> {
        let started = Instant::now();
        let check_before = self.check_ns;
        let verifier = self.baseline(case)?;
        self.final_compile(case, &verifier, decisions)?;
        self.note_case_time(started, check_before);
        Ok(())
    }

    fn note_case_time(&self, started: Instant, check_before: u64) {
        let checks = self.check_ns - check_before;
        add(
            &self.layers.replay_ns,
            ns_since(started).saturating_sub(checks),
        );
    }

    fn baseline(&mut self, case: &TestCase) -> Result<Verifier, String> {
        let base = self.compile(case, None);
        let out = self
            .run(&base.module, case.fuel)
            .ok_or_else(|| format!("{}: replayed baseline traps", case.name))?;
        let mut refs = vec![out];
        refs.extend(case.extra_references.iter().cloned());
        Ok(Verifier::new(refs, &case.ignore_patterns))
    }

    fn final_compile(
        &mut self,
        case: &TestCase,
        verifier: &Verifier,
        decisions: &Decisions,
    ) -> Result<(), String> {
        let fin = self.compile(case, Some(decisions));
        let ok = self
            .run(&fin.module, case.fuel)
            .is_some_and(|out| self.verify(verifier, &out));
        if ok {
            Ok(())
        } else {
            Err(format!(
                "{}: replayed final compile fails verification",
                case.name
            ))
        }
    }
}

/// Answers probes the way the sequential driver does, compiling
/// through the instrumented [`Replay`].
struct ReplayProber<'r, 'c> {
    replay: &'r mut Replay,
    case: &'c TestCase,
    verifier: &'c Verifier,
    /// Executable hash -> (verdict, unique count of the first compile
    /// that produced it).
    exe: HashMap<u64, (bool, u64)>,
    /// Answers by decision vector, kept when the driver has a store
    /// attached: its decisions tier answers a repeated vector.
    answered: Option<HashMap<String, ProbeOutcome>>,
    tests_run: u64,
}

impl Prober for ReplayProber<'_, '_> {
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
        let l = Rc::clone(&self.replay.layers);
        let key = self.answered.as_ref().map(|_| d.render());
        if let (Some(answered), Some(key)) = (&self.answered, &key) {
            if let Some(&o) = answered.get(key) {
                return o;
            }
        }
        let split_before = l.split_ns();
        let c = self.replay.compile(self.case, Some(d));
        add(&l.probe_split_ns, l.split_ns() - split_before);
        add(&l.probe_compiles, 1);
        let h = self.replay.exe_hash(&c.module);
        let outcome = if let Some(&(pass, unique)) = self.exe.get(&h) {
            ProbeOutcome { pass, unique }
        } else {
            self.tests_run += 1;
            let pass = self
                .replay
                .run(&c.module, self.case.fuel)
                .is_some_and(|out| self.replay.verify(self.verifier, &out));
            self.exe.insert(h, (pass, c.unique));
            ProbeOutcome {
                pass,
                unique: c.unique,
            }
        };
        if let (Some(answered), Some(key)) = (&mut self.answered, key) {
            answered.insert(key, outcome);
        }
        outcome
    }

    fn budget_exceeded(&self) -> bool {
        self.tests_run >= oraql::DriverOptions::default().max_tests
    }

    fn note_deduced(&mut self) {}

    /// The sequential driver never speculates.
    fn speculate_depth(&self) -> u32 {
        0
    }
}
