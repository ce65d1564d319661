//! The four workloads: their inputs, set-up, measured pass and the
//! checks on every pass's outputs.
//!
//! Each workload is a closed loop in one process: a pass hands the
//! whole case list to the driver and waits for every verdict.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use oraql::served::{Client, Server, ServerOptions};
use oraql::{run_suite, Decisions, DriverError, DriverOptions, DriverResult, Store, TestCase};
use oraql_gen::GenPlan;
use oraql_vm::{InterpMode, Interpreter};

/// Cases in the generated corpus: about a second per pass at two jobs.
pub const GEN_CASES: u32 = 400;
/// Driver jobs of the generated-corpus workload: `nproc` of the machine
/// the bounds were set on.
pub const GEN_JOBS: usize = 2;
/// Set-ups timed together for one `setup_s` sample are at least this
/// long in all, so a sample is not one set-up's syscall latency.
const SETUP_BATCH: Duration = Duration::from_millis(20);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 16 Fig. 4 configurations at jobs 1, fresh caches, an empty
    /// store journal attached.
    ColdSuite,
    /// The same at jobs 1 against a journal populated beforehand.
    WarmStore,
    /// The same against an in-process verdict server, no local store.
    WarmServer,
    /// A seeded `oraql-gen` corpus at jobs 2 with the soundness gate.
    GenCorpus,
}

impl Kind {
    pub const ALL: [(&'static str, Kind); 4] = [
        ("cold-suite", Kind::ColdSuite),
        ("warm-store", Kind::WarmStore),
        ("warm-server", Kind::WarmServer),
        ("gen-corpus", Kind::GenCorpus),
    ];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.iter().find(|(n, _)| *n == s).map(|(_, k)| *k)
    }

    pub fn name(self) -> &'static str {
        Kind::ALL
            .iter()
            .find(|(_, k)| *k == self)
            .map_or("?", |(n, _)| n)
    }

    pub fn jobs(self) -> usize {
        if self == Kind::GenCorpus {
            GEN_JOBS
        } else {
            1
        }
    }

    /// Workloads whose probes are all answered by a populated tier.
    pub fn warm(self) -> bool {
        matches!(self, Kind::WarmStore | Kind::WarmServer)
    }
}

/// The driver's answer for every case of a pass, in case order.
pub type Results = Vec<Result<DriverResult, DriverError>>;

/// The inputs of one pass, made by [`Bench::setup`].
pub struct Inputs {
    pub cases: Vec<TestCase>,
    pub truth: Option<Arc<oraql::GroundTruth>>,
    pub store: Option<Arc<Store>>,
    pub server: Option<(Server, Arc<Client>)>,
    /// Time to set up: make the case list, open the journal or start
    /// and reach the daemon.
    pub setup: Duration,
    /// Time to make the case list (generating the corpus, for
    /// gen-corpus).
    pub generate: Duration,
    /// Time to open the journal (store workloads only).
    pub store_open: Duration,
    /// Time to start the daemon and reach it (warm-server only).
    pub server_start: Duration,
    /// Calls of the cases' build closures. The driver builds the module
    /// once per compile, so this counts its compiles.
    pub builds: Arc<AtomicU64>,
}

impl Inputs {
    /// Stops the daemon, if any, waiting for all its threads.
    pub fn teardown(self) -> Result<(), String> {
        if let Some((server, _)) = self.server {
            server
                .shutdown()
                .map_err(|e| format!("verdict server shutdown: {e}"))?;
        }
        Ok(())
    }
}

/// What the checks found in one pass.
#[derive(Default)]
pub struct Checked {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub probe_compiles: u64,
    /// Every compile of the pass: probes, baselines and finals.
    pub compiles: u64,
    pub final_insts: u64,
    pub no_alias_final: u64,
}

/// One workload at one seed, with everything prepared once per process.
pub struct Bench {
    pub kind: Kind,
    pub seed: u64,
    pub dir: PathBuf,
    /// The corpus: one plan over all five motif families, three motifs
    /// per case, as the repository's own corpora are drawn.
    pub plan: GenPlan,
    /// Suite order: the seed permutes the 16 configurations.
    order: Vec<usize>,
    /// Tree-walk output of each case's unoptimised module.
    tree_refs: HashMap<String, String>,
    /// Final decisions every pass must reach, by case: from the
    /// populating cold run (warm workloads) or the first pass.
    pub expected: HashMap<String, Decisions>,
}

impl Bench {
    /// Prepares a workload: draws its inputs from the seed, computes
    /// the independent reference outputs and, for the warm workloads,
    /// populates the journal or daemon with one cold run.
    pub fn prepare(kind: Kind, seed: u64, dir: &Path) -> Result<Bench, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let plan = GenPlan::parse(&format!("seed={seed},cases={GEN_CASES},per=3"))
            .map_err(|e| format!("gen plan: {e}"))?;
        let mut order: Vec<usize> = (0..oraql_workloads::CASE_INFOS.len()).collect();
        oraql_obs::rng::Gen::new(seed).shuffle(&mut order);
        let mut bench = Bench {
            kind,
            seed,
            dir: dir.to_owned(),
            plan,
            order,
            tree_refs: HashMap::new(),
            expected: HashMap::new(),
        };
        for case in bench.cases().0 {
            let out = tree_walk(&(case.build)(), case.fuel)
                .map_err(|e| format!("{}: unoptimised module traps: {e}", case.name))?;
            bench.tree_refs.insert(case.name.clone(), out);
        }
        if kind.warm() {
            bench.populate()?;
        }
        Ok(bench)
    }

    /// Workload parameters, recorded with every result.
    pub fn params(&self) -> String {
        match self.kind {
            Kind::GenCorpus => format!(
                "{{\"plan\": \"{}\", \"jobs\": {GEN_JOBS}, \"soundness_gate\": true}}",
                self.plan.render()
            ),
            k => format!(
                "{{\"cases\": {}, \"jobs\": 1, \"store\": {}, \"server\": {}, \"order_seed\": {}}}",
                oraql_workloads::CASE_INFOS.len(),
                matches!(k, Kind::ColdSuite | Kind::WarmStore),
                k == Kind::WarmServer,
                self.seed
            ),
        }
    }

    fn journal(&self) -> PathBuf {
        self.dir.join("verdicts.journal")
    }

    fn served_dir(&self) -> PathBuf {
        self.dir.join("served")
    }

    /// The case list, in this seed's order, with the corpus's ground
    /// truth for gen-corpus.
    fn cases(&self) -> (Vec<TestCase>, Option<oraql::GroundTruth>) {
        if self.kind == Kind::GenCorpus {
            let (cases, truth) = oraql_gen::suite(&self.plan);
            return (cases, Some(truth));
        }
        let mut all: Vec<Option<TestCase>> =
            oraql_workloads::all_cases().into_iter().map(Some).collect();
        (
            self.order.iter().filter_map(|&i| all[i].take()).collect(),
            None,
        )
    }

    /// One cold jobs-1 run that writes every verdict to the journal
    /// (warm-store) or the daemon (warm-server).
    fn populate(&mut self) -> Result<(), String> {
        let (cases, _) = self.cases();
        let mut opts = DriverOptions::default();
        let server = if self.kind == Kind::WarmStore {
            let store = Store::open(self.journal()).map_err(|e| format!("open journal: {e}"))?;
            opts.store = Some(Arc::new(store));
            None
        } else {
            let server = Server::start(&ServerOptions::new(self.served_dir()), "127.0.0.1:0")
                .map_err(|e| format!("start verdict server: {e}"))?;
            let client = Arc::new(Client::new(&server.addr()));
            opts.server = Some(Arc::clone(&client));
            Some(server)
        };
        let results = run_suite(&cases, &opts);
        if let Some(store) = &opts.store {
            store.sync().map_err(|e| format!("sync journal: {e}"))?;
        }
        if let Some(server) = server {
            server
                .shutdown()
                .map_err(|e| format!("stop verdict server: {e}"))?;
        }
        for (case, r) in cases.iter().zip(results) {
            let r = r.map_err(|e| format!("{}: populating run failed: {e}", case.name))?;
            self.expected.insert(case.name.clone(), r.decisions);
        }
        Ok(())
    }

    /// Makes the inputs of one pass: generates the cases and opens the
    /// journal or starts the daemon. On cold-suite a fresh empty journal
    /// is created first, outside the timed set-up: creating one costs an
    /// `fsync` whose latency is the disk's, not the program's, and varied
    /// from 0.2 to 1.3 ms between runs.
    pub fn setup(&self) -> Result<Inputs, String> {
        if self.kind == Kind::ColdSuite {
            remove_journal(&self.journal())?;
            Store::open(self.journal()).map_err(|e| format!("create journal: {e}"))?;
        }
        self.open_inputs()
    }

    /// Mean time of one set-up over a batch of consecutive set-ups that
    /// take [`SETUP_BATCH`] in all. Each is torn down before the next;
    /// none is used for a pass, so cold-suite's empty journal stays
    /// empty and is created once per batch.
    pub fn setup_batch(&self) -> Result<Duration, String> {
        let first = self.setup()?;
        let (mut total, mut n) = (first.setup, 1);
        first.teardown()?;
        while total < SETUP_BATCH {
            let inputs = self.open_inputs()?;
            total += inputs.setup;
            n += 1;
            inputs.teardown()?;
        }
        Ok(total / n)
    }

    /// The timed part of [`Bench::setup`].
    fn open_inputs(&self) -> Result<Inputs, String> {
        let started = Instant::now();
        let (cases, truth) = self.cases();
        let generate = started.elapsed();
        let mut inputs = Inputs {
            cases,
            truth: truth.map(Arc::new),
            store: None,
            server: None,
            setup: Duration::ZERO,
            generate,
            store_open: Duration::ZERO,
            server_start: Duration::ZERO,
            builds: Arc::new(AtomicU64::new(0)),
        };
        match self.kind {
            Kind::ColdSuite | Kind::WarmStore => {
                let t = Instant::now();
                let store =
                    Store::open(self.journal()).map_err(|e| format!("open journal: {e}"))?;
                inputs.store_open = t.elapsed();
                inputs.store = Some(Arc::new(store));
            }
            Kind::WarmServer => {
                let t = Instant::now();
                let server = Server::start(&ServerOptions::new(self.served_dir()), "127.0.0.1:0")
                    .map_err(|e| format!("start verdict server: {e}"))?;
                let client = Arc::new(Client::new(&server.addr()));
                client
                    .ping()
                    .map_err(|e| format!("reach verdict server: {e}"))?;
                inputs.server_start = t.elapsed();
                inputs.server = Some((server, client));
            }
            Kind::GenCorpus => {}
        }
        inputs.setup = started.elapsed();
        for case in &mut inputs.cases {
            let (build, builds) = (Arc::clone(&case.build), Arc::clone(&inputs.builds));
            case.build = Arc::new(move || {
                builds.fetch_add(1, Ordering::Relaxed);
                build()
            });
        }
        Ok(inputs)
    }

    /// Driver options of a pass over `inputs`.
    pub fn options(&self, inputs: &Inputs) -> DriverOptions {
        DriverOptions {
            jobs: self.kind.jobs(),
            store: inputs.store.clone(),
            server: inputs.server.as_ref().map(|(_, c)| Arc::clone(c)),
            ground_truth: inputs.truth.clone(),
            ..DriverOptions::default()
        }
    }

    /// The measured pass: every case to its verdict.
    pub fn pass(&self, inputs: &Inputs, opts: &DriverOptions) -> Results {
        run_suite(&inputs.cases, opts)
    }

    /// Checks one pass's results against references that do not come
    /// from the compiler under test, and totals the count metrics. Call
    /// it before anything else builds the cases again.
    pub fn check(&mut self, inputs: &Inputs, results: &Results) -> Checked {
        let mut c = Checked {
            compiles: inputs.builds.load(Ordering::Relaxed),
            ..Checked::default()
        };
        for (case, r) in inputs.cases.iter().zip(results) {
            c.attempted += 1;
            let r = match r {
                Ok(r) => r,
                Err(e) => {
                    c.failures.push(format!("{}: {e}", case.name));
                    continue;
                }
            };
            c.probe_compiles += r.effort.compiles;
            c.final_insts += r.final_run.stats.total_insts();
            c.no_alias_final += r.no_alias_oraql;
            if let Err(e) = self.check_case(case, r) {
                c.failures.push(format!("{}: {e}", case.name));
            }
        }
        c
    }

    fn check_case(&mut self, case: &TestCase, r: &DriverResult) -> Result<(), String> {
        let reference = self
            .tree_refs
            .get(&case.name)
            .ok_or("no tree-walk reference")?;
        let out = tree_walk(&r.final_module, case.fuel)
            .map_err(|e| format!("final module traps under the tree walker: {e}"))?;
        let mut refs = vec![reference.clone()];
        refs.extend(case.extra_references.iter().cloned());
        oraql::Verifier::new(refs, &case.ignore_patterns)
            .check(&out)
            .map_err(|m| format!("final output differs from the unoptimised tree walk: {m}"))?;
        if self.kind.warm() && r.effort.compiles != 0 {
            return Err(format!(
                "{} probe compiles on a warm pass",
                r.effort.compiles
            ));
        }
        if let Some(t) = &r.truth {
            if !t.clean() {
                return Err(t.describe_violations());
            }
        }
        // Decisions must repeat: warm passes reach the cold run's, and
        // every pass reaches the first pass's (compared canonically,
        // since jobs > 1 may differ in no-op trailing entries).
        let got = r.decisions.canonical();
        match self.expected.get(&case.name) {
            Some(want) if want.canonical() != got => Err(format!(
                "decisions {} differ from {}",
                got.render(),
                want.canonical().render()
            )),
            Some(_) => Ok(()),
            None => {
                self.expected.insert(case.name.clone(), r.decisions.clone());
                Ok(())
            }
        }
    }

    /// Digest of the expected final decisions, in case-name order.
    pub fn decisions_digest(&self) -> u64 {
        let mut names: Vec<&String> = self.expected.keys().collect();
        names.sort();
        let mut h = DefaultHasher::new();
        for n in names {
            n.hash(&mut h);
            self.expected[n].canonical().render().hash(&mut h);
        }
        h.finish()
    }
}

fn remove_journal(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("{}: {e}", path.display())),
    }
}

/// Runs `main` under the tree-walking interpreter, the VM's reference
/// semantics.
pub fn tree_walk(m: &oraql_ir::module::Module, fuel: u64) -> Result<String, String> {
    let main = m.find_func("main").ok_or("no main")?;
    let mut interp = Interpreter::new(m)
        .with_fuel(fuel)
        .with_mode(InterpMode::TreeWalk);
    interp.run(main, vec![]).map_err(|e| e.to_string())?;
    Ok(interp.stdout().to_owned())
}
