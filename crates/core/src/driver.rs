//! The ORAQL probing driver (paper §IV-B).
//!
//! Workflow: compile and run with the ORAQL pass deactivated and verify
//! the reference behaviour; try answering *every* query optimistically
//! (the empty sequence); if that breaks verification, bisect with the
//! configured strategy to pin down the queries that must stay
//! pessimistic.
//!
//! # Probe execution: one verdict-tier loop
//!
//! Every probe goes through one shared `ProbeEngine` per driver. The
//! engine holds an ordered list of verdict tiers, fastest first:
//!
//! 1. **memory** — [`VerdictCaches`], always on, one per case run;
//! 2. the **persistent verdict store** ([`oraql_store::Store`], when
//!    [`DriverOptions::store`] is set), which reuses verdicts another
//!    *process* computed;
//! 3. the **verdict server** ([`oraql_served::Client`], when
//!    [`DriverOptions::server`] is set), the shared remote tier.
//!
//! Each tier files verdicts in two key spaces: the *decisions digest*
//! (the case salt plus [`Decisions::render`]; a hit skips the compile)
//! and the *executable hash* (the case salt plus the printed module; a
//! hit skips the run). A probe first walks the tiers in the decisions
//! space. On a miss it compiles, walks them again in the executable
//! space, and on a second miss runs the VM and verifies the output. A
//! hit is written back to every faster tier the walk passed over, and
//! the answered outcome is filed under its decisions digest in every
//! tier. One exception keeps local corpora seeding the shared farm: an
//! executable hit in the store is also pushed to the server.
//!
//! Tier failures read as misses and never consume a retry: a store hit
//! found corrupt ([`ProbeFailure::StoreCorrupt`]) falls through to a
//! compile, and an unreachable or overloaded server
//! ([`ProbeFailure::ServerDown`], [`ProbeFailure::ServerBusy`]) falls
//! back to the local tiers, kept cheap by the client's circuit breaker
//! (see `docs/ARCHITECTURE.md` §7).
//!
//! The keys are salted content hashes, so a changed workload, verifier
//! input or fuel budget changes every key, and stale entries are never
//! consulted. Hits are traced as [`ProbeKind::DecisionCacheHit`] /
//! [`ProbeKind::ExeCacheHit`] (memory), [`ProbeKind::StoreHit`] or
//! [`ProbeKind::ServerHit`], and counted in [`ProbeEffort`]
//! (`tests_dec_cached`, `tests_cached`, `tests_server`).
//!
//! # Concurrency and determinism contract
//!
//! Every case probes inline, one probe at a time, in its strategy's
//! order. An executable-hash hit reports the unique-query count stored
//! with the verdict (the seed driver's quirk), so the stored outcome of
//! a decision vector depends on which vector first produced the
//! executable. [`run_suite`] probes up to [`DriverOptions::jobs`] cases
//! at once, each with its own memory tier. Cases share no keys, because
//! every key is salted with the case, so `jobs = N` returns the same
//! [`DriverResult`]s as `jobs = 1`: raw decisions, effort and output.
//!
//! A suite worker with no case left to start builds modules ahead for
//! the cases still running (`BuildAhead`). A build does not depend on
//! the decisions, so this only moves build latency off the probe path;
//! the contract above is unchanged.
//!
//! # The probe sandbox (failure model)
//!
//! Every probe attempt — compile, VM run, verification — executes under
//! `catch_unwind`, optionally under a wall-clock watchdog
//! ([`DriverOptions::probe_deadline`]), and optionally under a
//! deterministic fault-injection plan ([`DriverOptions::faults`], see
//! the `oraql-faults` crate). An attempt that panics, times out, traps
//! with an injected VM error, or produces garbled output is classified
//! as a [`ProbeFailure`] and retried with a short backoff
//! ([`DriverOptions::probe_retries`] times). A probe whose attempts are
//! all exhausted is **quarantined**: it answers with the pessimistic
//! may-alias verdict (`pass = false`, the always-safe direction — the
//! bisection strategies only ever *add* pessimism for failing probes,
//! and the final verification gate still backstops the result),
//! nothing is written to any cache or the persistent store, and the
//! answer is traced as [`ProbeKind::Faulted`]. Counts surface in
//! [`DriverResult::failures`]. A panic in the *baseline or final*
//! compile is not a probe failure — it fails the whole case with
//! [`DriverError::CasePanicked`] instead of unwinding through
//! [`run_suite`].

use crate::compile::{compile, CompileOptions, Scope};
use crate::pass::{OptimismKind, OraqlStats, UniqueQuery};
use crate::sequence::Decisions;
use crate::strategy::{ProbeOutcome, Prober, Strategy};
use crate::trace::{ProbeEvent, ProbeKind, TraceSink};
use crate::verify::{Mismatch, Verifier};
use oraql_faults::{FaultInjector, FaultSite, InjectedPanic};
use oraql_ir::module::Module;
use oraql_obs::{Span, SpanSink};
use oraql_passes::Stats;
use oraql_store::Store;
use oraql_vm::{Interpreter, RunOutcome, VmFault};
use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// A benchmark handed to the driver: how to build the program, where
/// ORAQL may answer, and how to verify output.
pub struct TestCase {
    /// Benchmark name.
    pub name: String,
    /// Builds a fresh module (one "compilation" input). Must be
    /// deterministic: the driver compiles it many times, possibly from
    /// several probe threads at once.
    pub build: Arc<dyn Fn() -> Module + Send + Sync>,
    /// ORAQL scope restriction (files / target).
    pub scope: Scope,
    /// Ignore patterns for volatile output lines (see [`crate::textpat`]).
    pub ignore_patterns: Vec<String>,
    /// Extra acceptable reference outputs (the paper's multiple
    /// references for e.g. rank-dependent meshes).
    pub extra_references: Vec<String>,
    /// VM fuel per test run.
    pub fuel: u64,
    /// Register the CFL points-to analyses in the chain.
    pub use_cfl: bool,
    /// What optimistic answers mean (§VIII extension).
    pub optimism: crate::pass::OptimismKind,
}

impl TestCase {
    /// Convenience constructor with defaults.
    pub fn new(name: &str, build: impl Fn() -> Module + Send + Sync + 'static) -> Self {
        TestCase {
            name: name.to_owned(),
            build: Arc::new(build),
            scope: Scope::everything(),
            ignore_patterns: Vec::new(),
            extra_references: Vec::new(),
            fuel: oraql_vm::DEFAULT_FUEL,
            use_cfl: false,
            optimism: crate::pass::OptimismKind::NoAlias,
        }
    }
}

/// Driver options.
#[derive(Debug, Clone)]
pub struct DriverOptions {
    /// Bisection strategy.
    pub strategy: Strategy,
    /// Upper bound on executed tests (compiles still happen for cached
    /// verdicts).
    pub max_tests: u64,
    /// Record `-debug-pass=Executions` trace lines in the final compile.
    pub trace_passes: bool,
    /// Cases [`run_suite`] probes at once (default 1). Each case probes
    /// inline in its strategy's order at every job count; a slot with
    /// no case left to start builds modules ahead for the running ones.
    pub jobs: usize,
    /// Probe-trace sink; every probe answer is recorded here.
    pub trace: Option<TraceSink>,
    /// Span sink (CLI: `--spans-out <path>`); when set, every case
    /// emits a `case > probe > compile|vm|verify|store|server` span
    /// tree reconstructing where wall clock went. Independent of the
    /// probe trace: spans carry timing topology, the trace carries
    /// verdicts.
    pub spans: Option<SpanSink>,
    /// Persistent verdict store shared across processes (CLI:
    /// `--store <path>`), the second verdict tier. `None` (the default)
    /// keeps verdicts in memory only. With a store attached, cold runs
    /// write every verdict through, and warm runs answer probes without
    /// compiling at any job count: the probe order is a pure function
    /// of the answered outcomes, so it replays identically from stored
    /// (pass, unique) pairs.
    pub store: Option<Arc<Store>>,
    /// Shared verdict-server client (CLI: `--server <addr>`), the
    /// third verdict tier. Every server error degrades to the local
    /// tiers; the client's circuit breaker makes an unreachable server
    /// cost nothing after the first failed call, counted in
    /// [`FailureStats::server_down`].
    pub server: Option<Arc<oraql_served::Client>>,
    /// Deterministic fault-injection plan applied to the probe path
    /// (CLI: `--fault-plan <spec>`). `None` (the default) injects
    /// nothing; the sandbox around each probe is active either way.
    pub faults: Option<Arc<FaultInjector>>,
    /// Wall-clock deadline per probe attempt (CLI:
    /// `--probe-deadline-ms`). When set, each attempt runs on a
    /// watchdog thread and a timeout classifies as
    /// [`ProbeFailure::Deadline`]; when `None` (the default) attempts
    /// run inline with no extra thread, so the fault-free fast path
    /// pays nothing beyond a `catch_unwind`.
    pub probe_deadline: Option<Duration>,
    /// How many times a failed probe attempt is retried (with a short
    /// backoff) before the probe is quarantined to may-alias.
    pub probe_retries: u32,
    /// Ground-truth alias labels for the corpus soundness gate (see
    /// [`crate::truth`]). When set, every final verdict is
    /// cross-checked against the labels after verification; a kept
    /// optimistic answer on a pair labelled as genuinely aliasing fails
    /// the case with [`DriverError::SoundnessViolation`]. `None` (the
    /// default, and the only option for hand-written workloads) skips
    /// the check entirely. Labels are keyed by case name, so one
    /// merged map gates a whole suite run.
    pub ground_truth: Option<Arc<crate::truth::GroundTruth>>,
}

impl Default for DriverOptions {
    fn default() -> Self {
        DriverOptions {
            strategy: Strategy::Chunked,
            max_tests: 4_096,
            trace_passes: false,
            jobs: 1,
            trace: None,
            spans: None,
            store: None,
            server: None,
            faults: None,
            probe_deadline: None,
            probe_retries: 2,
            ground_truth: None,
        }
    }
}

/// Probing effort counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeEffort {
    /// Compilations performed.
    pub compiles: u64,
    /// Tests actually executed (VM run + verification).
    pub tests_run: u64,
    /// Tests skipped because a bit-identical executable was seen before.
    pub tests_cached: u64,
    /// Tests skipped by the Fig. 2 deduction rule.
    pub tests_deduced: u64,
    /// Probes answered under their decisions digest by the memory or
    /// store tier, without recompiling.
    pub tests_dec_cached: u64,
    /// Probes answered by the verdict server (either key space) after
    /// every local tier missed.
    pub tests_server: u64,
    /// The four `spec_*` counters are always 0: no probe is ever
    /// speculative. Kept until the benchmark harness stops reading them.
    pub spec_launched: u64,
    /// Always 0 (see [`ProbeEffort::spec_launched`]).
    pub spec_cancelled: u64,
    /// Always 0 (see [`ProbeEffort::spec_launched`]).
    pub spec_hints: u64,
    /// Always 0 (see [`ProbeEffort::spec_launched`]).
    pub spec_wasted: u64,
}

/// Everything the driver learned about one benchmark.
pub struct DriverResult {
    /// Benchmark name.
    pub name: String,
    /// Did the fully-optimistic compile verify on the first try?
    pub fully_optimistic: bool,
    /// The final (locally maximal) decision source.
    pub decisions: Decisions,
    /// ORAQL query counters from the final compilation (Fig. 4 columns).
    pub oraql: OraqlStats,
    /// `# No-Alias Results` of the baseline compilation (Fig. 4
    /// "Original").
    pub no_alias_original: u64,
    /// `# No-Alias Results` of the final ORAQL compilation.
    pub no_alias_oraql: u64,
    /// Baseline pass statistics.
    pub baseline_stats: Stats,
    /// Final pass statistics.
    pub final_stats: Stats,
    /// Baseline execution (reference run).
    pub baseline_run: RunOutcome,
    /// Final execution.
    pub final_run: RunOutcome,
    /// Probing effort.
    pub effort: ProbeEffort,
    /// Sandbox failure counters (all zero on a healthy, fault-free run).
    pub failures: FailureStats,
    /// Unique queries of the final compilation (report input).
    pub queries: Vec<UniqueQuery>,
    /// The final optimized module.
    pub final_module: Module,
    /// Pass trace of the final compilation (when requested).
    pub pass_trace: Vec<String>,
    /// What the ground-truth gate saw (`Some` iff
    /// [`DriverOptions::ground_truth`] was set; always violation-free
    /// here, because violations fail the case instead).
    pub truth: Option<crate::truth::TruthReport>,
}

impl DriverResult {
    /// Relative change of no-alias results, the Fig. 4 `Δ` column.
    pub fn no_alias_delta_percent(&self) -> f64 {
        if self.no_alias_original == 0 {
            return 0.0;
        }
        (self.no_alias_oraql as f64 - self.no_alias_original as f64) / self.no_alias_original as f64
            * 100.0
    }
}

/// Driver errors.
#[derive(Debug)]
pub enum DriverError {
    /// The baseline compile did not verify against itself (broken case).
    BaselineBroken(Mismatch),
    /// The final sequence failed verification (driver bug).
    FinalBroken(Mismatch),
    /// The case's build closure (or a pass) panicked outside the probe
    /// sandbox — in the baseline or final compile, where no verdict can
    /// soak up the failure. The case fails; the suite keeps going.
    CasePanicked(String),
    /// An internal invariant broke but was caught instead of panicking.
    Internal(String),
    /// The ground-truth gate found a kept optimistic answer on a pair
    /// labelled as genuinely aliasing (see [`crate::truth`]): either a
    /// driver soundness bug or a mislabelled generator motif. The
    /// message lists every violating pair.
    SoundnessViolation(String),
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::BaselineBroken(m) => write!(f, "baseline failed verification: {m}"),
            DriverError::FinalBroken(m) => write!(f, "final sequence failed verification: {m}"),
            DriverError::CasePanicked(m) => write!(f, "case panicked outside probing: {m}"),
            DriverError::Internal(m) => write!(f, "internal driver error: {m}"),
            DriverError::SoundnessViolation(m) => {
                write!(f, "ground-truth soundness gate failed: {m}")
            }
        }
    }
}

impl std::error::Error for DriverError {}

/// Why one probe attempt failed inside the sandbox. Failures are
/// *attempt*-level: each one consumes a retry, and only a probe whose
/// attempts are all exhausted is quarantined to may-alias.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProbeFailure {
    /// The attempt panicked (injected `compile-panic`, or a genuine bug
    /// in the build closure / pass pipeline).
    Panic(String),
    /// The watchdog deadline expired before the attempt finished.
    Deadline,
    /// The VM refused the run with an injected error (`vm-trap`,
    /// `vm-fuel-lie`); a *genuine* trap is a failing verdict, not a
    /// probe failure.
    VmError(String),
    /// The probe ran but its observed output was garbled before
    /// verification (`output-garble` — corrupted probe I/O).
    OutputMismatch,
    /// A persistent-store hit was treated as checksum-corrupt and
    /// discarded (`store-read-corrupt`). Never consumes a retry: the
    /// attempt falls through to a real compile instead.
    StoreCorrupt,
    /// A verdict-server lookup failed (unreachable, timed out, or
    /// answered garbage). Never consumes a retry: the attempt falls
    /// back to the local tiers, exactly like [`ProbeFailure::StoreCorrupt`].
    ServerDown,
    /// The verdict server shed the request with `BUSY` (overload
    /// admission control). Never consumes a retry and never trips the
    /// client's breaker: the attempt falls straight back to the local
    /// tiers while the server digs itself out.
    ServerBusy,
}

impl std::fmt::Display for ProbeFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProbeFailure::Panic(m) => write!(f, "probe panicked: {m}"),
            ProbeFailure::Deadline => write!(f, "probe deadline exceeded"),
            ProbeFailure::VmError(m) => write!(f, "injected VM error: {m}"),
            ProbeFailure::OutputMismatch => write!(f, "probe output garbled"),
            ProbeFailure::StoreCorrupt => write!(f, "store record corrupt"),
            ProbeFailure::ServerDown => write!(f, "verdict server unreachable"),
            ProbeFailure::ServerBusy => write!(f, "verdict server shed the request"),
        }
    }
}

/// Aggregated sandbox-failure counters for one driver run, surfaced in
/// [`DriverResult::failures`] and the CLI summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureStats {
    /// Attempts that panicked.
    pub panics: u64,
    /// Attempts that exceeded the probe deadline.
    pub deadlines: u64,
    /// Attempts killed by an injected VM error.
    pub vm_errors: u64,
    /// Attempts whose output was garbled before verification.
    pub output_mismatches: u64,
    /// Store hits discarded as corrupt (the attempt then recomputed).
    pub store_corrupt: u64,
    /// Verdict-server lookups that failed and fell back to the local
    /// tiers (the circuit breaker keeps these cheap).
    pub server_down: u64,
    /// Verdict-server requests shed with `BUSY` (overload, not
    /// failure); the attempt fell back to the local tiers.
    pub server_busy: u64,
    /// Failed attempts that were retried.
    pub retries: u64,
    /// Probes that exhausted every retry and degraded to may-alias.
    pub quarantined: u64,
}

impl FailureStats {
    /// Total attempt-level failures (excluding the retry tally).
    pub fn total(&self) -> u64 {
        self.panics
            + self.deadlines
            + self.vm_errors
            + self.output_mismatches
            + self.store_corrupt
            + self.server_down
            + self.server_busy
    }

    /// Did this run complete without a single sandbox event?
    pub fn is_quiet(&self) -> bool {
        *self == FailureStats::default()
    }
}

/// The in-memory verdict tier, private to one case run and freed with
/// it. Its keys carry the same case salt as the shared tiers' keys.
#[derive(Debug, Default)]
pub struct VerdictCaches {
    /// executable hash -> (verdict, unique query count)
    exe: Mutex<HashMap<u64, ProbeOutcome>>,
    /// decisions digest -> (verdict, unique query count)
    dec: Mutex<HashMap<u64, ProbeOutcome>>,
}

fn lock_ignore_poison<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl VerdictCaches {
    fn space(&self, space: KeySpace) -> &Mutex<HashMap<u64, ProbeOutcome>> {
        match space {
            KeySpace::Dec => &self.dec,
            KeySpace::Exe => &self.exe,
        }
    }
}

/// The two key spaces every verdict tier files verdicts under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeySpace {
    /// Decisions digest: a hit skips the compile.
    Dec,
    /// Executable hash: a hit skips the run.
    Exe,
}

/// Where a tier sits in the funnel. The role decides how a hit is
/// traced and counted, and which span covers the lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TierRole {
    Memory,
    Store,
    Server,
}

/// One level of the verdict funnel. Lookups report tier failures as
/// `Err`, which the probe counts and then treats as a miss; writes
/// swallow errors, because a tier is an accelerator, never a dependency.
trait VerdictTier: Send + Sync {
    fn role(&self) -> TierRole;
    fn get(
        &self,
        space: KeySpace,
        key: u64,
        fx: &AttemptFaults,
    ) -> Result<Option<ProbeOutcome>, ProbeFailure>;
    fn put(&self, space: KeySpace, key: u64, v: ProbeOutcome);
}

impl VerdictTier for VerdictCaches {
    fn role(&self) -> TierRole {
        TierRole::Memory
    }

    fn get(
        &self,
        space: KeySpace,
        key: u64,
        _: &AttemptFaults,
    ) -> Result<Option<ProbeOutcome>, ProbeFailure> {
        Ok(lock_ignore_poison(self.space(space)).get(&key).copied())
    }

    fn put(&self, space: KeySpace, key: u64, v: ProbeOutcome) {
        lock_ignore_poison(self.space(space)).insert(key, v);
    }
}

impl VerdictTier for Store {
    fn role(&self) -> TierRole {
        TierRole::Store
    }

    /// The `store-read-corrupt` fault turns a hit into a checksum
    /// failure: the record is discarded and the attempt recomputes.
    fn get(
        &self,
        space: KeySpace,
        key: u64,
        fx: &AttemptFaults,
    ) -> Result<Option<ProbeOutcome>, ProbeFailure> {
        let found = match space {
            KeySpace::Dec => self.dec_verdict(key),
            KeySpace::Exe => self.exe_verdict(key),
        };
        match found {
            Some(_) if fx.store_read_corrupt => Err(ProbeFailure::StoreCorrupt),
            found => Ok(found.map(|(pass, unique)| ProbeOutcome { pass, unique })),
        }
    }

    /// A read-only or full disk degrades the store to a read tier.
    fn put(&self, space: KeySpace, key: u64, v: ProbeOutcome) {
        let _ = match space {
            KeySpace::Dec => self.record_dec(key, v.pass, v.unique),
            KeySpace::Exe => self.record_exe(key, v.pass, v.unique),
        };
    }
}

impl VerdictTier for oraql_served::Client {
    fn role(&self) -> TierRole {
        TierRole::Server
    }

    /// `BUSY` is overload, not failure: it never trips the client's
    /// breaker. Every other error is a down server.
    fn get(
        &self,
        space: KeySpace,
        key: u64,
        _: &AttemptFaults,
    ) -> Result<Option<ProbeOutcome>, ProbeFailure> {
        let res = match space {
            KeySpace::Dec => self.get_dec(key),
            KeySpace::Exe => self.get_exe(key),
        };
        match res {
            Ok(found) => Ok(found.map(|(pass, unique)| ProbeOutcome { pass, unique })),
            Err(oraql_served::ClientError::Busy) => Err(ProbeFailure::ServerBusy),
            Err(_) => Err(ProbeFailure::ServerDown),
        }
    }

    /// The client's own counters record failed writes.
    fn put(&self, space: KeySpace, key: u64, v: ProbeOutcome) {
        let _ = match space {
            KeySpace::Dec => self.put_dec(key, v.pass, v.unique),
            KeySpace::Exe => self.put_exe(key, v.pass, v.unique),
        };
    }
}

fn module_text_hash(salt: u64, text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    text.hash(&mut h);
    h.finish()
}

/// Registry handles for the probing driver, resolved once. Per-kind
/// probe counters are bumped in [`ProbeEngine::trace_event`] (the one
/// point every probe answer flows through, sink or no sink); the
/// funnel counters are bumped by the tier loop in
/// [`ProbeEngine::attempt`], so `dec_cache_hits + store_dec_hits +
/// server_dec_hits + compiles` accounts for every attempt that reached
/// the funnel, and `compiles` fans out into the exe tiers the same way.
struct DriverMetrics {
    probes: &'static oraql_obs::Counter,
    executed: &'static oraql_obs::Counter,
    exe_cache: &'static oraql_obs::Counter,
    dec_cache: &'static oraql_obs::Counter,
    store: &'static oraql_obs::Counter,
    server: &'static oraql_obs::Counter,
    deduced: &'static oraql_obs::Counter,
    faulted: &'static oraql_obs::Counter,
    retries: &'static oraql_obs::Counter,
    quarantined: &'static oraql_obs::Counter,
    /// Tier hits, indexed by `[TierRole][KeySpace]`.
    funnel_hits: [[&'static oraql_obs::Counter; 2]; 3],
    funnel_compiles: &'static oraql_obs::Counter,
    funnel_vm_runs: &'static oraql_obs::Counter,
    probe_micros: &'static oraql_obs::Histogram,
    compile_micros: &'static oraql_obs::Histogram,
    vm_run_micros: &'static oraql_obs::Histogram,
    verify_micros: &'static oraql_obs::Histogram,
}

fn dmetrics() -> &'static DriverMetrics {
    static M: OnceLock<DriverMetrics> = OnceLock::new();
    M.get_or_init(|| {
        let r = oraql_obs::global();
        DriverMetrics {
            probes: r.counter("oraql_driver_probes_total"),
            executed: r.counter("oraql_driver_probe_executed_total"),
            exe_cache: r.counter("oraql_driver_probe_exe_cache_total"),
            dec_cache: r.counter("oraql_driver_probe_dec_cache_total"),
            store: r.counter("oraql_driver_probe_store_total"),
            server: r.counter("oraql_driver_probe_server_total"),
            deduced: r.counter("oraql_driver_probe_deduced_total"),
            faulted: r.counter("oraql_driver_probe_faulted_total"),
            retries: r.counter("oraql_driver_retries_total"),
            quarantined: r.counter("oraql_driver_quarantined_total"),
            funnel_hits: [
                [
                    r.counter("oraql_driver_funnel_dec_cache_hits_total"),
                    r.counter("oraql_driver_funnel_exe_cache_hits_total"),
                ],
                [
                    r.counter("oraql_driver_funnel_store_dec_hits_total"),
                    r.counter("oraql_driver_funnel_store_exe_hits_total"),
                ],
                [
                    r.counter("oraql_driver_funnel_server_dec_hits_total"),
                    r.counter("oraql_driver_funnel_server_exe_hits_total"),
                ],
            ],
            funnel_compiles: r.counter("oraql_driver_funnel_compiles_total"),
            funnel_vm_runs: r.counter("oraql_driver_funnel_vm_runs_total"),
            probe_micros: r.histogram("oraql_driver_probe_micros"),
            compile_micros: r.histogram("oraql_driver_compile_micros"),
            vm_run_micros: r.histogram("oraql_driver_vm_run_micros"),
            verify_micros: r.histogram("oraql_driver_verify_micros"),
        }
    })
}

fn decisions_digest(salt: u64, d: &Decisions) -> u64 {
    let mut h = DefaultHasher::new();
    salt.hash(&mut h);
    d.render().hash(&mut h);
    h.finish()
}

/// Cache-key salt identifying one case within the shared tiers: a probe
/// verdict is only transferable between probes that agree on the case
/// name *and* the accepted references — the verdict of a bit-identical
/// module under a different verifier is a different fact.
fn case_salt(case: &TestCase, references: &[String]) -> u64 {
    let mut h = DefaultHasher::new();
    case.name.hash(&mut h);
    references.hash(&mut h);
    case.ignore_patterns.hash(&mut h);
    case.fuel.hash(&mut h);
    h.finish()
}

/// The probe execution engine: everything needed to answer one probe,
/// shareable with a watchdog thread (`Sync`).
struct ProbeEngine {
    case_name: String,
    salt: u64,
    build: Arc<dyn Fn() -> Module + Send + Sync>,
    /// The suite's build-ahead slots and this case's index in them;
    /// `None` outside [`run_suite`].
    ahead: Option<(Arc<BuildAhead>, usize)>,
    scope: Scope,
    use_cfl: bool,
    optimism: OptimismKind,
    fuel: u64,
    verifier: Verifier,
    /// The verdict funnel, fastest first: memory, then the store and
    /// the server when configured.
    tiers: Vec<Arc<dyn VerdictTier>>,
    effort: Mutex<ProbeEffort>,
    trace: Option<TraceSink>,
    trace_seq: AtomicU64,
    /// Span sink shared with the driver; `None` when spans are off.
    spans: Option<SpanSink>,
    /// Id of this case's root span (0 when spans are off), the parent
    /// of every probe span the engine opens.
    case_span: u64,
    /// Optional deterministic fault plan (chaos testing).
    faults: Option<Arc<FaultInjector>>,
    /// Optional wall-clock watchdog per attempt.
    deadline: Option<Duration>,
    /// Retries before a failing probe is quarantined.
    retries: u32,
    failures: Mutex<FailureStats>,
    /// Decisions digests whose probes exhausted every retry: answered
    /// may-alias immediately, never re-attempted, never persisted.
    quarantine: Mutex<HashSet<u64>>,
}

/// Faults pre-sampled for one probe attempt. Sampling happens on the
/// calling thread *before* any watchdog thread is spawned, so thread
/// timing can never perturb the deterministic fault stream.
#[derive(Debug, Clone, Copy, Default)]
struct AttemptFaults {
    compile_panic: bool,
    vm_fault: Option<VmFault>,
    delay: bool,
    hang: bool,
    garble: bool,
    store_read_corrupt: bool,
}

/// Fuel cap injected by `vm-fuel-lie`: big enough for the interpreter
/// to make a little progress, far too small for any real probe run.
const FUEL_LIE_CAP: u64 = 24;

/// The safe degradation verdict: may-alias, no unique-count claim.
const MAY_ALIAS: ProbeOutcome = ProbeOutcome {
    pass: false,
    unique: 0,
};

/// Best-effort human-readable panic payload.
fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(ip) = p.downcast_ref::<InjectedPanic>() {
        ip.to_string()
    } else if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

impl ProbeEngine {
    /// The module for the next compile: one built ahead when ready,
    /// otherwise a fresh build.
    fn next_module(&self) -> Module {
        self.ahead
            .as_ref()
            .and_then(|(ahead, i)| ahead.take(*i))
            .unwrap_or_else(|| (self.build)())
    }

    fn effort(&self) -> MutexGuard<'_, ProbeEffort> {
        lock_ignore_poison(&self.effort)
    }

    fn trace_event(&self, digest: u64, kind: ProbeKind, pass: bool, unique: u64, started: Instant) {
        let m = dmetrics();
        m.probes.inc();
        match kind {
            ProbeKind::Executed => m.executed.inc(),
            ProbeKind::ExeCacheHit => m.exe_cache.inc(),
            ProbeKind::DecisionCacheHit => m.dec_cache.inc(),
            ProbeKind::StoreHit => m.store.inc(),
            ProbeKind::ServerHit => m.server.inc(),
            ProbeKind::Deduced => m.deduced.inc(),
            ProbeKind::Faulted => m.faulted.inc(),
            ProbeKind::Cancelled => {} // never emitted
        }
        m.probe_micros.observe(started.elapsed().as_micros() as u64);
        if let Some(sink) = &self.trace {
            sink.record(ProbeEvent {
                case: self.case_name.clone(),
                seq: self.trace_seq.fetch_add(1, Ordering::Relaxed),
                digest,
                kind,
                pass,
                unique,
                wall_micros: started.elapsed().as_micros() as u64,
            });
        }
    }

    fn failures(&self) -> MutexGuard<'_, FailureStats> {
        lock_ignore_poison(&self.failures)
    }

    /// Opens a child span under `parent` when span tracing is on.
    /// Returns `None` (zero cost beyond the branch) otherwise.
    fn span(&self, name: &'static str, parent: u64) -> Option<Span> {
        self.spans
            .as_ref()
            .map(|s| s.span(name, &self.case_name, parent))
    }

    /// Draws this attempt's fault decisions from the plan (all quiet
    /// when no plan is configured).
    fn sample_attempt(&self) -> AttemptFaults {
        let Some(inj) = &self.faults else {
            return AttemptFaults::default();
        };
        AttemptFaults {
            compile_panic: inj.fire(FaultSite::CompilePanic),
            vm_fault: if inj.fire(FaultSite::VmTrap) {
                Some(VmFault::Trap)
            } else if inj.fire(FaultSite::VmFuelLie) {
                Some(VmFault::FuelLie(FUEL_LIE_CAP))
            } else {
                None
            },
            delay: inj.fire(FaultSite::ProbeDelay),
            hang: inj.fire(FaultSite::ProbeHang),
            garble: inj.fire(FaultSite::OutputGarble),
            store_read_corrupt: inj.fire(FaultSite::StoreReadCorrupt),
        }
    }

    fn note_failure(&self, f: &ProbeFailure) {
        let mut fs = self.failures();
        match f {
            ProbeFailure::Panic(_) => fs.panics += 1,
            ProbeFailure::Deadline => fs.deadlines += 1,
            ProbeFailure::VmError(_) => fs.vm_errors += 1,
            ProbeFailure::OutputMismatch => fs.output_mismatches += 1,
            ProbeFailure::StoreCorrupt => fs.store_corrupt += 1,
            ProbeFailure::ServerDown => fs.server_down += 1,
            ProbeFailure::ServerBusy => fs.server_busy += 1,
        }
    }

    /// Answers one probe through the sandbox: quarantine short-circuit,
    /// then up to `1 + retries` attempts, each under `catch_unwind`
    /// (plus a watchdog thread when a deadline is configured). Never
    /// panics and never blocks past the deadline-per-attempt times the
    /// retry budget.
    fn execute_sandboxed(self: &Arc<Self>, d: &Decisions) -> ProbeOutcome {
        let started = Instant::now();
        let digest = decisions_digest(self.salt, d);
        // The probe span covers the quarantine check, every retry, and
        // the degradation path; its guard records even if an attempt
        // unwinds past us.
        let probe_span = self.span("probe", self.case_span);
        let probe_id = probe_span.as_ref().map_or(0, Span::id);
        if lock_ignore_poison(&self.quarantine).contains(&digest) {
            self.trace_event(digest, ProbeKind::Faulted, false, 0, started);
            return MAY_ALIAS;
        }
        let attempts = 1 + self.retries as u64;
        for attempt_no in 0..attempts {
            let fx = self.sample_attempt();
            let outcome = match self.deadline {
                Some(deadline) => self.attempt_with_deadline(d, fx, deadline, probe_id),
                None => match catch_unwind(AssertUnwindSafe(|| self.attempt(d, fx, probe_id))) {
                    Ok(r) => r,
                    Err(p) => Err(ProbeFailure::Panic(panic_message(&*p))),
                },
            };
            match outcome {
                Ok(answer) => return answer,
                Err(failure) => {
                    self.note_failure(&failure);
                    if attempt_no + 1 < attempts {
                        self.failures().retries += 1;
                        dmetrics().retries.inc();
                        // Tiny exponential backoff: transient scheduling
                        // or I/O hiccups clear, injected faults draw a
                        // fresh decision from the plan.
                        std::thread::sleep(Duration::from_millis(1 << attempt_no.min(4)));
                    }
                }
            }
        }
        // Every attempt failed: quarantine this decision vector and
        // degrade to the pessimistic verdict. Never cached, never
        // persisted — a later healthy run recomputes it for real.
        lock_ignore_poison(&self.quarantine).insert(digest);
        self.failures().quarantined += 1;
        dmetrics().quarantined.inc();
        self.trace_event(digest, ProbeKind::Faulted, false, 0, started);
        MAY_ALIAS
    }

    /// Runs one attempt on a watchdog thread and gives up after
    /// `deadline`. An orphaned attempt keeps running in the background;
    /// if it eventually completes, any verdict it wrote to the shared
    /// caches is genuine and safely reusable.
    fn attempt_with_deadline(
        self: &Arc<Self>,
        d: &Decisions,
        fx: AttemptFaults,
        deadline: Duration,
        probe_span: u64,
    ) -> Result<ProbeOutcome, ProbeFailure> {
        let (tx, rx) = channel();
        let engine = Arc::clone(self);
        let d = d.clone();
        let spawned = std::thread::Builder::new()
            .name("oraql-probe-attempt".into())
            .spawn(move || {
                let r = catch_unwind(AssertUnwindSafe(|| engine.attempt(&d, fx, probe_span)));
                let _ = tx.send(r);
            });
        if spawned.is_err() {
            return Err(ProbeFailure::Panic("probe thread spawn failed".into()));
        }
        match rx.recv_timeout(deadline) {
            Ok(Ok(r)) => r,
            Ok(Err(p)) => Err(ProbeFailure::Panic(panic_message(&*p))),
            Err(_) => Err(ProbeFailure::Deadline),
        }
    }

    /// Walks the tiers in `space`, fastest first, and returns the first
    /// hit, classified for the trace. A failed lookup is counted and
    /// read as a miss. A hit is written back to every faster tier the
    /// walk passed over; an executable hit in the store also seeds the
    /// slower tiers, so local corpora feed the shared server too.
    fn lookup(
        &self,
        space: KeySpace,
        key: u64,
        fx: &AttemptFaults,
        probe_span: u64,
    ) -> Option<(ProbeKind, ProbeOutcome)> {
        for (i, tier) in self.tiers.iter().enumerate() {
            let role = tier.role();
            let found = {
                let _s = match role {
                    TierRole::Memory => None,
                    TierRole::Store => self.span("store", probe_span),
                    TierRole::Server => self.span("server", probe_span),
                };
                tier.get(space, key, fx)
            };
            let hit = match found {
                Ok(Some(hit)) => hit,
                Ok(None) => continue,
                Err(f) => {
                    self.note_failure(&f);
                    continue;
                }
            };
            let seeds = if role == TierRole::Store && space == KeySpace::Exe {
                &self.tiers[i + 1..]
            } else {
                &[]
            };
            for t in self.tiers[..i].iter().chain(seeds) {
                t.put(space, key, hit);
            }
            dmetrics().funnel_hits[role as usize][space as usize].inc();
            let mut e = self.effort();
            let (count, kind) = match (role, space) {
                (TierRole::Memory, KeySpace::Dec) => {
                    (&mut e.tests_dec_cached, ProbeKind::DecisionCacheHit)
                }
                (TierRole::Memory, KeySpace::Exe) => (&mut e.tests_cached, ProbeKind::ExeCacheHit),
                (TierRole::Store, KeySpace::Dec) => (&mut e.tests_dec_cached, ProbeKind::StoreHit),
                (TierRole::Store, KeySpace::Exe) => (&mut e.tests_cached, ProbeKind::StoreHit),
                (TierRole::Server, _) => (&mut e.tests_server, ProbeKind::ServerHit),
            };
            *count += 1;
            return Some((kind, hit));
        }
        None
    }

    /// One raw probe attempt: the tiers by decisions digest, a compile,
    /// the tiers by executable hash, then an actual execution — with
    /// `fx`'s faults injected at their sites. The answered outcome is
    /// filed under its decisions digest in every tier.
    fn attempt(
        &self,
        d: &Decisions,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Result<ProbeOutcome, ProbeFailure> {
        let started = Instant::now();
        let digest = decisions_digest(self.salt, d);
        if let Some((kind, o)) = self.lookup(KeySpace::Dec, digest, &fx, probe_span) {
            self.trace_event(digest, kind, o.pass, o.unique, started);
            return Ok(o);
        }
        if fx.compile_panic {
            std::panic::panic_any(InjectedPanic("probe pass-pipeline compile"));
        }
        self.effort().compiles += 1;
        let compile_started = Instant::now();
        let compiled = {
            let _s = self.span("compile", probe_span);
            compile(
                &|| self.next_module(),
                &CompileOptions {
                    oraql: Some((d.clone(), self.scope.clone())),
                    use_cfl: self.use_cfl,
                    optimism: self.optimism,
                    ..CompileOptions::default()
                },
            )
        };
        {
            let m = dmetrics();
            m.funnel_compiles.inc();
            m.compile_micros
                .observe(compile_started.elapsed().as_micros() as u64);
        }
        let h = module_text_hash(self.salt, &oraql_ir::printer::module_str(&compiled.module));
        // A hit reports the unique count stored with the verdict, not
        // the fresh one (the seed driver's quirk, see the module docs).
        let (kind, outcome) = match self.lookup(KeySpace::Exe, h, &fx, probe_span) {
            Some(hit) => hit,
            None => {
                let o = ProbeOutcome {
                    pass: self.run_and_verify(&compiled.module, fx, probe_span)?,
                    unique: compiled
                        .oraql
                        .as_ref()
                        .map_or(0, |s| s.lock().stats.unique()),
                };
                for t in &self.tiers {
                    t.put(KeySpace::Exe, h, o);
                }
                (ProbeKind::Executed, o)
            }
        };
        for t in &self.tiers {
            t.put(KeySpace::Dec, digest, outcome);
        }
        self.trace_event(digest, kind, outcome.pass, outcome.unique, started);
        Ok(outcome)
    }

    /// Runs a compiled probe on the VM and verifies its output, with
    /// `fx`'s delay, VM and garbling faults injected. A genuine trap is
    /// a failing verdict; an injected one is a probe failure.
    fn run_and_verify(
        &self,
        m: &Module,
        fx: AttemptFaults,
        probe_span: u64,
    ) -> Result<bool, ProbeFailure> {
        if fx.delay || fx.hang {
            // `probe-delay` stays well under any reasonable deadline;
            // `probe-hang` overshoots the configured deadline so only
            // the watchdog can reclaim the slot (bounded regardless, so
            // a hang without a watchdog cannot stall the driver
            // forever).
            let dur = match (fx.hang, self.deadline) {
                (false, _) => Duration::from_millis(1),
                (true, Some(dl)) => dl.saturating_mul(4).min(Duration::from_secs(2)),
                (true, None) => Duration::from_millis(25),
            };
            std::thread::sleep(dur);
        }
        self.effort().tests_run += 1;
        dmetrics().funnel_vm_runs.inc();
        let vm_started = Instant::now();
        let run = {
            let _s = self.span("vm", probe_span);
            run_module(m, self.fuel, fx.vm_fault)
        };
        dmetrics()
            .vm_run_micros
            .observe(vm_started.elapsed().as_micros() as u64);
        let mut stdout = match run {
            Ok(run) => run.stdout,
            // The injected trap / lying fuel budget killed the run: a
            // transient probe failure, not a verdict. (A program that
            // completes even under the lie produced genuine, trustworthy
            // output and is judged normally below.)
            Err(e) if fx.vm_fault.is_some() => return Err(ProbeFailure::VmError(e)),
            Err(_) => return Ok(false),
        };
        if fx.garble {
            stdout.push_str("\u{7f}garbled probe output\n");
        }
        let verify_started = Instant::now();
        let ok = {
            let _s = self.span("verify", probe_span);
            self.verifier.check(&stdout).is_ok()
        };
        dmetrics()
            .verify_micros
            .observe(verify_started.elapsed().as_micros() as u64);
        if fx.garble && !ok {
            // We know the mismatch is our own corruption: a transient
            // I/O failure, not a verdict. Nothing is cached.
            return Err(ProbeFailure::OutputMismatch);
        }
        Ok(ok)
    }
}

/// The probing driver.
pub struct Driver {
    opts: DriverOptions,
    engine: Arc<ProbeEngine>,
}

impl Driver {
    /// Runs the full workflow on one case.
    pub fn run(case: &TestCase, opts: DriverOptions) -> Result<DriverResult, DriverError> {
        Self::run_with(case, opts, None)
    }

    /// A ready-to-probe driver whose probes are verified against
    /// `references`. The tier list is a fresh memory tier, then the
    /// options' store and server.
    fn new(
        case: &TestCase,
        opts: DriverOptions,
        ahead: Option<(Arc<BuildAhead>, usize)>,
        references: Vec<String>,
        case_span: u64,
    ) -> Self {
        let mut tiers: Vec<Arc<dyn VerdictTier>> = vec![Arc::new(VerdictCaches::default())];
        if let Some(store) = &opts.store {
            tiers.push(Arc::clone(store) as Arc<dyn VerdictTier>);
        }
        if let Some(server) = &opts.server {
            tiers.push(Arc::clone(server) as Arc<dyn VerdictTier>);
        }
        let engine = Arc::new(ProbeEngine {
            case_name: case.name.clone(),
            salt: case_salt(case, &references),
            build: Arc::clone(&case.build),
            ahead,
            scope: case.scope.clone(),
            use_cfl: case.use_cfl,
            optimism: case.optimism,
            fuel: case.fuel,
            verifier: Verifier::new(references, &case.ignore_patterns),
            tiers,
            effort: Mutex::new(ProbeEffort::default()),
            trace: opts.trace.clone(),
            trace_seq: AtomicU64::new(0),
            spans: opts.spans.clone(),
            case_span,
            faults: opts.faults.clone(),
            deadline: opts.probe_deadline,
            retries: opts.probe_retries,
            failures: Mutex::new(FailureStats::default()),
            quarantine: Mutex::new(HashSet::new()),
        });
        Driver { opts, engine }
    }

    /// [`Driver::run`], taking modules built ahead by idle suite
    /// workers when `ahead` is set.
    fn run_with(
        case: &TestCase,
        opts: DriverOptions,
        ahead: Option<(Arc<BuildAhead>, usize)>,
    ) -> Result<DriverResult, DriverError> {
        // The case span covers the whole workflow; the guards record on
        // every exit path, including `?` errors.
        let spans = opts.spans.clone();
        let case_root = spans.as_ref().map(|s| s.span("case", &case.name, 0));
        let case_id = case_root.as_ref().map_or(0, Span::id);
        let baseline_span = spans
            .as_ref()
            .map(|s| s.span("baseline", &case.name, case_id));
        // Step 1: baseline (ORAQL deactivated) — produces the reference.
        // A panicking build closure fails this case, not the suite.
        let baseline = catch_unwind(AssertUnwindSafe(|| {
            compile(&*case.build, &CompileOptions::baseline())
        }))
        .map_err(|p| DriverError::CasePanicked(panic_message(&*p)))?;
        let baseline_run = run_module(&baseline.module, case.fuel, None)
            .map_err(|e| DriverError::BaselineBroken(Mismatch::ExecutionFailed(e)))?;
        let mut references = vec![baseline_run.stdout.clone()];
        references.extend(case.extra_references.iter().cloned());
        let salt = case_salt(case, &references);
        if let Some(store) = &opts.store {
            // Record the accepted references under the case salt: a
            // warm reader can tell *what* a salt's verdicts were
            // verified against, and the record doubles as an integrity
            // anchor (same salt ⇒ same references, by construction).
            let _ = store.record_references(salt, &references);
        }
        if let Some(server) = &opts.server {
            // Same anchor record, shared tier. Errors are swallowed:
            // an unreachable server degrades to the local store.
            let _ = server.put_refs(salt, &references);
        }
        let mut driver = Driver::new(case, opts, ahead, references, case_id);
        driver
            .engine
            .verifier
            .check(&baseline_run.stdout)
            .map_err(DriverError::BaselineBroken)?;
        drop(baseline_span);

        // Step 2: the empty sequence — everything optimistic.
        let all_opt = Decisions::all_optimistic();
        let first = driver.probe(&all_opt);
        let (fully_optimistic, decisions) = if first.pass {
            (true, all_opt)
        } else {
            // Step 3: bisect.
            let d = driver.opts.strategy.solve(&mut driver);
            (false, d)
        };

        // Step 4: final compile + verification.
        let final_span = spans.as_ref().map(|s| s.span("final", &case.name, case_id));
        let final_opts = CompileOptions {
            oraql: Some((decisions.clone(), case.scope.clone())),
            use_cfl: case.use_cfl,
            trace_passes: driver.opts.trace_passes,
            optimism: case.optimism,
            ..CompileOptions::default()
        };
        let finalc = catch_unwind(AssertUnwindSafe(|| {
            compile(&|| driver.engine.next_module(), &final_opts)
        }))
        .map_err(|p| DriverError::CasePanicked(panic_message(&*p)))?;
        let final_run = run_module(&finalc.module, case.fuel, None)
            .map_err(|e| DriverError::FinalBroken(Mismatch::ExecutionFailed(e)))?;
        driver
            .engine
            .verifier
            .check(&final_run.stdout)
            .map_err(DriverError::FinalBroken)?;
        drop(final_span);

        if let Some(store) = &driver.opts.store {
            // Checkpoint the journal once per case: bounds the loss
            // window on power failure without paying a sync per probe.
            let _s = spans.as_ref().map(|s| s.span("store", &case.name, case_id));
            let _ = store.sync();
        }
        if let Some(server) = &driver.opts.server {
            // Same checkpoint for the shared tier: ask the server to
            // group-fsync whatever this case appended.
            let _s = spans
                .as_ref()
                .map(|s| s.span("server", &case.name, case_id));
            let _ = server.sync();
        }
        let effort = *driver.engine.effort();
        let failures = *driver.engine.failures();
        let shared = finalc
            .oraql
            .as_ref()
            .ok_or_else(|| DriverError::Internal("final compile lost its oraql pass".into()))?;
        let st = shared.lock();
        // Corpus soundness gate: with ground truth attached, the final
        // verdicts — already observationally verified above — must also
        // agree with the by-construction labels. Runs after the final
        // verification so a violation really means "optimism survived
        // the whole workflow on a pair known to alias".
        let truth = driver
            .opts
            .ground_truth
            .as_ref()
            .map(|gt| gt.check(&case.name, &finalc.module, &st.queries, case.optimism));
        if let Some(t) = &truth {
            if !t.clean() {
                return Err(DriverError::SoundnessViolation(t.describe_violations()));
            }
        }
        Ok(DriverResult {
            name: case.name.clone(),
            fully_optimistic,
            decisions,
            oraql: st.stats,
            no_alias_original: baseline.no_alias_total,
            no_alias_oraql: finalc.no_alias_total,
            baseline_stats: baseline.stats,
            final_stats: finalc.stats.clone(),
            baseline_run,
            final_run,
            effort,
            failures,
            queries: st.queries.clone(),
            final_module: finalc.module.clone(),
            pass_trace: finalc.pass_trace.clone(),
            truth,
        })
    }
}

fn run_module(m: &Module, fuel: u64, fault: Option<VmFault>) -> Result<RunOutcome, String> {
    let main = m.find_func("main").ok_or("no main")?;
    let mut interp = Interpreter::new(m).with_fuel(fuel).with_fault(fault);
    match interp.run(main, vec![]) {
        Ok(_) => Ok(RunOutcome {
            stdout: interp.stdout().to_owned(),
            stats: interp.stats(),
        }),
        Err(e) => Err(e.to_string()),
    }
}

impl Prober for Driver {
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
        self.engine.execute_sandboxed(d)
    }

    fn budget_exceeded(&self) -> bool {
        // Panicked and timed-out attempts abort *before* the run-site
        // `tests_run` increment, so they must consume budget here —
        // otherwise a persistently failing probe environment (every
        // compile panicking, say) would let the bisection walk forever.
        // VM-error and output-mismatch failures already counted.
        let failed = {
            let f = self.engine.failures();
            f.panics + f.deadlines
        };
        self.engine.effort().tests_run + failed >= self.opts.max_tests
    }

    fn note_deduced(&mut self) {
        self.engine.effort().tests_deduced += 1;
        self.engine
            .trace_event(0, ProbeKind::Deduced, false, 0, Instant::now());
    }
}

/// Runs a suite with at most `opts.jobs` cases probing at any moment.
/// With `jobs = 1` the cases run strictly one after another in input
/// order. A worker with no case left to start builds modules ahead for
/// the cases still running (see [`BuildAhead`]). Results are in input
/// order and equal at every job count (see the module docs).
pub fn run_suite(
    cases: &[TestCase],
    opts: &DriverOptions,
) -> Vec<Result<DriverResult, DriverError>> {
    let ahead = Arc::new(BuildAhead::new(cases.len(), opts.jobs.saturating_sub(1)));
    let next = AtomicUsize::new(0);
    let results: Vec<Mutex<Option<Result<DriverResult, DriverError>>>> =
        (0..cases.len()).map(|_| Mutex::new(None)).collect();
    let work = || {
        loop {
            let i = next.fetch_add(1, Ordering::SeqCst);
            if i >= cases.len() {
                break;
            }
            ahead.set(i, CaseState::Running);
            // One panicking case must not take its worker (and the cases
            // it would have claimed next) with it.
            let r = catch_unwind(AssertUnwindSafe(|| {
                Driver::run_with(&cases[i], opts.clone(), Some((Arc::clone(&ahead), i)))
            }))
            .unwrap_or_else(|p| Err(DriverError::CasePanicked(panic_message(&*p))));
            ahead.set(i, CaseState::Done);
            *lock_ignore_poison(&results[i]) = Some(r);
        }
        ahead.help(cases);
    };
    // The calling thread is one of the case workers.
    std::thread::scope(|s| {
        for _ in 1..opts.jobs.min(cases.len()) {
            s.spawn(work);
        }
        work();
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|p| p.into_inner())
                .unwrap_or_else(|| Err(DriverError::Internal("case result missing".into())))
        })
        .collect()
}

/// Modules built ahead of the running cases' next compiles by
/// [`run_suite`] workers that have no case left to start.
///
/// A build does not depend on the decisions, so a module built ahead
/// compiles exactly like one built inline: probe order, effort and
/// results do not change. What changes is wall clock once job slots sit
/// idle: build latency (the paper's external compiler, or any slow
/// build closure) overlaps with the running case's compiles and runs.
/// Each case holds at most `cap = jobs - 1` modules ready or in flight,
/// so `jobs = 1` never builds ahead, and a case that finishes drops at
/// most `cap` unused modules.
struct BuildAhead {
    slots: Mutex<Vec<AheadSlot>>,
    changed: Condvar,
    cap: usize,
}

#[derive(Default)]
struct AheadSlot {
    state: CaseState,
    ready: Vec<Module>,
    building: usize,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum CaseState {
    #[default]
    Waiting,
    Running,
    Done,
}

impl BuildAhead {
    fn new(cases: usize, cap: usize) -> Self {
        BuildAhead {
            slots: Mutex::new((0..cases).map(|_| AheadSlot::default()).collect()),
            changed: Condvar::new(),
            cap,
        }
    }

    /// Moves case `i` to `state`; a finished case drops what it did not
    /// use.
    fn set(&self, i: usize, state: CaseState) {
        let mut slots = lock_ignore_poison(&self.slots);
        slots[i].state = state;
        if state == CaseState::Done {
            slots[i].ready.clear();
        }
        self.changed.notify_all();
    }

    /// A module built ahead for case `i`, if one is ready.
    fn take(&self, i: usize) -> Option<Module> {
        let m = lock_ignore_poison(&self.slots)[i].ready.pop();
        if m.is_some() {
            self.changed.notify_all();
        }
        m
    }

    /// Builds ahead for the running case with the fewest modules ready
    /// or in flight until every case is done.
    fn help(&self, cases: &[TestCase]) {
        let mut slots = lock_ignore_poison(&self.slots);
        loop {
            let pick = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| {
                    s.state == CaseState::Running && s.ready.len() + s.building < self.cap
                })
                .min_by_key(|(_, s)| s.ready.len() + s.building)
                .map(|(i, _)| i);
            let Some(i) = pick else {
                if slots.iter().all(|s| s.state == CaseState::Done) {
                    return;
                }
                slots = self.changed.wait(slots).unwrap_or_else(|p| p.into_inner());
                continue;
            };
            slots[i].building += 1;
            drop(slots);
            // A panicking build is left to the case's own sandboxed
            // build, which reports it.
            let built = catch_unwind(AssertUnwindSafe(|| (cases[i].build)())).ok();
            slots = lock_ignore_poison(&self.slots);
            slots[i].building -= 1;
            if let Some(m) = built.filter(|_| slots[i].state == CaseState::Running) {
                slots[i].ready.push(m);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oraql_ir::builder::FunctionBuilder;
    use oraql_ir::{Module, Ty, Value};

    /// A program with `danger` genuinely-aliasing pointer pairs (each in
    /// its own function, called with aliased arguments), `safe`
    /// non-aliasing pairs that still look may-aliasing to the
    /// conservative chain, and `inert` pairs whose answer no
    /// transformation acts on (these exercise the executable-hash
    /// cache).
    fn mixed_case(safe: usize, danger: usize, inert: usize) -> TestCase {
        TestCase::new("mixed", move || build_mixed(safe, danger, inert))
    }

    /// One opaque two-pointer kernel; `i` makes the name unique.
    fn add_worker(m: &mut Module, i: usize, kind: &str) -> oraql_ir::module::FunctionId {
        let mut b =
            FunctionBuilder::new(m, &format!("work_{kind}_{i}"), vec![Ty::Ptr, Ty::Ptr], None);
        b.set_src_file("kernel.c");
        let p = b.arg(0);
        let q = b.arg(1);
        if kind == "inert" {
            // A load the MemorySSA walk queries against the store, but
            // nothing is eliminable: decisions here do not change code.
            b.store(Ty::I64, Value::ConstInt(100), q);
            let l = b.load(Ty::I64, p);
            b.print("{}", vec![l]);
        } else {
            let l1 = b.load(Ty::I64, p);
            b.store(Ty::I64, Value::ConstInt(100), q);
            let l2 = b.load(Ty::I64, p); // stale if p==q answered no-alias
            let s = b.add(l1, l2);
            b.print("{}", vec![s]);
        }
        b.ret(None);
        b.finish()
    }

    fn build_mixed(safe: usize, danger: usize, inert: usize) -> Module {
        let mut m = Module::new("mixed");
        let workers_safe: Vec<_> = (0..safe).map(|i| add_worker(&mut m, i, "safe")).collect();
        let workers_danger: Vec<_> = (0..danger)
            .map(|i| add_worker(&mut m, i, "danger"))
            .collect();
        let workers_inert: Vec<_> = (0..inert).map(|i| add_worker(&mut m, i, "inert")).collect();
        let cells = 2 * (safe + danger + inert) + 2;
        let g = m.add_global("cells", 16 * cells as u64, vec![], false);
        let mut b = FunctionBuilder::new(&mut m, "main", vec![], None);
        b.set_src_file("main.c");
        let mut cell = 0i64;
        let mut fresh = |b: &mut FunctionBuilder| {
            let p = b.gep(Value::Global(g), 16 * cell);
            cell += 1;
            p
        };
        for w in workers_safe {
            let p = fresh(&mut b);
            let q = fresh(&mut b);
            b.store(Ty::I64, Value::ConstInt(5), p);
            b.call(w, vec![p, q], None);
        }
        for w in workers_danger {
            let p = fresh(&mut b);
            b.store(Ty::I64, Value::ConstInt(5), p);
            b.call(w, vec![p, p], None); // aliased!
        }
        for w in workers_inert {
            let p = fresh(&mut b);
            let q = fresh(&mut b);
            b.store(Ty::I64, Value::ConstInt(7), p);
            b.call(w, vec![p, q], None);
        }
        b.ret(None);
        b.finish();
        m
    }

    #[test]
    fn fully_optimistic_case_short_circuits() {
        let case = mixed_case(3, 0, 0);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        assert!(r.fully_optimistic);
        assert_eq!(r.oraql.unique_pessimistic, 0);
        assert!(r.oraql.unique_optimistic > 0);
        assert!(r.no_alias_oraql > r.no_alias_original);
        assert_eq!(r.effort.tests_run, 1);
    }

    #[test]
    fn dangerous_queries_pinned_pessimistic() {
        let case = mixed_case(4, 1, 0);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        assert!(!r.fully_optimistic);
        assert!(r.oraql.unique_pessimistic >= 1);
        assert!(
            r.oraql.unique_optimistic > r.oraql.unique_pessimistic,
            "most queries should stay optimistic: {:?}",
            r.oraql
        );
        // Output is verified inside the driver; also cross-check here.
        assert_eq!(r.baseline_run.stdout, r.final_run.stdout);
    }

    #[test]
    fn frequency_space_strategy_also_works() {
        let case = mixed_case(4, 1, 0);
        let r = Driver::run(
            &case,
            DriverOptions {
                strategy: Strategy::FrequencySpace,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.fully_optimistic);
        assert_eq!(r.baseline_run.stdout, r.final_run.stdout);
        assert!(r.oraql.unique_optimistic > 0);
    }

    #[test]
    fn hash_cache_kicks_in() {
        let case = mixed_case(4, 2, 4);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        // Different sequences frequently produce identical executables
        // (decisions on queries that no transformation acts on).
        assert!(
            r.effort.tests_cached > 0,
            "expected cache hits: {:?}",
            r.effort
        );
        assert!(r.effort.compiles >= r.effort.tests_run + r.effort.tests_cached);
    }

    #[test]
    fn parallel_driver_matches_sequential_decisions() {
        let cases = vec![
            mixed_case(2, 0, 0),
            mixed_case(3, 1, 0),
            mixed_case(2, 1, 2),
            mixed_case(4, 2, 2),
        ];
        for strategy in [Strategy::Chunked, Strategy::FrequencySpace] {
            let run = |jobs| {
                let opts = DriverOptions {
                    strategy,
                    jobs,
                    ..Default::default()
                };
                run_suite(&cases, &opts)
            };
            let seq = run(1);
            let par = run(4);
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(par.iter()) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.decisions, b.decisions, "{strategy:?}");
                assert_eq!(a.effort, b.effort, "{strategy:?}");
                assert_eq!(a.final_run.stdout, b.final_run.stdout, "{strategy:?}");
            }
        }
    }

    #[test]
    fn memory_tier_answers_bit_identical_recompiles() {
        // Inert pairs make many decision vectors compile bit-identically,
        // so probes must land in the executable cache.
        let case = mixed_case(3, 2, 5);
        let r = Driver::run(&case, DriverOptions::default()).unwrap();
        assert!(!r.fully_optimistic);
        assert!(
            r.effort.tests_cached > 0,
            "expected executable-cache hits: {:?}",
            r.effort
        );
    }

    #[test]
    fn idle_workers_build_ahead_for_running_cases() {
        let builds = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&builds);
        let case = TestCase::new("ahead", move || {
            counted.fetch_add(1, Ordering::SeqCst);
            build_mixed(2, 1, 0)
        });
        let fresh = oraql_ir::printer::module_str(&build_mixed(2, 1, 0));
        let ahead = BuildAhead::new(1, 2);
        ahead.set(0, CaseState::Running);
        std::thread::scope(|s| {
            s.spawn(|| ahead.help(std::slice::from_ref(&case)));
            let m = loop {
                match ahead.take(0) {
                    Some(m) => break m,
                    None => std::thread::yield_now(),
                }
            };
            assert_eq!(oraql_ir::printer::module_str(&m), fresh);
            // The helper returns once the case is done.
            ahead.set(0, CaseState::Done);
        });
        // One module taken, at most `cap` more ready or in flight.
        let n = builds.load(Ordering::SeqCst);
        assert!((1..=3).contains(&n), "{n} builds");
    }

    #[test]
    fn probe_trace_records_all_probe_answers() {
        let sink = TraceSink::in_memory();
        let case = mixed_case(4, 1, 2);
        let r = Driver::run(
            &case,
            DriverOptions {
                trace: Some(sink.clone()),
                ..Default::default()
            },
        )
        .unwrap();
        let events = sink.events();
        let executed = events
            .iter()
            .filter(|e| e.kind == ProbeKind::Executed)
            .count() as u64;
        let cached = events
            .iter()
            .filter(|e| e.kind == ProbeKind::ExeCacheHit)
            .count() as u64;
        let deduced = events
            .iter()
            .filter(|e| e.kind == ProbeKind::Deduced)
            .count() as u64;
        assert_eq!(executed, r.effort.tests_run);
        assert_eq!(cached, r.effort.tests_cached);
        assert_eq!(deduced, r.effort.tests_deduced);
        // Per-case sequence numbers are contiguous.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
    }

    // --- probe-sandbox chaos tests -----------------------------------

    use oraql_faults::{FaultPlan, Rate};

    fn chaos_opts(plan: FaultPlan) -> DriverOptions {
        oraql_faults::quiet_injected_panics();
        DriverOptions {
            faults: Some(Arc::new(FaultInjector::new(plan))),
            ..Default::default()
        }
    }

    #[test]
    fn chaos_runs_are_deterministic_at_jobs_1() {
        let case = mixed_case(4, 2, 2);
        let run = || {
            Driver::run(&case, chaos_opts(FaultPlan::uniform(7, 1, 5)))
                .expect("chaos run completes")
        };
        let (a, b) = (run(), run());
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.effort.tests_run, b.effort.tests_run);
        assert_eq!(a.final_run.stdout, b.final_run.stdout);
        assert!(
            !a.failures.is_quiet(),
            "a uniform 1/5 plan should actually fire: {:?}",
            a.failures
        );
    }

    #[test]
    fn always_failing_probes_quarantine_to_may_alias() {
        for strategy in [Strategy::Chunked, Strategy::FrequencySpace] {
            let plan = FaultPlan::quiet(3).with_rate(FaultSite::CompilePanic, Rate::always());
            let sink = TraceSink::in_memory();
            let mut opts = chaos_opts(plan);
            opts.strategy = strategy;
            opts.max_tests = 12; // attempts consume budget: keep the walk short
            opts.probe_retries = 1;
            opts.trace = Some(sink.clone());
            let case = mixed_case(3, 1, 0);
            let r = Driver::run(&case, opts).expect("sandbox must contain every panic");
            // With every probe compile panicking nothing can be *proven*
            // safe, so the driver degrades to pessimism — never to a
            // silently-wrong no-alias. Output correctness is untouched.
            assert!(!r.fully_optimistic, "{strategy:?}");
            assert!(r.failures.panics > 0, "{strategy:?}: {:?}", r.failures);
            assert!(r.failures.quarantined > 0, "{strategy:?}: {:?}", r.failures);
            assert_eq!(r.baseline_run.stdout, r.final_run.stdout);
            assert!(
                sink.events().iter().any(|e| e.kind == ProbeKind::Faulted),
                "{strategy:?}: quarantined probes must be visible in the trace"
            );
        }
    }

    #[test]
    fn panicking_build_closure_is_contained() {
        oraql_faults::quiet_injected_panics();
        let bad = TestCase::new("explodes", || -> Module {
            std::panic::panic_any(InjectedPanic("build closure"))
        });
        let cases = vec![bad, mixed_case(2, 0, 0)];
        for jobs in [1, 2] {
            let rs = run_suite(
                &cases,
                &DriverOptions {
                    jobs,
                    ..Default::default()
                },
            );
            assert!(
                matches!(rs[0], Err(DriverError::CasePanicked(_))),
                "jobs={jobs}: {:?}",
                rs[0].as_ref().err()
            );
            // The sibling case is unaffected by the panicking one.
            assert!(rs[1].as_ref().unwrap().fully_optimistic, "jobs={jobs}");
        }
    }

    // --- the verdict-tier loop ----------------------------------------

    /// Builds a ready-to-probe driver without running the workflow, so
    /// tests can exercise the [`Prober`] interface and the tier loop
    /// directly.
    fn test_driver(case: &TestCase, opts: DriverOptions, caches: Arc<VerdictCaches>) -> Driver {
        let baseline = compile(&*case.build, &CompileOptions::baseline());
        let references = vec![
            run_module(&baseline.module, case.fuel, None)
                .unwrap()
                .stdout,
        ];
        let mut d = Driver::new(case, opts, None, references, 0);
        Arc::get_mut(&mut d.engine)
            .expect("fresh engine is unshared")
            .tiers[0] = caches;
        d
    }

    /// A scripted verdict tier: serves what it holds (or fails every
    /// lookup with `fail`) and records every write it receives.
    struct FakeTier {
        role: TierRole,
        held: Mutex<HashMap<(KeySpace, u64), ProbeOutcome>>,
        fail: Option<ProbeFailure>,
        puts: Mutex<Vec<(KeySpace, u64, ProbeOutcome)>>,
    }

    impl FakeTier {
        fn new(role: TierRole, fail: Option<ProbeFailure>) -> Arc<Self> {
            Arc::new(FakeTier {
                role,
                held: Mutex::default(),
                fail,
                puts: Mutex::default(),
            })
        }

        fn holding(self: Arc<Self>, space: KeySpace, key: u64, v: ProbeOutcome) -> Arc<Self> {
            lock_ignore_poison(&self.held).insert((space, key), v);
            self
        }

        fn puts(&self) -> Vec<(KeySpace, u64, ProbeOutcome)> {
            lock_ignore_poison(&self.puts).clone()
        }
    }

    impl VerdictTier for FakeTier {
        fn role(&self) -> TierRole {
            self.role
        }

        fn get(
            &self,
            space: KeySpace,
            key: u64,
            _: &AttemptFaults,
        ) -> Result<Option<ProbeOutcome>, ProbeFailure> {
            match &self.fail {
                Some(f) => Err(f.clone()),
                None => Ok(lock_ignore_poison(&self.held).get(&(space, key)).copied()),
            }
        }

        fn put(&self, space: KeySpace, key: u64, v: ProbeOutcome) {
            lock_ignore_poison(&self.puts).push((space, key, v));
        }
    }

    /// A test driver whose funnel is memory followed by
    /// `slower`, plus the memory tier for inspection.
    fn tiered_driver(
        case: &TestCase,
        opts: DriverOptions,
        slower: Vec<Arc<dyn VerdictTier>>,
    ) -> (Driver, Arc<VerdictCaches>) {
        let memory = Arc::new(VerdictCaches::default());
        let mut d = test_driver(case, opts, Arc::clone(&memory));
        let engine = Arc::get_mut(&mut d.engine).expect("fresh engine is unshared");
        engine.tiers.extend(slower);
        (d, memory)
    }

    /// The (executable hash, decisions digest) keys `d` files `case`'s
    /// probe of `decisions` under.
    fn probe_keys(d: &Driver, case: &TestCase, decisions: &Decisions) -> (u64, u64) {
        let c = compile(
            &*case.build,
            &CompileOptions::with_oraql(decisions.clone(), case.scope.clone()),
        );
        let text = oraql_ir::printer::module_str(&c.module);
        let salt = d.engine.salt;
        (
            module_text_hash(salt, &text),
            decisions_digest(salt, decisions),
        )
    }

    const HIT: ProbeOutcome = ProbeOutcome {
        pass: true,
        unique: 7,
    };

    #[test]
    fn slow_tier_hits_are_written_back_to_every_faster_tier() {
        let (case, fx) = (mixed_case(2, 1, 0), AttemptFaults::default());
        for space in [KeySpace::Dec, KeySpace::Exe] {
            let store = FakeTier::new(TierRole::Store, None);
            let server = FakeTier::new(TierRole::Server, None).holding(space, 42, HIT);
            let (d, memory) = tiered_driver(
                &case,
                DriverOptions::default(),
                vec![store.clone(), server.clone()],
            );
            let found = d.engine.lookup(space, 42, &fx, 0);
            assert_eq!(found, Some((ProbeKind::ServerHit, HIT)), "{space:?}");
            assert_eq!(store.puts(), vec![(space, 42, HIT)], "{space:?}");
            assert_eq!(memory.get(space, 42, &fx), Ok(Some(HIT)), "{space:?}");
            assert!(server.puts().is_empty(), "{space:?}: the hit tier itself");
            assert_eq!(d.engine.effort().tests_server, 1);
        }
    }

    #[test]
    fn store_exe_hit_is_pushed_to_the_server_under_both_keys() {
        let case = mixed_case(2, 1, 0);
        let probe = Decisions::all_optimistic();
        let (d, _) = tiered_driver(&case, DriverOptions::default(), vec![]);
        let (h, digest) = probe_keys(&d, &case, &probe);
        let store = FakeTier::new(TierRole::Store, None).holding(KeySpace::Exe, h, HIT);
        let server = FakeTier::new(TierRole::Server, None);
        let (d, memory) = tiered_driver(
            &case,
            DriverOptions::default(),
            vec![store.clone(), server.clone()],
        );
        // The answer carries the stored unique count.
        assert_eq!(d.engine.execute_sandboxed(&probe), HIT);
        let e = *d.engine.effort();
        assert_eq!((e.compiles, e.tests_run, e.tests_cached), (1, 0, 1));
        assert_eq!(
            server.puts(),
            vec![(KeySpace::Exe, h, HIT), (KeySpace::Dec, digest, HIT)]
        );
        assert_eq!(store.puts(), vec![(KeySpace::Dec, digest, HIT)]);
        let entries = |space| lock_ignore_poison(memory.space(space)).len();
        assert_eq!((entries(KeySpace::Exe), entries(KeySpace::Dec)), (1, 1));
    }

    #[test]
    fn corrupt_store_hit_falls_through_to_a_compile_and_is_never_written_back() {
        let dir = std::env::temp_dir().join(format!("oraql_tier_corrupt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = Arc::new(Store::open(dir.join("verdicts.journal")).unwrap());
        let case = mixed_case(2, 1, 0);
        let probe = Decisions::all_optimistic();
        let plan = FaultPlan::quiet(5).with_rate(FaultSite::StoreReadCorrupt, Rate::always());
        let mut opts = chaos_opts(plan);
        opts.store = Some(Arc::clone(&store));
        let memory = Arc::new(VerdictCaches::default());
        let d = test_driver(&case, opts, Arc::clone(&memory));
        // Plant a rotten verdict (a pass the probe would never earn).
        let digest = decisions_digest(d.engine.salt, &probe);
        store.record_dec(digest, true, 999).unwrap();
        let o = d.engine.execute_sandboxed(&probe);
        assert!(!o.pass, "the rotten pass must not be answered");
        let (e, f) = (*d.engine.effort(), *d.engine.failures());
        assert_eq!((e.compiles, e.tests_run), (1, 1), "{e:?}");
        assert_eq!((f.store_corrupt, f.retries), (1, 0), "{f:?}");
        let fx = AttemptFaults::default();
        assert_eq!(memory.get(KeySpace::Dec, digest, &fx), Ok(Some(o)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn server_failures_read_as_misses_without_a_retry() {
        let case = mixed_case(2, 1, 0);
        let probe = Decisions::all_optimistic();
        for (failure, down, busy) in [
            (ProbeFailure::ServerDown, 2, 0),
            (ProbeFailure::ServerBusy, 0, 2),
        ] {
            let server = FakeTier::new(TierRole::Server, Some(failure));
            let (d, _) = tiered_driver(&case, DriverOptions::default(), vec![server.clone()]);
            assert!(!d.engine.execute_sandboxed(&probe).pass);
            let (e, f) = (*d.engine.effort(), *d.engine.failures());
            assert_eq!((e.compiles, e.tests_run), (1, 1), "{e:?}");
            // One failed lookup per key space, then the computed
            // verdict is still written through.
            let counts = (f.server_down, f.server_busy, f.retries, f.quarantined);
            assert_eq!(counts, (down, busy, 0, 0), "{f:?}");
            assert_eq!(server.puts().len(), 2);
        }
    }
}
