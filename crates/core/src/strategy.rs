//! The two bisection strategies of the probing driver (paper §IV-B).
//!
//! *Chunked*: recursively splits the not-yet-decided tail of the
//! sequence into an earlier and a later half, adapting to the fact that
//! the number of unique queries changes as decisions change. Efficient
//! when dangerous queries cluster (which they do in practice).
//!
//! *Frequency space*: splits query indices by integer-division residue
//! (even/odd at the first level), giving sequence descriptors that are
//! independent of the sequence length. Simple, but clustered dangerous
//! queries force it to refine almost to singletons.
//!
//! Both implement the Fig. 2 deduction: when a parent range is known to
//! contain a dangerous query and one sibling proves clean, the other
//! sibling's failing test is deduced rather than run.
//!
//! # Probe order
//!
//! Each strategy is a sequential walk: which vector it probes next
//! depends on the outcomes of the probes before it, and every probe
//! runs inline through [`Prober::probe`]. The probe order and the final
//! decision sequence are therefore pure functions of the probe outcomes.

use crate::sequence::Decisions;

/// Outcome of probing one decision source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Did the compiled program verify?
    pub pass: bool,
    /// Unique ORAQL queries observed during that compilation.
    pub unique: u64,
}

/// Something that can compile + test a decision source (the driver).
pub trait Prober {
    /// Compile with `d`, run, verify.
    fn probe(&mut self, d: &Decisions) -> ProbeOutcome;
    /// True once the test budget is exhausted (strategies then finish
    /// conservatively).
    fn budget_exceeded(&self) -> bool;
    /// Records a test skipped thanks to the deduction rule.
    fn note_deduced(&mut self);

    /// Unread by both strategies. Kept until the benchmark harness
    /// stops implementing it.
    fn speculate_depth(&self) -> u32 {
        1
    }
}

/// Which strategy the driver uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Chunked (earlier/later) bisection — the default.
    #[default]
    Chunked,
    /// Frequency-space (residue class) bisection.
    FrequencySpace,
}

impl Strategy {
    /// Parses a config-file value.
    pub fn parse(s: &str) -> Result<Strategy, String> {
        match s {
            "chunked" => Ok(Strategy::Chunked),
            "frequency" | "frequency-space" => Ok(Strategy::FrequencySpace),
            other => Err(format!("unknown strategy {other:?}")),
        }
    }

    /// Runs the strategy. Precondition: the fully-optimistic probe has
    /// already failed. Returns decisions whose probe passes.
    pub fn solve(self, p: &mut dyn Prober) -> Decisions {
        match self {
            Strategy::Chunked => chunked(p),
            Strategy::FrequencySpace => frequency_space(p),
        }
    }
}

/// Chunked bisection.
pub fn chunked(p: &mut dyn Prober) -> Decisions {
    let mut prefix: Vec<bool> = Vec::new();
    loop {
        let optimistic_rest = Decisions::Explicit {
            seq: prefix.clone(),
            tail: true,
        };
        if p.probe(&optimistic_rest).pass {
            return optimistic_rest;
        }
        if p.budget_exceeded() {
            // Conservative finish: everything undecided stays
            // pessimistic (always verifies).
            return Decisions::Explicit {
                seq: prefix,
                tail: false,
            };
        }
        // Number of queries beyond the prefix when the tail is answered
        // pessimistically (always a passing configuration).
        let o = p.probe(&Decisions::Explicit {
            seq: prefix.clone(),
            tail: false,
        });
        let n = o.unique.saturating_sub(prefix.len() as u64);
        let before = prefix.len();
        if n == 0 {
            // The dangerous queries only appear once earlier optimism
            // has been granted; we cannot see them under a pessimistic
            // tail. Concede one pessimistic decision to make progress.
            prefix.push(false);
            continue;
        }
        decide_range(p, &mut prefix, n, false);
        if prefix.len() == before {
            prefix.push(false); // forced progress (should not happen)
        }
    }
}

/// Decides (approximately) the next `h` queries after `prefix`, leaving
/// everything beyond pessimistic. `known_fail` says the all-optimistic
/// test for this range is already known to fail (deduction).
fn decide_range(p: &mut dyn Prober, prefix: &mut Vec<bool>, h: u64, known_fail: bool) {
    if h == 0 {
        return;
    }
    if p.budget_exceeded() {
        // Undecided ⇒ pessimistic.
        prefix.extend(std::iter::repeat_n(false, h as usize));
        return;
    }
    if known_fail {
        p.note_deduced();
    } else {
        let mut seq = prefix.clone();
        seq.extend(std::iter::repeat_n(true, h as usize));
        let d = Decisions::Explicit {
            seq: seq.clone(),
            tail: false,
        };
        if p.probe(&d).pass {
            *prefix = seq;
            return;
        }
    }
    if h == 1 {
        prefix.push(false);
        return;
    }
    let h1 = h / 2;
    let before = prefix.len();
    decide_range(p, prefix, h1, false);
    let consumed = (prefix.len() - before) as u64;
    // The query space shifts as decisions change; re-measure how much
    // of the original range remains (the paper's "the bisection
    // strategy must adapt accordingly").
    let h2 = h.saturating_sub(consumed);
    // Fig. 2 deduction: a clean first half means the danger is in the
    // second half — skip its all-optimistic test.
    let first_half_clean = prefix[before..].iter().all(|&b| b);
    decide_range(p, prefix, h2, first_half_clean);
}

/// Frequency-space bisection.
pub fn frequency_space(p: &mut dyn Prober) -> Decisions {
    // Invariant maintained throughout: answering all classes in
    // `finalized ∪ work` pessimistically passes.
    let mut finalized: Vec<(u64, u64)> = Vec::new();
    let mut work: Vec<(u64, u64)> = vec![(1, 0)];
    let mut last_passing = Decisions::PessimisticClasses(vec![(1, 0)]);

    while let Some((m, r)) = work.pop() {
        let ctx = |extra: &[(u64, u64)], finalized: &[(u64, u64)], work: &[(u64, u64)]| {
            let mut c = finalized.to_vec();
            c.extend_from_slice(work);
            c.extend_from_slice(extra);
            Decisions::PessimisticClasses(c)
        };
        if p.budget_exceeded() {
            finalized.push((m, r));
            continue;
        }
        // Measure the current query count with this class pessimistic.
        let o = p.probe(&ctx(&[(m, r)], &finalized, &work));
        if o.pass {
            last_passing = ctx(&[(m, r)], &finalized, &work);
        }
        let n = o.unique;
        let class_size = if m == 0 {
            0
        } else {
            n.saturating_sub(r).div_ceil(m)
        };
        if class_size <= 1 {
            finalized.push((m, r));
            continue;
        }
        let c1 = (2 * m, r);
        let c2 = (2 * m, r + m);
        if p.probe(&ctx(&[c1], &finalized, &work)).pass {
            last_passing = ctx(&[c1], &finalized, &work);
            // All dangers of (m, r) live in c1; c2 is clean. The
            // c2-only test would fail — deduced, not run.
            p.note_deduced();
            work.push(c1);
            continue;
        }
        if p.probe(&ctx(&[c2], &finalized, &work)).pass {
            last_passing = ctx(&[c2], &finalized, &work);
            work.push(c2);
        } else {
            work.push(c1);
            work.push(c2);
        }
    }

    let result = Decisions::PessimisticClasses(finalized);
    if p.probe(&result).pass {
        result
    } else {
        // Adaptivity can invalidate the split bookkeeping; fall back to
        // the last configuration that verified.
        last_passing
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic prober: a fixed set of dangerous indices; a probe
    /// passes iff every dangerous index is answered pessimistically.
    /// The query count is fixed (no adaptivity) — adaptivity is covered
    /// by the driver integration tests.
    struct Synthetic {
        dangerous: Vec<u64>,
        n: u64,
        tests: u64,
        deduced: u64,
        budget: u64,
    }

    impl Prober for Synthetic {
        fn probe(&mut self, d: &Decisions) -> ProbeOutcome {
            self.tests += 1;
            let pass = self.dangerous.iter().all(|&i| !d.decide(i));
            ProbeOutcome {
                pass,
                unique: self.n,
            }
        }
        fn budget_exceeded(&self) -> bool {
            self.tests >= self.budget
        }
        fn note_deduced(&mut self) {
            self.deduced += 1;
        }
    }

    fn synth(dangerous: Vec<u64>, n: u64) -> Synthetic {
        Synthetic {
            dangerous,
            n,
            tests: 0,
            deduced: 0,
            budget: 100_000,
        }
    }

    fn check_result(s: &Synthetic, d: &Decisions) {
        // All dangerous indices pessimistic.
        for &i in &s.dangerous {
            assert!(!d.decide(i), "index {i} must be pessimistic ({d:?})");
        }
    }

    #[test]
    fn chunked_finds_single_dangerous_query() {
        let mut s = synth(vec![37], 100);
        let d = chunked(&mut s);
        check_result(&s, &d);
        // Locally maximal: everything else optimistic.
        let pess = d.pessimistic_count(100);
        assert_eq!(pess, 1, "{d:?}");
        // Far fewer tests than the 100 a per-query scan would need.
        assert!(s.tests < 30, "tests = {}", s.tests);
    }

    #[test]
    fn chunked_handles_clustered_dangers() {
        let mut s = synth(vec![40, 41, 42, 43], 128);
        let d = chunked(&mut s);
        check_result(&s, &d);
        assert_eq!(d.pessimistic_count(128), 4);
        assert!(s.deduced > 0, "deduction should trigger");
    }

    #[test]
    fn chunked_with_no_dangers_is_two_tests() {
        let mut s = synth(vec![], 1000);
        let d = chunked(&mut s);
        assert_eq!(d.pessimistic_count(1000), 0);
        assert_eq!(s.tests, 1);
    }

    #[test]
    fn chunked_all_dangerous() {
        let mut s = synth((0..16).collect(), 16);
        let d = chunked(&mut s);
        check_result(&s, &d);
        assert_eq!(d.pessimistic_count(16), 16);
    }

    #[test]
    fn frequency_space_finds_scattered_dangers() {
        let mut s = synth(vec![5, 64], 128);
        let d = frequency_space(&mut s);
        check_result(&s, &d);
        // Locally maximal-ish: the vast majority stays optimistic.
        assert!(d.pessimistic_count(128) <= 8, "{d:?}");
    }

    #[test]
    fn frequency_space_clustered_needs_more_tests_than_chunked() {
        let cluster: Vec<u64> = (40..48).collect();
        let mut sc = synth(cluster.clone(), 256);
        let dc = chunked(&mut sc);
        check_result(&sc, &dc);
        let mut sf = synth(cluster, 256);
        let df = frequency_space(&mut sf);
        check_result(&sf, &df);
        // The paper's observation: clustering favours chunked probing.
        assert!(
            sf.tests > sc.tests,
            "frequency {} <= chunked {}",
            sf.tests,
            sc.tests
        );
    }

    #[test]
    fn budget_exhaustion_is_safe() {
        let mut s = synth(vec![3, 77, 200, 512], 1024);
        s.budget = 8;
        let d = chunked(&mut s);
        // Whatever was decided, the result must verify.
        assert!(s.dangerous.iter().all(|&i| !d.decide(i)), "{d:?}");
    }

    #[test]
    fn strategy_parse() {
        assert_eq!(Strategy::parse("chunked").unwrap(), Strategy::Chunked);
        assert_eq!(
            Strategy::parse("frequency").unwrap(),
            Strategy::FrequencySpace
        );
        assert!(Strategy::parse("?").is_err());
    }
}
