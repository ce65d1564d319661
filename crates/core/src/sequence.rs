//! Decision sequences: how the driver tells the ORAQL pass what to
//! answer.
//!
//! The paper communicates a series of space-separated `1` (optimistic)
//! and `0` (pessimistic) characters via `-opt-aa-seq=<sequence>`, with a
//! `@<filename>` escape for sequences longer than the command-line
//! limit. The *frequency-space* strategy additionally needs
//! length-independent descriptors, which we model as residue-class
//! rules.

use std::collections::BTreeSet;

/// A complete decision source for one compilation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Decisions {
    /// Explicit per-index decisions; indices beyond the end are answered
    /// with `tail` (the driver uses `tail = true`: end-of-sequence means
    /// optimistic, and `tail = false` to pad a pessimistic tail during
    /// probing).
    Explicit {
        /// Per-unique-query decisions, `true` = optimistic no-alias.
        seq: Vec<bool>,
        /// Decision for indices past the end of `seq`.
        tail: bool,
    },
    /// Frequency-space descriptor: indices in any listed residue class
    /// (`idx % modulus == residue`) are answered pessimistically, all
    /// others optimistically. Independent of the sequence length.
    PessimisticClasses(Vec<(u64, u64)>),
}

impl Decisions {
    /// Everything optimistic (the paper's "empty sequence").
    pub fn all_optimistic() -> Self {
        Decisions::Explicit {
            seq: Vec::new(),
            tail: true,
        }
    }

    /// Everything pessimistic (behaves like the baseline compile).
    pub fn all_pessimistic() -> Self {
        Decisions::Explicit {
            seq: Vec::new(),
            tail: false,
        }
    }

    /// The decision for unique query number `idx`.
    pub fn decide(&self, idx: u64) -> bool {
        match self {
            Decisions::Explicit { seq, tail } => seq.get(idx as usize).copied().unwrap_or(*tail),
            Decisions::PessimisticClasses(classes) => {
                !classes.iter().any(|&(m, r)| m != 0 && idx % m == r)
            }
        }
    }

    /// Number of pessimistic decisions among the first `n` indices.
    pub fn pessimistic_count(&self, n: u64) -> u64 {
        (0..n).filter(|&i| !self.decide(i)).count() as u64
    }

    /// An equivalent canonical form: explicit sequences drop trailing
    /// entries equal to `tail` (they are no-ops — the tail answers
    /// those indices identically), class descriptors are deduplicated
    /// and sorted. Two decision sources that answer every index the
    /// same way have equal canonical `Explicit` forms, so comparing
    /// canonical forms ignores no-op trailing entries.
    pub fn canonical(&self) -> Decisions {
        match self {
            Decisions::Explicit { seq, tail } => {
                let mut seq = seq.clone();
                while seq.last() == Some(tail) {
                    seq.pop();
                }
                Decisions::Explicit { seq, tail: *tail }
            }
            Decisions::PessimisticClasses(classes) => {
                let set: BTreeSet<(u64, u64)> = classes.iter().copied().collect();
                Decisions::PessimisticClasses(set.into_iter().collect())
            }
        }
    }

    /// Serializes like the paper's `-opt-aa-seq` argument: explicit
    /// sequences as space-separated 0/1 (with `...1` / `...0` marking
    /// the implicit tail), class descriptors as `mod:res` pairs.
    pub fn render(&self) -> String {
        match self {
            Decisions::Explicit { seq, tail } => {
                let mut parts: Vec<String> = seq
                    .iter()
                    .map(|&b| if b { "1".into() } else { "0".into() })
                    .collect();
                parts.push(if *tail { "...1".into() } else { "...0".into() });
                parts.join(" ")
            }
            Decisions::PessimisticClasses(classes) => {
                let set: BTreeSet<(u64, u64)> = classes.iter().copied().collect();
                set.iter()
                    .map(|(m, r)| format!("{m}:{r}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            }
        }
    }

    /// Parses the output of [`Decisions::render`] (also accepts a plain
    /// `0 1 0 ...` sequence without a tail marker, defaulting the tail
    /// to optimistic like the paper's pass does).
    pub fn parse(s: &str) -> Result<Self, String> {
        let toks: Vec<&str> = s.split_whitespace().collect();
        if toks.iter().any(|t| t.contains(':')) {
            let mut classes = Vec::new();
            for t in toks {
                let (m, r) = t
                    .split_once(':')
                    .ok_or_else(|| format!("bad class token {t:?}"))?;
                classes.push((
                    m.parse::<u64>().map_err(|e| e.to_string())?,
                    r.parse::<u64>().map_err(|e| e.to_string())?,
                ));
            }
            return Ok(Decisions::PessimisticClasses(classes));
        }
        let mut seq = Vec::new();
        let mut tail = true;
        for t in toks {
            match t {
                "0" => seq.push(false),
                "1" => seq.push(true),
                "...0" => tail = false,
                "...1" => tail = true,
                other => return Err(format!("bad sequence token {other:?}")),
            }
        }
        Ok(Decisions::Explicit { seq, tail })
    }

    /// Loads a sequence from a file (the `@<filename>` mechanism used
    /// when sequences exceed the command-line length limit).
    pub fn from_arg(arg: &str) -> Result<Self, String> {
        if let Some(path) = arg.strip_prefix('@') {
            let contents = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read sequence file {path}: {e}"))?;
            Self::parse(&contents)
        } else {
            Self::parse(arg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_with_tail() {
        let d = Decisions::Explicit {
            seq: vec![true, false, true],
            tail: true,
        };
        assert!(d.decide(0));
        assert!(!d.decide(1));
        assert!(d.decide(2));
        assert!(d.decide(3)); // past the end: optimistic
        assert_eq!(d.pessimistic_count(4), 1);
    }

    #[test]
    fn classes_decide_by_residue() {
        let d = Decisions::PessimisticClasses(vec![(4, 1)]);
        assert!(d.decide(0));
        assert!(!d.decide(1));
        assert!(!d.decide(5));
        assert!(d.decide(6));
    }

    #[test]
    fn render_parse_roundtrip_explicit() {
        let d = Decisions::Explicit {
            seq: vec![true, false],
            tail: false,
        };
        let s = d.render();
        assert_eq!(s, "1 0 ...0");
        assert_eq!(Decisions::parse(&s).unwrap(), d);
    }

    #[test]
    fn render_parse_roundtrip_classes() {
        let d = Decisions::PessimisticClasses(vec![(8, 3), (2, 0)]);
        let s = d.render();
        let d2 = Decisions::parse(&s).unwrap();
        for i in 0..32 {
            assert_eq!(d.decide(i), d2.decide(i), "index {i}");
        }
    }

    #[test]
    fn parse_plain_sequence_defaults_tail_optimistic() {
        let d = Decisions::parse("0 1 0").unwrap();
        assert!(!d.decide(0));
        assert!(d.decide(1));
        assert!(d.decide(99));
    }

    #[test]
    fn from_arg_file() {
        let path = std::env::temp_dir().join("oraql_seq_test.txt");
        std::fs::write(&path, "1 0 ...1").unwrap();
        let d = Decisions::from_arg(&format!("@{}", path.display())).unwrap();
        assert!(!d.decide(1));
        assert!(d.decide(7));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Decisions::parse("1 2 0").is_err());
        assert!(Decisions::parse("4:").is_err());
    }

    #[test]
    fn canonical_drops_noop_trailing_entries() {
        let a = Decisions::Explicit {
            seq: vec![false, true, true],
            tail: true,
        };
        let b = Decisions::Explicit {
            seq: vec![false, true, true, true, true],
            tail: true,
        };
        assert_ne!(a, b);
        assert_eq!(a.canonical(), b.canonical());
        for i in 0..16 {
            assert_eq!(a.decide(i), a.canonical().decide(i), "index {i}");
        }
        // Entries different from the tail are kept.
        let c = Decisions::Explicit {
            seq: vec![true, false],
            tail: true,
        };
        assert_eq!(c.canonical(), c);
    }

    #[test]
    fn canonical_sorts_and_dedups_classes() {
        let a = Decisions::PessimisticClasses(vec![(4, 1), (2, 0), (4, 1)]);
        assert_eq!(
            a.canonical(),
            Decisions::PessimisticClasses(vec![(2, 0), (4, 1)])
        );
    }
}
