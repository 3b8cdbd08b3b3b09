//! Known-answer oracle, sample statistics, exact work counters and
//! process memory.

use crate::gen::Expect;
use pte_verify::api::{Verdict, VerificationReport};
use std::collections::BTreeMap;

/// How one request ended, judged against its known answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    /// The expected conclusive verdict (and, for `Unsafe`, a witness).
    Correct,
    /// A conclusive verdict other than the expected one, or an `Unsafe`
    /// without a witness: the program is wrong.
    Wrong(String),
    /// Error, inconclusive, cancelled or past its deadline: no answer.
    Failed(String),
}

impl Outcome {
    pub fn is_failure(&self) -> bool {
        !matches!(self, Outcome::Correct)
    }
}

/// Judges a report against the request's known answer.
pub fn judge(expect: Expect, report: &VerificationReport) -> Outcome {
    let witness = report
        .witness
        .as_deref()
        .is_some_and(|w| !w.trim().is_empty());
    match (&report.verdict, expect) {
        (Verdict::Safe, Expect::Safe) => Outcome::Correct,
        (Verdict::Unsafe, Expect::Unsafe) if witness => Outcome::Correct,
        (Verdict::Unsafe, Expect::Unsafe) => Outcome::Wrong("unsafe without a witness".into()),
        (Verdict::Inconclusive(why), _) => Outcome::Failed(format!("inconclusive: {why}")),
        (got, want) => Outcome::Wrong(format!("expected {}, got {got}", want.name())),
    }
}

/// Request tallies of one measured phase.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    /// First few failure descriptions, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, label: &str, outcome: &Outcome) {
        self.attempted += 1;
        if outcome.is_failure() {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(format!("{label}: {outcome:?}"));
            }
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// The value at quantile `q` (0..=1) of `samples`, by linear
/// interpolation between closest ranks. `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples strictly above the 90th percentile.
pub fn beyond_p90(samples: &[f64]) -> usize {
    let p90 = quantile(samples, 0.9);
    samples.iter().filter(|&&s| s > p90).count()
}

/// Deterministic work counters. Two runs at one seed must produce equal
/// maps; within one run, every completed round (or the counted prefix of
/// each daemon connection) must too.
pub type Counters = BTreeMap<&'static str, u64>;

pub fn add(c: &mut Counters, name: &'static str, v: usize) {
    *c.entry(name).or_insert(0) += v as u64;
}

pub fn render_counters(c: &Counters) -> String {
    c.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Starts a new peak-memory window: hands memory the allocator holds but
/// no longer uses back to the system, then resets the kernel's
/// high-water mark (`VmHWM`) to the current resident size. Without the
/// trim, one round that raises glibc's adaptive trim threshold keeps
/// every later window high, and the peak becomes a coin toss between
/// two levels instead of a measure of what a round needs.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases free memory; it takes the
        // allocator's own locks, so other threads may run meanwhile.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process in MiB since the last
/// [`reset_peak_rss`] (`VmHWM`); it holds the daemon too since that runs
/// in-process.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pte_verify::api::{BackendSel, VerificationRequest};

    #[test]
    fn a_wrong_expectation_counts_as_a_failure() {
        let report = VerificationRequest::scenario("case-study")
            .backend(BackendSel::Symbolic)
            .run()
            .expect("registry scenario");
        let mut tally = Tally::default();
        tally.record("right", &judge(Expect::Safe, &report));
        // Deliberately wrong: the leased case study is Safe (Theorem 1).
        let wrong = judge(Expect::Unsafe, &report);
        assert!(matches!(wrong, Outcome::Wrong(_)), "{wrong:?}");
        tally.record("wrong", &wrong);
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(tally.failed_share(), 0.5);
    }

    #[test]
    fn an_unsafe_without_witness_is_wrong() {
        let mut report = VerificationRequest::scenario("case-study")
            .leased(false)
            .backend(BackendSel::Symbolic)
            .run()
            .expect("registry scenario");
        assert_eq!(judge(Expect::Unsafe, &report), Outcome::Correct);
        report.witness = None;
        assert!(matches!(judge(Expect::Unsafe, &report), Outcome::Wrong(_)));
    }

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(beyond_p90(&s), 1);
    }
}
