//! What one measured phase of a workload records.

use crate::gen::Class;
use crate::stats::{median, Counters, Tally};
use std::collections::BTreeMap;

#[derive(Default)]
pub struct Phase {
    /// Request latencies in ms, in completion order.
    pub latencies: Vec<f64>,
    /// Latencies by request class (daemon stream only).
    pub by_class: BTreeMap<&'static str, Vec<f64>>,
    /// Timed wall clock of the phase, seconds.
    pub wall_s: f64,
    /// Correct conclusive verdicts.
    pub correct: usize,
    pub tally: Tally,
    /// Exact work counters of one round (in-process) or of the counted
    /// prefix of every connection (daemon).
    pub counters: Counters,
    /// Rounds whose counters differed from the first round's.
    pub counter_mismatch: Vec<String>,
    /// Traced requests whose broken-down verdict differed from the API's.
    pub breakdown_mismatch: Vec<String>,
    /// Per-request layer times in ms (traced phases), reported as medians.
    pub layer_ms: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values reported as they are (traced phases).
    pub layer: BTreeMap<&'static str, f64>,
    /// Peak resident memory in MiB of each round (in-process) or of the
    /// whole phase (daemon).
    pub peak_rss_mb: Vec<f64>,
}

impl Phase {
    pub fn sample(&mut self, class: Class, ms: f64) {
        self.latencies.push(ms);
        self.by_class.entry(class.name()).or_default().push(ms);
    }

    pub fn layer_time(&mut self, name: &'static str, ms: f64) {
        self.layer_ms.entry(name).or_default().push(ms);
    }

    pub fn layer_median(&self, name: &str) -> f64 {
        self.layer_ms.get(name).map_or(0.0, |v| median(v))
    }

    pub fn class_median(&self, class: Class) -> f64 {
        self.by_class.get(class.name()).map_or(0.0, |v| median(v))
    }

    /// The median round's peak resident memory, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        median(&self.peak_rss_mb)
    }

    pub fn verdicts_per_s(&self) -> f64 {
        self.correct as f64 / self.wall_s.max(1e-9)
    }
}
