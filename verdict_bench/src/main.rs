//! `verdict-bench`: the end-to-end and per-layer benchmark of the pte
//! verifier. See `README.md` in this directory for the workloads, the
//! metrics and how to read the output.
//!
//! ```text
//! verdict-bench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!               [--requests-out <file>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The process exits 1
//! when any request fails (a wrong verdict, an error, an inconclusive
//! answer or a missed deadline), any exact work counter disagrees between
//! rounds, or a traced breakdown disagrees with the API; 2 on bad usage;
//! 3 when the run deadline aborts it.

mod daemon_mix;
mod gen;
mod inproc;
mod phase;
mod stats;
mod watch;

use gen::{Class, Job};
use inproc::Kind;
use phase::Phase;
use stats::{beyond_p90, median, quantile, render_counters};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use watch::Watch;

const WORKLOADS: [&str; 4] = [
    "deep-proof",
    "fleet-compositional",
    "falsify-sweep",
    "daemon-mixed",
];

/// Set-ups per run; `setup_s` is their median, so the first, cold one
/// does not decide it.
const SETUPS: usize = 5;

/// End-to-end metrics, printed on every workload.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("verdicts_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run, printed on every workload; a layer
/// the workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("core.pattern.build_ms", "ms"),
    ("zones.lower.ms", "ms"),
    ("zones.analysis.ms", "ms"),
    ("zones.analysis.dbm_clocks", "count"),
    ("verify.api.self_ms", "ms"),
    ("verify.api.report_bytes", "bytes"),
    ("zones.reach.ms", "ms"),
    ("zones.reach.falsify_ms", "ms"),
    ("zones.reach.witness_steps", "count"),
    ("zones.reach.states", "count"),
    ("zones.reach.transitions", "count"),
    ("zones.reach.subsumed", "count"),
    ("zones.reach.subsumed_share", "share"),
    ("zones.reach.states_per_s", "1/s"),
    ("zones.reach.peak_passed_bytes", "bytes"),
    ("zones.artifact.warm_seeded", "count"),
    ("contracts.refine_ms", "ms"),
    ("contracts.refine_pairs", "count"),
    ("contracts.pair_search_ms", "ms"),
    ("contracts.pair_networks", "count"),
    ("contracts.abstract_states", "count"),
    ("contracts.cached_share", "share"),
    ("contracts.fallbacks", "count"),
    ("server.hit_p50_ms", "ms"),
    ("server.cold_p50_ms", "ms"),
    ("server.warm_p50_ms", "ms"),
    ("server.overhead_hit_ms", "ms"),
    ("server.overhead_cold_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.slots.peak_in_use", "count"),
    ("server.cache.hit_share", "share"),
    ("server.disk.artifact_hits", "count"),
    ("trace.overhead.latency_p50_ms", "ms"),
    ("trace.overhead.verdicts_per_s", "1/s"),
    ("trace.samples", "count"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    requests_out: Option<String>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "verdict-bench: {msg}\nusage: verdict-bench --workload <{}|all> --seed <n> \
         --seconds <s> --trace <0|1> [--requests-out <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        requests_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                args.seconds = value().parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    usage("--seconds must be in (0, 600]");
                }
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            "--requests-out" => args.requests_out = Some(value()),
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        usage(&format!("unknown workload `{}`", args.workload));
    }
    args
}

/// Everything one workload produced.
struct Outcome {
    name: &'static str,
    setup_s: f64,
    untraced: Phase,
    traced: Option<Phase>,
}

impl Outcome {
    fn phases(&self) -> impl Iterator<Item = (&'static str, &Phase)> {
        std::iter::once(("untraced", &self.untraced))
            .chain(self.traced.as_ref().map(|t| ("traced", t)))
    }

    fn correct(&self) -> bool {
        self.phases().all(|(_, p)| {
            p.tally.failed == 0 && p.counter_mismatch.is_empty() && p.breakdown_mismatch.is_empty()
        })
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let p = &self.untraced;
        let values = [
            self.setup_s,
            p.verdicts_per_s(),
            median(&p.latencies),
            quantile(&p.latencies, 0.9),
            p.peak_rss_mb(),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, u, v))
            .collect()
    }

    fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        let t = self
            .traced
            .as_ref()
            .expect("per-layer metrics need a traced phase");
        let u = &self.untraced;
        let c = |k: &str| t.counters.get(k).copied().unwrap_or(0) as f64;
        let l = |k: &str| t.layer.get(k).copied().unwrap_or(0.0);
        let share = |a: f64, b: f64| if a + b > 0.0 { a / (a + b) } else { 0.0 };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = match name {
                    "zones.analysis.dbm_clocks"
                    | "zones.reach.peak_passed_bytes"
                    | "server.slots.peak_in_use"
                    | "server.cache.hit_share"
                    | "server.disk.artifact_hits" => l(name),
                    "zones.reach.witness_steps" => c("witness_steps"),
                    "zones.reach.states" => c("search_states"),
                    "zones.reach.transitions" => c("search_transitions"),
                    "zones.reach.subsumed" => c("subsumed"),
                    "zones.reach.subsumed_share" => {
                        c("subsumed") / c("search_transitions").max(1.0)
                    }
                    "zones.reach.states_per_s" => {
                        l("zones.reach.states_all") / l("zones.reach.search_s").max(1e-9)
                    }
                    "zones.artifact.warm_seeded" => c("warm_seeded"),
                    "contracts.refine_pairs" => c("refine_pairs"),
                    "contracts.pair_networks" => c("pair_networks"),
                    "contracts.abstract_states" => c("abstract_states"),
                    "contracts.cached_share" => {
                        share(c("contract_cache_hits"), c("contract_cache_misses"))
                    }
                    "contracts.fallbacks" => c("fallbacks"),
                    "server.hit_p50_ms" => t.class_median(Class::Hit),
                    "server.cold_p50_ms" => t.class_median(Class::Cold),
                    "server.warm_p50_ms" => t.class_median(Class::Warm),
                    "trace.overhead.latency_p50_ms" => median(&t.latencies) - median(&u.latencies),
                    "trace.overhead.verdicts_per_s" => t.verdicts_per_s() - u.verdicts_per_s(),
                    "trace.samples" => t.latencies.len() as f64,
                    other => t.layer_median(other),
                };
                (name, unit, v)
            })
            .collect()
    }
}

fn kind_of(name: &str) -> Option<Kind> {
    match name {
        "deep-proof" => Some(Kind::DeepProof),
        "fleet-compositional" => Some(Kind::Fleet),
        "falsify-sweep" => Some(Kind::Falsify),
        _ => None,
    }
}

fn run_workload(name: &'static str, args: &Args, watch: &Watch, issued: &mut Vec<Job>) -> Outcome {
    watch.set_workload(name);
    // A traced run measures an untraced half and a traced half, so the
    // tracing overhead is the difference of the two.
    let (untraced_s, traced_s) = if args.trace {
        (args.seconds / 2.0, Some(args.seconds / 2.0))
    } else {
        (args.seconds, None)
    };
    let mut setups = Vec::with_capacity(SETUPS);
    let (untraced, traced) = match kind_of(name) {
        Some(kind) => {
            for _ in 0..SETUPS {
                let t = Instant::now();
                let scenarios = pte_tracheotomy::registry::registry();
                std::hint::black_box(&scenarios);
                inproc::warm_up(kind, watch);
                setups.push(t.elapsed().as_secs_f64());
            }
            let untraced = inproc::run(kind, args.seed, untraced_s, false, watch, issued);
            let traced = traced_s.map(|s| inproc::run(kind, args.seed, s, true, watch, issued));
            (untraced, traced)
        }
        None => {
            let mut served = None;
            for i in 0..SETUPS {
                let t = Instant::now();
                let s = daemon_mix::setup(args.seed, &format!("setup{i}"), watch);
                setups.push(t.elapsed().as_secs_f64());
                if let Some(old) = served.replace(s) {
                    daemon_mix::teardown(old);
                }
            }
            let mut served = served.expect("at least one set-up");
            let untraced = daemon_mix::run(&mut served, untraced_s, false, watch, issued);
            daemon_mix::teardown(served);
            let traced = traced_s.map(|s| {
                // A fresh daemon: the untraced half filled the caches.
                let mut served = daemon_mix::setup(args.seed, "traced", watch);
                let phase = daemon_mix::run(&mut served, s, true, watch, issued);
                daemon_mix::teardown(served);
                phase
            });
            (untraced, traced)
        }
    };
    Outcome {
        name,
        setup_s: median(&setups),
        untraced,
        traced,
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_phase_row(label: &str, o: &Outcome, p: &Phase) {
    let n = p.latencies.len();
    println!(
        "{label:<28} {:>9.4} {:>14.3} {:>14.3} {:>14.3} {:>9} {:>6} {:>12.4} {:>11.1}",
        o.setup_s,
        p.verdicts_per_s(),
        median(&p.latencies),
        quantile(&p.latencies, 0.9),
        n,
        beyond_p90(&p.latencies),
        p.tally.failed_share(),
        p.peak_rss_mb(),
    );
}

fn report(o: &Outcome) {
    print_phase_row(o.name, o, &o.untraced);
    if let Some(t) = &o.traced {
        print_phase_row(&format!("{} (traced)", o.name), o, t);
    }
    for (label, p) in o.phases() {
        println!(
            "  counters {label} {}: {}",
            o.name,
            render_counters(&p.counters)
        );
        if !p.by_class.is_empty() {
            let classes: Vec<String> = Class::ALL
                .iter()
                .map(|c| {
                    let v = p.by_class.get(c.name()).map_or(&[][..], |v| v.as_slice());
                    format!("{}_p50_ms={:.3} (n={})", c.name(), median(v), v.len())
                })
                .collect();
            println!("  classes {label} {}: {}", o.name, classes.join(" "));
        }
        for note in p
            .tally
            .notes
            .iter()
            .chain(&p.counter_mismatch)
            .chain(&p.breakdown_mismatch)
        {
            println!("  FAILURE {label} {}: {note}", o.name);
        }
    }
    if o.traced.is_some() {
        let layers: Vec<String> = o
            .per_layer()
            .iter()
            .map(|(n, u, v)| format!("{n}={v:.4} {u}"))
            .collect();
        println!("  layers {}: {}", o.name, layers.join(" "));
    }
}

fn write_requests(path: &str, issued: &[Job]) {
    let mut out = String::new();
    for (i, job) in issued.iter().enumerate() {
        let request = serde_json::to_string(&job.request).expect("requests serialize");
        let _ = writeln!(
            out,
            "{{\"index\":{i},\"class\":\"{}\",\"label\":\"{}\",\"expect\":\"{}\",\"request\":{request}}}",
            job.class.name(),
            job.label,
            job.expect.name()
        );
    }
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

fn main() {
    let args = parse_args();
    let names: Vec<&'static str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        WORKLOADS
            .iter()
            .copied()
            .filter(|w| *w == args.workload)
            .collect()
    };
    // Set-ups, the measured time and the last round's overshoot fit well
    // inside this; only a hang reaches it.
    let per_workload = 60.0 + 2.0 * args.seconds;
    let limit = Duration::from_secs_f64(per_workload * names.len() as f64);
    let (watch, guard) = Watch::start(limit);
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "verdict-bench seed={} held-out-seed={} seconds={} trace={} cpus={cpus}",
        args.seed,
        gen::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "{:<28} {:>9} {:>14} {:>14} {:>14} {:>9} {:>6} {:>12} {:>11}",
        "workload",
        "setup_s",
        "verdicts_per_s",
        "latency_p50_ms",
        "latency_p90_ms",
        "samples",
        ">p90",
        "failed_share",
        "peak_rss_mb"
    );
    println!(
        "{:<28} {:>9} {:>14} {:>14} {:>14} {:>9} {:>6} {:>12} {:>11}",
        "", "s", "1/s", "ms", "ms", "count", "count", "share", "MB"
    );

    let mut issued = Vec::new();
    let outcomes: Vec<Outcome> = names
        .iter()
        .map(|name| {
            let o = run_workload(name, &args, &watch, &mut issued);
            report(&o);
            o
        })
        .collect();
    drop(guard);

    if let Some(path) = &args.requests_out {
        write_requests(path, &issued);
    }

    let correct = outcomes.iter().all(Outcome::correct);
    let attempted: usize = outcomes
        .iter()
        .flat_map(|o| o.phases())
        .map(|(_, p)| p.tally.attempted)
        .sum();
    let failed: usize = outcomes
        .iter()
        .flat_map(|o| o.phases())
        .map(|(_, p)| p.tally.failed)
        .sum();
    let mut metrics = Vec::new();
    for o in &outcomes {
        let rows = if args.trace {
            o.per_layer()
        } else {
            o.end_to_end()
        };
        for (name, unit, value) in rows {
            let key = if outcomes.len() == 1 {
                name.to_string()
            } else {
                format!("{}.{name}", o.name)
            };
            metrics.push(format!(
                "\"{key}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                fmt_num(value)
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
