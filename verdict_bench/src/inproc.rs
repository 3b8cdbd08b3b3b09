//! The in-process workloads: `deep-proof`, `fleet-compositional` and
//! `falsify-sweep`. One caller runs a closed loop of
//! `VerificationRequest::run_with` calls, round after round, and stops
//! at the first round boundary after the measuring time is up.
//!
//! A traced phase also breaks every request into the public calls the
//! API makes — build, lower, analyze, then the search or the
//! compositional stages — times each one, and checks that the
//! broken-down verdict equals the API's.

use crate::gen::{self, Job, Rng};
use crate::phase::Phase;
use crate::stats::{add, judge, peak_rss_mb, reset_peak_rss, Counters, Outcome};
use crate::watch::{Watch, REQUEST_DEADLINE};
use pte_contracts::{lease_client, localize, refine, top_for, RefineLimits, RefineOutcome};
use pte_core::pattern::build_pattern_system;
use pte_tracheotomy::registry;
use pte_verify::api::{BackendSel, ProgressSink, Verdict, VerificationReport};
use pte_verify::CancelToken;
use pte_zones::ta::TaNetwork;
use pte_zones::{analyze, check, lower_network, Limits, ObserverSpec, SymbolicVerdict};
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    DeepProof,
    Fleet,
    Falsify,
}

impl Kind {
    pub fn round(self, rng: &mut Rng) -> Vec<Job> {
        match self {
            Kind::DeepProof => gen::deep_proof_round(rng),
            Kind::Fleet => gen::fleet_round(rng),
            Kind::Falsify => gen::falsify_round(rng),
        }
    }

    fn stream(self) -> u64 {
        match self {
            Kind::DeepProof => 1,
            Kind::Fleet => 2,
            Kind::Falsify => 3,
        }
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs one request through the API under the watchdog's deadline.
fn call_api(watch: &Watch, job: &Job, index: usize) -> (f64, Result<VerificationReport, String>) {
    let token = CancelToken::new();
    watch.phase(0, index, format!("{} via verify.api", job.label));
    let sink: ProgressSink = {
        let watch = watch.clone();
        Arc::new(move |backend: &str, p: &pte_zones::Progress| {
            watch.note(
                0,
                format!("{backend} round {} ({} settled)", p.round, p.settled),
            );
        })
    };
    watch.arm(0, &token, REQUEST_DEADLINE);
    let t = Instant::now();
    let result = job.request.run_with(&token, Some(sink));
    let ms = ms_since(t);
    let expired = watch.disarm(0);
    let result = match result {
        Ok(_) if expired => Err(format!("past its {REQUEST_DEADLINE:?} deadline")),
        Ok(r) => Ok(r),
        Err(e) => Err(e.to_string()),
    };
    (ms, result)
}

/// Set-up: untimed requests that page code in and make lazy allocations
/// before timing starts. They are the same for every seed, so `setup_s`
/// compares across seeds: the smallest proof of `deep-proof`, the
/// smaller fleet, and one lease-stripped arm of every registry scenario.
pub fn warm_up(kind: Kind, watch: &Watch) {
    let jobs = match kind {
        Kind::DeepProof => vec![gen::scenario_job("chain-6", true, BackendSel::Symbolic, 2)],
        Kind::Fleet => vec![gen::scenario_job(
            "chain-12",
            true,
            BackendSel::Compositional,
            2,
        )],
        Kind::Falsify => registry::names()
            .iter()
            .map(|n| gen::scenario_job(n, false, BackendSel::Symbolic, 1))
            .collect(),
    };
    for job in jobs {
        let (_, r) = call_api(watch, &job, 0);
        let report = r.unwrap_or_else(|e| panic!("warm-up request {} failed: {e}", job.label));
        assert_eq!(
            judge(job.expect, &report),
            Outcome::Correct,
            "warm-up {}",
            job.label
        );
    }
}

/// Runs rounds until `seconds` have passed; `traced` adds the per-layer
/// breakdown to every request.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    watch: &Watch,
    issued: &mut Vec<Job>,
) -> Phase {
    let mut rng = Rng::new(seed, kind.stream());
    let mut phase = Phase::default();
    let mut first: Option<Counters> = None;
    let start = Instant::now();
    let mut index = 0usize;
    let mut rounds = 0usize;
    loop {
        // Every fleet round starts from an empty refinement-verdict
        // cache (process-global in the contracts layer), so each round
        // does the same refinement work and its counters are exact.
        if kind == Kind::Fleet {
            pte_contracts::reset_cache();
        }
        reset_peak_rss();
        let mut counters = Counters::new();
        for job in kind.round(&mut rng) {
            let (ms, result) = call_api(watch, &job, index);
            let outcome = match &result {
                Ok(report) => judge(job.expect, report),
                Err(e) => Outcome::Failed(e.clone()),
            };
            phase.tally.record(&job.label, &outcome);
            // Latencies count only correct answers, so a request that
            // stops early without one cannot make the percentiles look
            // better.
            if outcome == Outcome::Correct {
                phase.correct += 1;
                phase.latencies.push(ms);
            }
            if let Ok(report) = &result {
                count_report(&mut counters, report);
                if traced {
                    trace_request(&mut phase, &mut counters, watch, &job, index, report, ms);
                }
            }
            issued.push(job);
            index += 1;
        }
        phase.peak_rss_mb.push(peak_rss_mb());
        rounds += 1;
        match &first {
            None => first = Some(counters),
            Some(f) if *f != counters => phase
                .counter_mismatch
                .push(format!("round {rounds} counters differ from round 1")),
            Some(_) => {}
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.counters = first.unwrap_or_default();
    phase
}

/// Exact counters the API report carries.
fn count_report(c: &mut Counters, report: &VerificationReport) {
    let b = report.primary();
    add(c, "requests", 1);
    add(c, "states", b.states);
    add(c, "transitions", b.transitions);
    add(
        c,
        "witness_bytes",
        report.witness.as_ref().map_or(0, String::len),
    );
    if let Some(cs) = &report.compositional {
        add(c, "abstract_states", cs.abstract_states);
        add(c, "refine_pairs", cs.refine_pairs);
        add(c, "pair_networks", cs.pair_networks);
        add(c, "contract_cache_hits", cs.contracts_cached);
        add(c, "contract_cache_misses", cs.contracts_checked);
        add(
            c,
            "fallbacks",
            usize::from(b.rendered.starts_with("compositional argument fell back")),
        );
    }
}

/// What the broken-down calls concluded.
#[derive(Default)]
struct Broken {
    verdict: Verdict,
    witness: Option<String>,
    states: usize,
    transitions: usize,
    /// Compositional requests: states of the abstract pair searches.
    abstract_states: usize,
    /// Compositional requests: pairs of the lease-client refinements.
    refine_pairs: usize,
}

/// Times the public calls the API makes for `job` and checks the
/// broken-down verdict against the API `report`.
fn trace_request(
    phase: &mut Phase,
    counters: &mut Counters,
    watch: &Watch,
    job: &Job,
    index: usize,
    report: &VerificationReport,
    api_ms: f64,
) {
    let leased = job.request.leased;
    let workers = job.request.budget.max_workers.unwrap_or(1);
    let token = CancelToken::new();
    watch.phase(0, index, format!("{} traced breakdown", job.label));
    watch.arm(0, &token, REQUEST_DEADLINE);

    let t = Instant::now();
    let sys = build_pattern_system(&job.config, leased).expect("generated configs build");
    let build_ms = ms_since(t);
    let t = Instant::now();
    let net = lower_network(&sys.automata).expect("pattern systems lower");
    let lower_ms = ms_since(t);
    let t = Instant::now();
    let analysis = analyze(&net);
    let analyze_ms = ms_since(t);
    drop(analysis);
    phase.layer_time("core.pattern.build_ms", build_ms);
    phase.layer_time("zones.lower.ms", lower_ms);
    phase.layer_time("zones.analysis.ms", analyze_ms);

    let limits = Limits {
        max_states: job.max_states,
        max_workers: workers,
        cancel: Some(token.clone()),
        ..Limits::default()
    };
    // Only a request whose devices the API refined itself, none from its
    // cache, did the refinement work the breakdown repeats.
    let refined_all = report
        .compositional
        .as_ref()
        .is_some_and(|cs| cs.contracts_cached == 0 && cs.contracts_deduped == 0);
    let broken = if report.compositional.is_some() {
        trace_compositional(phase, counters, job, &net, &limits, workers, refined_all)
    } else {
        let spec = ObserverSpec::from(job.config.pte_spec());
        let t = Instant::now();
        let v = check(&net, &spec, &limits).expect("generated specs name their entities");
        let search_ms = ms_since(t);
        // The API builds and lowers twice (once for the search, once for
        // the report's analysis summary) and analyzes once outside
        // `check`; the rest of its wall time is its own.
        let self_ms = api_ms - (2.0 * (build_ms + lower_ms) + analyze_ms + search_ms);
        phase.layer_time("verify.api.self_ms", self_ms);
        symbolic_layers(phase, counters, &v, search_ms);
        Broken {
            verdict: match &v {
                SymbolicVerdict::Safe(_) => Verdict::Safe,
                SymbolicVerdict::Unsafe(_) => Verdict::Unsafe,
                SymbolicVerdict::OutOfBudget { .. } => Verdict::default(),
            },
            witness: match &v {
                SymbolicVerdict::Unsafe(ce) => Some(format!("{ce}")),
                _ => None,
            },
            states: v.stats().map_or(0, |s| s.states),
            transitions: v.stats().map_or(0, |s| s.transitions),
            ..Broken::default()
        }
    };
    if watch.disarm(0) {
        phase
            .breakdown_mismatch
            .push(format!("{}: breakdown past its deadline", job.label));
        return;
    }
    phase.layer_time(
        "verify.api.report_bytes",
        serde_json::to_string(report).map_or(0, |s| s.len()) as f64,
    );

    let b = report.primary();
    let mut agree = broken.verdict == report.verdict;
    match &report.compositional {
        Some(cs) => {
            agree &= broken.abstract_states == cs.abstract_states;
            if refined_all {
                agree &= broken.refine_pairs == cs.refine_pairs;
            }
        }
        None => {
            agree &= broken.witness == report.witness
                && broken.states == b.states
                && broken.transitions == b.transitions;
        }
    }
    if !agree {
        let (abstract_states, refine_pairs) = report
            .compositional
            .as_ref()
            .map_or((0, 0), |cs| (cs.abstract_states, cs.refine_pairs));
        phase.breakdown_mismatch.push(format!(
            "{}: API said {} ({} states, {abstract_states} abstract states, {refine_pairs} \
             refine pairs), breakdown said {} ({} states, {} abstract states, {} refine pairs)",
            job.label,
            report.verdict,
            b.states,
            broken.verdict,
            broken.states,
            broken.abstract_states,
            broken.refine_pairs
        ));
    }
}

/// Per-layer numbers of one monolithic search.
fn symbolic_layers(phase: &mut Phase, counters: &mut Counters, v: &SymbolicVerdict, ms: f64) {
    match v {
        SymbolicVerdict::Unsafe(ce) => {
            phase.layer_time("zones.reach.falsify_ms", ms);
            add(counters, "witness_steps", ce.steps.len());
        }
        _ => {
            phase.layer_time("zones.reach.ms", ms);
            if let Some(s) = v.stats() {
                add(counters, "subsumed", s.subsumed);
                add(counters, "search_states", s.states);
                add(counters, "search_transitions", s.transitions);
                let l = &mut phase.layer;
                *l.entry("zones.reach.search_s").or_insert(0.0) += ms / 1e3;
                *l.entry("zones.reach.states_all").or_insert(0.0) += s.states as f64;
                let clocks = l.entry("zones.analysis.dbm_clocks").or_insert(0.0);
                *clocks = clocks.max(s.dbm_clocks as f64);
                let bytes = l.entry("zones.reach.peak_passed_bytes").or_insert(0.0);
                *bytes = bytes.max(s.peak_passed_bytes as f64);
            }
        }
    }
}

/// The compositional stages from outside, in the API's order and
/// stopping where it stops: per device a `refine` against its
/// lease-client contract and then against its chatter cover, then one
/// monitored search per safeguard pair on the abstract pair network.
/// `refined_all` says the API refined every device itself; only then is
/// the refinement time the program's own.
fn trace_compositional(
    phase: &mut Phase,
    counters: &mut Counters,
    job: &Job,
    net: &TaNetwork,
    limits: &Limits,
    workers: usize,
    refined_all: bool,
) -> Broken {
    let cfg = &job.config;
    let rl = RefineLimits {
        workers,
        ..RefineLimits::default()
    };
    let mut holds = true;
    let mut refine_pairs = 0;
    let t = Instant::now();
    for j in 1..=cfg.n {
        let name = cfg.entity_name(j);
        let device = &net.automata[net.automaton_by_name(&name).expect("device lowered")];
        let (local, clocks) = localize(device, &net.clocks);
        let o = refine(&local, &clocks, &lease_client(cfg, j), &rl);
        refine_pairs += o.stats().pairs;
        holds = o.holds()
            && !matches!(
                refine(&local, &clocks, &top_for(device), &rl),
                RefineOutcome::Fails(_)
            );
        if !holds {
            break;
        }
    }
    if refined_all {
        phase.layer_time("contracts.refine_ms", ms_since(t));
    }
    add(counters, "breakdown_refine_pairs", refine_pairs);

    let full = ObserverSpec::from_spec(&cfg.pte_spec());
    let mut safe = holds;
    let mut abstract_states = 0;
    let t = Instant::now();
    for k in 0..cfg.n - 1 {
        if !safe {
            break;
        }
        let pair = pair_network(net, job, k);
        let spec = ObserverSpec {
            entities: full.entities[k..=k + 1].to_vec(),
            rule1_ticks: full.rule1_ticks[k..=k + 1].to_vec(),
            pairs: full.pairs[k..k + 1].to_vec(),
        };
        let v = check(&pair, &spec, limits).expect("pair specs name their entities");
        abstract_states += v.stats().map_or(0, |s| s.states);
        safe = v.is_safe();
    }
    phase.layer_time("contracts.pair_search_ms", ms_since(t));
    add(counters, "breakdown_abstract_states", abstract_states);
    if safe {
        Broken {
            verdict: Verdict::Safe,
            abstract_states,
            refine_pairs,
            ..Broken::default()
        }
    } else {
        // The API falls back to the monolithic engine; so does this.
        let spec = ObserverSpec::from(cfg.pte_spec());
        let t = Instant::now();
        let v = check(net, &spec, limits).expect("generated specs name their entities");
        symbolic_layers(phase, counters, &v, ms_since(t));
        Broken {
            verdict: if v.is_safe() {
                Verdict::Safe
            } else if v.is_unsafe() {
                Verdict::Unsafe
            } else {
                Verdict::default()
            },
            states: v.stats().map_or(0, |s| s.states),
            abstract_states,
            refine_pairs,
            ..Broken::default()
        }
    }
}

/// The abstract network of safeguard pair `k` under the default `top`
/// environment profile: the concrete supervisor, the timed lease-client
/// contracts of the pair's two members and the chatter stand-in of every
/// other device — what the contracts layer checks for that pair.
fn pair_network(net: &TaNetwork, job: &Job, k: usize) -> TaNetwork {
    let cfg = &job.config;
    let mut clocks = net.clocks.clone();
    let mut automata = Vec::with_capacity(net.automata.len());
    for aut in &net.automata {
        if aut.name == "supervisor" {
            automata.push(aut.clone());
            continue;
        }
        let j = (1..=cfg.n)
            .find(|&j| cfg.entity_name(j) == aut.name)
            .expect("every non-supervisor automaton is a device");
        let contract = if j == k + 1 || j == k + 2 {
            lease_client(cfg, j)
        } else {
            top_for(aut)
        };
        let map: Vec<usize> = contract
            .clocks
            .iter()
            .map(|c| {
                clocks.push(format!("{}::{c}", aut.name));
                clocks.len()
            })
            .collect();
        automata.push(contract.instantiate(&map));
    }
    TaNetwork { clocks, automata }
}
