//! Quotient and scheduling laws: the symmetry reduction is a *true*
//! quotient (verdicts — and for falsifications the exact rendered
//! counter-example — are bit-identical to a `symmetry: false` run),
//! and the work-stealing scheduler preserves the same contract at
//! every worker count. The state-count *win* is asserted on the
//! symmetric demo fleet; the lease chains are asymmetric by
//! construction, so the honest assertion there is that the quotient
//! self-disables and changes nothing.

use proptest::prelude::*;
use pte_core::pattern::LeaseConfig;
use pte_zones::reach::check_monitored;
use pte_zones::{
    check_lease_pattern_with, demo_fleet, Extrapolation, Limits, LocationReachMonitor, Scheduler,
    SymbolicVerdict,
};

fn limits(workers: usize, symmetry: bool, scheduler: Scheduler) -> Limits {
    Limits {
        max_states: 120_000,
        max_workers: workers,
        symmetry,
        scheduler,
        ..Limits::default()
    }
}

/// Full exploration of a fleet: no targets, so the checker settles the
/// whole (quotiented) state space and returns Safe with its stats.
fn explore_fleet(devices: usize, l: &Limits) -> pte_zones::SearchStats {
    let net = demo_fleet(devices);
    let monitor = LocationReachMonitor::new(&net, &[]).unwrap();
    match check_monitored(&net, &monitor, l).unwrap() {
        SymbolicVerdict::Safe(stats) => stats,
        other => panic!("fleet exploration must settle: {other}"),
    }
}

/// The acceptance bar: the quotient keeps the verdict and shrinks the
/// passed list by at least 5×. Fleet-3 is the largest size whose
/// *unquotiented* exploration stays test-suite cheap (75 ms vs 29 s
/// for fleet-4); the factor grows with fleet size (5.1× here, 17.9×
/// at fleet-4 — the bench measures that one).
#[test]
fn fleet_quotient_shrinks_passed_list_at_least_5x() {
    let off = explore_fleet(3, &limits(1, false, Scheduler::RoundBarrier));
    let on = explore_fleet(3, &limits(1, true, Scheduler::RoundBarrier));
    assert_eq!(off.orbits, 0, "quotient off must fold nothing");
    assert!(on.orbits > 0, "quotient on must fold orbit members");
    assert!(
        on.states * 5 <= off.states,
        "quotient must shrink the fleet-3 passed list ≥ 5× \
         (on {} vs off {})",
        on.states,
        off.states
    );
}

/// Defaults pinned: symmetry is on by default, the round barrier is
/// the default scheduler — and because every lease chain is
/// asymmetric, the default-on quotient self-disables there, leaving
/// the barrier engine's bit-stable statistics untouched.
#[test]
fn chains_auto_disable_the_quotient_with_identical_stats() {
    let defaults = Limits::default();
    assert!(defaults.symmetry, "symmetry defaults on");
    assert_eq!(defaults.scheduler, Scheduler::RoundBarrier);

    let cfg = LeaseConfig::chain(4);
    let run = |symmetry: bool| {
        let l = Limits {
            max_states: 120_000,
            symmetry,
            ..Limits::default()
        };
        check_lease_pattern_with(&cfg, true, &l).unwrap()
    };
    let (on, off) = (run(true), run(false));
    let (on_stats, off_stats) = (on.stats().unwrap(), off.stats().unwrap());
    assert_eq!(on_stats.orbits, 0, "chain-4 must auto-disable the quotient");
    assert_eq!(
        (on_stats.states, on_stats.peak_passed_bytes),
        (off_stats.states, off_stats.peak_passed_bytes),
        "a self-disabled quotient must not perturb the search"
    );
}

/// A monitor that watches a *device* location breaks orbit invariance,
/// so the quotient self-gates off and the falsification is rendered
/// identically with the knob on or off.
#[test]
fn device_targeting_monitor_gates_the_quotient_off() {
    let net = demo_fleet(4);
    let run = |symmetry: bool| {
        let monitor = LocationReachMonitor::new(&net, &[("device2", "Cooling")]).unwrap();
        let v = check_monitored(
            &net,
            &monitor,
            &limits(1, symmetry, Scheduler::RoundBarrier),
        )
        .unwrap();
        assert!(v.is_unsafe(), "Cooling is reachable: {v}");
        format!("{v}")
    };
    assert_eq!(run(true), run(false));
}

/// A coordinator-targeting monitor *is* orbit-invariant, so the
/// quotient stays active on the violating run — and the deterministic
/// re-search still renders the counter-example bit-identically to a
/// quotient-free run at every worker count.
#[test]
fn quotiented_falsification_matches_unquotiented_text() {
    let net = demo_fleet(3);
    let run = |symmetry: bool, workers: usize| {
        let monitor = LocationReachMonitor::new(&net, &[("coordinator", "Pace")]).unwrap();
        let v = check_monitored(
            &net,
            &monitor,
            &limits(workers, symmetry, Scheduler::RoundBarrier),
        )
        .unwrap();
        assert!(v.is_unsafe(), "Pace is initial, hence reachable: {v}");
        format!("{v}")
    };
    let reference = run(false, 1);
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(reference, run(true, workers), "at {workers} workers");
    }
}

/// Work-stealing determinism on the chain falsification: the verdict
/// and the full rendered counter-example are bit-identical across
/// 1/2/4/8 workers and to the round-barrier reference (the
/// post-minimization re-search pins the witness).
#[test]
fn work_stealing_counter_example_is_bit_identical() {
    let cfg = LeaseConfig::chain(3);
    let run = |workers: usize, scheduler: Scheduler| {
        let v = check_lease_pattern_with(&cfg, false, &limits(workers, true, scheduler)).unwrap();
        assert!(v.is_unsafe(), "baseline chain must be falsified: {v}");
        format!("{v}")
    };
    let reference = run(1, Scheduler::RoundBarrier);
    for workers in [1usize, 2, 4, 8] {
        assert_eq!(
            reference,
            run(workers, Scheduler::WorkStealing),
            "witness drifted at {workers} work-stealing workers"
        );
    }
}

/// Work-stealing proofs agree with the barrier engine on the leased
/// arm (Safe both ways, same settled-state count — subsumption is
/// order-insensitive on this model), and the fleet exploration
/// composes both accelerations.
#[test]
fn work_stealing_proof_agrees_with_barrier() {
    let cfg = LeaseConfig::chain(3);
    let barrier =
        check_lease_pattern_with(&cfg, true, &limits(4, true, Scheduler::RoundBarrier)).unwrap();
    assert!(barrier.is_safe());
    for workers in [1usize, 2, 4] {
        let ws =
            check_lease_pattern_with(&cfg, true, &limits(workers, true, Scheduler::WorkStealing))
                .unwrap();
        assert!(ws.is_safe(), "work-stealing proof at {workers}: {ws}");
    }

    // Both accelerations at once on the symmetric fleet: verdict Safe,
    // quotient engaged (orbits folded) under the stealing scheduler.
    let both = explore_fleet(3, &limits(4, true, Scheduler::WorkStealing));
    assert!(both.orbits > 0, "quotient must engage under work-stealing");
    let off = explore_fleet(3, &limits(1, false, Scheduler::RoundBarrier));
    assert!(
        both.states <= off.states,
        "quotiented WS exploration cannot settle more states than the \
         unquotiented barrier one ({} vs {})",
        both.states,
        off.states
    );
}

/// Regression: two idle workers stealing from each other at once must
/// not deadlock. The 2-worker work-stealing proof runs many times on a
/// helper thread; a watchdog fails the test when the runs stop making
/// progress, instead of letting the suite hang.
#[test]
fn work_stealing_never_deadlocks_at_two_workers() {
    use std::sync::mpsc;
    use std::time::Duration;
    const RUNS: usize = 1000;
    let (done, progress) = mpsc::channel();
    // Joined only on success: a deadlocked helper cannot be joined, so
    // the watchdog fails the test and leaves it behind.
    let runner = std::thread::spawn(move || {
        let cfg = LeaseConfig::chain(2);
        let l = limits(2, true, Scheduler::WorkStealing);
        for run in 0..RUNS {
            let verdict = check_lease_pattern_with(&cfg, true, &l).unwrap();
            assert!(verdict.is_safe(), "run {run}: {verdict}");
            if done.send(run).is_err() {
                return;
            }
        }
    });
    for run in 0..RUNS {
        match progress.recv_timeout(Duration::from_secs(30)) {
            Ok(_) => {}
            Err(mpsc::RecvTimeoutError::Timeout) => {
                panic!("work-stealing run {run} of {RUNS} made no progress in 30 s: deadlock")
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("work-stealing run {run} of {RUNS} panicked")
            }
        }
    }
    runner.join().expect("the proof runner finished cleanly");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The quotient is a true quotient on every fleet size and worker
    /// count: Safe either way, never more states with it on, and the
    /// orbit tally exactly accounts for the fold (states_on + folds
    /// covers every successor the unquotiented engine would have had
    /// to store or subsume — weaker ≤ form asserted, since subsumption
    /// interleaves).
    #[test]
    fn fleet_quotient_is_sound_for_all_sizes(
        devices in 2usize..4,
        workers_exp in 0u32..3,
    ) {
        let workers = 1usize << workers_exp;
        let on = explore_fleet(devices, &limits(workers, true, Scheduler::RoundBarrier));
        let off = explore_fleet(devices, &limits(workers, false, Scheduler::RoundBarrier));
        prop_assert!(on.orbits > 0);
        prop_assert!(on.states <= off.states);
        prop_assert_eq!(off.orbits, 0);
    }

    /// Randomized 2-device configurations: work-stealing agrees with
    /// the round barrier on the verdict, and renders falsifications
    /// identically.
    #[test]
    fn randomized_configs_agree_across_schedulers(
        t_run1 in 5i64..50,
        t_enter2 in 2i64..16,
        leased_bit in 0u8..2,
    ) {
        let leased = leased_bit == 1;
        use pte_hybrid::Time;
        let mut cfg = LeaseConfig::case_study();
        cfg.t_run[0] = Time::seconds(t_run1 as f64);
        cfg.t_enter[1] = Time::seconds(t_enter2 as f64);
        let mut l = limits(1, true, Scheduler::RoundBarrier);
        l.max_states = 20_000;
        l.extrapolation = Extrapolation::ExtraLu;
        let reference = check_lease_pattern_with(&cfg, leased, &l).unwrap();
        for workers in [2usize, 4] {
            let mut ws = l.clone();
            ws.max_workers = workers;
            ws.scheduler = Scheduler::WorkStealing;
            let v = check_lease_pattern_with(&cfg, leased, &ws).unwrap();
            prop_assert_eq!(reference.is_safe(), v.is_safe());
            prop_assert_eq!(reference.is_unsafe(), v.is_unsafe());
            if reference.is_unsafe() {
                prop_assert_eq!(format!("{reference}"), format!("{v}"));
            }
        }
    }
}
