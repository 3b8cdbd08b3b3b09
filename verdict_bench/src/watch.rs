//! Deadlines that keep a run from hanging.
//!
//! Each request gets a deadline: when it passes, the request's
//! `CancelToken` fires and the request counts as failed. The whole run
//! gets a deadline too. A hang that a token cannot break (a deadlock
//! inside the engine, say) trips it, and the process exits non-zero
//! naming the workload, the request index and the last phase each lane
//! reported, instead of stalling whoever runs it.

use pte_verify::CancelToken;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Exit code of a run aborted by its deadline.
pub const ABORT_CODE: i32 = 3;

/// A request still running after this long is cancelled and counts as
/// failed (the slowest request, a chain-8 proof, takes 1–2 s).
pub const REQUEST_DEADLINE: Duration = Duration::from_secs(30);

#[derive(Default)]
struct Lane {
    index: usize,
    phase: String,
    armed: Option<(Instant, CancelToken)>,
    expired: bool,
}

struct State {
    workload: String,
    run_deadline: Instant,
    lanes: BTreeMap<usize, Lane>,
    /// Directories removed before an abort exits.
    scratch: Vec<PathBuf>,
}

#[derive(Clone)]
pub struct Watch {
    state: Arc<Mutex<State>>,
    stop: Arc<AtomicBool>,
}

pub struct WatchGuard {
    watch: Watch,
    thread: Option<thread::JoinHandle<()>>,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        self.watch.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Watch {
    /// Starts the watchdog thread; the run must end within `run_limit`.
    pub fn start(run_limit: Duration) -> (Watch, WatchGuard) {
        let watch = Watch {
            state: Arc::new(Mutex::new(State {
                workload: String::new(),
                run_deadline: Instant::now() + run_limit,
                lanes: BTreeMap::new(),
                scratch: Vec::new(),
            })),
            stop: Arc::new(AtomicBool::new(false)),
        };
        let w = watch.clone();
        let thread = thread::spawn(move || w.patrol(run_limit));
        let guard = WatchGuard {
            watch: watch.clone(),
            thread: Some(thread),
        };
        (watch, guard)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // A panicking lane leaves only plain status data behind.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn patrol(&self, run_limit: Duration) {
        while !self.stop.load(Ordering::SeqCst) {
            thread::sleep(Duration::from_millis(10));
            let now = Instant::now();
            let mut s = self.lock();
            for lane in s.lanes.values_mut() {
                if let Some((deadline, token)) = &lane.armed {
                    if now >= *deadline && !lane.expired {
                        token.cancel();
                        lane.expired = true;
                    }
                }
            }
            if now >= s.run_deadline {
                let lanes: Vec<String> = s
                    .lanes
                    .iter()
                    .map(|(id, l)| format!("lane {id}: request {} in phase `{}`", l.index, l.phase))
                    .collect();
                eprintln!(
                    "verdict-bench: run deadline of {} s passed in workload `{}`; {}",
                    run_limit.as_secs(),
                    s.workload,
                    lanes.join("; ")
                );
                for dir in &s.scratch {
                    let _ = std::fs::remove_dir_all(dir);
                }
                std::process::exit(ABORT_CODE);
            }
        }
    }

    pub fn set_workload(&self, name: &str) {
        self.lock().workload = name.to_string();
    }

    /// Records what `lane` is doing, for the abort message.
    pub fn phase(&self, lane: usize, index: usize, phase: impl Into<String>) {
        let mut s = self.lock();
        let l = s.lanes.entry(lane).or_default();
        l.index = index;
        l.phase = phase.into();
    }

    /// Updates only the phase text of `lane`.
    pub fn note(&self, lane: usize, phase: impl Into<String>) {
        self.lock().lanes.entry(lane).or_default().phase = phase.into();
    }

    /// Gives `lane`'s current request a deadline; `token` fires at it.
    pub fn arm(&self, lane: usize, token: &CancelToken, limit: Duration) {
        let mut s = self.lock();
        let l = s.lanes.entry(lane).or_default();
        l.armed = Some((Instant::now() + limit, token.clone()));
        l.expired = false;
    }

    /// Clears `lane`'s request deadline; `true` when it had passed.
    pub fn disarm(&self, lane: usize) -> bool {
        let mut s = self.lock();
        let l = s.lanes.entry(lane).or_default();
        l.armed = None;
        std::mem::take(&mut l.expired)
    }

    /// Registers a directory to remove if the run aborts.
    pub fn scratch_dir(&self, dir: PathBuf) {
        self.lock().scratch.push(dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_request_past_its_deadline_is_cancelled() {
        let (watch, _guard) = Watch::start(Duration::from_secs(60));
        let token = CancelToken::new();
        watch.arm(0, &token, Duration::from_millis(20));
        let waited = Instant::now();
        while !token.is_cancelled() && waited.elapsed() < Duration::from_secs(10) {
            thread::sleep(Duration::from_millis(5));
        }
        assert!(token.is_cancelled());
        assert!(watch.disarm(0), "the expiry is reported once");
        assert!(!watch.disarm(0));
    }
}
