//! The `daemon-mixed` workload: `pte-verifyd` runs in this process on a
//! Unix socket under the checkout, with a worker budget of 2, the memory
//! report cache and a disk cache directory. Two client connections on
//! two threads each run a closed loop over their own seeded stream.

use crate::gen::{self, Class, Job, PROOF_BASES};
use crate::phase::Phase;
use crate::stats::{add, judge, peak_rss_mb, reset_peak_rss, Counters, Outcome};
use crate::watch::{Watch, REQUEST_DEADLINE};
use pte_server::client::Client;
use pte_server::daemon::{Daemon, DaemonConfig, DaemonHandle};
use pte_server::protocol::{DaemonStats, ServerFrame};
use pte_server::transport::Endpoint;
use pte_verify::api::Verdict;
use std::path::PathBuf;
use std::thread;
use std::time::Instant;

pub const CONNECTIONS: usize = 2;
/// Global worker budget of the daemon.
pub const WORKERS: usize = 2;
/// Requests per connection whose work counters are compared exactly;
/// every run completes at least these, whatever `--seconds` says.
pub const COUNTED: usize = 60;
/// Generated requests per connection; a connection that reaches the end
/// stops early.
const STREAM_LEN: usize = 2_000;

/// A bound, serving daemon with connected clients and proved parents.
pub struct Served {
    dir: PathBuf,
    handle: DaemonHandle,
    serving: thread::JoinHandle<()>,
    clients: Vec<Client>,
    streams: Vec<Vec<Job>>,
}

/// Set-up: generate the streams, bind the daemon, connect the clients
/// and prove the parents the `warm` class starts from.
pub fn setup(seed: u64, tag: &str, watch: &Watch) -> Served {
    watch.phase(0, 0, format!("daemon setup {tag}"));
    // Relative: a Unix socket path must stay short, and the checkout's
    // absolute path may not be.
    let dir = PathBuf::from(format!(".bench_tmp/{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the daemon's scratch directory");
    watch.scratch_dir(dir.clone());
    let daemon = Daemon::bind(&DaemonConfig {
        endpoint: Endpoint::Unix(dir.join("d.sock")),
        workers: WORKERS,
        cache_capacity: 1 << 20,
        cache_mem_bytes: 0,
        cache_dir: Some(dir.join("cache")),
        cache_disk_bytes: 0,
    })
    .expect("bind the daemon");
    let handle = daemon.handle();
    let serving = thread::spawn(move || daemon.run().expect("daemon serves"));
    let endpoint = Endpoint::Unix(dir.join("d.sock"));
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(&endpoint).expect("connect to the daemon"))
        .collect();
    let parent_keys: Vec<String> = PROOF_BASES
        .iter()
        .map(|base| {
            let out = clients[0]
                .verify(&gen::parent_request(base))
                .expect("parent proof");
            assert_eq!(out.report.verdict, Verdict::Safe, "parent {base}");
            out.key
        })
        .collect();
    let streams = gen::daemon_streams(seed, CONNECTIONS, STREAM_LEN, &parent_keys);
    Served {
        dir,
        handle,
        serving,
        clients,
        streams,
    }
}

pub fn teardown(served: Served) {
    drop(served.clients);
    served.handle.shutdown();
    served.serving.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&served.dir);
    // Fails while another set-up's directory is still there, as it should.
    let _ = std::fs::remove_dir(".bench_tmp");
}

/// What one connection observed.
#[derive(Default)]
struct Lane {
    phase: Phase,
    queue_wait_ms: Vec<f64>,
    overhead_ms: Vec<(Class, f64)>,
    report_bytes: Vec<f64>,
}

/// Runs both connections until `seconds` have passed (and each has
/// completed its counted prefix), then gathers the phase.
pub fn run(
    served: &mut Served,
    seconds: f64,
    traced: bool,
    watch: &Watch,
    issued: &mut Vec<Job>,
) -> Phase {
    let before = served.handle.stats();
    reset_peak_rss();
    let start = Instant::now();
    let lanes: Vec<(Lane, usize)> = thread::scope(|scope| {
        let workers: Vec<_> = served
            .clients
            .iter_mut()
            .zip(&served.streams)
            .enumerate()
            .map(|(c, (client, stream))| {
                let watch = watch.clone();
                scope.spawn(move || drive(c, client, stream, start, seconds, traced, &watch))
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client lane"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let after = served.handle.stats();

    let mut phase = Phase {
        wall_s,
        peak_rss_mb: vec![peak_rss_mb()],
        ..Phase::default()
    };
    let mut queue_wait = Vec::new();
    let mut report_bytes = Vec::new();
    for (c, (lane, sent)) in lanes.into_iter().enumerate() {
        issued.extend(served.streams[c][..sent].iter().cloned());
        let p = lane.phase;
        phase.latencies.extend(p.latencies);
        for (k, v) in p.by_class {
            phase.by_class.entry(k).or_default().extend(v);
        }
        phase.correct += p.correct;
        phase.tally.attempted += p.tally.attempted;
        phase.tally.failed += p.tally.failed;
        phase.tally.notes.extend(p.tally.notes);
        for (k, v) in p.counters {
            *phase.counters.entry(k).or_insert(0) += v;
        }
        phase.counter_mismatch.extend(p.counter_mismatch);
        queue_wait.extend(lane.queue_wait_ms);
        report_bytes.extend(lane.report_bytes);
        for (class, ms) in lane.overhead_ms {
            match class {
                Class::Hit => phase.layer_time("server.overhead_hit_ms", ms),
                Class::Cold => phase.layer_time("server.overhead_cold_ms", ms),
                Class::Warm | Class::Falsify => {}
            }
        }
    }
    if traced {
        phase.layer_ms.insert("server.queue_wait_ms", queue_wait);
        phase
            .layer_ms
            .insert("verify.api.report_bytes", report_bytes);
        stats_layers(&mut phase, &before, &after);
    }
    phase
}

/// Per-layer numbers from the daemon's own counters, before and after.
fn stats_layers(phase: &mut Phase, before: &DaemonStats, after: &DaemonStats) {
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    let l = &mut phase.layer;
    l.insert("server.cache.hit_share", hits / (hits + misses).max(1.0));
    l.insert(
        "server.disk.artifact_hits",
        (after.disk_artifact_hits - before.disk_artifact_hits) as f64,
    );
    l.insert("server.slots.peak_in_use", after.peak_workers_in_use as f64);
}

/// One connection's closed loop.
fn drive(
    lane_id: usize,
    client: &mut Client,
    stream: &[Job],
    start: Instant,
    seconds: f64,
    traced: bool,
    watch: &Watch,
) -> (Lane, usize) {
    let mut lane = Lane::default();
    let mut counted = Counters::new();
    let mut sent = 0;
    for (i, job) in stream.iter().enumerate() {
        if i >= COUNTED && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        sent += 1;
        watch.phase(
            lane_id,
            i,
            format!("{} {} submit", job.class.name(), job.label),
        );
        let t0 = Instant::now();
        let id = client.submit(&job.request).expect("submit");
        let mut accepted: Option<Instant> = None;
        let mut first_progress: Option<(Instant, f64)> = None;
        let mut cancelled = false;
        let outcome = loop {
            let frame = match client.recv() {
                Ok(f) => f,
                Err(e) => break Err(format!("connection: {e}")),
            };
            match frame {
                ServerFrame::Accepted { id: fid, .. } if fid == id => {
                    accepted = Some(Instant::now());
                    watch.note(lane_id, format!("{} accepted", job.label));
                }
                ServerFrame::Progress {
                    id: fid,
                    round,
                    settled,
                    elapsed_ms,
                    ..
                } if fid == id => {
                    if first_progress.is_none() {
                        first_progress = Some((Instant::now(), elapsed_ms));
                    }
                    watch.note(
                        lane_id,
                        format!("{} round {round} ({settled} settled)", job.label),
                    );
                }
                ServerFrame::Report {
                    id: fid,
                    cached,
                    report,
                    ..
                } if fid == id => break Ok((cached, report)),
                ServerFrame::Error { id: fid, message } if fid == Some(id) || fid.is_none() => {
                    break Err(message)
                }
                _ => {}
            }
            // Checked whenever a frame arrives; a daemon that goes silent
            // is caught by the run deadline instead.
            if !cancelled && t0.elapsed() >= REQUEST_DEADLINE {
                let _ = client.cancel(id);
                cancelled = true;
            }
        };
        let latency = t0.elapsed().as_secs_f64() * 1e3;
        let verdict = match &outcome {
            Ok(_) if cancelled => {
                Outcome::Failed(format!("past its {REQUEST_DEADLINE:?} deadline"))
            }
            Ok((_, report)) => judge(job.expect, report),
            Err(e) => Outcome::Failed(e.clone()),
        };
        let p = &mut lane.phase;
        p.tally.record(&job.label, &verdict);
        // Latencies count only correct answers, so a request that stops
        // early without one cannot make the percentiles look better.
        if verdict == Outcome::Correct {
            p.correct += 1;
            p.sample(job.class, latency);
        }
        if let Ok((cached, report)) = &outcome {
            if i < COUNTED {
                add(&mut counted, "requests", 1);
                add(
                    &mut counted,
                    if *cached {
                        "cache_hits"
                    } else {
                        "cache_misses"
                    },
                    1,
                );
                if job.class == Class::Hit && !cached {
                    add(&mut counted, "hit_class_misses", 1);
                }
                let b = report.primary();
                add(&mut counted, "states", b.states);
                add(&mut counted, "transitions", b.transitions);
                add(&mut counted, "warm_seeded", b.warm_seeded);
                add(
                    &mut counted,
                    "witness_bytes",
                    report.witness.as_ref().map_or(0, String::len),
                );
            }
            let search_ms = if *cached { 0.0 } else { report.wall_ms };
            lane.overhead_ms.push((job.class, latency - search_ms));
            if let (Some(acc), Some((at, elapsed))) = (accepted, first_progress) {
                lane.queue_wait_ms
                    .push(at.duration_since(acc).as_secs_f64() * 1e3 - elapsed);
            }
            if traced {
                lane.report_bytes
                    .push(serde_json::to_string(report).map_or(0, |s| s.len()) as f64);
            }
        }
    }
    if sent < COUNTED {
        lane.phase
            .counter_mismatch
            .push(format!("connection {lane_id} ran out of stream at {sent}"));
    }
    lane.phase.counters = counted;
    (lane, sent)
}
