//! The open-loop ingest generator and the live-ingest section.
//!
//! Requests are due on a fixed schedule (`i / rate` after the start) and
//! every latency is measured from the due time, not from the moment the
//! request left: one TCP connection carries strictly one request at a
//! time, so a stalled reply delays every request due behind it, and that
//! wait is charged to each of them. How late the generator sent each
//! request is reported beside the latencies.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ingest::{ClientError, IngestClient, IngestServer, RetryPolicy, TcpEndpoint};
use models::Phold;
use pdes_core::{
    run_sequential_with, DetRng, EngineConfig, IngestConfig, IngestGate, IngestReply,
    IngestRequest, IngestStats, LpId, VirtualTime,
};

use crate::section::{oracle_check, Outcome, WATCHDOG, WRONG};
use crate::workload::{host_system, Prepared};

#[derive(Debug, Default)]
pub struct GenReport {
    /// Per admitted request: due time → `Accepted` verdict (ms).
    pub accept_ms: Vec<f64>,
    /// Per admitted request: due time → admission floor passes its stamp.
    pub commit_ms: Vec<f64>,
    /// Per issued request: due time → first send (ms).
    pub late_ms: Vec<f64>,
    /// Requests issued.
    pub sent: u64,
    /// Admitted on the first attempt: a `Rejected`, `Busy` or `Shed`
    /// verdict on the way, or giving up, counts against it.
    pub first_try: u64,
}

/// How the generator paces and stamps requests.
pub struct Pace {
    pub rate_per_s: f64,
    /// Stamp = admission floor + `lead_ticks`.
    pub lead_ticks: u64,
    /// Stop issuing once the floor reaches this stamp.
    pub stop_ticks: u64,
    /// Stop issuing after this many requests.
    pub max_requests: u64,
    pub num_lps: u32,
    pub seed: u64,
}

/// Drive `endpoint` open-loop until the floor reaches `pace.stop_ticks`,
/// `pace.max_requests` were issued, or `done()` turns true.
///
/// A watcher thread polls `floor()` (the admission floor) beside the
/// generator, so a request's commit time is when the floor passed its
/// stamp, even while the generator still waits for the reply.
pub fn open_loop<F>(
    endpoint: F,
    pace: &Pace,
    floor: &(dyn Fn() -> u64 + Sync),
    done: &(dyn Fn() -> bool + Sync),
) -> GenReport
where
    F: FnMut(&IngestRequest<()>) -> Result<IngestReply, ClientError>,
{
    // Every stamp sent, keyed (stamp, id), until the floor passes it.
    let watched: Mutex<BinaryHeap<Reverse<(u64, u64)>>> = Mutex::new(BinaryHeap::new());
    let passed: Mutex<HashMap<(u64, u64), Instant>> = Mutex::new(HashMap::new());
    let issuing = AtomicBool::new(true);
    let watcher = || loop {
        let f = floor();
        let now = Instant::now();
        let empty = {
            let mut w = watched.lock().expect("watch list lock");
            while let Some(&Reverse((stamp, id))) = w.peek() {
                if stamp >= f {
                    break;
                }
                w.pop();
                passed
                    .lock()
                    .expect("passed map lock")
                    .insert((stamp, id), now);
            }
            w.is_empty()
        };
        if done() || (empty && !issuing.load(Ordering::Acquire)) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    };

    let mut rep = GenReport::default();
    // (stamp, id, due) of every admitted request.
    let mut admitted: Vec<(u64, u64, Instant)> = Vec::new();
    std::thread::scope(|scope| {
        scope.spawn(watcher);
        let mut endpoint = endpoint;
        // Every attempt's stamp is watched: a re-stamp replaces the first.
        let watching = |req: &IngestRequest<()>| {
            watched
                .lock()
                .expect("watch list lock")
                .push(Reverse((req.at.ticks(), req.id)));
            endpoint(req)
        };
        let mut client = IngestClient::with_policy(
            watching,
            pace.seed,
            RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
        );
        let mut rng = DetRng::seed_from_u64(pace.seed);
        // Requests arrive at a running simulation: start once it has
        // published its first GVT.
        while floor() == 0 && !done() {
            std::thread::sleep(Duration::from_micros(200));
        }
        let period = Duration::from_secs_f64(1.0 / pace.rate_per_s);
        let start = Instant::now();
        for i in 0..pace.max_requests {
            let due = start + period.mul_f64(i as f64);
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let f = floor();
            if done() || f >= pace.stop_ticks {
                break;
            }
            let req = IngestRequest {
                source: 1,
                id: i,
                at: VirtualTime::from_ticks(f + pace.lead_ticks),
                dst: LpId(rng.next_below(pace.num_lps as u64) as u32),
                payload: (),
            };
            rep.sent += 1;
            rep.late_ms.push(ms(Instant::now() - due));
            match client.send(req) {
                Ok(o) if !o.duplicate => {
                    rep.accept_ms.push(ms(Instant::now() - due));
                    if o.attempts == 1 {
                        rep.first_try += 1;
                    }
                    admitted.push((o.at.ticks(), i, due));
                }
                Ok(_) | Err(ClientError::GaveUp { .. }) => {}
                // The gate closed at the end of the run, or the socket died.
                Err(ClientError::Closed) | Err(ClientError::Transport(_)) => break,
            }
        }
        issuing.store(false, Ordering::Release);
    });
    // A stamp the floor never passed committed when the run completed.
    let end = Instant::now();
    let passed = passed.into_inner().expect("passed map lock");
    rep.commit_ms = admitted
        .iter()
        .map(|(stamp, id, due)| ms(*passed.get(&(*stamp, *id)).unwrap_or(&end) - *due))
        .collect();
    rep
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub struct IngestRun {
    pub outcome: Outcome,
    pub gen: GenReport,
    pub stats: IngestStats,
}

/// One live thread-rt run with the generator submitting through an
/// [`IngestServer`] over TCP, journal on. Checked against the sequential
/// oracle fed the merged stream (seeded events plus every accepted one).
#[allow(clippy::too_many_arguments)]
pub fn run_ingest(
    model: &Arc<Phold>,
    ecfg: &EngineConfig,
    threads: usize,
    rate_per_s: f64,
    lead: f64,
    journal: &Path,
    traced: bool,
) -> IngestRun {
    let _ = std::fs::remove_file(journal);
    let fail = |why: String| IngestRun {
        outcome: Outcome {
            threads,
            check: Err(why),
            ..Outcome::default()
        },
        gen: GenReport::default(),
        stats: IngestStats::default(),
    };
    let gate = match IngestGate::with_journal(IngestConfig::default(), 0, journal) {
        Ok(g) => Arc::new(g),
        Err(e) => return fail(format!("ingest journal: {e}")),
    };
    let server = match IngestServer::spawn(Arc::clone(&gate), "127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => return fail(format!("ingest server: {e}")),
    };
    let done = Arc::new(AtomicBool::new(false));
    let pace = Pace {
        rate_per_s,
        lead_ticks: VirtualTime::from_f64(lead).ticks(),
        stop_ticks: VirtualTime::from_ticks(ecfg.end_time.ticks() / 10 * 8).ticks(),
        max_requests: u64::MAX,
        num_lps: pdes_core::Model::num_lps(model.as_ref()) as u32,
        seed: ecfg.seed,
    };
    let generator = {
        let gate = Arc::clone(&gate);
        let done = Arc::clone(&done);
        let addr = server.addr();
        std::thread::spawn(move || -> Result<GenReport, String> {
            let ep = TcpEndpoint::connect(addr).map_err(|e| format!("connect: {e}"))?;
            Ok(open_loop(
                ep.into_endpoint(),
                &pace,
                &|| gate.floor_ticks(),
                &|| done.load(Ordering::Acquire),
            ))
        })
    };
    let rc = thread_rt::RtRunConfig::new(threads, ecfg.clone(), host_system())
        .with_watchdog(Some(WATCHDOG))
        .with_telemetry(crate::section::tcfg(traced));
    let t0 = Instant::now();
    let res = thread_rt::run_threads_ingest(model, &rc, Arc::clone(&gate));
    let wall_s = t0.elapsed().as_secs_f64();
    done.store(true, Ordering::Release);
    gate.close();
    let gen = generator
        .join()
        .unwrap_or_else(|_| Err("generator panicked".to_string()));
    server.shutdown();
    let stats = gate.stats();
    let _ = std::fs::remove_file(journal);
    let r = match res {
        Ok(r) => r,
        Err(e) => return fail(format!("thread-rt with ingest: {e}")),
    };
    let gen = match gen {
        Ok(g) => g,
        Err(e) => return fail(format!("ingest generator: {e}")),
    };
    let accepted = gate.accepted_events();
    let oracle = run_sequential_with(model, ecfg, &accepted, None);
    let merged = Prepared {
        model: Arc::clone(model),
        ecfg: ecfg.clone(),
        committed: oracle.committed,
        digest: oracle.commit_digest,
    };
    let mut check = oracle_check(r.metrics.committed, r.metrics.commit_digest, &merged);
    if check.is_ok() && stats.admitted != accepted.len() as u64 {
        check = Err(format!(
            "{WRONG}gate admitted {} but holds {} accepted events",
            stats.admitted,
            accepted.len()
        ));
    }
    IngestRun {
        outcome: Outcome {
            events: r.metrics.committed,
            wall_s,
            threads,
            metrics: r.metrics,
            telemetry: r.telemetry,
            check,
            ..Outcome::default()
        },
        gen,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::sync::atomic::AtomicU64;

    /// A reply stalled for 40 ms delays every request due behind it: their
    /// latencies, timed from the due time, carry the remaining stall.
    #[test]
    fn a_stalled_reply_delays_every_later_request() {
        let rep = crate::selftest::stalled_reply_run();
        crate::selftest::check_stall(&rep).unwrap();
    }

    #[test]
    fn rejections_count_against_first_try_success() {
        let floor = AtomicU64::new(1);
        let calls = Cell::new(0u32);
        let endpoint = |req: &IngestRequest<()>| {
            calls.set(calls.get() + 1);
            // Every other request is rejected once; its re-stamp lands.
            if calls.get() % 3 == 1 {
                return Ok(IngestReply::Rejected {
                    floor_ticks: req.at.ticks(),
                });
            }
            floor.store(req.at.ticks() + 1, Ordering::Release);
            Ok(IngestReply::Accepted)
        };
        let pace = Pace {
            rate_per_s: 5000.0,
            lead_ticks: 10,
            stop_ticks: u64::MAX,
            max_requests: 30,
            num_lps: 4,
            seed: 1,
        };
        let rep = open_loop(endpoint, &pace, &|| floor.load(Ordering::Acquire), &|| {
            false
        });
        assert_eq!(rep.sent, 30);
        assert_eq!(rep.accept_ms.len(), 30);
        assert_eq!(rep.first_try, 15);
        assert_eq!(rep.commit_ms.len(), 30);
    }
}
