//! Harness self-tests, run at the start of every benchmark run (and by
//! `cargo test`): a corrupted oracle digest must fail its section, and a
//! stalled ingest reply must show up in the latency of the requests due
//! behind it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use pdes_core::{IngestReply, IngestRequest};

use crate::gen::{open_loop, GenReport, Pace};
use crate::section::{run_seq, run_threads};
use crate::workload::{Prepared, Shape};

const STALLED: u64 = 5;
const STALL_MS: f64 = 40.0;
const PERIOD_MS: f64 = 1.0;

/// 60 requests at 1 kHz against an endpoint that holds request 5's reply
/// for 40 ms and answers every other request at once.
pub fn stalled_reply_run() -> GenReport {
    let floor = AtomicU64::new(1);
    let endpoint = |req: &IngestRequest<()>| {
        if req.id == STALLED {
            std::thread::sleep(Duration::from_secs_f64(STALL_MS / 1e3));
        }
        floor.store(req.at.ticks() + 1, Ordering::Release);
        Ok(IngestReply::Accepted)
    };
    let pace = Pace {
        rate_per_s: 1e3 / PERIOD_MS,
        lead_ticks: 10,
        stop_ticks: u64::MAX,
        max_requests: 60,
        num_lps: 8,
        seed: 3,
    };
    open_loop(endpoint, &pace, &|| floor.load(Ordering::Acquire), &|| {
        false
    })
}

/// Every request due while the reply was held waited for the rest of the
/// stall: request `STALLED + k` must read at least `STALL - k` periods.
pub fn check_stall(rep: &GenReport) -> Result<(), String> {
    if rep.accept_ms.len() != 60 || rep.late_ms.len() != 60 {
        return Err(format!(
            "stall test: {} accepted, {} issued of 60",
            rep.accept_ms.len(),
            rep.late_ms.len()
        ));
    }
    for k in 1..30u64 {
        let i = (STALLED + k) as usize;
        let floor_ms = STALL_MS - k as f64 * PERIOD_MS - 1.0;
        if rep.accept_ms[i] < floor_ms || rep.late_ms[i] < floor_ms {
            return Err(format!(
                "stall test: request {i} read {:.2} ms accept, {:.2} ms late; the held reply \
                 should add at least {floor_ms:.1} ms",
                rep.accept_ms[i], rep.late_ms[i]
            ));
        }
    }
    if rep.accept_ms[STALLED as usize] < STALL_MS {
        return Err("stall test: the held request itself was not delayed".to_string());
    }
    Ok(())
}

/// A section checked against a corrupted oracle digest must fail, and the
/// same section against the true digest must pass.
pub fn check_corrupt_digest() -> Result<(), String> {
    let shape = Shape {
        threads: 2,
        lps_per_thread: 8,
        imbalance: 1,
        end: 5.0,
    };
    let p = Prepared::new(&shape, 11);
    let corrupted = Prepared {
        model: p.model.clone(),
        ecfg: p.ecfg.clone(),
        digest: p.digest ^ 1,
        ..p
    };
    for (name, bad, good) in [
        ("seq", run_seq(&corrupted).check, run_seq(&p).check),
        (
            "threads",
            run_threads(&corrupted, 2, false).check,
            run_threads(&p, 2, false).check,
        ),
    ] {
        if bad.is_ok() {
            return Err(format!("{name}: a corrupted oracle digest was accepted"));
        }
        good.map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(())
}

pub fn run_all() -> Result<(), String> {
    check_corrupt_digest()?;
    check_stall(&stalled_reply_run())
}

#[cfg(test)]
mod tests {
    #[test]
    fn corrupted_digest_fails_the_section() {
        super::check_corrupt_digest().unwrap();
    }
}
