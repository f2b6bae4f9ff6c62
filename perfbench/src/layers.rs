//! Per-layer timings for the traced run, taken from the benchmark's own
//! code around calls into each crate's public functions, plus the layer
//! figures read off a traced run's `RunMetrics`, telemetry and reports.
//!
//! Each timing is the median of `REPS` repetitions of a fixed batch, so a
//! short slow host phase moves it less than it moves a single batch.

use std::sync::Arc;
use std::time::Instant;

use dist_rt::{wire, Frame};
use machine::Report;
use metrics::RunMetrics;
use models::Phold;
use pdes_core::lp::Lp;
use pdes_core::pending::PendingSet;
use pdes_core::{
    DetRng, Event, EventKey, EventUid, IngestConfig, IngestGate, IngestRequest, LpId, Model, Msg,
    ReplySlot, SendCtx, VirtualTime,
};
use telemetry::{EventKind, TelemetryData};
use thread_rt::{RtShared, Semaphore, SendBatcher};

use crate::out::Line;
use crate::workload::{Prepared, Shape};

const REPS: usize = 7;

pub fn emit(name: &str, value: f64, unit: &str) {
    Line::new("layer")
        .str("name", name)
        .num("value", value)
        .str("unit", unit)
        .emit();
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Median over `REPS` of `f()`, which returns (elapsed ns, operations).
fn per_op(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    median(
        (0..REPS)
            .map(|_| {
                let (ns, ops) = f();
                ns / ops.max(1) as f64
            })
            .collect(),
    )
}

fn ev(rng: &mut DetRng, t: f64, num_lps: u32, seq: u64) -> Event<()> {
    let dst = LpId(rng.next_below(num_lps as u64) as u32);
    Event {
        key: EventKey {
            recv_time: VirtualTime::from_f64(t),
            dst,
            uid: EventUid::new(LpId(rng.next_below(num_lps as u64) as u32), seq),
        },
        send_time: VirtualTime::ZERO,
        payload: (),
    }
}

/// `models.handle_ns`: PHOLD's handler through `SendCtx::new`, sweeping
/// every LP of the workload's model.
pub fn models(p: &Prepared, seed: u64) {
    let model = p.model.as_ref();
    let n = model.num_lps();
    let mut rngs: Vec<DetRng> = (0..n)
        .map(|i| DetRng::for_lp(seed, LpId(i as u32)))
        .collect();
    let mut seqs = vec![0u64; n];
    let mut states = vec![0u64; n];
    let mut out = Vec::with_capacity(4);
    let ops = 200_000u64;
    let ns = per_op(|| {
        let t0 = Instant::now();
        for i in 0..ops as usize {
            let lp = (i * 7919) % n;
            let now = VirtualTime::from_f64((i % 1000) as f64 * 1e-3);
            let mut ctx =
                SendCtx::new(LpId(lp as u32), now, &mut rngs[lp], &mut seqs[lp], &mut out);
            model.handle_event(LpId(lp as u32), &mut states[lp], &(), &mut ctx);
            out.clear();
        }
        (t0.elapsed().as_nanos() as f64, ops)
    });
    std::hint::black_box(&states);
    emit("models.handle_ns", ns, "ns");
}

/// `pending.*`: insert, pop-min and cancel on a pending set holding one
/// thread's share of the workload's events.
pub fn pending(shape: &Shape, num_lps: u32, seed: u64) {
    let active = (shape.threads / shape.imbalance).max(1);
    let population = num_lps as usize / active;
    let ops = 50_000u64;
    let mut rng = DetRng::seed_from_u64(seed);
    let mut seq = 0u64;
    let mut next = |rng: &mut DetRng| {
        seq += 1;
        let t = rng.next_f64() * 10.0;
        ev(rng, t, num_lps, seq)
    };
    let mut set = PendingSet::new();
    for _ in 0..population {
        set.insert(next(&mut rng));
    }
    let (mut ins, mut pop, mut cancel) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPS {
        let batch: Vec<Event<()>> = (0..ops).map(|_| next(&mut rng)).collect();
        let keys: Vec<EventKey> = batch.iter().map(|e| e.key).collect();
        let t0 = Instant::now();
        for e in batch {
            set.insert(e);
        }
        ins.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        let t0 = Instant::now();
        for k in keys.iter().rev() {
            set.cancel(k);
        }
        cancel.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        // Pop the population's lowest events, then refill to size.
        let t0 = Instant::now();
        for _ in 0..ops.min(population as u64) {
            std::hint::black_box(set.pop_min());
        }
        pop.push(t0.elapsed().as_nanos() as f64 / ops.min(population as u64) as f64);
        while set.len() < population {
            set.insert(next(&mut rng));
        }
    }
    emit("pending.insert_ns", median(ins), "ns");
    emit("pending.pop_min_ns", median(pop), "ns");
    emit("pending.cancel_ns", median(cancel), "ns");
}

/// `lp.*`: process with sparse state saving, roll back with
/// coast-forward, and fossil-collect, over a history of `HIST` events on
/// each of up to 4096 LPs.
pub fn lp(p: &Prepared, seed: u64) {
    const HIST: usize = 16;
    let model = p.model.as_ref();
    let n = model.num_lps().min(4096);
    let (mut proc_ns, mut rb_ns, mut fossil_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(4);
    for _ in 0..REPS {
        let mut lps: Vec<Lp<Phold>> = (0..n)
            .map(|i| Lp::with_snapshot_period(model, LpId(i as u32), seed, 8))
            .collect();
        let mut seq = 0u64;
        let streams: Vec<Vec<Event<()>>> = (0..n)
            .map(|i| {
                (0..HIST)
                    .map(|h| {
                        seq += 1;
                        let mut e = ev(&mut rng, 1.0 + h as f64, n as u32, seq);
                        e.key.dst = LpId(i as u32);
                        e
                    })
                    .collect()
            })
            .collect();
        let t0 = Instant::now();
        for (lp, stream) in lps.iter_mut().zip(&streams) {
            for e in stream {
                lp.process_into(model, e.clone(), &mut out);
                out.clear();
            }
        }
        proc_ns.push(t0.elapsed().as_nanos() as f64 / (n * HIST) as f64);
        // Undo all but the first event of every LP.
        let mut undone = 0usize;
        let t0 = Instant::now();
        for (lp, stream) in lps.iter_mut().zip(&streams) {
            undone += lp.rollback(model, &stream[0].key, false).undone;
        }
        rb_ns.push(t0.elapsed().as_nanos() as f64 / undone.max(1) as f64);
        for (lp, stream) in lps.iter_mut().zip(&streams) {
            for e in &stream[1..] {
                lp.process_into(model, e.clone(), &mut out);
                out.clear();
            }
        }
        let mut committed = 0u64;
        let t0 = Instant::now();
        for lp in lps.iter_mut() {
            committed += lp.fossil_collect(model, VirtualTime::from_f64(HIST as f64 + 1.0));
        }
        fossil_ns.push(t0.elapsed().as_nanos() as f64 / committed.max(1) as f64);
    }
    emit("lp.process_ns", median(proc_ns), "ns");
    emit("lp.rollback_ns_per_event", median(rb_ns), "ns");
    emit("lp.fossil_ns_per_event", median(fossil_ns), "ns");
}

/// `batch.push_flush_ns_per_event`: a `SendBatcher` buffering into one
/// peer's queue and flushing once per 8 events, as a worker cycle does.
pub fn batch(num_lps: u32, seed: u64) {
    let sh: RtShared<()> = RtShared::new(2, 2, VirtualTime::INFINITY);
    let mut batcher = SendBatcher::new(2, 8);
    let mut rng = DetRng::seed_from_u64(seed);
    let mut drained = Vec::new();
    let ops = 100_000u64;
    let mut seq = 0u64;
    let ns = per_op(|| {
        let msgs: Vec<Msg<()>> = (0..ops)
            .map(|_| {
                seq += 1;
                let t = rng.next_f64() * 10.0;
                Msg::Event(ev(&mut rng, t, num_lps, seq))
            })
            .collect();
        let t0 = Instant::now();
        for (i, m) in msgs.into_iter().enumerate() {
            batcher.buffer(&sh, 0, 1, m);
            if i % 8 == 7 {
                batcher.flush(&sh);
            }
        }
        batcher.flush(&sh);
        let ns = t0.elapsed().as_nanos() as f64;
        sh.drain_clean(1, &mut drained);
        drained.clear();
        (ns, ops)
    });
    emit("batch.push_flush_ns_per_event", ns, "ns");
}

/// `sync.sem_wake_us`: `Semaphore` post → wake of a parked peer, half a
/// ping-pong round trip.
pub fn sem_wake() {
    let ping = Arc::new(Semaphore::new(0, 1));
    let pong = Arc::new(Semaphore::new(0, 1));
    let rounds = 2_000u64;
    let peer = {
        let (ping, pong) = (Arc::clone(&ping), Arc::clone(&pong));
        std::thread::spawn(move || {
            for _ in 0..rounds * REPS as u64 {
                ping.wait();
                pong.post();
            }
        })
    };
    let ns = per_op(|| {
        let t0 = Instant::now();
        for _ in 0..rounds {
            ping.post();
            pong.wait();
        }
        (t0.elapsed().as_nanos() as f64 / 2.0, rounds)
    });
    peer.join().expect("semaphore peer thread");
    emit("sync.sem_wake_us", ns / 1e3, "us");
}

/// `wire.*`: one `Frame::SimBatch` of 64 events through the dist-rt codec.
pub fn wire_codec(num_lps: u32, seed: u64) {
    const N: usize = 64;
    let mut rng = DetRng::seed_from_u64(seed);
    let frame: Frame<u64, ()> = Frame::SimBatch {
        msgs: (0..N as u64)
            .map(|i| {
                let t = rng.next_f64() * 10.0;
                (i, Msg::Event(ev(&mut rng, t, num_lps, i)))
            })
            .collect(),
    };
    let frames = 200u64;
    let bytes = wire::to_bytes(&frame);
    let enc = per_op(|| {
        let t0 = Instant::now();
        for _ in 0..frames {
            std::hint::black_box(wire::to_bytes(std::hint::black_box(&frame)));
        }
        (t0.elapsed().as_nanos() as f64, frames * N as u64)
    });
    let dec = per_op(|| {
        let t0 = Instant::now();
        for _ in 0..frames {
            let f: Frame<u64, ()> =
                wire::from_bytes(std::hint::black_box(&bytes)).expect("own frame decodes");
            std::hint::black_box(f);
        }
        (t0.elapsed().as_nanos() as f64, frames * N as u64)
    });
    emit("wire.encode_ns_per_event", enc, "ns");
    emit("wire.decode_ns_per_event", dec, "ns");
    emit("wire.bytes_per_event", bytes.len() as f64 / N as f64, "B");
}

/// `ingest.submit_ns`, `ingest.pump_ns_per_event` (in-process gate) and
/// `ingest.journal_append_us` (the durable JSONL journal, flushed per
/// record).
pub fn ingest_gate(num_lps: u32, journal: &std::path::Path, seed: u64) {
    let ops = 2_000u64;
    let cfg = IngestConfig {
        source_capacity: ops as usize,
        high_watermark: ops as usize,
        max_per_pump: ops as usize,
        ..IngestConfig::default()
    };
    let mut rng = DetRng::seed_from_u64(seed);
    let (mut submit, mut pump, mut append) = (Vec::new(), Vec::new(), Vec::new());
    for rep in 0..REPS {
        let _ = std::fs::remove_file(journal);
        let gate = IngestGate::with_journal(cfg.clone(), 0, journal).expect("journal opens");
        let reqs: Vec<IngestRequest<()>> = (0..ops)
            .map(|id| IngestRequest {
                source: (id % 8) as u32,
                id,
                at: VirtualTime::from_f64(1.0 + rng.next_f64()),
                dst: LpId(rng.next_below(num_lps as u64) as u32),
                payload: (),
            })
            .collect();
        let t0 = Instant::now();
        for r in reqs {
            gate.submit(r, ReplySlot::None);
        }
        submit.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        // The pump admits and journals every queued request; the journal
        // share is timed separately below on a plain gate.
        let mut sunk = 0u64;
        let t0 = Instant::now();
        let out = gate
            .pump(|_| true, &mut |_| sunk += 1)
            .expect("journal append succeeds");
        pump.push(t0.elapsed().as_nanos() as f64 / out.injected.max(1) as f64);
        let plain = IngestGate::new(cfg.clone(), 0);
        for id in 0..ops {
            plain.submit(
                IngestRequest {
                    source: (id % 8) as u32,
                    id,
                    at: VirtualTime::from_f64(1.0 + rng.next_f64()),
                    dst: LpId(rng.next_below(num_lps as u64) as u32),
                    payload: (),
                },
                ReplySlot::None,
            );
        }
        let t0 = Instant::now();
        plain
            .pump(|_| true, &mut |_| sunk += 1)
            .expect("no journal to fail");
        let unjournaled = t0.elapsed().as_nanos() as f64 / ops as f64;
        append.push((pump[rep] - unjournaled).max(0.0) / 1e3);
        std::hint::black_box(sunk);
    }
    let _ = std::fs::remove_file(journal);
    emit("ingest.submit_ns", median(submit), "ns");
    emit("ingest.pump_ns_per_event", median(pump), "ns");
    emit("ingest.journal_append_us", median(append), "us");
}

/// Seconds of spans of `kinds` over all threads, and how many there were.
/// Batch and rollback spans of one cycle share an interval, so each
/// interval counts once.
fn span_secs(t: &TelemetryData, kinds: &[EventKind]) -> (f64, u64) {
    let mut ns = 0u64;
    let mut count = 0u64;
    for th in &t.threads {
        let mut last: Option<(u64, u64)> = None;
        for r in th.records.iter().filter(|r| kinds.contains(&r.kind)) {
            if r.dur_ns == 0 || last == Some((r.ts_ns, r.dur_ns)) {
                continue;
            }
            last = Some((r.ts_ns, r.dur_ns));
            ns += r.dur_ns;
            count += 1;
        }
    }
    (ns as f64 * 1e-9, count)
}

const GVT_WORK: [EventKind; 4] = [
    EventKind::GvtA,
    EventKind::GvtB,
    EventKind::GvtAware,
    EventKind::GvtEnd,
];

fn ratio(a: u64, b: u64) -> f64 {
    a as f64 / b.max(1) as f64
}

/// thread-rt figures from one traced run.
pub fn threads_run(m: &RunMetrics, t: Option<&TelemetryData>, wall_s: f64) {
    emit(
        "threads.processed_per_committed",
        ratio(m.processed, m.committed),
        "ratio",
    );
    emit(
        "threads.rollbacks_per_kevent",
        1e3 * ratio(m.rollbacks, m.committed),
        "1/kevent",
    );
    emit(
        "threads.antis_per_committed",
        ratio(m.antis_sent, m.committed),
        "ratio",
    );
    emit("threads.gvt_rounds", m.gvt_rounds as f64, "count");
    emit("threads.gvt_cpu_s", m.gvt_cpu_secs, "s");
    emit("threads.max_descheduled", m.max_descheduled as f64, "count");
    let Some(t) = t else { return };
    let (batch_s, _) = span_secs(t, &[EventKind::EventBatch, EventKind::Rollback]);
    let (only_batch_s, _) = span_secs(t, &[EventKind::EventBatch]);
    let (rollback_s, _) = span_secs(t, &[EventKind::Rollback]);
    let (gvt_s, _) = span_secs(t, &GVT_WORK);
    let (park_s, parks) = span_secs(t, &[EventKind::Park]);
    emit("threads.batch_s", only_batch_s, "s");
    emit("threads.rollback_s", rollback_s, "s");
    emit("threads.gvt_s", gvt_s, "s");
    emit("threads.park_s", park_s, "s");
    emit("threads.parks", parks as f64, "count");
    let total = wall_s * m.threads as f64;
    emit(
        "threads.unattributed_frac",
        1.0 - (batch_s + gvt_s + park_s) / total,
        "ratio",
    );
    emit("threads.trace_dropped", t.total_dropped() as f64, "count");
}

/// cons-rt figures from one traced run.
pub fn cons_run(m: &RunMetrics, t: Option<&TelemetryData>) {
    emit(
        "cons.null_messages_per_committed",
        ratio(m.null_messages_sent, m.committed),
        "ratio",
    );
    emit("cons.lbts_rounds", m.lbts_rounds as f64, "count");
    emit("cons.rolled_back", m.rolled_back as f64, "count");
    let Some(t) = t else { return };
    emit("cons.park_s", span_secs(t, &[EventKind::Park]).0, "s");
    emit("cons.gvt_s", span_secs(t, &GVT_WORK).0, "s");
}

/// dist-rt figures from one traced run.
pub fn dist_run(m: &RunMetrics, t: Option<&TelemetryData>) {
    emit(
        "dist.processed_per_committed",
        ratio(m.processed, m.committed),
        "ratio",
    );
    emit("dist.gvt_rounds", m.gvt_rounds as f64, "count");
    let retransmits: u64 = t
        .map(|t| {
            t.threads
                .iter()
                .flat_map(|th| &th.records)
                .filter(|r| r.kind == EventKind::LinkRetransmit)
                // `arg` = peer << 32 | retransmissions since the last report.
                .map(|r| r.arg & 0xFFFF_FFFF)
                .sum()
        })
        .unwrap_or(0);
    emit("dist.retransmits", retransmits as f64, "count");
}

/// VM and simulated-machine figures from one run.
pub fn vm_run(m: &RunMetrics, report: Option<&Report>, host_s: f64) {
    emit(
        "vm.wasted_work_frac",
        ratio(m.wasted_work, m.total_work),
        "ratio",
    );
    emit("vm.max_descheduled", m.max_descheduled as f64, "count");
    emit("vm.gvt_secs_per_round", m.gvt_secs_per_round(), "s");
    emit(
        "vm.processed_per_committed",
        ratio(m.processed, m.committed),
        "ratio",
    );
    emit("vm.host_s_per_section", host_s, "s");
    if let Some(r) = report {
        emit("machine.ctx_switches", r.ctx_switches as f64, "count");
        emit("machine.migrations", r.migrations as f64, "count");
    }
}
