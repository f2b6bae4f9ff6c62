//! The benchmark's worker processes. `run.py` builds them, starts them,
//! watches each against a per-section deadline, and turns their stdout
//! lines (one JSON object each) into the benchmark's result.
//!
//! ```text
//! perfbench serve --kind KIND --workload NAME --seed N --scratch DIR
//! perfbench trace --workload NAME --seed N --seconds S --scratch DIR
//! perfbench selftest
//! ```
//!
//! `serve` holds one runtime: it sets up that runtime's inputs (three
//! times, reporting each), runs one discarded warm-up section, prints a
//! `setup` line, then runs one timed section per `run PASS` line on stdin
//! (`calib` times the calibration loop). `run.py` keeps one such process
//! per runtime and sends `run` to them round-robin, so a slow host phase
//! lands on every runtime and no runtime runs in a heap another one left.
//! Every section starts only after the previous one's threads are gone.
//!
//! `trace` is the per-layer run: layer timings, then traced sections of
//! every runtime, then the ingest capacity ladder, all in one process.

mod gen;
mod host;
mod layers;
mod out;
mod section;
mod selftest;
mod workload;

use std::io::BufRead;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use out::Line;
use section::{Inputs, Kind, Outcome};
use workload::Workload;

/// Set-ups timed per process; `setup_s` takes their median.
const SETUP_REPS: usize = 3;
/// Passes the traced run makes before its ingest ladder.
const TRACE_PASSES: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    /// Traced run only.
    seconds: f64,
    scratch: PathBuf,
    /// `serve` only.
    kind: Option<Kind>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench serve --kind KIND --workload NAME --seed N --scratch DIR\n       \
         perfbench trace --workload NAME --seed N --seconds S --scratch DIR\n       \
         perfbench selftest"
    );
    std::process::exit(2);
}

fn parse(argv: &[String]) -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 1.0;
    let mut scratch = None;
    let mut kind = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::by_name(val)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{val}'"))),
                )
            }
            "--seed" => seed = val.parse().ok(),
            "--seconds" => {
                seconds = val
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage("--seconds takes a positive number"))
            }
            "--scratch" => scratch = Some(PathBuf::from(val)),
            "--kind" => {
                kind = Some(
                    Kind::from_name(val).unwrap_or_else(|| usage(&format!("unknown kind '{val}'"))),
                )
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed N is required")),
        seconds,
        scratch: scratch.unwrap_or_else(|| usage("--scratch DIR is required")),
        kind,
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("selftest") => match selftest::run_all() {
            Ok(()) => Line::new("selftest").bool("ok", true).emit(),
            Err(e) => {
                Line::new("selftest")
                    .bool("ok", false)
                    .str("why", &e)
                    .emit();
                std::process::exit(1);
            }
        },
        Some("serve") => serve(&parse(&argv[1..])),
        Some("trace") => trace(&parse(&argv[1..])),
        _ => usage("expected 'serve', 'trace' or 'selftest'"),
    }
}

/// Run one section of `kind`, after checking that the previous section's
/// threads are gone, and print its line.
fn section(
    a: &Args,
    inputs: &Inputs,
    kind: Kind,
    pass: Option<u64>,
    traced: bool,
    baseline: &mut u64,
) -> (Outcome, Option<gen::IngestRun>) {
    let w = &a.workload;
    let leftover = settle(baseline);
    host::reset_peak_rss();
    let mut ingest_run = None;
    let o = match kind {
        Kind::Seq => section::run_seq(inputs.par()),
        Kind::Threads => section::run_threads(inputs.par(), w.par.threads, traced),
        Kind::Cons => section::run_cons(inputs.par(), w.par.threads, traced),
        Kind::Dist => section::run_dist(inputs.dist(), workload::DIST_SHARDS, traced),
        Kind::Vm => section::run_vm(inputs.vm(), &w.vm),
        Kind::Ingest => {
            // The warm-up only needs to touch the ingest path once.
            let ecfg = match pass {
                Some(_) => inputs.ingest.1.clone(),
                None => inputs
                    .ingest
                    .1
                    .clone()
                    .with_end_time(w.ingest.shape.end / 8.0),
            };
            let mut run = gen::run_ingest(
                &inputs.ingest.0,
                &ecfg,
                w.ingest.shape.threads,
                w.ingest.rate_per_s,
                w.ingest.lead,
                &journal(a),
                traced,
            );
            let o = std::mem::take(&mut run.outcome);
            ingest_run = Some(run);
            o
        }
    };
    let mut line = Line::new("section");
    line.str("name", kind.name());
    match pass {
        Some(p) => line.int("pass", p),
        None => line.bool("warmup", true),
    };
    line.bool("traced", traced)
        .bool("ok", o.check.is_ok())
        .int("events", o.events)
        .num("wall_s", o.wall_s)
        .num("virt_s", o.virt_s)
        .int("threads", o.threads as u64)
        .num("rss_mb", host::peak_rss_mb())
        .int("leftover_threads", leftover);
    if let Err(why) = &o.check {
        line.str("why", why)
            .bool("wrong", why.starts_with(section::WRONG));
    }
    if let Some(run) = &ingest_run {
        let g = &run.gen;
        line.nums("accept_ms", &g.accept_ms)
            .nums("commit_ms", &g.commit_ms)
            .nums("late_ms", &g.late_ms)
            .int("sent", g.sent)
            .int("first_try", g.first_try)
            .int("admitted", run.stats.admitted)
            .int("rejected", run.stats.rejected)
            .int("busy", run.stats.busy)
            .int("shed", run.stats.shed)
            .num("rate_per_s", w.ingest.rate_per_s);
    }
    line.emit();
    (o, ingest_run)
}

/// Wait briefly for the previous section's threads to end. Threads that
/// outlive the grace period are reported (on the next section's line) and
/// then taken as the new baseline, so each is reported once.
fn settle(baseline: &mut u64) -> u64 {
    let leftover = host::settle_threads(*baseline, Duration::from_millis(50));
    *baseline += leftover;
    leftover
}

fn journal(a: &Args) -> PathBuf {
    a.scratch
        .join(format!("ingest-journal-{}.jsonl", std::process::id()))
}

fn open_scratch(a: &Args) {
    if let Err(e) = std::fs::create_dir_all(&a.scratch) {
        usage(&format!("--scratch {}: {e}", a.scratch.display()));
    }
}

fn host_line(w: &Workload) {
    let (nproc, cpu, l2, l3) = host::fingerprint();
    Line::new("host")
        .str("workload", w.name)
        .int("nproc", nproc as u64)
        .str("cpu", &cpu)
        .str("l2", &l2)
        .str("l3", &l3)
        .int("par_threads", w.par.threads as u64)
        .int("dist_shards", workload::DIST_SHARDS as u64)
        .int("vm_threads", w.vm.shape.threads as u64)
        .int("vm_contexts", (w.vm.cores * w.vm.smt) as u64)
        .int("ingest_threads", w.ingest.shape.threads as u64)
        .emit();
}

fn calib_line(at: &str) {
    Line::new("calib")
        .str("at", at)
        .num("ms", host::calibrate_ms())
        .emit();
}

/// Build the inputs `SETUP_REPS` times, timing each; the last set is kept.
fn set_up(a: &Args, kinds: &[Kind]) -> (Inputs, Vec<f64>) {
    let mut builds = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let fresh = Inputs::new(&a.workload, a.seed);
        for &k in kinds {
            fresh.prepare(k);
        }
        builds.push(t0.elapsed().as_secs_f64());
        inputs = Some(fresh);
    }
    (inputs.expect("SETUP_REPS > 0"), builds)
}

/// Serve timed sections of one runtime, one per `run PASS` line on stdin.
fn serve(a: &Args) {
    let kind = a.kind.unwrap_or_else(|| usage("serve needs --kind"));
    open_scratch(a);
    let mut baseline = host::threads();
    let (inputs, builds) = set_up(a, &[kind]);
    // The discarded warm-up absorbs the slow first run in a fresh process.
    let t0 = Instant::now();
    section(a, &inputs, kind, None, false, &mut baseline);
    Line::new("setup")
        .str("name", kind.name())
        .nums("build_s", &builds)
        .num("warmup_s", t0.elapsed().as_secs_f64())
        .emit();
    for cmd in std::io::stdin().lock().lines() {
        let Ok(cmd) = cmd else { break };
        let mut words = cmd.split_whitespace();
        match (words.next(), words.next().and_then(|p| p.parse().ok())) {
            (Some("run"), Some(pass)) => {
                section(a, &inputs, kind, Some(pass), false, &mut baseline);
            }
            (Some("calib"), _) => calib_line("now"),
            (Some("host"), _) => host_line(&a.workload),
            _ => usage(&format!("unknown command '{cmd}'")),
        }
    }
}

/// The traced run.
fn trace(a: &Args) {
    open_scratch(a);
    let mut baseline = host::threads();
    host_line(&a.workload);
    calib_line("start");
    let (inputs, builds) = set_up(a, &Kind::ALL);
    Line::new("setup")
        .str("name", "all")
        .nums("build_s", &builds)
        .num("warmup_s", 0.0)
        .emit();
    for kind in Kind::ALL {
        section(a, &inputs, kind, None, false, &mut baseline);
    }
    traced(a, &inputs, &mut baseline);
    calib_line("end");
}

/// The traced run: layer timings first, then passes of traced sections
/// (with an untraced thread-rt section beside each traced one, for the
/// tracing overhead), then the ingest capacity ladder.
fn traced(a: &Args, inputs: &Inputs, baseline: &mut u64) {
    let w = &a.workload;
    let num_lps = pdes_core::Model::num_lps(inputs.par().model.as_ref()) as u32;
    layers::models(inputs.par(), a.seed);
    layers::pending(&w.par, num_lps, a.seed);
    layers::lp(inputs.par(), a.seed);
    layers::batch(num_lps, a.seed);
    layers::sem_wake();
    layers::wire_codec(num_lps, a.seed);
    layers::ingest_gate(num_lps, &journal(a), a.seed);

    let t0 = Instant::now();
    let mut pass = 0;
    loop {
        let (plain, _) = section(a, inputs, Kind::Threads, Some(pass), false, baseline);
        let (o, _) = section(a, inputs, Kind::Threads, Some(pass), true, baseline);
        if o.check.is_ok() {
            layers::threads_run(&o.metrics, o.telemetry.as_ref(), o.wall_s);
            if plain.check.is_ok() {
                let rate = |o: &Outcome| o.events as f64 / o.wall_s;
                layers::emit(
                    "trace_overhead_frac",
                    1.0 - rate(&o) / rate(&plain),
                    "ratio",
                );
            }
        }
        let (o, _) = section(a, inputs, Kind::Cons, Some(pass), true, baseline);
        if o.check.is_ok() {
            layers::cons_run(&o.metrics, o.telemetry.as_ref());
        }
        let (o, _) = section(a, inputs, Kind::Dist, Some(pass), true, baseline);
        if o.check.is_ok() {
            layers::dist_run(&o.metrics, o.telemetry.as_ref());
        }
        let (o, _) = section(a, inputs, Kind::Vm, Some(pass), true, baseline);
        if o.check.is_ok() {
            layers::vm_run(&o.metrics, o.report.as_ref(), o.wall_s);
        }
        section(a, inputs, Kind::Ingest, Some(pass), true, baseline);
        pass += 1;
        if pass >= TRACE_PASSES && t0.elapsed().as_secs_f64() >= a.seconds * 0.5 {
            break;
        }
    }
    ladder(a, inputs, baseline);
}

/// Untraced live-ingest runs at each rate of the ladder; `run.py` picks
/// the highest rate whose accept latency stays under the limit with the
/// generator keeping up.
fn ladder(a: &Args, inputs: &Inputs, baseline: &mut u64) {
    let w = &a.workload;
    // Three times a timed section's length, for enough samples per step.
    let ecfg = inputs
        .ingest
        .1
        .clone()
        .with_end_time(w.ingest.shape.end * 3.0);
    for rate in workload::LADDER {
        let leftover = settle(baseline);
        let run = gen::run_ingest(
            &inputs.ingest.0,
            &ecfg,
            w.ingest.shape.threads,
            rate,
            w.ingest.lead,
            &journal(a),
            false,
        );
        let mut line = Line::new("ladder");
        line.num("rate_per_s", rate)
            .num("limit_ms", workload::LADDER_LIMIT_MS)
            .bool("ok", run.outcome.check.is_ok())
            .num("wall_s", run.outcome.wall_s)
            .int("leftover_threads", leftover)
            .nums("accept_ms", &run.gen.accept_ms)
            .nums("late_ms", &run.gen.late_ms)
            .int("sent", run.gen.sent)
            .int("first_try", run.gen.first_try);
        if let Err(why) = &run.outcome.check {
            line.str("why", why)
                .bool("wrong", why.starts_with(section::WRONG));
        }
        line.emit();
    }
}
