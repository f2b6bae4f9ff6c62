//! One timed section per runtime. Each section builds its runtime from
//! scratch, runs the workload's model to its end time, joins every thread
//! it started, and checks the committed trace against the sequential
//! oracle. A section whose check fails yields no number.

use std::cell::OnceCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dist_rt::{run_loopback, DistConfig, Transport};
use machine::Report;
use metrics::RunMetrics;
use models::Phold;
use pdes_core::EngineConfig;
use telemetry::{TelemetryConfig, TelemetryData};

use crate::workload::{host_system, vm_system, Prepared, VmShape, Workload};

/// Liveness bound handed to every real runtime's watchdog: no GVT progress
/// for this long fails the section instead of letting it spin.
pub const WATCHDOG: Duration = Duration::from_secs(5);

/// The runtimes a pass visits, in round-robin order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Seq,
    Threads,
    Cons,
    Dist,
    Vm,
    Ingest,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::Seq,
        Kind::Threads,
        Kind::Cons,
        Kind::Dist,
        Kind::Vm,
        Kind::Ingest,
    ];

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Seq => "seq",
            Kind::Threads => "threads",
            Kind::Cons => "cons",
            Kind::Dist => "dist",
            Kind::Vm => "vm",
            Kind::Ingest => "ingest",
        }
    }
}

/// What one section measured.
pub struct Outcome {
    /// Committed events.
    pub events: u64,
    /// Host wall-clock seconds of the run call.
    pub wall_s: f64,
    /// Virtual seconds (VM only).
    pub virt_s: f64,
    /// Worker threads (or shards) the runtime used.
    pub threads: usize,
    pub metrics: RunMetrics,
    pub telemetry: Option<TelemetryData>,
    pub report: Option<Report>,
    /// `Err` when the run failed or diverged from the oracle.
    pub check: Result<(), String>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            events: 0,
            wall_s: 0.0,
            virt_s: 0.0,
            threads: 0,
            metrics: RunMetrics::default(),
            telemetry: None,
            report: None,
            check: Ok(()),
        }
    }
}

/// Prefix of a failure that is a wrong result rather than a run that did
/// not complete: `run.py` reports the run as incorrect when it sees one.
pub const WRONG: &str = "wrong output: ";

/// Compare a run's committed count and digest with the oracle's.
pub fn oracle_check(committed: u64, digest: u64, oracle: &Prepared) -> Result<(), String> {
    let want = oracle.digest;
    if committed != oracle.committed || digest != want {
        return Err(format!(
            "{WRONG}diverged from the sequential oracle: committed {committed} digest {digest:#018x}, \
             oracle {} {want:#018x}",
            oracle.committed
        ));
    }
    Ok(())
}

pub fn tcfg(traced: bool) -> TelemetryConfig {
    if traced {
        TelemetryConfig::with_capacity(1 << 18)
    } else {
        TelemetryConfig::default()
    }
}

pub fn run_seq(p: &Prepared) -> Outcome {
    let t0 = Instant::now();
    let r = pdes_core::run_sequential(&p.model, &p.ecfg, None);
    let wall_s = t0.elapsed().as_secs_f64();
    Outcome {
        events: r.committed,
        wall_s,
        threads: 1,
        check: oracle_check(r.committed, r.commit_digest, p),
        ..Outcome::default()
    }
}

pub fn run_threads(p: &Prepared, threads: usize, traced: bool) -> Outcome {
    let rc = thread_rt::RtRunConfig::new(threads, p.ecfg.clone(), host_system())
        .with_watchdog(Some(WATCHDOG))
        .with_telemetry(tcfg(traced));
    let t0 = Instant::now();
    let res = thread_rt::run_threads(&p.model, &rc);
    let wall_s = t0.elapsed().as_secs_f64();
    match res {
        Ok(r) => {
            let mut check = oracle_check(r.metrics.committed, r.metrics.commit_digest, p);
            if check.is_ok() && r.gvt_regressions != 0 {
                check = Err(format!("{WRONG}{} GVT regressions", r.gvt_regressions));
            }
            Outcome {
                events: r.metrics.committed,
                wall_s,
                threads,
                metrics: r.metrics,
                telemetry: r.telemetry,
                check,
                ..Outcome::default()
            }
        }
        Err(e) => failed(threads, format!("thread-rt: {e}")),
    }
}

pub fn run_cons(p: &Prepared, threads: usize, traced: bool) -> Outcome {
    let rc = cons_rt::ConsRunConfig::new(threads, p.ecfg.clone(), host_system())
        .with_watchdog(Some(WATCHDOG))
        .with_telemetry(tcfg(traced));
    let t0 = Instant::now();
    let res = cons_rt::run_cons(&p.model, &rc);
    let wall_s = t0.elapsed().as_secs_f64();
    match res {
        Ok(r) => {
            let mut check = oracle_check(r.metrics.committed, r.metrics.commit_digest, p);
            if check.is_ok() && r.metrics.rolled_back != 0 {
                check = Err(format!(
                    "{WRONG}conservative run rolled back {} events",
                    r.metrics.rolled_back
                ));
            }
            Outcome {
                events: r.metrics.committed,
                wall_s,
                threads,
                metrics: r.metrics,
                telemetry: r.telemetry,
                check,
                ..Outcome::default()
            }
        }
        Err(e) => failed(threads, format!("cons-rt: {e}")),
    }
}

pub fn run_dist(p: &Prepared, shards: usize, traced: bool) -> Outcome {
    let dcfg = DistConfig {
        shards,
        transport: Transport::Tcp,
        watchdog: Some(WATCHDOG),
        telemetry: tcfg(traced),
        ..DistConfig::default()
    };
    let t0 = Instant::now();
    let res = run_loopback(Arc::clone(&p.model), &p.ecfg, &dcfg);
    let wall_s = t0.elapsed().as_secs_f64();
    match res {
        Ok(r) => {
            let mut check = oracle_check(r.metrics.committed, r.metrics.commit_digest, p);
            if check.is_ok() && r.regressions != 0 {
                check = Err(format!("{WRONG}{} GVT regressions", r.regressions));
            }
            Outcome {
                events: r.metrics.committed,
                wall_s,
                threads: shards,
                metrics: r.metrics,
                telemetry: r.telemetry,
                check,
                ..Outcome::default()
            }
        }
        Err(e) => failed(shards, format!("dist-rt: {e}")),
    }
}

pub fn run_vm(p: &Prepared, vm: &VmShape) -> Outcome {
    let rc = sim_rt::RunConfig::new(vm.shape.threads, p.ecfg.clone(), vm_system())
        .with_machine(vm.machine())
        .with_watchdog_ns(Some(10_000_000_000));
    let t0 = Instant::now();
    let r = sim_rt::run_sim(&p.model, &rc);
    let wall_s = t0.elapsed().as_secs_f64();
    let mut check = oracle_check(r.metrics.committed, r.metrics.commit_digest, p);
    if check.is_ok() {
        if let Some(stall) = &r.stall {
            check = Err(format!("vm stalled: {stall}"));
        } else if !r.completed {
            check = Err("vm hit its virtual time limit".to_string());
        } else if r.gvt_regressions != 0 {
            check = Err(format!("{WRONG}{} GVT regressions", r.gvt_regressions));
        }
    }
    Outcome {
        events: r.metrics.committed,
        wall_s,
        virt_s: r.metrics.wall_secs,
        threads: vm.shape.threads,
        metrics: r.metrics,
        report: Some(r.report),
        check,
        ..Outcome::default()
    }
}

fn failed(threads: usize, why: String) -> Outcome {
    Outcome {
        threads,
        check: Err(why),
        ..Outcome::default()
    }
}

/// The models a workload's sections run, each with its oracle, built on
/// first use so a process serving one runtime builds only that runtime's.
pub struct Inputs {
    w: Workload,
    seed: u64,
    par: OnceCell<Prepared>,
    dist: OnceCell<Prepared>,
    vm: OnceCell<Prepared>,
    /// The live-ingest model; its oracle is the merged stream, known only
    /// after each run.
    pub ingest: (Arc<Phold>, EngineConfig),
}

impl Inputs {
    pub fn new(w: &Workload, seed: u64) -> Inputs {
        Inputs {
            w: w.clone(),
            seed,
            par: OnceCell::new(),
            dist: OnceCell::new(),
            vm: OnceCell::new(),
            ingest: (
                w.ingest.shape.model(),
                w.ingest.shape.engine(seed ^ 0x5EED_0002),
            ),
        }
    }

    /// seq, thread-rt and cons-rt.
    pub fn par(&self) -> &Prepared {
        self.par
            .get_or_init(|| Prepared::new(&self.w.par, self.seed))
    }

    pub fn dist(&self) -> &Prepared {
        self.dist
            .get_or_init(|| Prepared::new(&self.w.dist, self.seed))
    }

    pub fn vm(&self) -> &Prepared {
        self.vm
            .get_or_init(|| Prepared::new(&self.w.vm.shape, self.seed ^ 0x5EED_0001))
    }

    /// Build what sections of `kind` need.
    pub fn prepare(&self, kind: Kind) {
        match kind {
            Kind::Seq | Kind::Threads | Kind::Cons => {
                self.par();
            }
            Kind::Dist => {
                self.dist();
            }
            Kind::Vm => {
                self.vm();
            }
            Kind::Ingest => {}
        }
    }
}
