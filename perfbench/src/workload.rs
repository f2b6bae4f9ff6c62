//! The workloads: model shapes, run lengths and thread counts.
//!
//! Every input is derived from the workload name and the `--seed`; nothing
//! is read from disk. Sizes are chosen for a small host (2 vCPUs): one
//! timed section of each runtime lasts 0.1-0.4 s, so a run fits a dozen
//! passes of every runtime.

use std::sync::Arc;

use machine::MachineConfig;
use models::{LocalityPattern, Phold, PholdConfig};
use pdes_core::{run_sequential, EngineConfig};
use sim_rt::{AffinityPolicy, GvtMode, Scheduler, SystemConfig};

/// One PHOLD shape and the virtual end time a section runs to.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Model partitions (= worker threads of thread-rt / cons-rt).
    pub threads: usize,
    pub lps_per_thread: usize,
    /// `1` is balanced; `k > 1` is 1-k imbalanced with a rotating group.
    pub imbalance: usize,
    pub end: f64,
}

/// The simulated machine a VM section runs on.
#[derive(Clone, Debug)]
pub struct VmShape {
    pub shape: Shape,
    pub cores: usize,
    pub smt: usize,
}

/// The live-ingest section: model, offered rate and stamp lead.
#[derive(Clone, Debug)]
pub struct IngestShape {
    pub shape: Shape,
    /// Open-loop offered rate (requests per host second).
    pub rate_per_s: f64,
    /// Virtual lead above the admission floor each request is stamped at:
    /// about 20 ms of the model's virtual-time progress, so a stamp is
    /// still above the floor when the gate admits it.
    pub lead: f64,
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// seq, thread-rt and cons-rt sections run this model.
    pub par: Shape,
    /// dist-rt runs the same model to an earlier end time: its per-event
    /// cost is an order of magnitude higher.
    pub dist: Shape,
    pub vm: VmShape,
    pub ingest: IngestShape,
}

/// dist-rt shards, over TCP loopback.
pub const DIST_SHARDS: usize = 2;

/// Live-ingest offered rate. One connection carries one request at a time;
/// on a 2-vCPU host it kept up at 16/s and fell behind at 20/s and above,
/// where replies start waiting ~40 ms each on the socket.
const INGEST_RATE: f64 = 16.0;

/// Rates the traced run's capacity ladder tries.
pub const LADDER: [f64; 4] = [12.0, 16.0, 20.0, 24.0];

/// Accept-latency limit a ladder step must meet, at the highest percentile
/// its sample count supports.
pub const LADDER_LIMIT_MS: f64 = 100.0;

fn shape(threads: usize, lps_per_thread: usize, imbalance: usize, end: f64) -> Shape {
    Shape {
        threads,
        lps_per_thread,
        imbalance,
        end,
    }
}

/// Live ingest beside a 1024-LP balanced PHOLD, about 0.7 s per run.
fn balanced_ingest(host: usize) -> IngestShape {
    IngestShape {
        shape: shape(host, 1024 / host, 1, 1600.0),
        rate_per_s: INGEST_RATE,
        lead: 40.0,
    }
}

pub fn by_name(name: &str) -> Option<Workload> {
    let host = nproc().max(2);
    let w = match name {
        // Uniform PHOLD, every worker busy. 16384 LPs: the pending set
        // (one event per LP) plus the per-LP history and state take ~60 MiB,
        // well past a 4 MiB L2, so the hot path pays for memory.
        "phold-balanced" => Workload {
            name: "phold-balanced",
            par: shape(host, 16384 / host, 1, 12.0),
            dist: shape(host, 16384 / host, 1, 2.0),
            vm: VmShape {
                shape: shape(8, 64, 1, 750.0),
                cores: 4,
                smt: 2,
            },
            ingest: balanced_ingest(host),
        },
        // Paper Fig. 3b/4: 1-4 imbalanced PHOLD, a quarter of the threads
        // active at a time. Four workers on the host (more threads than
        // cores); the VM runs 32 threads on 8 contexts, 4x over-subscribed.
        // 256 LPs: the working set fits in L2.
        "phold-imbalanced" => Workload {
            name: "phold-imbalanced",
            par: shape(4, 64, 4, 3000.0),
            dist: shape(4, 64, 4, 50.0),
            vm: VmShape {
                shape: shape(32, 16, 4, 1000.0),
                cores: 4,
                smt: 2,
            },
            // The live-ingest section runs the balanced reference model:
            // ingest is not this workload's subject, and live ingest on
            // this 1-4 model ran from 8 s to over a minute per section,
            // with every worker parked for most of it.
            ingest: balanced_ingest(host),
        },
        _ => return None,
    };
    Some(w)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

impl Shape {
    pub fn model(&self) -> Arc<Phold> {
        let cfg = if self.imbalance > 1 {
            PholdConfig::imbalanced(
                self.threads,
                self.lps_per_thread,
                self.imbalance,
                self.end,
                LocalityPattern::Linear,
            )
        } else {
            PholdConfig::balanced(self.threads, self.lps_per_thread)
        };
        Arc::new(Phold::new(cfg))
    }

    /// The hot-path engine configuration (pooled events, sparse state
    /// saving, batched sends, bounded optimism).
    pub fn engine(&self, seed: u64) -> EngineConfig {
        EngineConfig::default()
            .with_end_time(self.end)
            .with_seed(seed)
            .with_gvt_interval(25)
            .with_batch_size(8)
            .with_snapshot_period(8)
            .with_zero_counter_threshold(250)
            .with_optimism_window(Some(4.0))
    }
}

/// GG-PDES with asynchronous GVT: constant affinity on real threads,
/// dynamic affinity on the VM (the paper's best configuration).
pub fn host_system() -> SystemConfig {
    SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Constant)
}

pub fn vm_system() -> SystemConfig {
    SystemConfig::new(Scheduler::GgPdes, GvtMode::Async, AffinityPolicy::Dynamic)
}

impl VmShape {
    pub fn machine(&self) -> MachineConfig {
        let mut mc = MachineConfig::small(self.cores, self.smt);
        mc.quantum = 50_000;
        mc
    }
}

/// A model with its engine configuration and the sequential oracle's
/// committed count and digest.
pub struct Prepared {
    pub model: Arc<Phold>,
    pub ecfg: EngineConfig,
    pub committed: u64,
    pub digest: u64,
}

impl Prepared {
    pub fn new(shape: &Shape, seed: u64) -> Prepared {
        let model = shape.model();
        let ecfg = shape.engine(seed);
        let oracle = run_sequential(&model, &ecfg, None);
        Prepared {
            model,
            ecfg,
            committed: oracle.committed,
            digest: oracle.commit_digest,
        }
    }
}
