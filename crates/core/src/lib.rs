//! **FastPSO** — Particle Swarm Optimization with element-wise GPU
//! parallelism. Rust reproduction of Liu, Wen & Cai, *"FastPSO: Towards
//! Efficient Swarm Intelligence Algorithm on GPUs"*, ICPP 2021.
//!
//! The library implements the paper's four-step PSO pipeline — (i) swarm
//! initialization, (ii) swarm evaluation, (iii) `pbest`/`gbest` update,
//! (iv) swarm update — over three interchangeable backends:
//!
//! * [`SeqBackend`] — the paper's `fastpso-seq` (single-threaded CPU);
//! * [`ParBackend`] — the paper's `fastpso-omp` (parallel-for CPU, rayon
//!   standing in for OpenMP);
//! * [`GpuBackend`] — the paper's contribution: the swarm update modeled as
//!   element-wise operations on `n × d` matrices, one GPU thread per matrix
//!   element (grid-strided under resource-aware launch), with selectable
//!   [`UpdateStrategy`]: plain global memory, shared-memory tiling, or
//!   tensor-core fragments (Figure 6's comparison axes). The same backend
//!   runs on a [`gpu_sim::DeviceGroup`] with one shard per device
//!   ([`GpuBackend::with_group`]), covering the paper's tile-matrix and
//!   particle-splitting decompositions ([`GpuBackend::sync_every`]).
//!
//! All backends draw randomness from the same counter-based Philox streams,
//! so the sequential, parallel and GPU global-memory backends produce
//! **bit-identical trajectories** for the same seed — the reproduction's
//! strongest correctness check. The tensor-core strategy differs only by
//! its documented f16 rounding.
//!
//! # Quickstart
//!
//! ```
//! use fastpso::{PsoConfig, SeqBackend, PsoBackend};
//! use fastpso_functions::builtins::Sphere;
//!
//! let cfg = PsoConfig::builder(64, 8) // 64 particles, 8 dimensions
//!     .max_iter(200)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//! let result = SeqBackend::default().run(&cfg, &Sphere).unwrap();
//! assert!(result.best_value < 5.0);
//! ```

#![deny(missing_docs)]

pub mod algo;
pub mod backend;
pub mod config;
pub mod cost;
mod cpu;
pub mod error;
pub mod gpu;
pub mod math;
pub mod par;
pub mod plan;
pub mod predictor;
pub mod profiling;
pub mod resilience;
pub mod result;
pub mod seq;
pub mod serve;
pub mod stats;
pub mod swarm;
pub mod topology;

pub use algo::{algorithm_impl, Algorithm, PrefixDep, Stage, StageSpec, SwarmAlgorithm, TailShape};
pub use backend::PsoBackend;
pub use config::{AttractorSemantics, PsoConfig, PsoConfigBuilder, VelocityBound};
pub use error::PsoError;
pub use gpu::{GpuBackend, UpdateStrategy};
pub use par::ParBackend;
pub use plan::{BestReduce, ExecutionPlan, PlanNode, PlanOp};
pub use predictor::{CostPredictor, JobShape, Schedule};
pub use profiling::CounterAsserts;
pub use resilience::{ResilienceConfig, RetryPolicy, ShardCheckpoint};
pub use result::RunResult;
pub use seq::SeqBackend;
pub use stats::{run_many, MultiRunSummary};
pub use swarm::Swarm;
pub use topology::{Migration, MigrationKind, Topology};
