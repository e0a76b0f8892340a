//! The two serving workloads: closed loops of logical clients on one
//! thread, each submitting its next job to a `Service` only once its last
//! one is terminal.
//!
//! * `serve-tiny` — 32 clients send tiny launch-bound PSO jobs (16–64
//!   particles × 5–8 dims, 40–60 iterations) to 2 V100s × 4 slots with
//!   micro-batching on. Per-launch fixed cost, plan-node dispatch,
//!   persistent-region bookkeeping, batch formation and the journal
//!   dominate; kernel arithmetic is tiny.
//! * `serve-mixed` — 16 clients send mid-size jobs to 4 V100s: PSO
//!   GlobalMem, PSO TensorCore, SSO on QAP, GFWA and 4-island PSO, with
//!   batching off, predictive admission on, deadlines on every third job
//!   and a checkpoint every slice. One device dies at a fixed launch
//!   ordinal, and one mid-run snapshot is restored on a fresh group, after
//!   which the session continues on the restored service.
//!
//! A session serves the whole job list to completion on a fresh service;
//! every session of a window serves the same list, so each must end in the
//! same modeled state as the first.

use crate::measure::{same_bits, solo, Fnv, Host, Modeled, Session};
use crate::probes::PlanInput;
use crate::trace::Tracer;
use fastpso::serve::{BatchPolicy, JobId, OptimizeRequest, ServeConfig, Service};
use fastpso::{Algorithm, PsoConfig, Topology, UpdateStrategy};
use fastpso_functions::builtins::{Griewank, Qap, Rastrigin, Sphere};
use fastpso_functions::Objective;
use fastpso_prng::SplitMix64;
use gpu_sim::{DeviceGroup, FaultPlan};
use perf_model::JobOutcome;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A serving workload: its service shape and its job list.
pub struct ServeBench {
    devices: usize,
    clients: usize,
    cfg: ServeConfig,
    /// Device that dies, and the launch ordinal (on that device) it dies at.
    loss: Option<(usize, u64)>,
    /// Tick after which the session is snapshotted and restored.
    snapshot_after_tick: Option<u64>,
    /// The jobs, in the order the clients take them.
    pub jobs: Vec<OptimizeRequest>,
    first: Option<SessionEnd>,
    /// Mid-run restores whose service did not re-serialize byte-equal.
    pub restore_mismatches: u64,
}

/// The end state of one session, kept for the first one.
struct SessionEnd {
    svc: Service,
    /// Per job: its id and the (strategy, predicted seconds) admission
    /// chose just before the submit, or `None` if the submit was rejected.
    admitted: Vec<Option<(JobId, UpdateStrategy, f64)>>,
    /// Accepted requests in submission order (what a restore replays).
    submitted: Vec<OptimizeRequest>,
    fingerprint: u64,
    modeled: Modeled,
}

fn objective(i: usize) -> Arc<dyn Objective> {
    match i % 3 {
        0 => Arc::new(Sphere),
        1 => Arc::new(Rastrigin),
        _ => Arc::new(Griewank),
    }
}

/// `serve-tiny`'s inputs: ten copies of every (particles, dims,
/// iterations) combination in a fixed order. The seed draws each job's PSO
/// seed and nudges its dimension by at most one, so the total work moves a
/// little from seed to seed while the batching dynamics stay alike.
pub fn setup_tiny(seed: u64) -> ServeBench {
    let mut rng = SplitMix64::new(seed ^ 0x7e4e_7140);
    let jobs = (0..480)
        .map(|i| {
            (
                i,
                16 * (1 + i % 4),
                5 + (i / 4) % 4,
                40 + 10 * ((i / 16) % 3),
            )
        })
        .map(|(i, n, d, iters)| {
            let d = (d + (rng.next_u64() % 2) as usize).min(8);
            let cfg = PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(rng.next_u64())
                .build()
                .expect("serve-tiny configs are valid");
            OptimizeRequest::new(format!("tenant-{}", i % 4), objective(i), cfg)
        })
        .collect();
    ServeBench::new(
        2,
        32,
        ServeConfig {
            slots_per_device: 4,
            batching: Some(BatchPolicy::default()),
            ..ServeConfig::default()
        },
        None,
        None,
        jobs,
    )
}

/// `serve-mixed`'s inputs: every (kind, particles, dims, iterations)
/// combination once in a fixed order; the seed draws each job's PSO seed
/// and nudges its dimension by at most one.
pub fn setup_mixed(seed: u64) -> ServeBench {
    let mut rng = SplitMix64::new(seed ^ 0x313e_d000);
    let jobs = (0..90)
        .map(|i| {
            (
                i,
                i % 5,
                64 + 32 * ((i / 5) % 3),
                8 + 4 * ((i / 15) % 3),
                30 + 10 * (i / 45),
            )
        })
        .map(|(i, kind, n, d, iters)| {
            let d = d + (rng.next_u64() % 2) as usize;
            let mut b = PsoConfig::builder(n, d)
                .max_iter(iters)
                .seed(rng.next_u64());
            if kind == 4 {
                let spec = format!("islands:4:random:{}:{}", 5 + i % 6, 1 + i % 2);
                b = b.topology(spec.parse::<Topology>().expect("valid island spec"));
            }
            let cfg = b.build().expect("serve-mixed configs are valid");
            let tenant = format!("tenant-{}", i % 3);
            let req = match kind {
                0 => OptimizeRequest::new(tenant, Arc::new(Rastrigin), cfg),
                1 => OptimizeRequest::new(tenant, Arc::new(Sphere), cfg)
                    .strategy(UpdateStrategy::TensorCore),
                2 => OptimizeRequest::new(tenant, Arc::new(Qap), cfg).algorithm(Algorithm::Sso),
                3 => {
                    OptimizeRequest::new(tenant, Arc::new(Griewank), cfg).algorithm(Algorithm::Gfwa)
                }
                _ => OptimizeRequest::new(tenant, Arc::new(Rastrigin), cfg),
            };
            if i % 3 == 0 {
                req.deadline_s(DEADLINE_S)
            } else {
                req
            }
        })
        .collect();
    ServeBench::new(
        4,
        16,
        ServeConfig {
            slots_per_device: 4,
            batching: None,
            predictive_admission: true,
            checkpoint_slices: 1,
            ..ServeConfig::default()
        },
        Some((3, 1500)),
        Some(12),
        jobs,
    )
}

/// The deadline the deadline-carrying `serve-mixed` jobs ask for, in
/// modeled seconds: loose enough that admission prices every such job and
/// accepts it, so the workload has no failing operation.
const DEADLINE_S: f64 = 0.5;

impl ServeBench {
    fn new(
        devices: usize,
        clients: usize,
        cfg: ServeConfig,
        loss: Option<(usize, u64)>,
        snapshot_after_tick: Option<u64>,
        jobs: Vec<OptimizeRequest>,
    ) -> ServeBench {
        ServeBench {
            devices,
            clients,
            cfg,
            loss,
            snapshot_after_tick,
            jobs,
            first: None,
            restore_mismatches: 0,
        }
    }

    /// Serve a short fault-free session over the first clients' jobs, so
    /// the window starts from a warm process.
    pub fn warm_up(&self) {
        let mut warm = ServeBench::new(
            self.devices,
            self.clients,
            self.cfg.clone(),
            None,
            None,
            self.jobs[..self.clients.min(self.jobs.len())].to_vec(),
        );
        warm.serve(&mut Tracer::new(false), &mut Host::default());
    }

    /// A fresh device group, with the workload's device loss planned.
    fn group(&self) -> DeviceGroup {
        let group = DeviceGroup::v100s(self.devices);
        if let Some((dev, ordinal)) = self.loss {
            let mut plans: Vec<FaultPlan> = (0..self.devices).map(|_| FaultPlan::new()).collect();
            plans[dev] = FaultPlan::new().with_device_loss_at_launch(ordinal);
            group.set_fault_plans(plans);
        }
        group
    }

    /// Serve one session. The benchmark's first session gives the modeled
    /// results; every later one must end in the same modeled state.
    pub fn session(&mut self, tracer: &mut Tracer, host: &mut Host) {
        let s = self.serve(tracer, host);
        match &self.first {
            Some(first) if first.fingerprint != s.fingerprint => host.nondeterministic += 1,
            Some(_) => {}
            None => self.first = Some(s),
        }
    }

    /// Modeled results of the first session.
    pub fn modeled(&self) -> Modeled {
        self.first
            .as_ref()
            .map(|f| f.modeled.clone())
            .unwrap_or_default()
    }

    /// Serve the job list once, closed loop, on a fresh service.
    fn serve(&mut self, tracer: &mut Tracer, host: &mut Host) -> SessionEnd {
        let start = Instant::now();
        let mut paused = Duration::ZERO;
        let span = tracer.begin("session", None);
        let mut svc = Service::new(self.group(), self.cfg.clone());
        let mut admitted: Vec<Option<(JobId, UpdateStrategy, f64)>> = vec![None; self.jobs.len()];
        let mut submitted: Vec<OptimizeRequest> = Vec::with_capacity(self.jobs.len());
        // Per client: (job index, id, host instant of the submit).
        let mut outstanding: Vec<Option<(usize, JobId, Instant)>> = vec![None; self.clients];
        let mut next = 0usize;
        let (mut ticks, mut occupancy, mut snapshot_bytes) = (0u64, 0u64, 0u64);
        let mut stats = Session::default();
        loop {
            for slot in outstanding.iter_mut() {
                if let Some((i, id, t0)) = *slot {
                    let terminal = svc.status(id).map(|s| s.is_terminal()).unwrap_or(true);
                    if !terminal {
                        continue;
                    }
                    stats.job_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    if let Ok(r) = svc.result(id) {
                        stats.completed += 1;
                        let cfg = &self.jobs[i].cfg;
                        stats.elem_iters += (cfg.n_particles * cfg.dim * r.iterations) as f64;
                    }
                    *slot = None;
                }
                while slot.is_none() && next < self.jobs.len() {
                    let req = &self.jobs[next];
                    host.attempted += 1;
                    let (plan, took) =
                        tracer.time("admission_plan", None, || svc.admission_plan(req));
                    host.admission_us.push(took.as_secs_f64() * 1e6);
                    let (res, took) = tracer.time("submit", None, || svc.submit(req.clone()));
                    host.submit_us.push(took.as_secs_f64() * 1e6);
                    match (res, plan) {
                        (Ok(id), Ok((strategy, predicted))) => {
                            tracer.tag_last("admission_plan", id.0);
                            tracer.tag_last("submit", id.0);
                            admitted[next] = Some((id, strategy, predicted));
                            submitted.push(req.clone());
                            *slot = Some((next, id, Instant::now()));
                        }
                        _ => host.failed += 1,
                    }
                    next += 1;
                }
            }
            if next >= self.jobs.len() && outstanding.iter().all(Option::is_none) {
                break;
            }
            let (_, took) = tracer.time("tick", None, || svc.tick());
            stats.tick_ms.push(took.as_secs_f64() * 1e3);
            ticks += 1;
            occupancy += svc.occupancy().0 as u64;
            if Some(ticks) == self.snapshot_after_tick {
                let (snap, took) = tracer.time("snapshot", None, || svc.snapshot());
                host.snapshot_ms.push(took.as_secs_f64() * 1e3);
                snapshot_bytes = snap.len() as u64;
                let group = self.group();
                let replay = submitted.clone();
                let (restored, took) = tracer.time("restore", None, || {
                    Service::restore(group, self.cfg.clone(), &snap, replay)
                });
                host.restore_ms.push(took.as_secs_f64() * 1e3);
                // Output check, off the clock: the restored service must
                // re-serialize to the very bytes it was restored from.
                let check = Instant::now();
                match restored {
                    Ok(r) if r.snapshot() == snap => svc = r,
                    _ => self.restore_mismatches += 1,
                }
                paused += check.elapsed();
            }
        }
        tracer.end(span);
        stats.secs = (start.elapsed() - paused).as_secs_f64();
        host.window_s += stats.secs;
        host.sessions.push(stats);

        let mut modeled = self.modeled_of(&svc, &admitted);
        modeled.ticks = ticks;
        modeled.occupancy_mean = occupancy as f64 / ticks.max(1) as f64;
        modeled.snapshot_bytes = snapshot_bytes;
        modeled.journal_bytes = svc.snapshot().len() as u64;
        host.failed += modeled.shed
            + svc
                .records()
                .iter()
                .filter(|r| r.outcome == JobOutcome::Failed)
                .count() as u64;
        let mut fp = Fnv::default();
        for a in &admitted {
            match a.and_then(|(id, _, _)| svc.result(id).ok()) {
                Some(r) => fp.result(r),
                None => fp.word(u64::MAX),
            }
        }
        fp.word(svc.now().to_bits());
        fp.word(modeled.counters.kernel_launches);
        fp.word(modeled.counters.dram_bytes());
        fp.word(modeled.journal_bytes);
        SessionEnd {
            svc,
            admitted,
            submitted,
            fingerprint: fp.0,
            modeled,
        }
    }

    /// Modeled results of a finished session.
    fn modeled_of(
        &self,
        svc: &Service,
        admitted: &[Option<(JobId, UpdateStrategy, f64)>],
    ) -> Modeled {
        let mut m = Modeled::default();
        for dev in svc.group().iter() {
            m.add_timeline(&dev.timeline(), dev.counters(), dev.peak_bytes());
        }
        m.makespan_s = svc.now();
        m.rejected_infeasible = svc.rejected_infeasible();
        m.admission_downgrades = svc.admission_downgrades();
        for r in svc.records() {
            m.rehomes += r.rehomes;
            m.recovery_s += r.recovery_secs;
            match r.outcome {
                JobOutcome::Completed => {
                    m.completed += 1;
                    m.device_s += r.device_seconds;
                    m.latency_s.push(r.latency_s());
                    m.queue_wait_s.push(r.started_s - r.submitted_s);
                    m.run_s.push(r.finished_s - r.started_s);
                    let predicted = admitted
                        .iter()
                        .flatten()
                        .find(|(id, _, _)| id.0 == r.job)
                        .map_or(0.0, |&(_, _, p)| p);
                    if predicted > 0.0 && r.device_seconds > 0.0 {
                        m.predictor_rel_err
                            .push((predicted - r.device_seconds).abs() / r.device_seconds);
                    }
                }
                JobOutcome::Shed => m.shed += 1,
                _ => {}
            }
        }
        m
    }

    /// Output check, outside the timed window: every completed job of the
    /// first session, re-homed ones included, must be bit-identical to its
    /// solo, fault-free run at the strategy it was admitted with. Returns
    /// (checked, wrong).
    pub fn check(&self) -> (u64, u64) {
        let Some(first) = &self.first else {
            return (0, 0);
        };
        let (mut checked, mut wrong) = (0, 0);
        for (req, a) in self.jobs.iter().zip(&first.admitted) {
            let Some((id, strategy, _)) = *a else {
                continue;
            };
            let Ok(served) = first.svc.result(id) else {
                continue;
            };
            checked += 1;
            if !solo(req, strategy).is_some_and(|want| same_bits(served, &want)) {
                wrong += 1;
            }
        }
        (checked, wrong)
    }

    /// Host ms of one snapshot and one restore of the first session's final
    /// service (a probe, outside the timed window), and the snapshot's size.
    pub fn snapshot_probe(&self) -> Option<(f64, f64, u64)> {
        let first = self.first.as_ref()?;
        let t = Instant::now();
        let snap = first.svc.snapshot();
        let snap_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let restored = Service::restore(
            self.group(),
            self.cfg.clone(),
            &snap,
            first.submitted.clone(),
        );
        let restore_ms = t.elapsed().as_secs_f64() * 1e3;
        restored
            .ok()
            .map(|_| (snap_ms, restore_ms, snap.len() as u64))
    }

    /// Every job as (config, algorithm, strategy) for the layer probes.
    pub fn plans(&self) -> Vec<PlanInput> {
        self.jobs
            .iter()
            .map(|r| (r.cfg.clone(), r.algorithm, r.strategy))
            .collect()
    }
}
