//! Scheduler-telemetry invariants on private pools.
//!
//! The `sched.*` counters exist so steal storms, injector pressure, and
//! queue dwell are diagnosable in production; these tests pin the
//! accounting identities they rely on:
//!
//! * every executed task was dequeued by exactly one pop path, so
//!   `local_pops + injector_pops + steals == executed`;
//! * a single-worker pool records **no** queue-dwell samples (one shard
//!   means no cross-worker queueing — dwell would only measure the
//!   worker's own backlog).
//!
//! Each test uses its own private [`Scheduler`] pool, so counts are
//! isolated from the global pool other tests share.

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::graph::GraphSpec;
use htims_core::hybrid::FrameGenerator;
use htims_core::pipeline::{DeconvBackend, RunOutcome, SchedStatsSnapshot, Scheduler};
use ims_fpga::deconv::DeconvConfig;
use ims_prs::MSequence;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Waits for the pool to go quiescent with at least `min_executed` task
/// dispatches: `run_batch` returns when all *jobs* finished, but the
/// queued batch *task* may still await a worker pop (the caller can
/// outrun the pool on trivial jobs), and a popped task increments
/// `executed` a few instructions after the pop counter. Bounded — fails
/// loudly instead of hanging (the 50 ms park-timeout rescan guarantees
/// every queued task is eventually dispatched).
fn settled(sched: &Scheduler, min_executed: u64) -> SchedStatsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let s = sched.stats();
        if s.executed >= min_executed && s.local_pops + s.injector_pops + s.steals == s.executed {
            return s;
        }
        assert!(
            Instant::now() < deadline,
            "scheduler telemetry never settled: {s:?}"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn run_rounds(sched: &Scheduler, rounds: usize, jobs_per_round: usize) -> usize {
    let hits = AtomicUsize::new(0);
    for _ in 0..rounds {
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..jobs_per_round)
            .map(|_| {
                Box::new(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        sched.run_batch(jobs);
    }
    hits.load(Ordering::Relaxed)
}

#[test]
fn pops_account_for_every_executed_task() {
    let sched = Scheduler::new(3);
    let hits = run_rounds(&sched, 8, 64);
    assert_eq!(hits, 8 * 64);
    // Every round pushed its batch task into the injector; each is
    // dispatched by some worker exactly once (even if the caller already
    // drained its jobs).
    let s = settled(&sched, 8);
    assert_eq!(s.local_pops + s.injector_pops + s.steals, s.executed);
    sched.shutdown();
}

#[test]
fn single_worker_pool_records_no_queue_dwell() {
    let sched = Scheduler::new(1);
    run_rounds(&sched, 4, 32);
    let s = settled(&sched, 4);
    assert_eq!(
        s.dwell_samples, 0,
        "threads=1 must not record queue dwell: {s:?}"
    );
    sched.shutdown();
}

fn generator(degree: u32, mz_bins: usize) -> (FrameGenerator, MSequence) {
    let bins = (1usize << degree) - 1;
    let mut inst = ims_physics::Instrument::with_drift_bins(bins);
    inst.tof.n_bins = mz_bins;
    let w = ims_physics::Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data = acquire(&inst, &w, &schedule, 1, AcquireOptions::default(), &mut rng);
    let seq = match schedule {
        GateSchedule::Multiplexed { seq } => seq,
        _ => unreachable!(),
    };
    (FrameGenerator::new(&data, &inst.adc, 42), seq)
}

#[test]
fn pipeline_run_on_a_private_pool_keeps_the_identity() {
    let (gen, seq) = generator(5, 18);
    let spec = GraphSpec {
        frames: 4,
        blocks: 2,
        ..GraphSpec::small()
    };
    let sched = Scheduler::new(2);
    let pipeline = spec.pipeline(
        &gen,
        &seq,
        DeconvBackend::fpga(&seq, DeconvConfig::default()),
    );
    let out = pipeline.spawn_on(&sched).join();
    assert_eq!(out.report.outcome, RunOutcome::Completed);
    // A graph run schedules at least one task per node (source + stages).
    let s = settled(&sched, 3);
    assert_eq!(s.local_pops + s.injector_pops + s.steals, s.executed);
    sched.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The accounting identity holds for any pool width and batch shape,
    /// and dwell stays empty whenever the pool has a single worker.
    #[test]
    fn telemetry_invariants_hold(
        threads in 1usize..=4,
        rounds in 1usize..=4,
        jobs in 1usize..=48,
    ) {
        let sched = Scheduler::new(threads);
        let hits = run_rounds(&sched, rounds, jobs);
        prop_assert_eq!(hits, rounds * jobs);
        let s = settled(&sched, rounds as u64);
        prop_assert_eq!(s.local_pops + s.injector_pops + s.steals, s.executed);
        if threads == 1 {
            prop_assert_eq!(s.dwell_samples, 0);
        }
        sched.shutdown();
    }
}
