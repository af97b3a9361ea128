//! Integration tests of the frame capture log and the sharded accumulator's
//! recovery paths: every sourced frame lands in the log, replaying a log
//! reproduces the original output FNV bit-for-bit on every executor, a
//! killed shard is rebuilt from the log transparently (Completed, clean
//! fingerprint), and without a log the loss is surfaced as a Degraded run
//! with the shard's m/z range zeroed and blamed in the report.

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::capture::CaptureLog;
use htims_core::fault::{FaultInjector, FaultSpec};
use htims_core::graph::GraphSpec;
use htims_core::hybrid::FrameGenerator;
use htims_core::pipeline::{output_fingerprint, DeconvBackend, Pipeline, RunOutcome};
use ims_fpga::deconv::DeconvConfig;
use ims_prs::MSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htims_replay_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn generator(degree: u32, mz_bins: usize) -> (FrameGenerator, MSequence) {
    let bins = (1usize << degree) - 1;
    let mut inst = ims_physics::Instrument::with_drift_bins(bins);
    inst.tof.n_bins = mz_bins;
    let w = ims_physics::Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let data = acquire(&inst, &w, &schedule, 1, AcquireOptions::default(), &mut rng);
    let seq = match schedule {
        GateSchedule::Multiplexed { seq } => seq,
        _ => unreachable!(),
    };
    (FrameGenerator::new(&data, &inst.adc, 42), seq)
}

fn graph(gen: &FrameGenerator, seq: &MSequence, cfg: &GraphSpec) -> Pipeline {
    cfg.pipeline(gen, seq, DeconvBackend::fpga(seq, DeconvConfig::default()))
}

fn block_data(out: &htims_core::pipeline::PipelineOutput) -> Vec<(u64, u64, Vec<i64>)> {
    out.blocks
        .iter()
        .map(|b| (b.index, b.frames, b.data.clone()))
        .collect()
}

#[test]
fn capture_log_records_every_sourced_frame_in_order() {
    let dir = temp_dir("records");
    let (gen, seq) = generator(4, 12);
    let cfg = GraphSpec {
        frames: 4,
        blocks: 3,
        ..GraphSpec::small()
    };
    let log = CaptureLog::create(&dir).unwrap();
    let out = graph(&gen, &seq, &cfg)
        .with_capture_log(log.clone())
        .run_inline();
    assert_eq!(out.report.outcome, RunOutcome::Completed);
    log.finish().unwrap();

    let packets = CaptureLog::open(&dir).unwrap().read_all().unwrap();
    assert_eq!(packets.len(), 12, "every sourced frame must be logged");
    let seqs: Vec<u64> = packets.iter().map(|p| p.seq_no).collect();
    assert_eq!(seqs, (0..12).collect::<Vec<_>>());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_reproduces_output_bit_for_bit_across_executors() {
    let dir = temp_dir("fnv");
    let (gen, seq) = generator(5, 18);
    let cfg = GraphSpec {
        frames: 4,
        blocks: 4,
        shards: 3,
        ..GraphSpec::small()
    };
    // A captured run with the full fault menu armed: source drops never
    // reach the log, downstream faults are keyed by seq_no / block index
    // and so re-fire identically on replay.
    let spec = FaultSpec::parse("frame.drop=0.25,dma.bitflip=1e-5,deconv.fail=0.3,shard.kill=0.6")
        .unwrap();
    let log = CaptureLog::create(&dir).unwrap();
    let captured = graph(&gen, &seq, &cfg)
        .with_faults(FaultInjector::new(99, spec.clone()))
        .with_capture_log(log.clone())
        .run_inline();
    log.finish().unwrap();
    let captured_fnv = output_fingerprint(&captured.blocks);
    assert!(
        captured.report.faults.frames_dropped > 0 && captured.report.faults.shard_kills > 0,
        "fault menu should actually fire at these rates: {:?}",
        captured.report.faults
    );

    // Replay strips the source-side sites (those frames were never logged);
    // everything downstream re-fires from the logged seq numbers, and the
    // log rides along read-only so shard rebuilds re-fire too.
    let stripped = spec.without_source_sites();
    for scheduled in [false, true] {
        let ro = CaptureLog::open(&dir).unwrap();
        let packets = ro.read_all().unwrap();
        let p = graph(&gen, &seq, &cfg)
            .with_faults(FaultInjector::new(99, stripped.clone()))
            .with_replay_source(packets)
            .with_capture_log(ro);
        let replayed = if scheduled {
            p.run_scheduled()
        } else {
            p.run_inline()
        };
        assert_eq!(block_data(&captured), block_data(&replayed));
        assert_eq!(
            output_fingerprint(&replayed.blocks),
            captured_fnv,
            "replay (scheduled={scheduled}) must be FNV bit-exact"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_shards_rebuild_from_the_log_and_stay_bit_exact() {
    let dir = temp_dir("rebuild");
    let (gen, seq) = generator(5, 18);
    let cfg = GraphSpec {
        frames: 6,
        blocks: 3,
        shards: 4,
        ..GraphSpec::small()
    };
    let clean = graph(&gen, &seq, &cfg).run_inline();
    assert_eq!(clean.report.outcome, RunOutcome::Completed);
    let clean_fnv = output_fingerprint(&clean.blocks);

    let spec = FaultSpec::parse("shard.kill=1").unwrap();
    let log = CaptureLog::create(&dir).unwrap();
    let out = graph(&gen, &seq, &cfg)
        .with_faults(FaultInjector::new(7, spec))
        .with_capture_log(log)
        .run_inline();
    assert_eq!(
        out.report.outcome,
        RunOutcome::Completed,
        "a rebuilt shard loss is not degradation"
    );
    assert!(out.report.faults.shard_kills > 0);
    assert_eq!(out.report.faults.degrading(), 0);
    assert_eq!(out.report.shard_rebuilds, out.report.faults.shard_kills);
    assert_eq!(out.report.shards_lost, 0);
    assert!(out.report.lost_mz_ranges.is_empty());
    assert_eq!(block_data(&clean), block_data(&out));
    assert_eq!(output_fingerprint(&out.blocks), clean_fnv);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn shard_loss_without_a_log_degrades_and_zeroes_the_range() {
    let (gen, seq) = generator(5, 18);
    let cfg = GraphSpec {
        frames: 6,
        blocks: 2,
        shards: 4,
        ..GraphSpec::small()
    };
    let clean = graph(&gen, &seq, &cfg).run_inline();
    assert!(
        clean.blocks.iter().any(|b| b.data.iter().any(|&v| v != 0)),
        "sanity: the clean run must produce signal"
    );

    // Rate 1 kills every shard of every block; with no capture log armed
    // nothing can be rebuilt, so the whole m/z width drains zeros.
    let spec = FaultSpec::parse("shard.kill=1").unwrap();
    let out = graph(&gen, &seq, &cfg)
        .with_faults(FaultInjector::new(7, spec))
        .run_inline();
    assert_eq!(out.report.outcome, RunOutcome::Degraded);
    assert_eq!(out.report.shard_rebuilds, 0);
    assert_eq!(out.report.shards_lost, 4 * 2, "4 shards x 2 blocks");
    assert_eq!(out.report.lost_mz_ranges.len(), 8);
    let (lo, hi) = (
        out.report.lost_mz_ranges.iter().map(|r| r.0).min().unwrap(),
        out.report.lost_mz_ranges.iter().map(|r| r.1).max().unwrap(),
    );
    assert_eq!((lo, hi), (0, 18), "ranges must tile the full m/z width");
    for b in &out.blocks {
        assert!(
            b.data.iter().all(|&v| v == 0),
            "block {} must drain zeros for lost ranges",
            b.index
        );
    }
    // Determinism: the degraded run is a pure function of (seed, spec).
    let spec = FaultSpec::parse("shard.kill=1").unwrap();
    let again = graph(&gen, &seq, &cfg)
        .with_faults(FaultInjector::new(7, spec))
        .run_inline();
    assert_eq!(block_data(&out), block_data(&again));
    assert_eq!(out.report.lost_mz_ranges, again.report.lost_mz_ranges);
}

#[test]
fn rebuild_re_bins_when_a_binner_precedes_the_accumulator() {
    let dir = temp_dir("binned");
    let (gen, seq) = generator(4, 24);
    let cfg = GraphSpec {
        frames: 5,
        blocks: 2,
        shards: 3,
        coarse: Some(8),
        ..GraphSpec::small()
    };
    let clean = graph(&gen, &seq, &cfg).run_inline();
    let clean_fnv = output_fingerprint(&clean.blocks);

    let spec = FaultSpec::parse("shard.kill=1").unwrap();
    let log = CaptureLog::create(&dir).unwrap();
    let out = graph(&gen, &seq, &cfg)
        .with_faults(FaultInjector::new(21, spec))
        .with_capture_log(log)
        .run_inline();
    assert_eq!(out.report.outcome, RunOutcome::Completed);
    assert!(out.report.shard_rebuilds > 0);
    assert_eq!(
        output_fingerprint(&out.blocks),
        clean_fnv,
        "rebuild must re-bin logged fine frames before folding"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
