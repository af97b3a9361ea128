//! Integration: experiment configs serialise, rebuild the exact same
//! simulation objects, and drive reproducible acquisitions.

use htims::core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims::core::config::{ExperimentConfig, ScheduleSpec, WorkloadSpec};
use htims::fpga::dma::fnv1a64;
use htims::physics::{DriftTofMap, Instrument, Workload};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn config_drives_identical_acquisitions() {
    let cfg = ExperimentConfig {
        sequence_degree: 6,
        mz_bins: 120,
        frames: 15,
        workload: WorkloadSpec::ThreePeptideMix,
        ..Default::default()
    };
    let run = |cfg: &ExperimentConfig| {
        let (inst, workload, schedule, opts) = cfg.build();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        acquire(&inst, &workload, &schedule, cfg.frames, opts, &mut rng)
    };
    let a = run(&cfg);
    let json = cfg.to_json();
    let rebuilt = ExperimentConfig::from_json(&json).unwrap();
    let b = run(&rebuilt);
    assert_eq!(a.accumulated.data(), b.accumulated.data());
    assert_eq!(a.schedule_bits, b.schedule_bits);
}

#[test]
fn all_schedule_specs_build_consistently() {
    for schedule in [
        ScheduleSpec::SignalAveraging,
        ScheduleSpec::Multiplexed,
        ScheduleSpec::Oversampled { factor: 2 },
    ] {
        let cfg = ExperimentConfig {
            sequence_degree: 5,
            schedule,
            mz_bins: 50,
            ..Default::default()
        };
        let (inst, _, built_schedule, _) = cfg.build();
        assert_eq!(inst.drift_bins, built_schedule.len());
        assert_eq!(cfg.drift_bins(), built_schedule.len());
    }
}

#[test]
fn all_workload_specs_materialise() {
    for workload in [
        WorkloadSpec::SingleCalibrant,
        WorkloadSpec::ThreePeptideMix,
        WorkloadSpec::ComplexDigest {
            seed: 3,
            n_proteins: 2,
            abundance: 10.0,
        },
        WorkloadSpec::SpikedDigest {
            seed: 3,
            n_proteins: 2,
            matrix_abundance: 10.0,
            spikes: vec![0.1, 1.0],
        },
    ] {
        let w = workload.build();
        assert!(!w.is_empty(), "{workload:?} produced an empty workload");
        assert!(w.total_abundance() > 0.0);
    }
}

#[test]
fn different_seeds_produce_different_noise() {
    let cfg = ExperimentConfig {
        sequence_degree: 5,
        mz_bins: 60,
        frames: 5,
        ..Default::default()
    };
    let (inst, workload, schedule, opts) = cfg.build();
    let a = acquire(
        &inst,
        &workload,
        &schedule,
        cfg.frames,
        opts,
        &mut ChaCha8Rng::seed_from_u64(1),
    );
    let b = acquire(
        &inst,
        &workload,
        &schedule,
        cfg.frames,
        opts,
        &mut ChaCha8Rng::seed_from_u64(2),
    );
    assert_ne!(a.accumulated.data(), b.accumulated.data());
    // But the deterministic parts agree.
    assert_eq!(a.effective_kernel, b.effective_kernel);
    assert_eq!(a.expected.data(), b.expected.data());
}

/// FNV-1a 64 over the little-endian `f64` bits of the `accumulated`,
/// `expected` and `truth` maps of one seeded three-peptide acquisition:
/// pins the forward model and its RNG draw order bit for bit.
const ACQUIRE_FNVS: [u64; 3] = [
    16153124428774028205,
    7538232162518839568,
    11915355710796140583,
];

fn map_fnv(map: &DriftTofMap) -> u64 {
    let bytes: Vec<u8> = map.data().iter().flat_map(|v| v.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

#[test]
fn acquire_keeps_its_golden_fingerprints() {
    let mut inst = Instrument::with_drift_bins(63);
    inst.tof.n_bins = 300;
    let data = acquire(
        &inst,
        &Workload::three_peptide_mix(),
        &GateSchedule::multiplexed(6),
        12,
        AcquireOptions::default(),
        &mut ChaCha8Rng::seed_from_u64(20_240_917),
    );
    let fnvs = [&data.accumulated, &data.expected, &data.truth].map(map_fnv);
    assert_eq!(fnvs, ACQUIRE_FNVS);
}
