//! Property-based tests of the acquisition/deconvolution core.

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::deconvolution::{apply_columnwise, Deconvolver};
use htims_core::metrics::fidelity;
use ims_physics::{DriftTofMap, Instrument, Workload};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_block(
    degree: u32,
    seed: u64,
    use_trap: bool,
) -> (GateSchedule, htims_core::acquisition::AcquiredData) {
    let n = (1usize << degree) - 1;
    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = 40;
    let workload = Workload::single_calibrant();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let data = acquire(
        &inst,
        &workload,
        &schedule,
        10,
        AcquireOptions {
            use_trap,
            background_mean: 0.01,
        },
        &mut rng,
    );
    (schedule, data)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn weighted_zero_lambda_equals_exact(degree in 4u32..7, seed in 0u64..200) {
        let (schedule, data) = small_block(degree, seed, false);
        let a = Deconvolver::Exact.deconvolve(&schedule, &data);
        let b = Deconvolver::Weighted { lambda: 0.0 }.deconvolve(&schedule, &data);
        for (x, y) in a.data().iter().zip(b.data().iter()) {
            prop_assert!((x - y).abs() < 1e-6 * (1.0 + x.abs()));
        }
    }

    #[test]
    fn acquisition_deterministic(degree in 4u32..7, seed in 0u64..200, trap in any::<bool>()) {
        let (_, a) = small_block(degree, seed, trap);
        let (_, b) = small_block(degree, seed, trap);
        prop_assert_eq!(a.accumulated.data(), b.accumulated.data());
    }

    #[test]
    fn utilization_and_kernel_bounds(degree in 4u32..7, seed in 0u64..100, trap in any::<bool>()) {
        let (_, data) = small_block(degree, seed, trap);
        prop_assert!((0.0..=1.0).contains(&data.ion_utilization),
            "utilization {}", data.ion_utilization);
        prop_assert!(data.effective_kernel.iter().all(|&h| h >= 0.0));
        prop_assert!(data.packet_charges >= 0.0);
    }

    #[test]
    fn identity_columnwise_is_noop(dn in 2usize..12, mn in 2usize..12, seed in 0u64..50) {
        let mut map = DriftTofMap::zeros(dn, mn);
        for (i, v) in map.data_mut().iter_mut().enumerate() {
            *v = ((i as u64 + seed) % 13) as f64;
        }
        let out = apply_columnwise(&map, |col| col.to_vec());
        prop_assert_eq!(out.data(), map.data());
    }

    #[test]
    fn fidelity_of_self_is_perfect(seed in 0u64..200, n in 8usize..64) {
        let profile: Vec<f64> = (0..n)
            .map(|i| (((i as u64 + seed) % 11) as f64) + 0.1)
            .collect();
        let f = fidelity(&profile, &profile, 0.05);
        prop_assert!(f.pearson > 1.0 - 1e-9);
        prop_assert!(f.nrmse < 1e-9);
        prop_assert!(f.artifact_level < 1e-9);
    }

    #[test]
    fn kernel_similarity_is_scale_invariant(seed in 1u64..500, n in 3usize..40, scale in 0.1..50.0f64) {
        use htims_core::kernel::kernel_similarity;
        let a: Vec<f64> = (0..n).map(|i| (((i as u64 + seed) % 13) + 1) as f64).collect();
        let b: Vec<f64> = a.iter().map(|v| v * scale).collect();
        prop_assert!((kernel_similarity(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deconvolution_recovers_planted_peak_location(degree in 5u32..8, seed in 0u64..100) {
        let (schedule, data) = small_block(degree, seed, false);
        let map = Deconvolver::SimplexFast.deconvolve(&schedule, &data);
        let got = map.total_ion_drift_profile();
        let truth = data.truth.total_ion_drift_profile();
        let (apex_got, _) = ims_signal::stats::argmax(&got).unwrap();
        let (apex_truth, _) = ims_signal::stats::argmax(&truth).unwrap();
        prop_assert!(apex_got.abs_diff(apex_truth) <= 1,
            "apex {apex_got} vs truth {apex_truth}");
    }
}
