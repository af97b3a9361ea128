//! Property-based tests of the instrument physics.

use ims_physics::funnel::IonFunnelTrap;
use ims_physics::isotope::averagine_envelope;
use ims_physics::map2d::DriftTofMap;
use ims_physics::peptide::{synthetic_protein, tryptic_digest, Peptide, WATER};
use ims_physics::{DriftTube, IonSpecies};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mobility_decreases_with_ccs(
        mass in 200.0..5000.0f64,
        ccs in 100.0..1500.0f64,
        bump in 1.01..2.0f64,
    ) {
        let a = IonSpecies::new("a", mass, 1, ccs, 1.0);
        let b = IonSpecies::new("b", mass, 1, ccs * bump, 1.0);
        prop_assert!(a.reduced_mobility(300.0) > b.reduced_mobility(300.0));
    }

    #[test]
    fn mobility_scales_linearly_with_charge(
        mass in 200.0..5000.0f64,
        ccs in 100.0..1500.0f64,
        z in 1u32..5,
    ) {
        let one = IonSpecies::new("1", mass, 1, ccs, 1.0);
        let many = IonSpecies::new("z", mass, z, ccs, 1.0);
        let ratio = many.reduced_mobility(300.0) / one.reduced_mobility(300.0);
        prop_assert!((ratio - z as f64).abs() < 1e-9);
    }

    #[test]
    fn drift_time_positive_and_voltage_inverse(
        mass in 300.0..3000.0f64,
        ccs in 150.0..900.0f64,
        z in 1u32..4,
        voltage in 1000.0..8000.0f64,
    ) {
        let sp = IonSpecies::new("s", mass, z, ccs, 1.0);
        let mut tube = DriftTube { voltage_v: voltage, ..Default::default() };
        let t1 = tube.drift_time_s(&sp);
        prop_assert!(t1 > 0.0);
        tube.voltage_v = voltage * 2.0;
        let t2 = tube.drift_time_s(&sp);
        prop_assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn digestion_reassembles_protein(seed in 0u64..2000, len in 20usize..300) {
        let protein = synthetic_protein(seed, len);
        let peptides = tryptic_digest(&protein, 0, 1);
        let joined: String = peptides.iter().map(|p| p.sequence.as_str()).collect();
        prop_assert_eq!(joined, protein);
    }

    #[test]
    fn peptide_mass_exceeds_water(seed in 0u64..2000, len in 1usize..40) {
        let protein = synthetic_protein(seed, len);
        let pep = Peptide::new(&protein);
        prop_assert!(pep.monoisotopic_mass() > WATER);
        // Mass is at least 57 Da (glycine) per residue above water.
        prop_assert!(pep.monoisotopic_mass() >= WATER + 57.0 * len as f64 - 1e-6);
    }

    #[test]
    fn isotope_envelope_is_distribution(mass in 100.0..6000.0f64, peaks in 2usize..12) {
        let env = averagine_envelope(mass, peaks);
        prop_assert!(env.len() <= peaks);
        let total: f64 = env.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(env.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn trap_fill_bounded_and_monotone(
        rate in 0.0..1e12f64,
        t1 in 0.0..1.0f64,
        dt in 0.0..1.0f64,
    ) {
        let trap = IonFunnelTrap::default();
        let q1 = trap.stored_charge(rate, t1);
        let q2 = trap.stored_charge(rate, t1 + dt);
        prop_assert!(q1 <= trap.capacity_charges);
        prop_assert!(q2 >= q1 - 1e-9);
        prop_assert!(trap.released_charge(rate, t1) <= q1 + 1e-9);
    }

    #[test]
    fn outer_product_total_factorises(
        dn in 2usize..20,
        mn in 2usize..20,
        scale in 0.1..100.0f64,
        seed in 0u64..100,
    ) {
        let drift: Vec<f64> = (0..dn).map(|i| ((i as u64 + seed) % 7) as f64).collect();
        let mz: Vec<f64> = (0..mn).map(|i| ((i as u64 * 3 + seed) % 5) as f64).collect();
        let mut map = DriftTofMap::zeros(dn, mn);
        map.add_outer(&drift, &mz, scale);
        let expect = scale * drift.iter().sum::<f64>() * mz.iter().sum::<f64>();
        prop_assert!((map.total() - expect).abs() < 1e-6 * (1.0 + expect));
    }

    #[test]
    fn sparse_outer_matches_dense(dn in 2usize..15, mn in 2usize..15, seed in 0u64..50) {
        let drift: Vec<f64> = (0..dn).map(|i| ((i as u64 + seed) % 5) as f64).collect();
        let mz: Vec<f64> = (0..mn)
            .map(|i| if (i as u64 + seed).is_multiple_of(3) { (i + 1) as f64 } else { 0.0 })
            .collect();
        let pairs: Vec<(usize, f64)> = mz
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        let mut dense = DriftTofMap::zeros(dn, mn);
        dense.add_outer(&drift, &mz, 2.5);
        let mut sparse = DriftTofMap::zeros(dn, mn);
        sparse.add_outer_sparse(&drift, &pairs, 2.5);
        prop_assert_eq!(dense.data(), sparse.data());
    }

    #[test]
    fn arrival_distribution_never_negative_and_bounded(
        ccs in 150.0..900.0f64,
        z in 1u32..4,
        charges in 0.0..1e8f64,
    ) {
        let sp = IonSpecies::new("s", 1000.0, z, ccs, 1.0);
        let tube = DriftTube::default();
        let dist = tube.arrival_distribution(&sp, charges, 256, 2e-4);
        prop_assert!(dist.iter().all(|&v| v >= 0.0));
        let total: f64 = dist.iter().sum();
        prop_assert!(total <= 1.0 + 1e-9);
    }
}
