//! The evaluation experiments (see EXPERIMENTS.md for the index).

pub mod e10_detectors;
pub mod e11_ablation;
pub mod e12_dynamic;
pub mod e1_snr_gain;
pub mod e2_fidelity;
pub mod e3_throughput;
pub mod e4_resources;
pub mod e5_utilization;
pub mod e6_dynamic_range;
pub mod e7_coulomb;
pub mod e8_scaling;
pub mod e9_agc;
mod smoke_tests;

use crate::table::Table;

/// Runs one experiment by id ("e1".."e12"); `None` for an unknown id. `quick` shrinks workloads for
/// smoke testing.
pub fn run(id: &str, quick: bool) -> Option<Table> {
    Some(match id {
        "e1" => e1_snr_gain::run(quick),
        "e2" => e2_fidelity::run(quick),
        "e3" => e3_throughput::run(quick),
        "e4" => e4_resources::run(quick),
        "e5" => e5_utilization::run(quick),
        "e6" => e6_dynamic_range::run(quick),
        "e7" => e7_coulomb::run(quick),
        "e8" => e8_scaling::run(quick),
        "e9" => e9_agc::run(quick),
        "e10" => e10_detectors::run(quick),
        "e11" => e11_ablation::run(quick),
        "e12" => e12_dynamic::run(quick),
        _ => return None,
    })
}

/// All experiment ids in order.
pub const ALL: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
];

pub(crate) mod common {
    //! Shared setup helpers.

    use htims_core::acquisition::{acquire, AcquireOptions, AcquiredData, GateSchedule};
    use ims_physics::{Instrument, Workload};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Deterministic RNG for an experiment id and variant index.
    pub fn rng(tag: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(0x2007_0000 ^ tag)
    }

    /// Instrument with the given drift bins, m/z bins, and gate defect.
    pub fn instrument(drift_bins: usize, mz_bins: usize, defect: f64) -> Instrument {
        let mut inst = Instrument::with_drift_bins(drift_bins);
        inst.tof.n_bins = mz_bins;
        inst.gate = ims_physics::gate::GateModel::with_defect_level(defect);
        inst
    }

    /// One acquisition with everything spelled out.
    #[allow(clippy::too_many_arguments)]
    pub fn acquire_with(
        inst: &Instrument,
        workload: &Workload,
        schedule: &GateSchedule,
        frames: u64,
        use_trap: bool,
        background: f64,
        seed: u64,
    ) -> AcquiredData {
        let mut r = rng(seed);
        acquire(
            inst,
            workload,
            schedule,
            frames,
            AcquireOptions {
                use_trap,
                background_mean: background,
            },
            &mut r,
        )
    }

    /// Finds the library entry whose name contains `needle`.
    pub fn library_position(
        inst: &Instrument,
        workload: &Workload,
        needle: &str,
    ) -> Option<(usize, usize)> {
        htims_core::analysis::build_library(inst, workload)
            .into_iter()
            .find(|e| e.name.contains(needle))
            .map(|e| (e.drift_bin, e.mz_bin))
    }
}
