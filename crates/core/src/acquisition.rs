//! The acquisition engine: gate schedules, trap-mediated ion release, and
//! the stochastic forward model producing accumulated detector data.
//!
//! Three acquisition modes are modelled, matching the companion papers'
//! comparisons:
//!
//! * **signal averaging** — one gate opening per IMS frame (duty cycle
//!   `1/N`); with the trap enabled the whole frame's beam is accumulated
//!   into a single huge packet, which the trap capacity clips and space
//!   charge broadens — exactly why SA cannot simply "catch up" to
//!   multiplexing by trapping longer;
//! * **classic multiplexed** — m-sequence gating, ~50 % duty cycle;
//! * **oversampled/modified multiplexed** — the PNNL enhancement: gating on
//!   a finer time base with an invertibility-restored sequence.
//!
//! The physics is cyclic and stationary, so the per-frame expectation is a
//! circular convolution of the *effective release kernel* with each
//! species' arrival distribution; the effective kernel differs from the
//! ideal design sequence through gate defects (rise time, depletion,
//! leakage) and gap-dependent trap release — the mismatch the weighted
//! deconvolution is designed to absorb.

use ims_physics::{DriftTofMap, Instrument, Workload};
use ims_prs::{MSequence, OversampledSequence};
use ims_signal::correlate::circular_convolve_fft;
use ims_signal::noise::{gaussian, poisson};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the ion gate is driven.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum GateSchedule {
    /// One opening per frame at bin 0 (the conventional experiment).
    SignalAveraging {
        /// Number of fine drift bins per frame.
        bins: usize,
    },
    /// Classic Hadamard multiplexing with an m-sequence.
    Multiplexed {
        /// The gating m-sequence.
        seq: MSequence,
    },
    /// Oversampled (optionally modified) multiplexing.
    Oversampled {
        /// The fine-time-base gating sequence.
        oseq: OversampledSequence,
    },
}

impl GateSchedule {
    /// Signal averaging over `bins` fine bins.
    pub fn signal_averaging(bins: usize) -> Self {
        GateSchedule::SignalAveraging { bins }
    }

    /// Classic multiplexing of the given PRS degree.
    pub fn multiplexed(degree: u32) -> Self {
        GateSchedule::Multiplexed {
            seq: MSequence::new(degree),
        }
    }

    /// Modified-oversampled multiplexing of a PRS degree and factor.
    pub fn oversampled(degree: u32, factor: usize) -> Self {
        GateSchedule::Oversampled {
            oseq: OversampledSequence::modified_default(MSequence::new(degree), factor),
        }
    }

    /// Fine-bin gate pattern (one period).
    pub fn bits(&self) -> Vec<bool> {
        match self {
            GateSchedule::SignalAveraging { bins } => {
                let mut b = vec![false; *bins];
                b[0] = true;
                b
            }
            GateSchedule::Multiplexed { seq } => seq.bits().to_vec(),
            GateSchedule::Oversampled { oseq } => oseq.bits().to_vec(),
        }
    }

    /// Number of fine bins per frame.
    pub fn len(&self) -> usize {
        match self {
            GateSchedule::SignalAveraging { bins } => *bins,
            GateSchedule::Multiplexed { seq } => seq.len(),
            GateSchedule::Oversampled { oseq } => oseq.len(),
        }
    }

    /// Never true (all schedules have at least 3 bins).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Short display name for reports.
    pub fn name(&self) -> String {
        match self {
            GateSchedule::SignalAveraging { .. } => "signal-averaging".into(),
            GateSchedule::Multiplexed { seq } => format!("multiplexed-n{}", seq.degree()),
            GateSchedule::Oversampled { oseq } => {
                format!("oversampled-n{}-m{}", oseq.base().degree(), oseq.factor())
            }
        }
    }

    /// The base m-sequence, when multiplexed.
    pub fn base_sequence(&self) -> Option<&MSequence> {
        match self {
            GateSchedule::SignalAveraging { .. } => None,
            GateSchedule::Multiplexed { seq } => Some(seq),
            GateSchedule::Oversampled { oseq } => Some(oseq.base()),
        }
    }

    /// Gate duty cycle.
    pub fn duty_cycle(&self) -> f64 {
        let bits = self.bits();
        bits.iter().filter(|&&b| b).count() as f64 / bits.len() as f64
    }
}

/// Options of an acquisition run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AcquireOptions {
    /// Accumulate the beam in the ion funnel trap between openings.
    pub use_trap: bool,
    /// Mean chemical-background counts per cell per frame.
    pub background_mean: f64,
}

impl Default for AcquireOptions {
    fn default() -> Self {
        Self {
            use_trap: true,
            background_mean: 0.02,
        }
    }
}

/// One acquired (accumulated) data block plus everything needed to process
/// and score it.
#[derive(Debug, Clone)]
pub struct AcquiredData {
    /// The design gate pattern.
    pub schedule_bits: Vec<bool>,
    /// Effective release kernel actually driving the data (gate transmission
    /// × relative trap-release weight), in units of "ideal continuous open
    /// bin" = 1.
    pub effective_kernel: Vec<f64>,
    /// ADC sums over all frames (drift-major).
    pub accumulated: DriftTofMap,
    /// Noise-free expectation of `accumulated` (oracle for tests).
    pub expected: DriftTofMap,
    /// The unconvolved per-frame truth: expected ions per (drift, m/z) cell
    /// for one ideal unit gate opening.
    pub truth: DriftTofMap,
    /// Frames (PRS cycles) accumulated.
    pub frames: u64,
    /// Fraction of source ions contributing to the data (duty-cycle ×
    /// trap efficiency).
    pub ion_utilization: f64,
    /// Largest released packet charge (drives space-charge broadening).
    pub packet_charges: f64,
    /// Mean single-ion ADC gain (for converting counts back to ions).
    pub adc_gain: f64,
}

/// Runs an acquisition: `frames` PRS cycles of the given schedule.
///
/// # Panics
/// Panics if the schedule length does not match `instrument.drift_bins`.
pub fn acquire(
    instrument: &Instrument,
    workload: &Workload,
    schedule: &GateSchedule,
    frames: u64,
    options: AcquireOptions,
    rng: &mut impl Rng,
) -> AcquiredData {
    let bits = schedule.bits();
    let l = bits.len();
    assert_eq!(
        l, instrument.drift_bins,
        "schedule length {l} != instrument drift bins {}",
        instrument.drift_bins
    );
    let bin_s = instrument.bin_width_s;
    let transmission = instrument.gate.transmission_waveform(&bits);
    let species = &workload.species;
    let rates = instrument.esi.ion_rates(species);
    let charge_rate: f64 = species
        .iter()
        .zip(&rates)
        .map(|(sp, &rate)| rate * sp.charge as f64)
        .sum();

    // Collected-time vector τ[k] (seconds of beam folded into fine bin k).
    let mut tau = vec![0.0f64; l];
    let mut packet_charges = 0.0f64;
    if options.use_trap {
        // Release at each opening's first bin; the trap has been filling
        // since the previous opening ended.
        let open_starts: Vec<usize> = (0..l)
            .filter(|&k| bits[k] && !bits[(k + l - 1) % l])
            .collect();
        for (idx, &k) in open_starts.iter().enumerate() {
            // Gap since the previous opening *ended* (cyclically).
            let prev_start = open_starts[(idx + open_starts.len() - 1) % open_starts.len()];
            // Walk forward from the previous start to its last open bin.
            let mut prev_end = prev_start;
            while bits[(prev_end + 1) % l] {
                prev_end = (prev_end + 1) % l;
            }
            let gap_bins = (k + l - ((prev_end + 1) % l)) % l;
            let gap_s = (gap_bins.max(1)) as f64 * bin_s;
            let stored = instrument.trap.stored_charge(charge_rate, gap_s);
            let released = instrument.trap.release_efficiency * stored;
            packet_charges = packet_charges.max(released);
            tau[k] += if charge_rate > 0.0 {
                released / charge_rate
            } else {
                0.0
            };
        }
        // While the gate is open the beam also flows straight through.
        for k in 0..l {
            if bits[k] {
                tau[k] += bin_s;
            }
        }
    } else {
        for k in 0..l {
            if bits[k] {
                tau[k] = bin_s;
            }
        }
        packet_charges = charge_rate * bin_s;
    }

    // Effective kernel: transmission × τ in units of one ideal open bin.
    // Leakage contributes the continuous beam through closed bins.
    let effective_kernel: Vec<f64> = (0..l)
        .map(|k| {
            if bits[k] {
                transmission[k] * tau[k] / bin_s
            } else {
                transmission[k] // leakage × continuous beam (τ = bin_s)
            }
        })
        .collect();

    // Per-frame expectation and truth.
    let mut expected = DriftTofMap::zeros(l, instrument.tof.n_bins);
    let mut truth = DriftTofMap::zeros(l, instrument.tof.n_bins);
    for (sp, &rate) in species.iter().zip(&rates) {
        if rate <= 0.0 {
            continue;
        }
        let arrival = instrument
            .tube
            .arrival_distribution(sp, packet_charges, l, bin_s);
        let mz_profile = instrument.tof.species_profile(sp);
        let mz_sparse: Vec<(usize, f64)> = mz_profile
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 1e-12)
            .map(|(i, &v)| (i, v))
            .collect();
        if mz_sparse.is_empty() {
            continue;
        }
        // Ions released from fine bin k per frame for this species.
        let release: Vec<f64> = effective_kernel.iter().map(|&h| h * rate * bin_s).collect();
        let drift_signal = circular_convolve_fft(&release, &arrival);
        expected.add_outer_sparse(&drift_signal, &mz_sparse, 1.0);
        truth.add_outer_sparse(&arrival, &mz_sparse, rate * bin_s);
    }

    let source_ions_per_frame: f64 = rates.iter().sum::<f64>() * l as f64 * bin_s;
    let ion_utilization = if source_ions_per_frame > 0.0 {
        expected.total() / source_ions_per_frame
    } else {
        0.0
    };

    // Stochastic sampling of the accumulated block.
    let adc = &instrument.adc;
    let frames_f = frames as f64;
    let mut accumulated = expected.clone();
    for v in accumulated.data_mut().iter_mut() {
        let mean_total = (*v + options.background_mean) * frames_f;
        let n = poisson(rng, mean_total.max(0.0)) as f64;
        // Summed MCP gain statistics + accumulated electronic noise.
        let amplitude = n * adc.gain
            + adc.gain * adc.gain_spread * n.sqrt() * gaussian(rng)
            + adc.noise_sigma * frames_f.sqrt() * gaussian(rng);
        *v = amplitude.clamp(0.0, adc.full_scale * frames_f);
    }

    AcquiredData {
        schedule_bits: bits,
        effective_kernel,
        accumulated,
        expected,
        truth,
        frames,
        ion_utilization,
        packet_charges,
        adc_gain: adc.gain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_instrument(bins: usize) -> Instrument {
        let mut inst = Instrument::with_drift_bins(bins);
        inst.tof.n_bins = 200;
        inst
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1234)
    }

    #[test]
    fn schedule_shapes() {
        assert_eq!(GateSchedule::signal_averaging(127).len(), 127);
        assert_eq!(GateSchedule::multiplexed(7).len(), 127);
        let o = GateSchedule::oversampled(5, 3);
        assert_eq!(o.len(), 93);
        assert!(o.duty_cycle() > 0.45);
        assert!((GateSchedule::signal_averaging(127).duty_cycle() - 1.0 / 127.0).abs() < 1e-12);
    }

    #[test]
    fn multiplexed_collects_more_ions_than_sa_continuous() {
        let inst = small_instrument(127);
        let w = Workload::three_peptide_mix();
        let opts = AcquireOptions {
            use_trap: false,
            background_mean: 0.0,
        };
        let mut r = rng();
        let sa = acquire(
            &inst,
            &w,
            &GateSchedule::signal_averaging(127),
            10,
            opts,
            &mut r,
        );
        let mp = acquire(&inst, &w, &GateSchedule::multiplexed(7), 10, opts, &mut r);
        // ~64/1 opening ratio, less gate rise-time losses.
        let gain = mp.expected.total() / sa.expected.total();
        assert!(gain > 30.0, "ion gain {gain}");
        assert!(
            mp.ion_utilization > 0.2,
            "MP utilization {}",
            mp.ion_utilization
        );
        assert!(
            sa.ion_utilization < 0.02,
            "SA utilization {}",
            sa.ion_utilization
        );
    }

    #[test]
    fn trap_raises_utilization_beyond_duty_cycle() {
        let inst = small_instrument(127);
        let w = Workload::three_peptide_mix();
        let mut r = rng();
        let mp_trap = acquire(
            &inst,
            &w,
            &GateSchedule::multiplexed(7),
            5,
            AcquireOptions {
                use_trap: true,
                background_mean: 0.0,
            },
            &mut r,
        );
        // Trap + multiplexing: well above the ~50 % continuous duty cycle
        // (Clowers 2008 / Belov 2008).
        assert!(
            mp_trap.ion_utilization > 0.5,
            "utilization {}",
            mp_trap.ion_utilization
        );
    }

    #[test]
    fn sa_with_trap_builds_huge_space_charge_packets() {
        let inst = small_instrument(127);
        let w = Workload::three_peptide_mix();
        let mut r = rng();
        let opts = AcquireOptions {
            use_trap: true,
            background_mean: 0.0,
        };
        let sa = acquire(
            &inst,
            &w,
            &GateSchedule::signal_averaging(127),
            5,
            opts,
            &mut r,
        );
        let mp = acquire(&inst, &w, &GateSchedule::multiplexed(7), 5, opts, &mut r);
        // SA packs the whole frame into one packet; MP spreads it over ~64.
        assert!(
            sa.packet_charges > 10.0 * mp.packet_charges,
            "SA {} vs MP {}",
            sa.packet_charges,
            mp.packet_charges
        );
        // And the SA packet is near/above the Coulombic threshold.
        assert!(sa.packet_charges > 1e4);
    }

    #[test]
    fn expected_matches_circulant_model() {
        // With an ideal gate and no trap, the expected drift profile must be
        // exactly the circular convolution of the design bits with truth.
        let mut inst = small_instrument(31);
        inst.gate = ims_physics::gate::GateModel::ideal();
        let w = Workload::single_calibrant();
        let mut r = rng();
        let data = acquire(
            &inst,
            &w,
            &GateSchedule::multiplexed(5),
            1,
            AcquireOptions {
                use_trap: false,
                background_mean: 0.0,
            },
            &mut r,
        );
        let bits_f: Vec<f64> = data
            .schedule_bits
            .iter()
            .map(|&b| if b { 1.0 } else { 0.0 })
            .collect();
        let truth_profile = data.truth.total_ion_drift_profile();
        let expect_profile = data.expected.total_ion_drift_profile();
        let conv = circular_convolve_fft(&bits_f, &truth_profile);
        for (i, (a, b)) in conv.iter().zip(expect_profile.iter()).enumerate() {
            assert!((a - b).abs() < 1e-6 * conv.iter().sum::<f64>(), "bin {i}");
        }
    }

    #[test]
    fn sampling_is_unbiased() {
        let inst = small_instrument(31);
        let w = Workload::single_calibrant();
        let mut r = rng();
        let opts = AcquireOptions {
            use_trap: false,
            background_mean: 0.0,
        };
        let data = acquire(&inst, &w, &GateSchedule::multiplexed(5), 200, opts, &mut r);
        let measured = data.accumulated.total();
        let predicted = data.expected.total() * data.frames as f64 * data.adc_gain;
        assert!(
            (measured - predicted).abs() / predicted < 0.1,
            "measured {measured} vs predicted {predicted}"
        );
    }

    #[test]
    fn effective_kernel_reflects_gate_defects() {
        let mut inst = small_instrument(31);
        inst.gate = ims_physics::gate::GateModel::with_defect_level(0.3);
        let w = Workload::single_calibrant();
        let mut r = rng();
        let data = acquire(
            &inst,
            &w,
            &GateSchedule::multiplexed(5),
            1,
            AcquireOptions {
                use_trap: false,
                background_mean: 0.0,
            },
            &mut r,
        );
        // Kernel deviates from the design bits.
        let mismatch: f64 = data
            .schedule_bits
            .iter()
            .zip(data.effective_kernel.iter())
            .map(|(&b, &h)| (h - if b { 1.0 } else { 0.0 }).abs())
            .sum();
        assert!(mismatch > 0.5, "mismatch {mismatch}");
    }

    #[test]
    #[should_panic(expected = "schedule length")]
    fn shape_mismatch_panics() {
        let inst = small_instrument(127);
        let w = Workload::single_calibrant();
        let mut r = rng();
        let _ = acquire(
            &inst,
            &w,
            &GateSchedule::multiplexed(5),
            1,
            AcquireOptions::default(),
            &mut r,
        );
    }
}
