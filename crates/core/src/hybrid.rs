//! The hybrid pipeline's frame source and its reference oracle.
//!
//! The paper's architecture: a CPU producer streams raw frames over a
//! (simulated) DMA link to the FPGA model, which captures, accumulates, and
//! deconvolves; a collector receives the results — "the software portion
//! is in charge of streaming data to the FPGA and collecting results". The
//! graph itself is described by [`GraphSpec`](crate::graph::GraphSpec) and
//! assembled by [`GraphSpec::pipeline`](crate::graph::GraphSpec::pipeline).
//!
//! The crucial correctness property — the FPGA component computes *exactly*
//! what the software reference computes — is checkable because the whole
//! datapath is integer/fixed-point and every frame is reproducible from
//! `(seed, frame_no)`. This module holds the two ends of that check: the
//! deterministic [`FrameGenerator`] every run draws from, and
//! [`reference_block`], an independent oracle that folds and deconvolves
//! frames directly, without the stage graph or an executor.

use crate::acquisition::AcquiredData;
use ims_fpga::deconv::{DeconvConfig, DeconvCore};
use ims_fpga::{AccumulatorCore, MzBinner};
use ims_prs::MSequence;
use ims_signal::noise::{gaussian, gaussian_uniforms, poisson, rounded_gaussians};
use ims_signal::simd::{self, Backend};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Deterministic per-frame raw-data generator (the instrument's digitiser
/// output, frame by frame).
#[derive(Debug, Clone)]
pub struct FrameGenerator {
    expected_per_frame: Vec<f64>,
    drift_bins: usize,
    mz_bins: usize,
    gain: f64,
    gain_spread: f64,
    noise_sigma: f64,
    full_scale: f64,
    seed: u64,
}

impl FrameGenerator {
    /// Builds a generator from an acquisition's noise-free per-frame
    /// expectation (see [`AcquiredData::expected`]) and the instrument's
    /// ADC parameters.
    pub fn new(data: &AcquiredData, adc: &ims_physics::detector::AdcDetector, seed: u64) -> Self {
        Self {
            expected_per_frame: data.expected.data().to_vec(),
            drift_bins: data.expected.drift_bins(),
            mz_bins: data.expected.mz_bins(),
            gain: adc.gain,
            gain_spread: adc.gain_spread,
            noise_sigma: adc.noise_sigma,
            full_scale: adc.full_scale,
            seed,
        }
    }

    /// Number of drift bins per frame.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Number of m/z bins per frame.
    pub fn mz_bins(&self) -> usize {
        self.mz_bins
    }

    /// Frame payload size, bytes.
    pub fn frame_bytes(&self) -> usize {
        self.drift_bins * self.mz_bins * 4
    }

    /// Generates frame `frame_no` — bit-reproducible for a given generator.
    pub fn frame(&self, frame_no: u64) -> Vec<u32> {
        self.frame_on(simd::active(), frame_no)
    }

    /// [`frame`](Self::frame) with the noise kernel on an explicit SIMD
    /// backend; every available backend yields the same frame. Panics
    /// when `be` is not available on this CPU.
    ///
    /// Cells are walked in order and every draw is taken in the order a
    /// per-cell loop takes it: a Poisson count (a cell with mean 0, about
    /// 97% of an E3 frame, draws nothing and counts 0), then a shot-noise
    /// and an electronic-noise deviate. With a count of 0 the signal terms
    /// are `0·gain` and `gain·spread·√0·g`, both ±0 when `gain·spread` is
    /// finite (the deviate always is), and adding ±0 moves no bit of the
    /// rounded sample. So such a cell draws its shot-noise pair and drops
    /// it, and its electronic-noise pair joins a batch of up to 64 cells
    /// that [`rounded_gaussians`] turns into samples at once. Every other
    /// cell is sampled on the spot.
    pub fn frame_on(&self, be: Backend, frame_no: u64) -> Vec<u32> {
        let mut rng =
            ChaCha8Rng::seed_from_u64(self.seed ^ frame_no.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let batchable = (self.gain * self.gain_spread).is_finite();
        let mut out = vec![0u32; self.expected_per_frame.len()];
        let mut batch = Batch::default();
        for (i, &mean) in self.expected_per_frame.iter().enumerate() {
            let n = poisson(&mut rng, mean.max(0.0)) as f64;
            if n == 0.0 && batchable {
                gaussian_uniforms(&mut rng);
                let (u1, u2) = gaussian_uniforms(&mut rng);
                if batch.push(i, u1, u2) {
                    batch.flush(be, self.noise_sigma, self.full_scale, &mut out);
                }
            } else {
                let amp = n * self.gain
                    + self.gain * self.gain_spread * n.sqrt() * gaussian(&mut rng)
                    + self.noise_sigma * gaussian(&mut rng);
                out[i] = amp.clamp(0.0, self.full_scale).round() as u32;
            }
        }
        batch.flush(be, self.noise_sigma, self.full_scale, &mut out);
        out
    }
}

/// Zero-count cells per noise-kernel call. Batches fill across runs of
/// other cells, so a short zero run costs a push, not a kernel call.
const BATCH: usize = 64;

/// Zero-count cells of one frame waiting for the noise kernel: their
/// indices and electronic-noise uniform pairs.
struct Batch {
    cells: [usize; BATCH],
    u1: [f64; BATCH],
    u2: [f64; BATCH],
    samples: [u32; BATCH],
    len: usize,
}

impl Default for Batch {
    fn default() -> Self {
        Self {
            cells: [0; BATCH],
            u1: [0.0; BATCH],
            u2: [0.0; BATCH],
            samples: [0; BATCH],
            len: 0,
        }
    }
}

impl Batch {
    /// Queues cell `cell`; returns whether the batch is now full.
    #[inline(always)]
    fn push(&mut self, cell: usize, u1: f64, u2: f64) -> bool {
        self.cells[self.len] = cell;
        self.u1[self.len] = u1;
        self.u2[self.len] = u2;
        self.len += 1;
        self.len == BATCH
    }

    /// Samples every queued cell into `frame` and empties the batch.
    fn flush(&mut self, be: Backend, sigma: f64, full_scale: f64, frame: &mut [u32]) {
        let n = self.len;
        rounded_gaussians(
            be,
            &self.u1[..n],
            &self.u2[..n],
            sigma,
            full_scale,
            &mut self.samples[..n],
        );
        for (&cell, &sample) in self.cells[..n].iter().zip(&self.samples[..n]) {
            frame[cell] = sample;
        }
        self.len = 0;
    }
}

/// The reference oracle for one block: frames `start..start + frames` of
/// `gen`, optionally binned by `binner`, folded on a 32-bit accumulator and
/// deconvolved by the FWHT core under `cfg` — hand-wired, on the calling
/// thread. Every stage graph, backend and executor must agree with it bit
/// for bit.
pub fn reference_block(
    gen: &FrameGenerator,
    seq: &MSequence,
    start: u64,
    frames: u64,
    binner: Option<&MzBinner>,
    cfg: DeconvConfig,
) -> Vec<i64> {
    let n = gen.drift_bins();
    let mut binner = binner.cloned();
    let mz = binner.as_ref().map_or(gen.mz_bins(), MzBinner::coarse_bins);
    let mut acc = AccumulatorCore::new(n, mz, 32);
    for f in start..start + frames {
        let mut frame = gen.frame(f);
        if let Some(b) = &mut binner {
            frame = b.bin_frame(&frame, n);
        }
        acc.capture_frame(&frame)
            .expect("reference frame matches the accumulator shape");
    }
    DeconvCore::new(seq, cfg).deconvolve_block(&acc.drain(), mz)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::{acquire, AcquireOptions, GateSchedule};
    use crate::graph::GraphSpec;
    use crate::pipeline::DeconvBackend;
    use ims_physics::{Instrument, Workload};

    fn generator(degree: u32, mz_bins: usize) -> (FrameGenerator, MSequence) {
        let bins = (1usize << degree) - 1;
        let mut inst = Instrument::with_drift_bins(bins);
        inst.tof.n_bins = mz_bins;
        let w = Workload::single_calibrant();
        let schedule = GateSchedule::multiplexed(degree);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let data = acquire(&inst, &w, &schedule, 1, AcquireOptions::default(), &mut rng);
        let seq = match schedule {
            GateSchedule::Multiplexed { seq } => seq,
            _ => unreachable!(),
        };
        (FrameGenerator::new(&data, &inst.adc, 99), seq)
    }

    fn spec(frames: u64, blocks: usize, coarse: Option<usize>) -> GraphSpec {
        GraphSpec {
            frames,
            blocks,
            coarse,
            ..GraphSpec::small()
        }
    }

    #[test]
    fn frames_are_reproducible() {
        let (gen, _) = generator(5, 40);
        assert_eq!(gen.frame(3), gen.frame(3));
        assert_ne!(gen.frame(3), gen.frame(4));
    }

    #[test]
    fn graph_blocks_match_the_reference_for_every_backend() {
        let (gen, seq) = generator(6, 48);
        let cfg = DeconvConfig::default();
        for coarse in [None, Some(8)] {
            let binner = coarse.map(|c| MzBinner::uniform(48, c));
            for backend in [
                DeconvBackend::fpga(&seq, cfg),
                DeconvBackend::naive(&seq, cfg),
                DeconvBackend::software(&seq, cfg, 3),
            ] {
                let name = backend.name();
                let out = spec(5, 3, coarse)
                    .pipeline(&gen, &seq, backend)
                    .run_scheduled();
                assert_eq!(out.blocks.len(), 3);
                for (b, block) in out.blocks.iter().enumerate() {
                    let reference =
                        reference_block(&gen, &seq, b as u64 * 5, 5, binner.as_ref(), cfg);
                    assert_eq!(block.data.len(), seq.len() * coarse.unwrap_or(48));
                    assert_eq!(block.data, reference, "{name} block {b} diverged");
                }
                // Different frames ⇒ different blocks (noise differs per frame).
                assert_ne!(out.blocks[0].data, out.blocks[1].data);
            }
        }
    }

    #[test]
    fn graph_report_exposes_stage_metrics() {
        let (gen, seq) = generator(5, 30);
        let cfg = DeconvConfig::default();
        let run = |backend, coarse| {
            spec(10, 1, coarse)
                .pipeline(&gen, &seq, backend)
                .run_scheduled()
                .report
        };
        let r = run(DeconvBackend::fpga(&seq, cfg), None);
        assert_eq!(r.executor, "scheduled");
        assert_eq!(r.backend, "fpga-fwht");
        assert_eq!(r.frames, 10);
        assert_eq!(r.blocks, 1);
        assert_eq!(r.frames_per_block, 10);
        assert!(r.capture_cycles > 0 && r.deconv_cycles > 0);
        assert!(r.simulated_link_seconds > 0.0);
        let names: Vec<&str> = r.stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["source", "link", "accumulate", "deconvolve"]);
        assert_eq!(r.stage("source").unwrap().items_out, 10);
        assert_eq!(r.stage("link").unwrap().items_in, 10);
        assert_eq!(r.stage("accumulate").unwrap().items_out, 1);
        assert_eq!(r.stage("deconvolve").unwrap().items_out, 1);
        // The report is the JSON surface of the htims subcommand.
        assert!(serde_json::to_string(&r)
            .unwrap()
            .contains("queue_high_water"));
        // The backends model different engines, so cycle counts differ
        // (the naive MAC array is the slow baseline).
        let naive = run(DeconvBackend::naive(&seq, cfg), None);
        assert_eq!(naive.backend, "naive-mac");
        assert!(naive.deconv_cycles > r.deconv_cycles);
        let binned = run(DeconvBackend::fpga(&seq, cfg), Some(6));
        assert!(binned.binner_cycles > 0);
    }

    #[test]
    fn deconvolved_block_recovers_calibrant_peak() {
        let (gen, seq) = generator(7, 60);
        let backend = DeconvBackend::fpga(&seq, DeconvConfig::default());
        let out = spec(64, 1, None)
            .pipeline(&gen, &seq, backend)
            .run_scheduled();
        let block = &out.blocks[0].data;
        // Collapse to a drift profile and locate the apex.
        let n = seq.len();
        let mz = gen.mz_bins();
        let profile: Vec<f64> = (0..n)
            .map(|d| block[d * mz..(d + 1) * mz].iter().map(|&v| v as f64).sum())
            .collect();
        let (apex, peak) = ims_signal::stats::argmax(&profile).unwrap();
        assert!(peak > 0.0);
        // The calibrant must land within the drift window interior.
        assert!(apex > 5 && apex < n - 5, "apex {apex}");
    }
}
