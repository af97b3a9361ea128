//! The hybrid pipeline of the paper: a producer thread streams raw frames
//! over a simulated RapidArray link into the FPGA model (capture →
//! accumulate → integer Hadamard deconvolution), then verifies the result
//! bit-for-bit against the single-threaded software reference and prints
//! the cycle/feasibility report.
//!
//! ```text
//! cargo run --release --example fpga_pipeline
//! ```

use htims::core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims::core::hybrid::{reference_block, FrameGenerator};
use htims::core::pipeline::DeconvBackend;
use htims::fpga::deconv::DeconvConfig;
use htims::fpga::{AccumulatorCore, DmaLink, FpgaDevice, MzBinner, ResourceReport};
use htims::graph::GraphSpec;
use htims::physics::{Instrument, Workload};
use htims::prs::MSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    let degree = 8u32;
    let n = (1usize << degree) - 1;
    let mz_bins = 100; // what fits on the XD1 FPGA (see experiment E4)

    let mut instrument = Instrument::with_drift_bins(n);
    instrument.tof.n_bins = mz_bins;
    let workload = Workload::three_peptide_mix();
    let schedule = GateSchedule::multiplexed(degree);

    // The expectation drives the deterministic frame generator.
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let data = acquire(
        &instrument,
        &workload,
        &schedule,
        1,
        AcquireOptions::default(),
        &mut rng,
    );
    let generator = FrameGenerator::new(&data, &instrument.adc, 2007);
    let seq = MSequence::new(degree);

    let spec = GraphSpec {
        degree,
        mz: mz_bins,
        frames: 64,
        blocks: 1,
        ..GraphSpec::small()
    };
    let deconv = DeconvConfig::default();

    println!(
        "streaming {} frames of {} bytes through the hybrid pipeline…",
        spec.frames,
        generator.frame_bytes()
    );
    let hybrid = spec
        .pipeline(&generator, &seq, DeconvBackend::fpga(&seq, deconv))
        .run_scheduled();
    let reference = reference_block(&generator, &seq, 0, spec.frames, None, deconv);

    assert_eq!(
        hybrid.blocks[0].data, reference,
        "FPGA component must match the software component bit-for-bit"
    );
    println!(
        "FPGA output == software reference: bit-exact over {} words ✓",
        reference.len()
    );
    let report = &hybrid.report;
    println!(
        "capture cycles: {}, deconvolution cycles: {}, simulated link time: {:.2} ms, wall: {:.0} ms",
        report.capture_cycles,
        report.deconv_cycles,
        report.simulated_link_seconds * 1e3,
        report.wall_seconds * 1e3
    );

    // Binned mode: full-resolution frames folded 100→20 on chip, still
    // bit-exact against the binned software reference.
    let binned = GraphSpec {
        coarse: Some(20),
        ..spec.clone()
    }
    .pipeline(&generator, &seq, DeconvBackend::fpga(&seq, deconv))
    .run_scheduled();
    let binner = MzBinner::uniform(mz_bins, 20);
    let binned_ref = reference_block(&generator, &seq, 0, spec.frames, Some(&binner), deconv);
    assert_eq!(binned.blocks[0].data, binned_ref);
    println!(
        "binned mode ({mz_bins}→20 on chip): bit-exact over {} words ✓",
        binned_ref.len()
    );

    // Would this design fit and keep up on the Cray XD1's FPGA?
    let acc = AccumulatorCore::new(n, mz_bins, 32);
    let core = htims::fpga::DeconvCore::new(&seq, deconv);
    let report = ResourceReport::evaluate(
        &FpgaDevice::xc2vp50(),
        &acc,
        &core,
        &DmaLink::rapidarray(),
        spec.frames,
        instrument.frame_duration_s(),
    );
    println!(
        "XC2VP50 feasibility: BRAM {}/{}, DSP {}/{}, fits={}, real-time margin {:.0}x, viable={}",
        report.bram_used,
        report.bram_available,
        report.dsp_used,
        report.dsp_available,
        report.fits,
        report.realtime_margin,
        report.viable()
    );
}
