//! Property tests of the pipeline executors: output must be invariant to
//! channel depth (back-pressure intensity), executor choice (inline vs
//! work-stealing scheduled), and deconvolution backend (all backends are
//! bit-exact equals).

use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::graph::GraphSpec;
use htims_core::hybrid::{reference_block, FrameGenerator};
use htims_core::pipeline::{output_fingerprint, DeconvBackend};
use ims_fpga::deconv::DeconvConfig;
use ims_fpga::MzBinner;
use ims_prs::MSequence;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

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

fn backend(idx: usize, seq: &MSequence) -> DeconvBackend {
    let cfg = DeconvConfig::default();
    match idx {
        0 => DeconvBackend::fpga(seq, cfg),
        1 => DeconvBackend::naive(seq, cfg),
        _ => DeconvBackend::software(seq, cfg, 2),
    }
}

fn spec(frames: u64, blocks: usize, depth_idx: usize, coarse: Option<usize>) -> GraphSpec {
    GraphSpec {
        frames,
        blocks,
        depth: [1usize, 2, 8][depth_idx],
        coarse,
        ..GraphSpec::small()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn output_invariant_to_depth_backend_and_executor(
        depth_idx in 0usize..3,
        backend_idx in 0usize..3,
        frames in 1u64..8,
        n_blocks in 1usize..4,
    ) {
        let (gen, seq) = generator(5, 18);
        // Scheduled executor, varying depth and backend…
        let out = spec(frames, n_blocks, depth_idx, None)
            .pipeline(&gen, &seq, backend(backend_idx, &seq))
            .run_scheduled();
        prop_assert_eq!(out.blocks.len(), n_blocks);
        // …must match the hand-wired FPGA-core reference block for block.
        for (b, block) in out.blocks.iter().enumerate() {
            let reference = reference_block(
                &gen, &seq, b as u64 * frames, frames, None, DeconvConfig::default());
            prop_assert_eq!(&block.data, &reference);
        }
    }

    #[test]
    fn binned_output_invariant_to_depth_and_backend(
        depth_idx in 0usize..3,
        backend_idx in 0usize..3,
        frames in 1u64..6,
    ) {
        let (gen, seq) = generator(5, 24);
        let binner = MzBinner::uniform(24, 6);
        let out = spec(frames, 2, depth_idx, Some(6))
            .pipeline(&gen, &seq, backend(backend_idx, &seq))
            .run_scheduled();
        prop_assert_eq!(out.blocks.len(), 2);
        for (b, block) in out.blocks.iter().enumerate() {
            let reference = reference_block(
                &gen, &seq, b as u64 * frames, frames, Some(&binner), DeconvConfig::default());
            prop_assert_eq!(&block.data, &reference);
        }
    }

    #[test]
    fn output_invariant_across_inline_and_scheduled(
        depth_idx in 0usize..3,
        backend_idx in 0usize..3,
        frames in 1u64..8,
        n_blocks in 1usize..4,
    ) {
        let (gen, seq) = generator(5, 18);
        let build = || spec(frames, n_blocks, depth_idx, None)
            .pipeline(&gen, &seq, backend(backend_idx, &seq));
        // The same graph under both executors: the single-thread reference
        // and the work-stealing runtime must produce bit-identical block
        // streams.
        let inline = build().run_inline();
        let scheduled = build().run_scheduled();
        prop_assert_eq!(inline.blocks.len(), n_blocks);
        prop_assert_eq!(
            output_fingerprint(&scheduled.blocks),
            output_fingerprint(&inline.blocks)
        );
        // Report tags still distinguish the entry points.
        prop_assert_eq!(inline.report.executor.as_str(), "inline");
        prop_assert_eq!(scheduled.report.executor.as_str(), "scheduled");
    }
}
