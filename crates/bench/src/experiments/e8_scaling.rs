//! E8 — CPU software scaling with threads (table).
//!
//! The stand-in for the XD1's multi-Opteron software component: panels of
//! adjacent m/z columns are embarrassingly parallel (each worker runs the
//! row-vectorized panel kernel with its own scratch arena), so
//! deconvolution should scale nearly linearly until the memory system
//! saturates.
//!
//! Each row runs the unified pipeline graph with the scheduler-parallel
//! software backend pinned to a thread count; the per-block time is the deconvolve
//! stage's busy time from the instrumented `PipelineReport` (frame
//! generation and capture are metered separately, so they do not pollute
//! the scaling numbers).

use super::common;
use crate::table::{f, Table};
use htims_core::acquisition::GateSchedule;
use htims_core::graph::GraphSpec;
use htims_core::hybrid::FrameGenerator;
use htims_core::pipeline::DeconvBackend;
use ims_fpga::deconv::DeconvConfig;
use ims_physics::Workload;
use ims_prs::MSequence;

/// Runs E8.
pub fn run(quick: bool) -> Table {
    let degree = 9;
    let n = (1usize << degree) - 1;
    let mz_bins = if quick { 300 } else { 2000 };
    let frames = 5u64;
    let repeats = if quick { 1 } else { 3 };

    let inst = common::instrument(n, mz_bins, 0.1);
    let workload = Workload::three_peptide_mix();
    let schedule = GateSchedule::multiplexed(degree);
    let data = common::acquire_with(&inst, &workload, &schedule, frames, true, 0.02, 800);
    let seq = MSequence::new(degree);
    let gen = FrameGenerator::new(&data, &inst.adc, 800);
    let spec = GraphSpec {
        frames,
        blocks: 1,
        ..GraphSpec::e3()
    };

    let max_threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    // Always sweep 1..4 so the harness demonstrates scaling even on small
    // machines (oversubscribed rows are flagged by the efficiency column).
    let mut counts = vec![1usize, 2, 4];
    let mut t = 8;
    while t <= max_threads {
        counts.push(t);
        t *= 2;
    }
    if quick {
        counts.truncate(2);
    }

    let mut table = Table::new(
        "E8",
        "Software deconvolution scaling (fixed-point panel kernel, 511 x m/z block)",
        &["threads", "time (ms)", "speedup", "efficiency"],
    );
    table.note(format!(
        "block = {n} x {mz_bins}; machine has {max_threads} hardware threads; \
         rows run the unified pipeline graph with the scheduled backend"
    ));

    let mut t1 = None;
    for &threads in &counts {
        // Best of `repeats` to tame scheduler noise.
        let secs = (0..repeats)
            .map(|_| {
                let backend = DeconvBackend::software(&seq, DeconvConfig::default(), threads);
                spec.pipeline(&gen, &seq, backend)
                    .run_scheduled()
                    .report
                    .stage("deconvolve")
                    .expect("deconvolve stage")
                    .busy_seconds
            })
            .fold(f64::INFINITY, f64::min);
        let base = *t1.get_or_insert(secs);
        let speedup = base / secs;
        table.row(vec![
            threads.to_string(),
            f(secs * 1e3),
            f(speedup),
            f(speedup / threads as f64),
        ]);
    }
    table.note("shape target: near-linear speedup at low counts, tapering at memory bandwidth");
    table
}
