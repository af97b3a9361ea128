//! The traced run: the benchmark drives each layer's public function
//! itself, one call after another on one thread, and records a span around
//! every call. Each layer's output is collected before the next layer
//! runs, so no span nests inside another and a layer's self time is its
//! spans' summed duration.
//!
//! The spans must account for the traced wall time within
//! [`RECONCILE_TOLERANCE`]; the traced output must match the same
//! reference FNV as the untraced operations.

use crate::stats;
use crate::workload::{self, Gate, Kind, Setup, Workload};
use htims::core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims::core::capture::CaptureLog;
use htims::core::hybrid::FrameGenerator;
use htims::core::pipeline::{
    output_fingerprint, AccumulateStage, BinnerStage, DeconvBackend, DeconvolveStage,
    DeconvolvedBlock, LinkStage, Message, PipelineReport, RunOutcome, Stage,
};
use htims::fpga::dma::FramePacket;
use htims::fpga::{AccumulatorCore, DeconvConfig, DeconvCore, DmaLink, MzBinner};
use htims::graph::GraphSpec;
use htims::physics::{workload::Workload as Sample, Instrument};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Largest allowed gap between the layers' summed self time and the
/// traced wall time, as a share of the wall time.
pub const RECONCILE_TOLERANCE: f64 = 0.10;

/// Every per-layer metric: name, unit, and the end-to-end metric and
/// workload it is expected to move.
pub const LAYER_METRICS: [(&str, &str, &str); 26] = [
    ("acquisition.ms", "ms", "setup_s on every workload"),
    (
        "generator.ms_per_frame",
        "ms/frame",
        "frames_per_s on e3_live; session_ms_* on tenants_small",
    ),
    (
        "generator.ns_per_cell",
        "ns/cell",
        "frames_per_s on e3_live; session_ms_* on tenants_small",
    ),
    (
        "dma.pack_ms_per_frame",
        "ms/frame",
        "frames_per_s on e3_live and e3_replay",
    ),
    (
        "dma.mb_per_frame",
        "MB/frame",
        "frames_per_s on e3_live and e3_replay",
    ),
    (
        "link.us_per_frame",
        "us/frame",
        "none expected (under 0.1% of wall)",
    ),
    (
        "link.simulated_ms_per_frame",
        "ms/frame",
        "none expected (modelled link time)",
    ),
    (
        "binner.us_per_frame",
        "us/frame",
        "session_ms_* on tenants_small",
    ),
    (
        "accumulate.fold_ms_per_frame",
        "ms/frame",
        "frames_per_s on e3_replay",
    ),
    (
        "accumulate.close_ms_per_block",
        "ms/block",
        "frames_per_s on e3_replay",
    ),
    (
        "accumulate.cycles_per_frame",
        "cycles/frame",
        "frames_per_s on e3_replay",
    ),
    (
        "deconvolve.ms_per_block",
        "ms/block",
        "frames_per_s on e3_replay (about 1% on e3_live)",
    ),
    (
        "deconvolve.mcells_per_s",
        "Mcells/s",
        "frames_per_s on e3_replay",
    ),
    (
        "deconvolve.cycles_per_block",
        "cycles/block",
        "frames_per_s on e3_replay",
    ),
    (
        "capture.append_ms_per_frame",
        "ms/frame",
        "none gated (set-up write of e3_replay)",
    ),
    (
        "capture.finish_ms",
        "ms",
        "none gated (set-up write of e3_replay)",
    ),
    (
        "capture.read_ms_per_frame",
        "ms/frame",
        "frames_per_s and peak_rss_mb on e3_replay",
    ),
    (
        "capture.read_mb",
        "MB",
        "frames_per_s and peak_rss_mb on e3_replay",
    ),
    (
        "sched.executed_per_frame",
        "tasks/frame",
        "session_ms (p50, reported p90) on tenants_small; frames_per_s on e3_live",
    ),
    (
        "sched.steals_per_frame",
        "steals/frame",
        "session_ms (p50, reported p90) on tenants_small; frames_per_s on e3_live",
    ),
    (
        "sched.parks_per_frame",
        "parks/frame",
        "session_ms (p50, reported p90) on tenants_small; frames_per_s on e3_live",
    ),
    (
        "sched.wakes_per_frame",
        "wakes/frame",
        "session_ms (p50, reported p90) on tenants_small; frames_per_s on e3_live",
    ),
    ("session.admit_us", "us", "session_ms_p50 on tenants_small"),
    (
        "trace.layer_sum_frac",
        "frac",
        "reconciliation: layer self times over traced wall",
    ),
    (
        "trace.unaccounted_frac",
        "frac",
        "reconciliation: traced wall no layer span covers",
    ),
    (
        "trace.overhead_frac",
        "frac",
        "tracing cost: traced wall against an untraced inline run",
    ),
];

/// In-memory span log of one traced run.
struct Tracer {
    origin: Instant,
    /// `(layer, start ns, end ns)` since `origin`.
    spans: Vec<(&'static str, u64, u64)>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push((layer, start, end));
        out
    }

    /// Summed self time (ns) and call count per layer.
    fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for &(layer, start, end) in &self.spans {
            let e = out.entry(layer).or_insert((0, 0));
            e.0 += end - start;
            e.1 += 1;
        }
        out
    }
}

/// The stages of one graph, built by hand from the same spec
/// `GraphSpec::build` reads, so the traced run calls the layers directly.
struct Chain {
    gen: FrameGenerator,
    link: LinkStage,
    binner: Option<BinnerStage>,
    acc: AccumulateStage,
    deconv: DeconvolveStage,
}

/// Builds the layer chain for `spec`, timing the acquisition into
/// `acquisition_ns`: it is set-up, outside the reconciled window.
fn chain(spec: &GraphSpec, acquisition_ns: &mut Vec<u64>) -> Result<Chain, String> {
    let n = spec.drift_bins();
    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = spec.mz;
    let schedule = GateSchedule::multiplexed(spec.degree);
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let t0 = Instant::now();
    let data = acquire(
        &inst,
        &Sample::three_peptide_mix(),
        &schedule,
        1,
        AcquireOptions::default(),
        &mut rng,
    );
    acquisition_ns.push(t0.elapsed().as_nanos() as u64);
    let GateSchedule::Multiplexed { seq } = schedule else {
        return Err("multiplexed schedule expected".into());
    };
    // The frame-stream seed offset GraphSpec uses (seed 7 → 1234).
    let gen = FrameGenerator::new(&data, &inst.adc, spec.seed.wrapping_add(1227));
    let binner = spec.coarse.map(|c| MzBinner::uniform(spec.mz, c));
    let acc_mz = spec.coarse.unwrap_or(spec.mz);
    let cfg = DeconvConfig::default();
    let backend = DeconvBackend::from_name(&spec.backend, &seq, cfg, spec.threads)
        .ok_or_else(|| format!("unknown backend {}", spec.backend))?;
    Ok(Chain {
        gen,
        link: LinkStage::new(DmaLink::rapidarray()),
        binner: binner.clone().map(|b| BinnerStage::new(b, n)),
        acc: AccumulateStage::new(
            AccumulatorCore::new(n, acc_mz, 32),
            spec.frames.max(1),
            false,
        )
        .with_shards(spec.shards.max(1))
        .with_rebuild_binner(binner, n),
        deconv: DeconvolveStage::new(backend, acc_mz).with_fallback(DeconvCore::new(&seq, cfg)),
    })
}

/// Counts gathered while driving the layers.
#[derive(Default)]
struct Tally {
    frames: u64,
    cells_per_frame: u64,
    packed_bytes: u64,
    blocks: u64,
    deconv_cells: u64,
    read_bytes: u64,
    reads: u64,
    /// Stage counters folded in by `Stage::finalize`, summed over runs.
    simulated_link_s: f64,
    capture_cycles: u64,
    deconv_cycles: u64,
    /// `(traced wall s, untraced inline wall s)` per operation.
    walls: Vec<(f64, f64)>,
}

/// Drives one operation through the layers under `tr`. `replay` holds the
/// capture log to read frames from instead of generating them.
fn drive(
    c: &mut Chain,
    frames: u64,
    replay: Option<&CaptureLog>,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<Vec<DeconvolvedBlock>, String> {
    let packets = match replay {
        Some(log) => {
            let p = tr
                .span("capture.read", || log.read_all())
                .map_err(|e| format!("capture read: {e}"))?;
            tally.reads += 1;
            tally.read_bytes += p.iter().map(|p| p.len_bytes() as u64).sum::<u64>();
            Some(p)
        }
        None => None,
    };
    let frames = packets.as_ref().map_or(frames, |p| p.len() as u64);
    let mut msgs = Vec::new();
    let mut blocks = Vec::new();
    let mut out = Vec::new();
    for i in 0..frames {
        let packet = match &packets {
            // The replay source's per-frame work: clone and re-stamp.
            Some(p) => tr.span("dma.pack", || {
                p[i as usize]
                    .clone()
                    .with_origin(htims::obs::trace::now_ns())
            }),
            None => {
                let words = tr.span("generator", || c.gen.frame(i));
                tr.span("dma.pack", || FramePacket::from_words(i, &words))
            }
        };
        tally.packed_bytes += packet.len_bytes() as u64;
        let link = &mut c.link;
        tr.span("link", || {
            link.process(Message::Frame(packet), &mut |m| msgs.push(m))
        });
        if let Some(binner) = &mut c.binner {
            let fine = std::mem::take(&mut msgs);
            tr.span("binner", || {
                for m in fine {
                    binner.process(m, &mut |m| msgs.push(m));
                }
            });
        }
        for m in msgs.drain(..) {
            let start = tr.now();
            c.acc.process(m, &mut |b| blocks.push(b));
            let layer = if blocks.is_empty() {
                "accumulate.fold"
            } else {
                "accumulate.close"
            };
            tr.spans.push((layer, start, tr.now()));
        }
        for b in blocks.drain(..) {
            if let Message::Block(block) = &b {
                tally.deconv_cells += block.data.len() as u64;
            }
            tally.blocks += 1;
            let deconv = &mut c.deconv;
            tr.span("deconvolve", || deconv.process(b, &mut |m| out.push(m)));
        }
    }
    tally.frames += frames;
    tally.cells_per_frame = (c.gen.drift_bins() * c.gen.mz_bins()) as u64;
    let mut report = PipelineReport::new("traced");
    c.link.finalize(&mut report);
    if let Some(b) = &mut c.binner {
        b.finalize(&mut report);
    }
    c.acc.finalize(&mut report);
    c.deconv.finalize(&mut report);
    tally.simulated_link_s += report.simulated_link_seconds;
    tally.capture_cycles += report.capture_cycles;
    tally.deconv_cycles += report.deconv_cycles;
    Ok(out
        .into_iter()
        .filter_map(|m| match m {
            Message::Deconvolved(b) => Some(b),
            _ => None,
        })
        .collect())
}

/// One reported metric: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// Result of a traced run: per-layer metrics and the checks it made.
pub struct Traced {
    /// `(name, unit, value)` for every entry of [`LAYER_METRICS`].
    pub metrics: Vec<Metric>,
    /// Correctness tallies, including the reconciliation check.
    pub gate: Gate,
}

/// Set-up write of the capture log, traced: generate and pack untraced,
/// time every `CaptureLog::append` and the final `finish`, then check the
/// log reads back frame for frame equal to the set-up log.
fn trace_capture_write(
    w: &Workload,
    setup: &Setup,
    scratch: &Path,
    gate: &mut Gate,
) -> Result<(Tracer, u64), String> {
    let spec = w.spec_for(setup.references[0].seed);
    let c = chain(&spec, &mut Vec::new())?;
    let dir = scratch.join("capture-traced");
    let log = CaptureLog::create(&dir).map_err(|e| format!("cannot create capture log: {e}"))?;
    let mut tr = Tracer::new();
    let frames = w.frames_per_op();
    for i in 0..frames {
        let packet = FramePacket::from_words(i, &c.gen.frame(i));
        tr.span("capture.append", || log.append(&packet))
            .map_err(|e| format!("capture append: {e}"))?;
    }
    tr.span("capture.finish", || log.finish())
        .map_err(|e| format!("capture finish: {e}"))?;
    let written = log.read_all().map_err(|e| e.to_string())?;
    let expected = setup
        .capture
        .as_ref()
        .ok_or("e3_replay set-up wrote no capture log")?
        .read_all()
        .map_err(|e| e.to_string())?;
    let same = written.len() == expected.len()
        && written
            .iter()
            .zip(&expected)
            .all(|(a, b)| a.seq_no == b.seq_no && a.payload == b.payload);
    gate.record(
        "traced capture write",
        same,
        "the log does not read back equal to the set-up log",
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok((tr, frames))
}

/// The traced run of workload `w`: an untraced scheduled pass for the
/// scheduler and admission counters (about a third of `seconds`), then,
/// for the rest, pairs of an untraced inline run and a traced run on the
/// same input (at least one of each). The pairs give the tracing overhead.
pub fn run(w: &Workload, setup: &Setup, seconds: f64, scratch: &Path) -> Result<Traced, String> {
    let untraced = workload::measure(w, setup, seconds / 3.0);
    let mut gate = untraced.gate;
    let start = Instant::now();
    let replay = if w.kind == Kind::E3Replay {
        setup.capture.as_ref()
    } else {
        None
    };
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let mut acquisition_ns = Vec::new();
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        let reference = setup.references[k % setup.references.len()];
        k += 1;
        let spec = w.spec_for(reference.seed);
        // Untraced inline baseline on the same input, run just before the
        // traced drive so both see the same machine state.
        let pipeline = spec.build()?;
        let t0 = Instant::now();
        let out = match replay {
            Some(log) => {
                let packets = log.read_all().map_err(|e| format!("capture read: {e}"))?;
                pipeline.with_replay_source(packets).run_inline()
            }
            None => pipeline.run_inline(),
        };
        let inline_s = t0.elapsed().as_secs_f64();
        gate.check_output("inline run", &out, reference.fnv);
        drop(out);

        let mut c = chain(&spec, &mut acquisition_ns)?;
        let t0 = tr.now();
        let blocks = drive(&mut c, w.frames_per_op(), replay, &mut tr, &mut tally)?;
        let traced_s = (tr.now() - t0) as f64 / 1e9;
        gate.check(
            "traced run",
            RunOutcome::Completed,
            output_fingerprint(&blocks),
            reference.fnv,
        );
        tally.walls.push((traced_s, inline_s));
    }

    let capture = if w.kind == Kind::E3Replay {
        Some(trace_capture_write(w, setup, scratch, &mut gate)?)
    } else {
        None
    };

    let totals = tr.totals();
    let ns = |layer: &str| totals.get(layer).map_or(0, |t| t.0) as f64;
    let calls = |layer: &str| totals.get(layer).map_or(0, |t| t.1) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let frames = tally.frames as f64;
    let traced_wall: f64 = tally.walls.iter().map(|w| w.0).sum();
    let inline_wall: f64 = tally.walls.iter().map(|w| w.1).sum();
    let layer_sum = totals.values().map(|t| t.0).sum::<u64>() as f64 / 1e9;
    let layer_sum_frac = per(layer_sum, traced_wall);
    let reconciled = (1.0 - layer_sum_frac).abs() <= RECONCILE_TOLERANCE;
    gate.record(
        "trace reconciliation",
        reconciled,
        &format!("layer self times are {layer_sum_frac:.4} of the traced wall time"),
    );
    let (append_ns, finish_ns, appended) = match &capture {
        Some((t, frames)) => {
            let c = t.totals();
            let get = |l: &str| c.get(l).map_or(0, |t| t.0);
            (get("capture.append"), get("capture.finish"), *frames)
        }
        None => (0, 0, 0),
    };
    let sched_per_frame = |v: u64| per(v as f64, untraced.frames as f64);
    // In `LAYER_METRICS` order; the length is checked at compile time.
    let values: [f64; LAYER_METRICS.len()] = [
        stats::median(
            &acquisition_ns
                .iter()
                .map(|&v| v as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
        per(ns("generator") / 1e6, frames),
        per(ns("generator"), frames * tally.cells_per_frame as f64),
        per(ns("dma.pack") / 1e6, frames),
        per(tally.packed_bytes as f64 / 1e6, frames),
        per(ns("link") / 1e3, frames),
        per(tally.simulated_link_s * 1e3, frames),
        per(ns("binner") / 1e3, frames),
        per(ns("accumulate.fold") / 1e6, calls("accumulate.fold")),
        per(ns("accumulate.close") / 1e6, calls("accumulate.close")),
        per(tally.capture_cycles as f64, frames),
        per(ns("deconvolve") / 1e6, tally.blocks as f64),
        per(tally.deconv_cells as f64 / 1e6, ns("deconvolve") / 1e9),
        per(tally.deconv_cycles as f64, tally.blocks as f64),
        per(append_ns as f64 / 1e6, appended as f64),
        finish_ns as f64 / 1e6,
        per(ns("capture.read") / 1e6, frames),
        per(tally.read_bytes as f64 / 1e6, tally.reads as f64),
        sched_per_frame(untraced.sched.executed),
        sched_per_frame(untraced.sched.steals),
        sched_per_frame(untraced.sched.parks),
        sched_per_frame(untraced.sched.wakes),
        stats::median(&untraced.admit_s).map_or(0.0, |s| s * 1e6),
        layer_sum_frac,
        1.0 - layer_sum_frac,
        per(traced_wall, inline_wall) - 1.0,
    ];
    let metrics = LAYER_METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, unit, v))
        .collect();
    Ok(Traced { metrics, gate })
}
