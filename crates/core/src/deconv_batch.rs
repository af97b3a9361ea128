//! Batched, cache-blocked deconvolution over panels of m/z columns.
//!
//! Every deconvolution method ultimately solves the same circulant system
//! independently for each of the block's m/z columns. The scalar reference
//! path ([`crate::deconvolution::apply_columnwise`]) gathers each column out
//! of the drift-major [`DriftTofMap`] with stride `mz_bins`, runs a solver
//! that allocates fresh buffers per column, and scatters the result back —
//! a cache-hostile access pattern repeated thousands of times per block.
//!
//! [`BatchDeconvolver`] instead processes *panels* of `P` adjacent columns:
//!
//! * a panel is gathered with `drift_bins` contiguous `memcpy`s (row
//!   `d` of the panel is the slice `data[d·mz + c0 .. d·mz + c0 + P]`, no
//!   transpose — the map is already drift-major);
//! * the FWHT butterflies / FFT levels then run as contiguous row-pair
//!   sweeps over the panel, unit-stride and auto-vectorized across the m/z
//!   dimension (`ims_signal::fwht::fwht_panel`, `ims_signal::fft::FftPlan`);
//! * kernel spectra, twiddle factors, chirps and permutation tables are
//!   hoisted out of the column loop into the solver
//!   ([`ims_prs::weighting::CirculantSolver`]), and all working memory
//!   lives in reusable scratch arenas — zero allocations in steady state;
//! * panels are embarrassingly parallel, so
//!   [`BatchDeconvolver::deconvolve_map_parallel`] packs them into
//!   slab-sized jobs — granularity chosen from a measured per-panel cost
//!   model — and runs them on the process-wide work-stealing
//!   [`Scheduler`], the same pool that executes serve-mode session
//!   graphs.
//!
//! Per column, every kernel performs the exact floating-point operations of
//! the scalar path in the same order, so the batched result is
//! **bit-identical** to the per-column reference — the property the
//! proptests in `tests/deconv_batch.rs` pin down.

use crate::acquisition::{AcquiredData, GateSchedule};
use crate::deconvolution::{scale_lambda, Deconvolver};
use crate::pipeline::Scheduler;
use ims_physics::DriftTofMap;
use ims_prs::permutation::TransformScratch;
use ims_prs::weighting::{CirculantInverse, CirculantScratch, CirculantSolver};
use ims_prs::FastMTransform;

/// Default panel width, tuned so the working set of the widest kernel (the
/// Bluestein-padded complex panel of a weighted solve: `2·N` rows × `P`
/// columns × 16 bytes ≈ 512 KiB at `N = 511`) stays inside a typical L2
/// cache while still giving the row sweeps full SIMD width. Re-exported
/// from `ims_signal`, which also holds the fixed-point datapaths' width;
/// per-method tuning on top of this baseline lives in
/// [`default_panel_width`].
pub use ims_signal::DEFAULT_PANEL_WIDTH;

/// The per-panel kernel a [`BatchDeconvolver`] applies.
#[derive(Debug, Clone)]
enum PanelKernel {
    /// Signal averaging: the accumulated block already is the answer.
    Identity,
    /// Fast Hadamard (simplex) inverse of the design sequence.
    Simplex(FastMTransform),
    /// Exact or Tikhonov-weighted Fourier inverse of a measured kernel.
    Circulant(CirculantSolver),
}

impl PanelKernel {
    /// Method label used in metric names and trace categories.
    fn name(&self) -> &'static str {
        match self {
            PanelKernel::Identity => "identity",
            PanelKernel::Simplex(_) => "simplex-fwht",
            PanelKernel::Circulant(_) => "circulant",
        }
    }
}

/// Reusable per-worker scratch for the batch engine. One instance per
/// thread is enough; it grows to the largest panel shape seen and is then
/// reused without further allocation.
#[derive(Debug, Clone, Default)]
pub struct PanelScratch {
    /// The gathered `drift_bins × width` panel (row-major).
    panel: Vec<f64>,
    transform: TransformScratch,
    circulant: CirculantScratch,
}

/// Batched deconvolution engine: one precomputed kernel applied to panels
/// of m/z columns.
#[derive(Debug, Clone)]
pub struct BatchDeconvolver {
    kernel: PanelKernel,
    panel_width: usize,
    /// Per-method panel-latency histogram in the global registry
    /// (`deconv.panel_ns.<method>`). A `&'static` registry handle, so
    /// cloning the engine shares it.
    panel_hist: &'static ims_obs::Histogram,
}

/// The registry histogram collecting panel latencies for `kernel`.
fn panel_histogram(kernel: &PanelKernel) -> &'static ims_obs::Histogram {
    ims_obs::metrics::histogram(&format!("deconv.panel_ns.{}", kernel.name()))
}

impl BatchDeconvolver {
    /// Builds the engine for a [`Deconvolver`] method, mirroring
    /// [`Deconvolver::column_solver`] (same kernels, same panics).
    ///
    /// # Panics
    /// Panics if the method cannot be applied to the schedule (e.g.
    /// [`Deconvolver::SimplexFast`] on an oversampled schedule, or
    /// [`Deconvolver::Exact`] on a singular kernel).
    pub fn new(method: &Deconvolver, schedule: &GateSchedule, data: &AcquiredData) -> Self {
        let kernel = match method {
            Deconvolver::Identity => PanelKernel::Identity,
            Deconvolver::SimplexFast => {
                let seq = match schedule {
                    GateSchedule::Multiplexed { seq } => seq,
                    other => panic!(
                        "SimplexFast requires a non-oversampled multiplexed schedule, got {}",
                        other.name()
                    ),
                };
                PanelKernel::Simplex(FastMTransform::new(seq))
            }
            Deconvolver::Exact => PanelKernel::Circulant(
                CirculantInverse::exact(&data.effective_kernel, 1e-9)
                    .expect("effective kernel is singular; use Weighted instead")
                    .solver(),
            ),
            Deconvolver::Weighted { lambda } => {
                let inv = CirculantInverse::weighted(
                    &data.effective_kernel,
                    scale_lambda(*lambda, &data.effective_kernel),
                );
                PanelKernel::Circulant(inv.solver())
            }
            Deconvolver::WeightedIdeal { lambda } => {
                let bits: Vec<f64> = data
                    .schedule_bits
                    .iter()
                    .map(|&b| if b { 1.0 } else { 0.0 })
                    .collect();
                let inv = CirculantInverse::weighted(&bits, scale_lambda(*lambda, &bits));
                PanelKernel::Circulant(inv.solver())
            }
        };
        Self {
            panel_hist: panel_histogram(&kernel),
            kernel,
            panel_width: default_panel_width(method),
        }
    }

    /// Engine around an explicit (e.g. calibration-estimated) circulant
    /// inverse — the batch form of [`CirculantInverse::apply`].
    pub fn from_circulant(inverse: &CirculantInverse) -> Self {
        let kernel = PanelKernel::Circulant(inverse.solver());
        Self {
            panel_hist: panel_histogram(&kernel),
            kernel,
            panel_width: DEFAULT_PANEL_WIDTH,
        }
    }

    /// Engine around a prebuilt fast m-sequence transform (the simplex
    /// inverse for the convolution forward model).
    pub fn from_transform(transform: FastMTransform) -> Self {
        let kernel = PanelKernel::Simplex(transform);
        Self {
            panel_hist: panel_histogram(&kernel),
            kernel,
            panel_width: DEFAULT_PANEL_WIDTH,
        }
    }

    /// Sets the panel width (columns per panel). Widths are clamped to at
    /// least 1; the last panel of a block is narrower when `mz_bins` is not
    /// a multiple of the width.
    pub fn with_panel_width(mut self, width: usize) -> Self {
        self.panel_width = width.max(1);
        self
    }

    /// The configured panel width.
    pub fn panel_width(&self) -> usize {
        self.panel_width
    }

    /// The drift-bin count the kernel expects, if it constrains one.
    fn expected_rows(&self) -> Option<usize> {
        match &self.kernel {
            PanelKernel::Identity => None,
            PanelKernel::Simplex(t) => Some(t.len()),
            PanelKernel::Circulant(s) => Some(s.len()),
        }
    }

    fn check_shape(&self, drift_bins: usize) {
        if let Some(rows) = self.expected_rows() {
            assert_eq!(
                rows, drift_bins,
                "kernel length {rows} does not match {drift_bins} drift bins"
            );
        }
    }

    /// Runs the kernel on one gathered panel in place, recording one span
    /// (category = method name) and one latency sample per panel.
    fn solve_panel(
        &self,
        panel: &mut [f64],
        width: usize,
        transform: &mut TransformScratch,
        circulant: &mut CirculantScratch,
    ) {
        let _sp = ims_obs::span_cat(self.kernel.name(), "panel");
        let start = std::time::Instant::now();
        match &self.kernel {
            PanelKernel::Identity => {}
            PanelKernel::Simplex(t) => t.deconvolve_convolution_panel(panel, width, transform),
            PanelKernel::Circulant(s) => s.solve_panel(panel, width, circulant),
        }
        self.panel_hist.record_duration(start.elapsed());
    }

    /// Deconvolves every m/z column of a drift-major map, panel by panel,
    /// on the calling thread.
    ///
    /// # Panics
    /// Panics if the map's drift-bin count differs from the kernel length.
    pub fn deconvolve_map(&self, map: &DriftTofMap) -> DriftTofMap {
        let mut out = map.clone();
        let mut scratch = PanelScratch::default();
        self.deconvolve_in_place(&mut out, &mut scratch);
        out
    }

    /// In-place, allocation-free (given a warmed `scratch`) form of
    /// [`BatchDeconvolver::deconvolve_map`].
    pub fn deconvolve_in_place(&self, map: &mut DriftTofMap, scratch: &mut PanelScratch) {
        let drift = map.drift_bins();
        let mz = map.mz_bins();
        self.check_shape(drift);
        if matches!(self.kernel, PanelKernel::Identity) {
            return;
        }
        let data = map.data_mut();
        let PanelScratch {
            panel,
            transform,
            circulant,
        } = scratch;
        let mut c0 = 0;
        while c0 < mz {
            let width = self.panel_width.min(mz - c0);
            gather_panel(data, mz, drift, c0, width, panel);
            self.solve_panel(panel, width, transform, circulant);
            scatter_panel(panel, data, mz, drift, c0, width);
            c0 += width;
        }
    }

    /// Like [`BatchDeconvolver::deconvolve_map`], but distributes panels
    /// over the process-wide work-stealing [`Scheduler`] — the same pool
    /// that runs serve-mode session graphs, so batch deconvolution and
    /// serving share one set of workers instead of fighting over cores.
    ///
    /// # Panics
    /// Panics if the map's drift-bin count differs from the kernel length.
    pub fn deconvolve_map_parallel(&self, map: &DriftTofMap) -> DriftTofMap {
        self.deconvolve_map_scheduled(map, Scheduler::global())
    }

    /// [`BatchDeconvolver::deconvolve_map_parallel`] on an explicit pool.
    ///
    /// The effective parallelism is `sched` workers plus the calling
    /// thread (which participates in draining the batch), clamped to the
    /// machine's [`std::thread::available_parallelism`] — asking for more
    /// threads than cores only adds scheduling noise, never throughput,
    /// and the clamp is what keeps measured throughput monotone in the
    /// requested thread count. At one effective thread this delegates to
    /// the in-place serial path: same panel decomposition, same bits,
    /// none of the fan-out costs (zeroed output block, per-task slabs,
    /// result collection).
    ///
    /// # Panics
    /// Panics if the map's drift-bin count differs from the kernel length.
    pub fn deconvolve_map_scheduled(&self, map: &DriftTofMap, sched: &Scheduler) -> DriftTofMap {
        let executors = (sched.threads() + 1).min(machine_threads());
        self.deconvolve_map_executors(map, sched, executors)
    }

    /// Explicit-executor form of
    /// [`BatchDeconvolver::deconvolve_map_scheduled`]: `executors` sets
    /// task granularity and the serial-delegation cutoff, while actual
    /// concurrency stays whatever the pool provides. Exposed so tests can
    /// force the slab fan-out on single-core machines, where the public
    /// entry points would (correctly) delegate to the serial path.
    #[doc(hidden)]
    pub fn deconvolve_map_executors(
        &self,
        map: &DriftTofMap,
        sched: &Scheduler,
        executors: usize,
    ) -> DriftTofMap {
        let drift = map.drift_bins();
        let mz = map.mz_bins();
        self.check_shape(drift);
        if matches!(self.kernel, PanelKernel::Identity) {
            return map.clone();
        }
        let panels = mz.div_ceil(self.panel_width);
        if executors <= 1 || panels <= 1 {
            return self.deconvolve_map(map);
        }
        let data = map.data();
        // Task granularity is a contiguous *run* of panels sized by the
        // cost model (see `panels_per_task`) — panel-per-task spends more
        // on per-task allocation and result collection than a cheap
        // kernel (simplex-fast) spends solving. Each task gathers its
        // panels back to back into one slab; a panel stays contiguous
        // inside it (row stride = its own width), so the kernels solve in
        // place with zero per-panel allocation and the panel
        // decomposition — hence the bit pattern — is identical to the
        // serial path.
        let per_task = self.panels_per_task(drift, executors, panels);
        let tasks = panels.div_ceil(per_task);
        let ranges: Vec<(usize, usize)> = (0..tasks)
            .map(|t| {
                let lo = (t * per_task * self.panel_width).min(mz);
                let hi = ((t + 1) * per_task * self.panel_width).min(mz);
                (lo, hi)
            })
            .filter(|(lo, hi)| lo < hi)
            .collect();
        let mut slabs: Vec<Vec<f64>> = vec![Vec::new(); ranges.len()];
        // Telemetry on the cost model's output: the slab-size (panels per
        // task) distribution shows whether `panels_per_task` is producing
        // slabs big enough to amortize fan-out but small enough to spread.
        let slab_hist = ims_obs::static_histogram!("deconv.slab_panels");
        for &(lo, hi) in &ranges {
            slab_hist.record((hi - lo).div_ceil(self.panel_width) as u64);
        }
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ranges
            .iter()
            .zip(slabs.iter_mut())
            .map(|(&(lo, hi), slab)| {
                Box::new(move || {
                    let mut scratch = PanelScratch::default();
                    slab.reserve(drift * (hi - lo));
                    let mut c0 = lo;
                    while c0 < hi {
                        let width = self.panel_width.min(hi - c0);
                        let off = slab.len();
                        for d in 0..drift {
                            slab.extend_from_slice(&data[d * mz + c0..d * mz + c0 + width]);
                        }
                        self.solve_panel(
                            &mut slab[off..],
                            width,
                            &mut scratch.transform,
                            &mut scratch.circulant,
                        );
                        c0 += width;
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        let tag = ims_obs::prof::intern_tag("-", "deconvolve", self.kernel.name());
        sched.run_batch_tagged(jobs, tag);
        let mut out = DriftTofMap::zeros(drift, mz);
        let out_data = out.data_mut();
        for (&(lo, _hi), slab) in ranges.iter().zip(slabs.iter()) {
            let mut off = 0;
            let mut c0 = lo;
            while off < slab.len() {
                let width = self.panel_width.min(mz - c0);
                scatter_panel(
                    &slab[off..off + drift * width],
                    out_data,
                    mz,
                    drift,
                    c0,
                    width,
                );
                c0 += width;
                off += drift * width;
            }
        }
        out
    }

    /// Cost of one `drift × panel_width` panel in nanoseconds: the live
    /// mean of this method's `deconv.panel_ns.<method>` histogram once it
    /// has warmed up, else a static per-cell estimate measured on the
    /// reference block (511 × 1000, panel width 32).
    fn panel_cost_ns(&self, drift: usize) -> u64 {
        /// Samples before the live histogram outranks the static model —
        /// enough to flush one block's cold-start outliers.
        const WARM_SAMPLES: u64 = 16;
        let s = self.panel_hist.summary();
        if s.count >= WARM_SAMPLES {
            return s.mean as u64;
        }
        let per_cell_ns = match &self.kernel {
            PanelKernel::Identity => 0.0,
            // ~6 ns/cell: FWHT butterflies plus the permutation scatter.
            PanelKernel::Simplex(_) => 6.0,
            // ~40 ns/cell: four Bluestein pow-2 FFTs over 2N-padded rows.
            PanelKernel::Circulant(_) => 40.0,
        };
        (per_cell_ns * (drift * self.panel_width) as f64) as u64
    }

    /// Panels per task for the parallel path. Tasks target roughly
    /// [`TARGET_TASK_NS`] of kernel work — long enough that queue traffic
    /// and slab allocation vanish in the noise, short enough that a block
    /// still splits into several tasks per worker for load balance — and
    /// never fall below a couple of panels, nor leave executors idle when
    /// there are panels to go around.
    fn panels_per_task(&self, drift: usize, executors: usize, panels: usize) -> usize {
        /// Target per-task kernel time: ~2 ms is ≥10³ × the per-task
        /// overhead (one slab allocation + one queue round-trip).
        const TARGET_TASK_NS: u64 = 2_000_000;
        /// Floor: a task is never a lone panel unless the block has one.
        const MIN_PANELS_PER_TASK: usize = 2;
        let cost = self.panel_cost_ns(drift).max(1);
        let by_cost = usize::try_from(TARGET_TASK_NS / cost)
            .unwrap_or(usize::MAX)
            .max(MIN_PANELS_PER_TASK);
        by_cost.min(panels.div_ceil(executors)).max(1)
    }
}

/// The machine's thread budget (`available_parallelism`, 1 if unknown).
fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

/// The measured-best panel width for a deconvolution method. Every float
/// method currently lands on [`DEFAULT_PANEL_WIDTH`]: the widest working
/// set (the weighted solve's Bluestein-padded complex panel) fits L2 at 32
/// columns and degrades beyond it, while the cheaper float kernels gain
/// nothing from going wider. The integer fixed-point path (the FPGA
/// software model, not a [`Deconvolver`] variant) tunes separately to
/// [`ims_signal::FIXED_POINT_PANEL_WIDTH`].
pub fn default_panel_width(method: &Deconvolver) -> usize {
    match method {
        Deconvolver::Identity
        | Deconvolver::SimplexFast
        | Deconvolver::Exact
        | Deconvolver::Weighted { .. }
        | Deconvolver::WeightedIdeal { .. } => DEFAULT_PANEL_WIDTH,
    }
}

/// Copies columns `[c0, c0 + width)` of a drift-major block into a
/// contiguous `drift × width` panel (reusing the destination's capacity).
fn gather_panel(
    data: &[f64],
    mz: usize,
    drift: usize,
    c0: usize,
    width: usize,
    panel: &mut Vec<f64>,
) {
    panel.clear();
    panel.reserve(drift * width);
    for d in 0..drift {
        panel.extend_from_slice(&data[d * mz + c0..d * mz + c0 + width]);
    }
}

/// Writes a solved panel back into columns `[c0, c0 + width)` of the block.
fn scatter_panel(
    panel: &[f64],
    data: &mut [f64],
    mz: usize,
    drift: usize,
    c0: usize,
    width: usize,
) {
    for d in 0..drift {
        data[d * mz + c0..d * mz + c0 + width].copy_from_slice(&panel[d * width..(d + 1) * width]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::{acquire, AcquireOptions};
    use crate::deconvolution::apply_columnwise;
    use ims_physics::{Instrument, Workload};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_block(mz: usize) -> (GateSchedule, AcquiredData) {
        let mut inst = Instrument::with_drift_bins(63);
        inst.tof.n_bins = mz;
        inst.gate = ims_physics::gate::GateModel::with_defect_level(0.2);
        let w = Workload::three_peptide_mix();
        let schedule = GateSchedule::multiplexed(6);
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let data = acquire(
            &inst,
            &w,
            &schedule,
            10,
            AcquireOptions::default(),
            &mut rng,
        );
        (schedule, data)
    }

    #[test]
    fn batched_is_bit_identical_to_columnwise_reference() {
        // Non-multiple-of-width mz so the ragged tail panel is exercised.
        let (schedule, data) = small_block(70);
        for method in [
            Deconvolver::Identity,
            Deconvolver::SimplexFast,
            Deconvolver::Exact,
            Deconvolver::Weighted { lambda: 1e-5 },
            Deconvolver::WeightedIdeal { lambda: 1e-4 },
        ] {
            let solver = method.column_solver(&schedule, &data);
            let reference = apply_columnwise(&data.accumulated, |col| solver(col));
            for width in [1usize, 7, 32, 70, 200] {
                let engine =
                    BatchDeconvolver::new(&method, &schedule, &data).with_panel_width(width);
                let batched = engine.deconvolve_map(&data.accumulated);
                let parallel = engine.deconvolve_map_parallel(&data.accumulated);
                for (i, (a, b)) in reference
                    .data()
                    .iter()
                    .zip(batched.data().iter())
                    .enumerate()
                {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{} width {width} cell {i}: {a} vs {b}",
                        method.name()
                    );
                }
                for (a, b) in batched.data().iter().zip(parallel.data().iter()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    #[test]
    fn scratch_survives_shape_changes() {
        let (schedule, data) = small_block(40);
        let engine =
            BatchDeconvolver::new(&Deconvolver::Weighted { lambda: 1e-5 }, &schedule, &data)
                .with_panel_width(16);
        let mut scratch = PanelScratch::default();
        let mut first = data.accumulated.clone();
        engine.deconvolve_in_place(&mut first, &mut scratch);
        // Reuse the same scratch for a second, identical solve.
        let mut second = data.accumulated.clone();
        engine.deconvolve_in_place(&mut second, &mut scratch);
        assert_eq!(first.data(), second.data());
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn rejects_mismatched_drift_bins() {
        let (schedule, data) = small_block(20);
        let engine = BatchDeconvolver::new(&Deconvolver::SimplexFast, &schedule, &data);
        let wrong = DriftTofMap::zeros(64, 20);
        let _ = engine.deconvolve_map(&wrong);
    }
}
