//! The FPGA deconvolution core.
//!
//! Implements the fast m-sequence (Hadamard) inverse on the integer
//! datapath: scatter through the LFSR-state address ROM, an in-place
//! integer Walsh–Hadamard butterfly, gather through the mask address ROM,
//! and a final fixed-point scale by `−2/(N+1)`. An m-sequence has
//! `N+1 = 2^degree`, so the scaler divides with a shift — no divider on
//! the datapath. All arithmetic is exact integer until the single
//! rounding in the output scaler, so results are bit-deterministic — the
//! property that lets the hybrid pipeline verify the FPGA component
//! against the software component exactly.

use crate::bram::{BramBudget, MemoryRequirement};
use ims_prs::{FastMTransform, MSequence};
use serde::{Deserialize, Serialize};

/// Which forward model the data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Convention {
    /// `y[i] = Σ_j a[i+j]·x[j]` (simplex/correlation indexing).
    Correlation,
    /// `y[i] = Σ_j a[i−j]·x[j]` (physical convolution — gate fires at
    /// `i − j`, ion arrives at `i`). This is what the instrument produces.
    Convolution,
}

/// Parallelism/precision configuration of the core.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DeconvConfig {
    /// Column engines running concurrently (one m/z column each).
    pub parallel_columns: usize,
    /// Butterfly ALUs per column engine.
    pub butterflies_per_column: usize,
    /// Fractional bits of the fixed-point output.
    pub output_frac_bits: u32,
    /// Forward-model convention of the incoming data.
    pub convention: Convention,
}

impl Default for DeconvConfig {
    fn default() -> Self {
        Self {
            parallel_columns: 4,
            butterflies_per_column: 4,
            output_frac_bits: 16,
            convention: Convention::Convolution,
        }
    }
}

/// The deconvolution engine for one fixed gate sequence.
#[derive(Debug, Clone)]
pub struct DeconvCore {
    transform: FastMTransform,
    config: DeconvConfig,
    cycles: u64,
}

impl DeconvCore {
    /// Builds the core (burns the address ROMs) for an m-sequence.
    pub fn new(seq: &MSequence, config: DeconvConfig) -> Self {
        assert!(config.parallel_columns >= 1);
        assert!(config.butterflies_per_column >= 1);
        assert!((4..=30).contains(&config.output_frac_bits));
        assert!(
            (seq.len() + 1).is_power_of_two(),
            "m-sequence length N must satisfy N+1 = 2^degree"
        );
        Self {
            transform: FastMTransform::new(seq),
            config,
            cycles: 0,
        }
    }

    /// Sequence length `N`.
    pub fn len(&self) -> usize {
        self.transform.len()
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The configuration.
    pub fn config(&self) -> &DeconvConfig {
        &self.config
    }

    /// Clock cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Deconvolves one m/z column of accumulated counts; returns raw
    /// fixed-point words with `output_frac_bits` fractional bits.
    ///
    /// Exact integer pipeline:
    /// 1. scatter `y[k] → buf[states[k]]` (address ROM);
    /// 2. integer FWHT over `M = N+1` entries (adds/subs only, bit growth
    ///    `log2 M`);
    /// 3. gather `c[j] = buf[masks[j]]` (address ROM);
    /// 4. scale: `x̂ = −2·c/(N+1)` evaluated as a rounded `i128` quotient
    ///    (ties away from zero). Since `N+1 = 2^degree` this is a shift —
    ///    [`deconvolve_panel_into`](Self::deconvolve_panel_into) computes
    ///    it that way; this column path keeps the division as its oracle.
    pub fn deconvolve_column(&self, y: &[u64]) -> Vec<i64> {
        let n = self.len();
        assert_eq!(y.len(), n, "column length mismatch");
        let m = n + 1;
        // Scatter.
        let mut buf = vec![0i64; m];
        for (k, &addr) in self.transform.scatter_addresses().iter().enumerate() {
            buf[addr as usize] = y[k] as i64;
        }
        // Integer FWHT.
        let mut h = 1usize;
        while h < m {
            for block in (0..m).step_by(h * 2) {
                for i in block..block + h {
                    let (a, b) = (buf[i], buf[i + h]);
                    buf[i] = a + b;
                    buf[i + h] = a - b;
                }
            }
            h *= 2;
        }
        // Gather + scale. x̂[j] = −2·c[σ(j)]/(N+1), with σ the identity for
        // correlation data and the index reversal for convolution data.
        let f = self.config.output_frac_bits;
        let masks = self.transform.gather_addresses();
        let scale_num = -(2i128 << f);
        let denom = (n + 1) as i128;
        (0..n)
            .map(|j| {
                let lag = match self.config.convention {
                    Convention::Correlation => j,
                    Convention::Convolution => (n - j) % n,
                };
                let c = buf[masks[lag] as usize] as i128;
                let wide = scale_num * c;
                // Round to nearest, ties away from zero.
                let half = denom / 2;
                let rounded = if wide >= 0 {
                    (wide + half) / denom
                } else {
                    (wide - half) / denom
                };
                rounded as i64
            })
            .collect()
    }

    /// Deconvolves a panel of `width` adjacent m/z columns at once.
    ///
    /// `panel` holds `N × width` accumulated counts in row-major order
    /// (`panel[d * width + c]`); the result lands in `out` with the same
    /// shape. `work` is the reusable FWHT working RAM (grows to
    /// `(N+1) × width` and is then reused allocation-free). The datapath is
    /// the exact integer pipeline of
    /// [`DeconvCore::deconvolve_column`] run as contiguous row sweeps, so
    /// each column's output is identical to the scalar call — integer
    /// arithmetic leaves no room for reassociation drift.
    ///
    /// # Panics
    /// Panics if `width` is zero or the panel/out shapes mismatch.
    pub fn deconvolve_panel_into(
        &self,
        panel: &[u64],
        width: usize,
        out: &mut [i64],
        work: &mut Vec<i64>,
    ) {
        let n = self.len();
        assert!(width > 0, "panel width must be positive");
        assert_eq!(panel.len(), n * width, "panel shape mismatch");
        assert_eq!(out.len(), n * width, "output shape mismatch");
        let m = n + 1;
        work.resize(m * width, 0);
        // Scatter: the address ROM is a permutation of 1..=N, so only RAM
        // row 0 needs explicit zeroing.
        work[..width].fill(0);
        for (k, &addr) in self.transform.scatter_addresses().iter().enumerate() {
            let a = addr as usize;
            for (w, &y) in work[a * width..(a + 1) * width]
                .iter_mut()
                .zip(panel[k * width..(k + 1) * width].iter())
            {
                *w = y as i64;
            }
        }
        // Integer FWHT, row-pair sweeps on the selected SIMD backend
        // (i64 add/sub is exact on every backend).
        let be = ims_signal::simd::active();
        let mut h = 1usize;
        while h < m {
            for block in (0..m).step_by(h * 2) {
                for i in block..block + h {
                    let (head, tail) = work.split_at_mut((i + h) * width);
                    let top = &mut head[i * width..(i + 1) * width];
                    let bottom = &mut tail[..width];
                    ims_signal::simd::butterfly_i64(be, top, bottom);
                }
            }
            h *= 2;
        }
        // Gather + scale per row. N+1 = 2^k: with f+1 ≥ k the quotient
        // −c·2^(f+1−k) is exact and its wrapped i64 equals
        // `c.wrapping_mul(−2^(f+1−k))`, written as shift and negate so it
        // vectorizes; otherwise it is a round-half-away shift by k−(f+1).
        let f = self.config.output_frac_bits;
        let k = m.trailing_zeros();
        let masks = self.transform.gather_addresses();
        for j in 0..n {
            let lag = match self.config.convention {
                Convention::Correlation => j,
                Convention::Convolution => (n - j) % n,
            };
            let src = masks[lag] as usize;
            let row = out[j * width..(j + 1) * width]
                .iter_mut()
                .zip(work[src * width..(src + 1) * width].iter());
            if f + 1 >= k {
                let up = f + 1 - k;
                for (o, &c) in row {
                    *o = (c << up).wrapping_neg();
                }
            } else {
                let down = k - (f + 1);
                let half = 1i128 << (down - 1);
                for (o, &c) in row {
                    let wide = -(c as i128);
                    let rounded = if wide >= 0 {
                        (wide + half) >> down
                    } else {
                        -((half - wide) >> down)
                    };
                    *o = rounded as i64;
                }
            }
        }
    }

    /// Deconvolves a whole drift-major block (`mz_bins` columns), tallying
    /// cycles, and returns the drift-major fixed-point result. Columns are
    /// processed in panels via [`DeconvCore::deconvolve_panel_into`] — the
    /// modelled cycle count is unchanged (the FPGA's parallelism model is
    /// `parallel_columns`, not the software panel width).
    pub fn deconvolve_block(&mut self, data: &[u64], mz_bins: usize) -> Vec<i64> {
        // Shared with the pipeline's software engine so a re-tuned width
        // propagates to both fixed-point datapaths.
        const PANEL_WIDTH: usize = ims_signal::FIXED_POINT_PANEL_WIDTH;
        let n = self.len();
        assert_eq!(data.len(), n * mz_bins, "block shape mismatch");
        let mut out = vec![0i64; n * mz_bins];
        let mut panel: Vec<u64> = Vec::new();
        let mut solved: Vec<i64> = Vec::new();
        let mut work: Vec<i64> = Vec::new();
        let mut c0 = 0;
        while c0 < mz_bins {
            let width = PANEL_WIDTH.min(mz_bins - c0);
            panel.clear();
            panel.reserve(n * width);
            for d in 0..n {
                panel.extend_from_slice(&data[d * mz_bins + c0..d * mz_bins + c0 + width]);
            }
            solved.resize(n * width, 0);
            self.deconvolve_panel_into(&panel, width, &mut solved, &mut work);
            for d in 0..n {
                out[d * mz_bins + c0..d * mz_bins + c0 + width]
                    .copy_from_slice(&solved[d * width..(d + 1) * width]);
            }
            c0 += width;
        }
        self.cycles += self.cycles_per_block(mz_bins);
        out
    }

    /// Converts raw fixed-point output words to `f64`.
    pub fn to_f64(&self, raw: &[i64]) -> Vec<f64> {
        let ulp = (2.0f64).powi(-(self.config.output_frac_bits as i32));
        raw.iter().map(|&r| r as f64 * ulp).collect()
    }

    /// Clock cycles for one column: scatter `N` + butterfly stages
    /// `(M/2)·log₂M / butterflies` + gather-and-scale `N`.
    pub fn cycles_per_column(&self) -> u64 {
        let n = self.len() as u64;
        let m = n + 1;
        let stages = (m as f64).log2() as u64;
        let butterfly_cycles = (m / 2) * stages / self.config.butterflies_per_column as u64;
        n + butterfly_cycles.max(1) + n
    }

    /// Clock cycles for a full block of `mz_bins` columns with
    /// `parallel_columns` engines.
    pub fn cycles_per_block(&self, mz_bins: usize) -> u64 {
        let groups = mz_bins.div_ceil(self.config.parallel_columns) as u64;
        groups * self.cycles_per_column()
    }

    /// BRAM budget: per column engine a double-buffered `M`-word working
    /// RAM (accumulator width + log₂M growth bits + sign), plus the two
    /// shared address ROMs.
    pub fn bram_budget(&self, acc_bits: u32) -> BramBudget {
        let n = self.len() as u64;
        let m = n + 1;
        let degree = (usize::BITS - self.len().leading_zeros()) as u64; // log2(M)
        let work_bits = acc_bits as u64 + degree + 1;
        let mut b = BramBudget::new();
        b.add(
            MemoryRequirement {
                depth: m,
                width_bits: work_bits,
                label: "FWHT working RAM",
            },
            2 * self.config.parallel_columns as u64,
        );
        b.add(
            MemoryRequirement {
                depth: n,
                width_bits: degree,
                label: "scatter address ROM",
            },
            1,
        );
        b.add(
            MemoryRequirement {
                depth: n,
                width_bits: degree,
                label: "gather address ROM",
            },
            1,
        );
        b
    }

    /// DSP multipliers: one output scaler per column engine.
    pub fn dsp_count(&self) -> u64 {
        self.config.parallel_columns as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::Fx;
    use ims_signal::correlate::circular_convolve_direct;

    fn counts(n: usize) -> Vec<u64> {
        (0..n).map(|k| ((k * 13 + 5) % 97) as u64).collect()
    }

    #[test]
    fn integer_path_matches_float_path() {
        for degree in [4u32, 6, 8, 9] {
            let seq = MSequence::new(degree);
            let core = DeconvCore::new(
                &seq,
                DeconvConfig {
                    convention: Convention::Correlation,
                    ..Default::default()
                },
            );
            let t = FastMTransform::new(&seq);
            let y = counts(seq.len());
            let yf: Vec<f64> = y.iter().map(|&v| v as f64).collect();
            let float = t.deconvolve(&yf);
            let fixed = core.to_f64(&core.deconvolve_column(&y));
            let ulp = (2.0f64).powi(-16);
            for (j, (a, b)) in float.iter().zip(fixed.iter()).enumerate() {
                assert!(
                    (a - b).abs() <= ulp,
                    "degree {degree} bin {j}: float {a} vs fixed {b}"
                );
            }
        }
    }

    #[test]
    fn convolution_convention_round_trips_planted_signal() {
        let seq = MSequence::new(7);
        let n = seq.len();
        let mut x = vec![0.0; n];
        x[10] = 50.0;
        x[90] = 120.0;
        let y_f = circular_convolve_direct(&seq.as_f64(), &x);
        let y: Vec<u64> = y_f.iter().map(|&v| v.round() as u64).collect();
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let got = core.to_f64(&core.deconvolve_column(&y));
        for (j, (a, b)) in x.iter().zip(got.iter()).enumerate() {
            assert!((a - b).abs() < 1e-3, "bin {j}: {a} vs {b}");
        }
    }

    #[test]
    fn results_are_bit_deterministic() {
        let seq = MSequence::new(8);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let y = counts(seq.len());
        let a = core.deconvolve_column(&y);
        let b = core.deconvolve_column(&y);
        assert_eq!(a, b);
    }

    #[test]
    fn block_processing_matches_columnwise() {
        let seq = MSequence::new(5);
        let n = seq.len();
        // One partial panel, and two full panels plus a partial one.
        for mz_bins in [7, 300] {
            let mut core = DeconvCore::new(&seq, DeconvConfig::default());
            let mut data = vec![0u64; n * mz_bins];
            for (i, v) in data.iter_mut().enumerate() {
                *v = ((i * 31) % 250) as u64;
            }
            let block = core.deconvolve_block(&data, mz_bins);
            for mz in 0..mz_bins {
                let col: Vec<u64> = (0..n).map(|d| data[d * mz_bins + mz]).collect();
                let expect = core.deconvolve_column(&col);
                for d in 0..n {
                    assert_eq!(block[d * mz_bins + mz], expect[d]);
                }
            }
            assert!(core.cycles() > 0);
        }
    }

    #[test]
    fn panel_path_matches_columnwise_exactly() {
        for convention in [Convention::Correlation, Convention::Convolution] {
            let seq = MSequence::new(6);
            let n = seq.len();
            let core = DeconvCore::new(
                &seq,
                DeconvConfig {
                    convention,
                    ..Default::default()
                },
            );
            for width in [1usize, 5, 32] {
                let panel: Vec<u64> = (0..n * width).map(|i| ((i * 7 + 3) % 211) as u64).collect();
                let mut out = vec![0i64; n * width];
                let mut work = Vec::new();
                core.deconvolve_panel_into(&panel, width, &mut out, &mut work);
                for c in 0..width {
                    let col: Vec<u64> = (0..n).map(|d| panel[d * width + c]).collect();
                    let expect = core.deconvolve_column(&col);
                    for d in 0..n {
                        assert_eq!(
                            out[d * width + c],
                            expect[d],
                            "{convention:?} width {width} at ({d},{c})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shift_scale_matches_the_division_oracle() {
        // Degrees 3 and 9 keep f+1 ≥ k for every f; degree 12 has
        // f+1 < k (the rounding shift) for f ≤ 10 and f+1 ≥ k above.
        for degree in [3u32, 9, 12] {
            let seq = MSequence::new(degree);
            let n = seq.len();
            let probe = DeconvCore::new(&seq, DeconvConfig::default());
            let states = probe.transform.scatter_addresses();
            let masks = probe.transform.gather_addresses();
            // A column whose FWHT output at RAM row `r` is N·q (every
            // other output is −q): inputs carry row r's Hadamard signs.
            // |y| summed stays below 2^63, so no FWHT stage overflows.
            let peaked = |r: u64, q: i64| -> Vec<u64> {
                let r = masks[(r as usize) % n] as u64;
                states
                    .iter()
                    .map(|&a| {
                        let sign = if (a as u64 & r).count_ones().is_multiple_of(2) {
                            1
                        } else {
                            -1
                        };
                        (sign * q) as u64
                    })
                    .collect()
            };
            let near_2_62 = (1i64 << 62) / n as i64;
            let near_max = i64::MAX / n as i64;
            let mut columns = vec![
                peaked(1, near_2_62),
                peaked(2, -near_2_62),
                peaked(3, near_max),
                peaked(4, -near_max), // output ≈ i64::MIN
                (0..n).map(|k| ((k * 7919 + 13) % 1021) as u64).collect(),
                (0..n)
                    .map(|k| (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
                    .collect(),
                vec![0; n],
            ];
            // Small signed values: every residue mod 2^k, both signs.
            columns.push(
                (0..n)
                    .map(|k| ((k as i64 * 37 % 513) - 256) as u64)
                    .collect(),
            );
            let width = columns.len();
            let panel: Vec<u64> = (0..n)
                .flat_map(|d| columns.iter().map(move |c| c[d]))
                .collect();
            for f in 4..=30 {
                let core = DeconvCore::new(
                    &seq,
                    DeconvConfig {
                        output_frac_bits: f,
                        ..Default::default()
                    },
                );
                let mut out = vec![0i64; n * width];
                core.deconvolve_panel_into(&panel, width, &mut out, &mut Vec::new());
                for (c, col) in columns.iter().enumerate() {
                    let expect = core.deconvolve_column(col);
                    for d in 0..n {
                        assert_eq!(
                            out[d * width + c],
                            expect[d],
                            "degree {degree} f {f} column {c} row {d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn cycle_model_scales_with_parallelism() {
        let seq = MSequence::new(9);
        let slow = DeconvCore::new(
            &seq,
            DeconvConfig {
                parallel_columns: 1,
                butterflies_per_column: 1,
                ..Default::default()
            },
        );
        let fast = DeconvCore::new(
            &seq,
            DeconvConfig {
                parallel_columns: 8,
                butterflies_per_column: 8,
                ..Default::default()
            },
        );
        let mz = 1000;
        assert!(slow.cycles_per_block(mz) > 6 * fast.cycles_per_block(mz));
    }

    #[test]
    fn bram_budget_includes_roms_and_work_ram() {
        let seq = MSequence::new(9);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let b = core.bram_budget(32);
        let labels: Vec<&str> = b.breakdown().iter().map(|(l, _, _)| *l).collect();
        assert!(labels.contains(&"FWHT working RAM"));
        assert!(labels.contains(&"scatter address ROM"));
        assert!(b.total_tiles() > 0);
    }

    #[test]
    fn fixed_output_type_is_consistent() {
        // Round-trip through the Fx type used downstream.
        let seq = MSequence::new(4);
        let core = DeconvCore::new(&seq, DeconvConfig::default());
        let raw = core.deconvolve_column(&counts(seq.len()));
        for &r in &raw {
            let fx = Fx::<16>::from_raw(r);
            assert!((fx.to_f64() - r as f64 / 65536.0).abs() < 1e-12);
        }
    }
}
