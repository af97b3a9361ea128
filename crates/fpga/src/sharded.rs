//! The m/z-range-sharded accumulation engine.
//!
//! The paper's monolithic drift × m/z accumulation RAM is split here into
//! `N` independent [`AccumulatorCore`] shards, each owning a contiguous
//! range of m/z columns with its own saturation and cycle counters — the
//! scale-out shape of a multi-bank capture engine, and the resilience
//! shape behind the `shard.kill` chaos site: one bank can be lost and
//! rebuilt (or zeroed) without touching its siblings.
//!
//! Correctness contract, pinned by proptests: because the column ranges
//! are disjoint and saturating adds are per-cell, the merged drain is
//! **bit-identical** to a monolithic [`AccumulatorCore`] fed the same
//! frames in the same order — for any shard count — and the merge itself
//! is order-independent (shards can be scattered back in any order).

use crate::accumulator::{AccumulatorCore, CaptureError, Words};

/// An accumulator split into m/z-range shards (see the module docs).
#[derive(Debug, Clone)]
pub struct ShardedAccumulator {
    drift_bins: usize,
    mz_bins: usize,
    shards: Vec<AccumulatorCore>,
    /// Column bounds: shard `s` owns columns `bounds[s] .. bounds[s + 1]`.
    bounds: Vec<usize>,
    /// Shards currently marked lost (killed and not yet revived); a lost
    /// shard captures nothing and drains zeros.
    lost: Vec<bool>,
}

impl ShardedAccumulator {
    /// Builds `n_shards` independent shards over `mz_bins` columns
    /// (clamped to `1..=mz_bins`), split into contiguous near-equal
    /// ranges: the first `mz_bins % n` shards take one extra column.
    pub fn new(drift_bins: usize, mz_bins: usize, acc_bits: u32, n_shards: usize) -> Self {
        let n = n_shards.clamp(1, mz_bins.max(1));
        let (base, rem) = (mz_bins / n, mz_bins % n);
        let mut bounds = Vec::with_capacity(n + 1);
        let mut at = 0usize;
        bounds.push(0);
        for s in 0..n {
            at += base + usize::from(s < rem);
            bounds.push(at);
        }
        let shards = (0..n)
            .map(|s| AccumulatorCore::new(drift_bins, bounds[s + 1] - bounds[s], acc_bits))
            .collect();
        Self {
            drift_bins,
            mz_bins,
            shards,
            bounds,
            lost: vec![false; n],
        }
    }

    /// Wraps an existing monolithic core as a single-shard engine,
    /// preserving its accumulated contents and counters — the refactor
    /// seam that keeps every previous `AccumulatorCore` call site
    /// bit-identical (one shard delegates straight to the core).
    pub fn from_core(core: AccumulatorCore) -> Self {
        let (drift, mz) = (core.drift_bins(), core.mz_bins());
        Self {
            drift_bins: drift,
            mz_bins: mz,
            bounds: vec![0, mz],
            lost: vec![false],
            shards: vec![core],
        }
    }

    /// Number of drift bins.
    pub fn drift_bins(&self) -> usize {
        self.drift_bins
    }

    /// Total m/z bins across all shards.
    pub fn mz_bins(&self) -> usize {
        self.mz_bins
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cell width in bits (shared by every shard).
    pub fn acc_bits(&self) -> u32 {
        self.shards[0].acc_bits()
    }

    /// The m/z column range `[lo, hi)` owned by shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        (self.bounds[s], self.bounds[s + 1])
    }

    /// Is shard `s` currently marked lost?
    pub fn is_lost(&self, s: usize) -> bool {
        self.lost[s]
    }

    /// Shards currently marked lost.
    pub fn lost_count(&self) -> usize {
        self.lost.iter().filter(|&&l| l).count()
    }

    /// Captures one full drift-major frame: each live shard folds its own
    /// column range of the frame in place (see
    /// [`AccumulatorCore::capture_frame`]). Lost shards are skipped (their
    /// columns are simply not accumulated). With one shard this is the
    /// monolithic engine, bit- and cycle-identical.
    pub fn capture_frame(&mut self, frame: &[u32]) -> Result<(), CaptureError> {
        self.capture(Words::U32(frame))
    }

    /// Captures one frame straight from its little-endian wire bytes (a
    /// `FramePacket` payload) — [`capture_frame`](Self::capture_frame)
    /// with no decode pass or copy in between.
    pub fn capture_frame_bytes(&mut self, bytes: &[u8]) -> Result<(), CaptureError> {
        self.capture(Words::Le(bytes))
    }

    /// Re-folds one full frame into shard `s` only — the recovery path
    /// that rebuilds a revived shard from the capture log. Other shards
    /// are untouched, so replaying the block's frames through this
    /// restores the shard's contents, frame count, and saturation events
    /// bit-identically (drain keeps cycles, so rebuild work only adds).
    pub fn rebuild_frame(&mut self, s: usize, frame: &[u32]) -> Result<(), CaptureError> {
        let frame = Words::U32(frame);
        frame.check_len(self.drift_bins * self.mz_bins)?;
        self.shards[s].fold_columns(frame, self.mz_bins, self.bounds[s]);
        Ok(())
    }

    fn capture(&mut self, frame: Words<'_>) -> Result<(), CaptureError> {
        frame.check_len(self.drift_bins * self.mz_bins)?;
        for (s, shard) in self.shards.iter_mut().enumerate() {
            if !self.lost[s] {
                shard.fold_columns(frame, self.mz_bins, self.bounds[s]);
            }
        }
        Ok(())
    }

    /// Kills shard `s`: its partial accumulation is drained away (cycles
    /// survive, per the [`AccumulatorCore::drain`] contract) and the shard
    /// is marked lost — it captures nothing until revived. Returns the
    /// shard's m/z column range, the blast radius a report can blame.
    pub fn kill(&mut self, s: usize) -> (usize, usize) {
        let _ = self.shards[s].drain();
        self.lost[s] = true;
        self.shard_range(s)
    }

    /// Revives a lost shard (empty; rebuild via
    /// [`rebuild_frame`](Self::rebuild_frame)).
    pub fn revive(&mut self, s: usize) {
        self.lost[s] = false;
    }

    /// Sum of per-shard saturating-add events for the current block.
    pub fn saturation_events(&self) -> u64 {
        self.shards.iter().map(|c| c.saturation_events()).sum()
    }

    /// Sum of per-shard lifetime clock cycles. Each shard is its own
    /// engine with its own 4-cycle frame-header overhead, so an `N`-shard
    /// capture costs `N × 4` header cycles per frame — with one shard this
    /// equals the monolithic model exactly.
    pub fn cycles(&self) -> u64 {
        self.shards.iter().map(|c| c.cycles()).sum()
    }

    /// Frames captured into shard `s` since its last drain.
    pub fn shard_frames_captured(&self, s: usize) -> u64 {
        self.shards[s].frames_captured()
    }

    /// Drains every shard and returns `(column range, shard matrix)`
    /// parts — the order-independent merge inputs (see
    /// [`merge_shard_parts`]). Lost shards contribute their (all-zero)
    /// drained contents and are revived for the next block.
    pub fn drain_parts(&mut self) -> Vec<((usize, usize), Vec<u64>)> {
        let parts = (0..self.shards.len())
            .map(|s| (self.shard_range(s), self.shards[s].drain()))
            .collect();
        self.lost.fill(false);
        parts
    }

    /// Drains all shards and merges them back into one monolithic
    /// drift-major matrix — bit-identical to what a monolithic
    /// [`AccumulatorCore`] fed the same frames would drain. Lost shards
    /// read back as zeros and are revived for the next block.
    pub fn drain_merged(&mut self) -> Vec<u64> {
        let (drift, mz) = (self.drift_bins, self.mz_bins);
        merge_shard_parts(drift, mz, &self.drain_parts())
    }
}

/// Scatters drained shard parts back into one drift-major matrix. The
/// column ranges are disjoint, so the merge is deterministic and
/// order-independent: any permutation of `parts` produces the identical
/// output — the property that lets shards drain concurrently in any
/// completion order.
pub fn merge_shard_parts(
    drift_bins: usize,
    mz_bins: usize,
    parts: &[((usize, usize), Vec<u64>)],
) -> Vec<u64> {
    let mut out = vec![0u64; drift_bins * mz_bins];
    for ((lo, hi), data) in parts {
        let width = hi - lo;
        debug_assert_eq!(data.len(), drift_bins * width, "shard part shape");
        for d in 0..drift_bins {
            out[d * mz_bins + lo..d * mz_bins + hi]
                .copy_from_slice(&data[d * width..(d + 1) * width]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(drift: usize, mz: usize, salt: u32) -> Vec<u32> {
        (0..drift * mz)
            .map(|i| (i as u32).wrapping_mul(2654435761).wrapping_add(salt) % 97)
            .collect()
    }

    #[test]
    fn shard_ranges_cover_columns_contiguously() {
        for (mz, n) in [(60, 4), (7, 3), (5, 8), (1, 1), (10, 10)] {
            let acc = ShardedAccumulator::new(3, mz, 16, n);
            let mut at = 0;
            for s in 0..acc.shard_count() {
                let (lo, hi) = acc.shard_range(s);
                assert_eq!(lo, at, "range gap at shard {s}");
                assert!(hi > lo, "empty shard {s}");
                at = hi;
            }
            assert_eq!(at, mz, "ranges must cover all columns");
            assert!(acc.shard_count() <= mz, "more shards than columns");
        }
    }

    #[test]
    fn merged_drain_matches_monolithic_bit_for_bit() {
        let (drift, mz) = (5, 13);
        let mut mono = AccumulatorCore::new(drift, mz, 8);
        let mut sharded = ShardedAccumulator::new(drift, mz, 8, 4);
        for k in 0..6u32 {
            let f = frame(drift, mz, k);
            mono.capture_frame(&f).unwrap();
            sharded.capture_frame(&f).unwrap();
        }
        assert_eq!(sharded.saturation_events(), mono.saturation_events());
        assert_eq!(sharded.drain_merged(), mono.drain());
    }

    #[test]
    fn merge_is_order_independent() {
        let (drift, mz) = (4, 11);
        let mut acc = ShardedAccumulator::new(drift, mz, 16, 3);
        for k in 0..3u32 {
            acc.capture_frame(&frame(drift, mz, k)).unwrap();
        }
        let parts = acc.drain_parts();
        let forward = merge_shard_parts(drift, mz, &parts);
        let mut reversed = parts.clone();
        reversed.reverse();
        assert_eq!(merge_shard_parts(drift, mz, &reversed), forward);
        let mut rotated = parts.clone();
        rotated.rotate_left(1);
        assert_eq!(merge_shard_parts(drift, mz, &rotated), forward);
    }

    #[test]
    fn killed_shard_drains_zeros_and_revives_on_drain() {
        let (drift, mz) = (2, 8);
        let mut acc = ShardedAccumulator::new(drift, mz, 16, 4);
        acc.capture_frame(&vec![5u32; drift * mz]).unwrap();
        let (lo, hi) = acc.kill(1);
        assert!(acc.is_lost(1));
        assert_eq!(acc.lost_count(), 1);
        // Captures after the kill skip the lost shard.
        acc.capture_frame(&vec![3u32; drift * mz]).unwrap();
        let merged = acc.drain_merged();
        for d in 0..drift {
            for c in 0..mz {
                let expect = if (lo..hi).contains(&c) { 0 } else { 8 };
                assert_eq!(merged[d * mz + c], expect, "cell ({d}, {c})");
            }
        }
        // Drain revives every shard for the next block.
        assert_eq!(acc.lost_count(), 0);
        acc.capture_frame(&vec![1u32; drift * mz]).unwrap();
        assert!(acc.drain_merged().iter().all(|&v| v == 1));
    }

    #[test]
    fn rebuild_restores_killed_shard_exactly() {
        let (drift, mz) = (3, 10);
        let frames: Vec<Vec<u32>> = (0..4).map(|k| frame(drift, mz, k)).collect();
        let mut mono = AccumulatorCore::new(drift, mz, 8);
        let mut acc = ShardedAccumulator::new(drift, mz, 8, 3);
        for f in &frames {
            mono.capture_frame(f).unwrap();
            acc.capture_frame(f).unwrap();
        }
        // Kill shard 2 mid-block, then rebuild it from the frame history.
        acc.kill(2);
        acc.revive(2);
        for f in &frames {
            acc.rebuild_frame(2, f).unwrap();
        }
        assert_eq!(acc.shard_frames_captured(2), frames.len() as u64);
        assert_eq!(acc.saturation_events(), mono.saturation_events());
        assert_eq!(acc.drain_merged(), mono.drain());
    }

    #[test]
    fn single_shard_is_cycle_identical_to_monolithic() {
        let (drift, mz) = (4, 9);
        let mut mono = AccumulatorCore::new(drift, mz, 32);
        let mut one = ShardedAccumulator::new(drift, mz, 32, 1);
        let f = frame(drift, mz, 3);
        mono.capture_frame(&f).unwrap();
        one.capture_frame(&f).unwrap();
        assert_eq!(one.cycles(), mono.cycles());
        assert_eq!(one.drain_merged(), mono.drain());
    }

    #[test]
    fn from_core_preserves_accumulated_state() {
        let mut core = AccumulatorCore::new(2, 3, 16);
        core.capture_frame(&[1, 2, 3, 4, 5, 6]).unwrap();
        let cycles = core.cycles();
        let mut acc = ShardedAccumulator::from_core(core);
        assert_eq!(acc.shard_count(), 1);
        assert_eq!(acc.cycles(), cycles);
        assert_eq!(acc.drain_merged(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn wire_bytes_fold_matches_word_fold() {
        let (drift, mz) = (5, 13);
        for n in [1, 3, 4] {
            let mut words = ShardedAccumulator::new(drift, mz, 8, n);
            let mut wire = ShardedAccumulator::new(drift, mz, 8, n);
            for k in 0..6u32 {
                // Large words so the 8-bit cells saturate.
                let f: Vec<u32> = frame(drift, mz, k).iter().map(|w| w * 3).collect();
                let bytes: Vec<u8> = f.iter().flat_map(|w| w.to_le_bytes()).collect();
                words.capture_frame(&f).unwrap();
                wire.capture_frame_bytes(&bytes).unwrap();
            }
            assert!(wire.saturation_events() > 0);
            assert_eq!(wire.saturation_events(), words.saturation_events());
            assert_eq!(wire.cycles(), words.cycles());
            assert_eq!(wire.drain_merged(), words.drain_merged(), "{n} shards");
        }
        let mut acc = ShardedAccumulator::new(2, 2, 16, 2);
        for len in [15, 17, 12] {
            assert!(
                acc.capture_frame_bytes(&vec![0u8; len]).is_err(),
                "{len} bytes"
            );
        }
        assert!(acc.drain_merged().iter().all(|&v| v == 0));
    }

    #[test]
    fn shape_mismatch_rejected_before_any_shard_mutates() {
        let mut acc = ShardedAccumulator::new(2, 4, 16, 2);
        let err = acc.capture_frame(&[1, 2, 3]).unwrap_err();
        assert_eq!(
            err,
            CaptureError::FrameShape {
                expected: 8,
                got: 3
            }
        );
        assert!(acc.drain_merged().iter().all(|&v| v == 0));
    }
}
