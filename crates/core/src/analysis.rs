//! Downstream analysis: 2-D feature finding on deconvolved maps and
//! library matching — the "collecting results" role of the paper's software
//! component, taken through to analyte identification.

use ims_physics::{DriftTofMap, Instrument, Workload};
use ims_signal::stats;
use serde::{Deserialize, Serialize};

/// A detected 2-D feature.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Feature {
    /// Drift bin of the local maximum.
    pub drift_bin: usize,
    /// m/z bin of the local maximum.
    pub mz_bin: usize,
    /// Intensity at the maximum.
    pub intensity: f64,
    /// Intensity over the map's robust noise floor.
    pub snr: f64,
    /// Sub-bin m/z position: intensity-weighted centroid over the 3×3
    /// neighbourhood, in fractional bins (enables ppm-level mass work on a
    /// coarse grid).
    pub mz_centroid: f64,
    /// Sub-bin drift position, fractional bins.
    pub drift_centroid: f64,
}

/// Finds local maxima above `k_sigma` robust σ of the map.
///
/// A cell is a feature when it exceeds the threshold and is the strict
/// maximum of its 3×3 neighbourhood (8-connected). Returns features sorted
/// by decreasing intensity.
pub fn find_features(map: &DriftTofMap, k_sigma: f64) -> Vec<Feature> {
    let data = map.data();
    // Floor σ so near-empty/noise-free maps still produce finite, ordered SNRs.
    let sigma = stats::mad_sigma(data).max(1e-12);
    let base = stats::median(data);
    let threshold = base + k_sigma * sigma;
    let (dn, mn) = (map.drift_bins(), map.mz_bins());
    let mut features = Vec::new();
    for d in 1..dn.saturating_sub(1) {
        for m in 1..mn.saturating_sub(1) {
            let v = map.at(d, m);
            if v < threshold {
                continue;
            }
            let mut is_max = true;
            'scan: for dd in d - 1..=d + 1 {
                for mm in m - 1..=m + 1 {
                    if (dd, mm) == (d, m) {
                        continue;
                    }
                    let n = map.at(dd, mm);
                    if n > v || (n == v && (dd, mm) < (d, m)) {
                        is_max = false;
                        break 'scan;
                    }
                }
            }
            if is_max {
                // Intensity-weighted sub-bin centroids over the 3×3
                // neighbourhood (baseline-subtracted, clamped at zero).
                let mut wsum = 0.0;
                let mut dsum = 0.0;
                let mut msum = 0.0;
                for dd in d - 1..=d + 1 {
                    for mm in m - 1..=m + 1 {
                        let w = (map.at(dd, mm) - base).max(0.0);
                        wsum += w;
                        dsum += w * dd as f64;
                        msum += w * mm as f64;
                    }
                }
                let (drift_centroid, mz_centroid) = if wsum > 0.0 {
                    (dsum / wsum, msum / wsum)
                } else {
                    (d as f64, m as f64)
                };
                features.push(Feature {
                    drift_bin: d,
                    mz_bin: m,
                    intensity: v,
                    snr: (v - base) / sigma,
                    mz_centroid,
                    drift_centroid,
                });
            }
        }
    }
    features.sort_by(|a, b| {
        b.intensity
            .partial_cmp(&a.intensity)
            .expect("NaN intensity")
    });
    features
}

/// A library entry: where a known species is expected to appear.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LibraryEntry {
    /// Species name.
    pub name: String,
    /// Predicted drift bin.
    pub drift_bin: usize,
    /// Predicted m/z bin.
    pub mz_bin: usize,
    /// Source abundance (for detection-limit bookkeeping).
    pub abundance: f64,
}

/// Builds the prediction library for a workload on an instrument.
///
/// Species that fall outside the drift window or m/z range are skipped.
pub fn build_library(instrument: &Instrument, workload: &Workload) -> Vec<LibraryEntry> {
    workload
        .species
        .iter()
        .filter_map(|sp| {
            let t = instrument.tube.drift_time_s(sp);
            let drift_bin = (t / instrument.bin_width_s).round() as usize;
            if drift_bin >= instrument.drift_bins {
                return None;
            }
            let mz_bin = instrument.tof.bin_of(sp.mz())?;
            Some(LibraryEntry {
                name: sp.name.clone(),
                drift_bin,
                mz_bin,
                abundance: sp.abundance,
            })
        })
        .collect()
}

/// A matched identification.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Identification {
    /// The library entry matched.
    pub entry: LibraryEntry,
    /// The matched feature.
    pub feature: Feature,
    /// Drift error, bins.
    pub drift_error: i64,
    /// m/z error, bins.
    pub mz_error: i64,
}

/// Greedy nearest matching of features against a library within tolerances.
/// Each feature is used at most once; entries are matched in order of
/// decreasing feature intensity.
pub fn match_library(
    features: &[Feature],
    library: &[LibraryEntry],
    drift_tol: usize,
    mz_tol: usize,
) -> Vec<Identification> {
    let mut used = vec![false; features.len()];
    let mut out = Vec::new();
    for entry in library {
        let mut best: Option<(usize, u64)> = None;
        for (fi, f) in features.iter().enumerate() {
            if used[fi] {
                continue;
            }
            let dd = f.drift_bin.abs_diff(entry.drift_bin);
            let dm = f.mz_bin.abs_diff(entry.mz_bin);
            if dd <= drift_tol && dm <= mz_tol {
                let score = (dd * dd + dm * dm) as u64;
                if best.is_none_or(|(_, s)| score < s) {
                    best = Some((fi, score));
                }
            }
        }
        if let Some((fi, _)) = best {
            used[fi] = true;
            let f = features[fi];
            out.push(Identification {
                entry: entry.clone(),
                feature: f,
                drift_error: f.drift_bin as i64 - entry.drift_bin as i64,
                mz_error: f.mz_bin as i64 - entry.mz_bin as i64,
            });
        }
    }
    out
}

/// Fraction of library entries identified.
pub fn identification_rate(ids: &[Identification], library: &[LibraryEntry]) -> f64 {
    if library.is_empty() {
        return 0.0;
    }
    ids.len() as f64 / library.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::acquisition::{acquire, AcquireOptions, GateSchedule};
    use crate::deconvolution::Deconvolver;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn finds_planted_2d_features() {
        let mut map = DriftTofMap::zeros(50, 40);
        *map.at_mut(10, 20) = 100.0;
        *map.at_mut(30, 5) = 60.0;
        // Ridge neighbours below the peaks.
        *map.at_mut(10, 21) = 40.0;
        *map.at_mut(11, 20) = 40.0;
        let features = find_features(&map, 5.0);
        assert_eq!(features.len(), 2);
        assert_eq!((features[0].drift_bin, features[0].mz_bin), (10, 20));
        assert_eq!((features[1].drift_bin, features[1].mz_bin), (30, 5));
        assert!(features[0].snr > features[1].snr);
    }

    #[test]
    fn centroids_track_sub_bin_asymmetry() {
        let mut map = DriftTofMap::zeros(20, 20);
        // Apex at (10, 10) with a heavier right shoulder in m/z and a
        // heavier lower shoulder in drift: centroid must shift that way.
        *map.at_mut(10, 10) = 100.0;
        *map.at_mut(10, 11) = 60.0;
        *map.at_mut(10, 9) = 20.0;
        *map.at_mut(11, 10) = 50.0;
        *map.at_mut(9, 10) = 10.0;
        let features = find_features(&map, 3.0);
        assert_eq!(features.len(), 1);
        let f = features[0];
        assert!(
            f.mz_centroid > 10.05 && f.mz_centroid < 10.5,
            "mz {}",
            f.mz_centroid
        );
        assert!(
            f.drift_centroid > 10.05 && f.drift_centroid < 10.5,
            "drift {}",
            f.drift_centroid
        );
    }

    #[test]
    fn symmetric_peak_centroids_at_bin_centre() {
        let mut map = DriftTofMap::zeros(20, 20);
        *map.at_mut(10, 10) = 100.0;
        for (d, m) in [(9, 10), (11, 10), (10, 9), (10, 11)] {
            *map.at_mut(d, m) = 40.0;
        }
        let f = find_features(&map, 3.0)[0];
        assert!((f.mz_centroid - 10.0).abs() < 1e-9);
        assert!((f.drift_centroid - 10.0).abs() < 1e-9);
    }

    #[test]
    fn plateau_produces_single_feature() {
        let mut map = DriftTofMap::zeros(20, 20);
        *map.at_mut(5, 5) = 10.0;
        *map.at_mut(5, 6) = 10.0;
        let features = find_features(&map, 3.0);
        assert_eq!(features.len(), 1);
    }

    #[test]
    fn library_matching_with_tolerance() {
        let features = vec![
            Feature {
                drift_bin: 100,
                mz_bin: 50,
                intensity: 10.0,
                snr: 20.0,
                mz_centroid: 50.0,
                drift_centroid: 100.0,
            },
            Feature {
                drift_bin: 200,
                mz_bin: 80,
                intensity: 5.0,
                snr: 10.0,
                mz_centroid: 80.0,
                drift_centroid: 200.0,
            },
        ];
        let library = vec![
            LibraryEntry {
                name: "a".into(),
                drift_bin: 102,
                mz_bin: 50,
                abundance: 1.0,
            },
            LibraryEntry {
                name: "b".into(),
                drift_bin: 300,
                mz_bin: 10,
                abundance: 1.0,
            },
        ];
        let ids = match_library(&features, &library, 3, 2);
        assert_eq!(ids.len(), 1);
        assert_eq!(ids[0].entry.name, "a");
        assert_eq!(ids[0].drift_error, -2);
        assert!((identification_rate(&ids, &library) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn each_feature_matched_once() {
        let features = vec![Feature {
            drift_bin: 100,
            mz_bin: 50,
            intensity: 10.0,
            snr: 20.0,
            mz_centroid: 50.0,
            drift_centroid: 100.0,
        }];
        let library = vec![
            LibraryEntry {
                name: "a".into(),
                drift_bin: 100,
                mz_bin: 50,
                abundance: 1.0,
            },
            LibraryEntry {
                name: "b".into(),
                drift_bin: 101,
                mz_bin: 50,
                abundance: 1.0,
            },
        ];
        let ids = match_library(&features, &library, 3, 2);
        assert_eq!(ids.len(), 1, "one feature cannot explain two entries");
    }

    #[test]
    fn end_to_end_identification_of_three_peptide_mix() {
        let mut inst = ims_physics::Instrument::with_drift_bins(255);
        inst.tof.n_bins = 400;
        let w = ims_physics::Workload::three_peptide_mix();
        let schedule = GateSchedule::multiplexed(8);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let data = acquire(
            &inst,
            &w,
            &schedule,
            100,
            AcquireOptions::default(),
            &mut rng,
        );
        let deconvolved = Deconvolver::Weighted { lambda: 1e-5 }.deconvolve(&schedule, &data);
        let features = find_features(&deconvolved, 8.0);
        let library = build_library(&inst, &w);
        assert!(!library.is_empty());
        let ids = match_library(&features, &library, 4, 3);
        let rate = identification_rate(&ids, &library);
        assert!(
            rate > 0.6,
            "identified {}/{} library species",
            ids.len(),
            library.len()
        );
    }
}
