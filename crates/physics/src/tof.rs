//! Orthogonal time-of-flight mass analyser.
//!
//! Every IMS drift bin is sub-sampled by thousands of orthogonal TOF
//! extractions; the per-bin data the capture engine sees is a full m/z
//! spectrum. The analyser model maps species to m/z peak envelopes
//! (isotopic fine structure included) on a fixed m/z grid, with a
//! resolution-limited Gaussian profile per isotope.

use crate::constants::PROTON_MASS_DA;
use crate::ion::IonSpecies;
use crate::isotope::averagine_envelope;
use serde::{Deserialize, Serialize};

/// Orthogonal-TOF mass analyser with a uniform m/z grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TofAnalyzer {
    /// Lower edge of the m/z range, Th.
    pub mz_min: f64,
    /// Upper edge of the m/z range, Th.
    pub mz_max: f64,
    /// Number of m/z bins.
    pub n_bins: usize,
    /// Mass resolving power `m/Δm` (FWHM definition).
    pub resolving_power: f64,
    /// Maximum isotope peaks modelled per species.
    pub max_isotopes: usize,
}

impl Default for TofAnalyzer {
    fn default() -> Self {
        Self {
            mz_min: 200.0,
            mz_max: 2200.0,
            n_bins: 2000,
            resolving_power: 5000.0,
            max_isotopes: 6,
        }
    }
}

impl TofAnalyzer {
    /// Bin width in Th.
    pub fn bin_width(&self) -> f64 {
        (self.mz_max - self.mz_min) / self.n_bins as f64
    }

    /// Bin index for an m/z, or `None` if outside the range.
    pub fn bin_of(&self, mz: f64) -> Option<usize> {
        if mz < self.mz_min || mz >= self.mz_max {
            return None;
        }
        Some(((mz - self.mz_min) / self.bin_width()) as usize)
    }

    /// m/z at a bin centre.
    pub fn mz_of(&self, bin: usize) -> f64 {
        self.mz_min + (bin as f64 + 0.5) * self.bin_width()
    }

    /// The m/z profile of one species, normalised to unit total area
    /// (fraction of the species' ions landing per m/z bin). Species outside
    /// the range produce an all-zero profile.
    pub fn species_profile(&self, species: &IonSpecies) -> Vec<f64> {
        let mut profile = vec![0.0; self.n_bins];
        let envelope = averagine_envelope(species.mass_da, self.max_isotopes);
        let z = species.charge as f64;
        let width = self.bin_width();
        for (iso, &frac) in envelope.iter().enumerate() {
            if frac <= 0.0 {
                continue;
            }
            // Isotopes are spaced ~1.00235 Da apart (averaged C/N spacing).
            let mz = (species.mass_da + iso as f64 * 1.002_35 + z * PROTON_MASS_DA) / z;
            if mz < self.mz_min || mz >= self.mz_max {
                continue;
            }
            let sigma_mz = (mz / self.resolving_power) / crate::constants::FWHM_SIGMA;
            let sigma_bins = (sigma_mz / width).max(0.05);
            // gaussian_binned integrates over [i, i+1), so positions are in
            // bin-edge coordinates.
            let mu_bins = (mz - self.mz_min) / width;
            let peak = ims_signal::peaks::gaussian_binned(self.n_bins, mu_bins, sigma_bins, frac);
            for (p, v) in profile.iter_mut().zip(peak.iter()) {
                *p += v;
            }
        }
        profile
    }

    /// True if two species are separated by at least one FWHM in m/z.
    pub fn resolves(&self, a: &IonSpecies, b: &IonSpecies) -> bool {
        let mza = a.mz();
        let mzb = b.mz();
        let fwhm = mza.max(mzb) / self.resolving_power;
        (mza - mzb).abs() > fwhm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn peptide(mass: f64, z: u32) -> IonSpecies {
        IonSpecies::new(format!("m{mass}z{z}"), mass, z, 300.0, 1.0)
    }

    #[test]
    fn profile_lands_at_the_right_mz() {
        let tof = TofAnalyzer::default();
        let sp = peptide(1000.0, 2);
        let profile = tof.species_profile(&sp);
        let (apex, _) = ims_signal::stats::argmax(&profile).unwrap();
        let apex_mz = tof.mz_of(apex);
        assert!(
            (apex_mz - sp.mz()).abs() < 2.0 * tof.bin_width(),
            "apex at {apex_mz}"
        );
    }

    #[test]
    fn profile_area_is_isotope_coverage() {
        let tof = TofAnalyzer::default();
        let sp = peptide(1000.0, 2);
        let total: f64 = tof.species_profile(&sp).iter().sum();
        // All modelled isotopes are in range, so area ≈ 1.
        assert!((total - 1.0).abs() < 0.02, "area {total}");
    }

    #[test]
    fn out_of_range_species_is_silent() {
        let tof = TofAnalyzer::default();
        let heavy = peptide(10_000.0, 1); // m/z 10001 > 2200
        assert!(tof.species_profile(&heavy).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn isotope_spacing_visible_at_high_resolution() {
        let tof = TofAnalyzer {
            resolving_power: 20_000.0,
            n_bins: 20_000,
            ..Default::default()
        };
        let sp = peptide(1200.0, 1);
        let profile = tof.species_profile(&sp);
        let peaks = ims_signal::peaks::PeakFinder::with_min_height(1e-4).find(&profile);
        assert!(peaks.len() >= 3, "found {} isotope peaks", peaks.len());
        // First two isotopes 1 Da apart.
        let mut centroids: Vec<f64> = peaks.iter().map(|p| tof.mz_of(p.apex)).collect();
        centroids.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((centroids[1] - centroids[0] - 1.0).abs() < 0.1);
    }

    #[test]
    fn resolves_follows_resolution() {
        let tof = TofAnalyzer::default();
        let a = peptide(1000.0, 1);
        let close = peptide(1000.05, 1); // Δm/z = 0.05 < FWHM 0.2
        let far = peptide(1001.0, 1);
        assert!(!tof.resolves(&a, &close));
        assert!(tof.resolves(&a, &far));
    }

    #[test]
    fn bin_mapping_round_trips() {
        let tof = TofAnalyzer::default();
        assert_eq!(tof.bin_of(tof.mz_min - 1.0), None);
        assert_eq!(tof.bin_of(tof.mz_max + 1.0), None);
        let bin = tof.bin_of(700.0).unwrap();
        assert!((tof.mz_of(bin) - 700.0).abs() <= tof.bin_width());
    }
}
