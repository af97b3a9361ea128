//! Physics-based simulator of an advanced ion mobility / time-of-flight mass
//! spectrometer.
//!
//! The paper's simulation consumes data "from an advanced Ion Mobility mass
//! spectrometer" — PNNL's multiplexed ESI / ion-funnel-trap / drift-tube /
//! orthogonal-TOF instrument. We have no instrument, so this crate *is* the
//! instrument: a first-principles forward model that turns a list of analyte
//! species into the exact statistical structure of raw multiplexed IMS-TOF
//! data — Mason–Schamp mobilities, diffusion- and space-charge-limited peak
//! shapes, ion funnel trap accumulation with automated gain control,
//! Bradbury–Nielsen gate defects, TOF mass analysis with isotopic fine
//! structure, and MCP detection through either an ADC or a dead-time-limited
//! TDC.
//!
//! Every stochastic element draws from a caller-supplied RNG, so each
//! simulated acquisition is exactly reproducible from its seed.
//!
//! # Example: a peptide ion's drift time
//!
//! ```
//! use ims_physics::peptide::Peptide;
//! use ims_physics::{DriftTube, IonSpecies};
//!
//! let bradykinin = Peptide::new("RPPGFSPFR");
//! let ion = IonSpecies::new(
//!     "bradykinin/2+",
//!     bradykinin.monoisotopic_mass(),
//!     2,
//!     bradykinin.ccs_a2(2),
//!     1.0,
//! );
//! let tube = DriftTube::default();
//! let t = tube.drift_time_s(&ion);
//! // Tens of milliseconds at 4 Torr over 88 cm.
//! assert!(t > 5e-3 && t < 80e-3);
//! ```

#![warn(missing_docs)]

pub mod constants;
pub mod coulomb;
pub mod detector;
pub mod drift;
pub mod esi;
pub mod funnel;
pub mod gate;
pub mod instrument;
pub mod ion;
pub mod isotope;
pub mod map2d;
pub mod mobility;
pub mod peptide;
pub mod tof;
pub mod workload;

pub use drift::DriftTube;
pub use instrument::Instrument;
pub use ion::IonSpecies;
pub use map2d::DriftTofMap;
pub use tof::TofAnalyzer;
pub use workload::Workload;
