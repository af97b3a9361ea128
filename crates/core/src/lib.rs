//! `htims-core` — simulation of data capture and signal processing for an
//! advanced (Hadamard-transform) ion mobility mass spectrometer.
//!
//! This crate reproduces the system described in Chavarría-Miranda, Clowers,
//! Anderson & Belov (SC'07): a hybrid application in which an FPGA component
//! performs data capture, accumulation, and PNNL-enhanced Hadamard-transform
//! deconvolution, while a CPU software component streams data in and
//! collects results. The instrument and the FPGA are themselves simulated
//! (see `ims-physics` and `ims-fpga`); this crate wires them into the full
//! data path and provides the floating-point software reference
//! implementation of every processing step.
//!
//! The main flow:
//!
//! 1. Build a [`acquisition::GateSchedule`] (signal averaging, classic
//!    multiplexed, or oversampled/modified multiplexed) and an
//!    `ims_physics::Instrument`.
//! 2. Run [`acquisition::acquire`] to produce an [`acquisition::AcquiredData`]
//!    block — the Poisson/ADC-sampled accumulated 2-D matrix, exactly what
//!    the FPGA's capture engine would hand to its deconvolution core.
//! 3. Deconvolve with a [`deconvolution::Deconvolver`] — the ideal fast
//!    Hadamard inverse or the weighted (PNNL-enhanced) inverse — either in
//!    software ([`parallel`] runs it across cores) or through the
//!    cycle-accounted FPGA model (the hybrid stage graph a
//!    [`graph::GraphSpec`] describes).
//! 4. Score the result against ground truth with [`metrics`] and identify
//!    analytes with [`analysis`].
//!
//! # Example: one multiplexed acquisition, deconvolved and identified
//!
//! ```
//! use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
//! use htims_core::analysis::{build_library, find_features, match_library};
//! use htims_core::deconvolution::Deconvolver;
//! use ims_physics::{Instrument, Workload};
//! use rand::SeedableRng;
//!
//! let mut instrument = Instrument::with_drift_bins(127); // PRS order 7
//! instrument.tof.n_bins = 300;
//! let workload = Workload::three_peptide_mix();
//! let schedule = GateSchedule::multiplexed(7);
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let data = acquire(&instrument, &workload, &schedule, 30,
//!                    AcquireOptions::default(), &mut rng);
//! assert!(data.ion_utilization > 0.5); // trap + multiplexing
//!
//! let map = Deconvolver::Weighted { lambda: 1e-6 }.deconvolve(&schedule, &data);
//! let ids = match_library(
//!     &find_features(&map, 8.0),
//!     &build_library(&instrument, &workload),
//!     4,
//!     3,
//! );
//! assert!(!ids.is_empty());
//! ```

#![warn(missing_docs)]

pub mod acquisition;
pub mod analysis;
pub mod capture;
pub mod config;
pub mod deconv_batch;
pub mod deconvolution;
pub mod dynamic;
pub mod fault;
pub mod graph;
pub mod hybrid;
pub mod kernel;
pub mod metrics;
pub mod parallel;
pub mod pipeline;

pub use acquisition::{acquire, AcquiredData, GateSchedule};
pub use config::ExperimentConfig;
pub use deconv_batch::BatchDeconvolver;
pub use deconvolution::Deconvolver;
