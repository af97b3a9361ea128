//! Umbrella crate for the HT-IMS data-processing simulation.
//!
//! Re-exports the workspace crates so the examples and integration tests can
//! use a single dependency. Downstream users should depend on the individual
//! crates (`htims-core`, `ims-physics`, …) directly.

pub mod chaos;
pub use htims_core::graph;

pub use htims_core as core;
pub use ims_fpga as fpga;
pub use ims_obs as obs;
pub use ims_physics as physics;
pub use ims_prs as prs;
pub use ims_signal as signal;
