//! Typed pipeline errors, run verdicts, and supervision policy.
//!
//! The original dedicated-thread executor joined stage threads with
//! `expect`: one panicking stage aborted the whole process with no
//! report. These types replace that with a structured taxonomy — every
//! failure carries stage (and where known, frame/block) provenance, the
//! run drains cleanly, and the caller gets a partial
//! [`PipelineReport`](super::PipelineReport) whose [`RunOutcome`] says how
//! much to trust it.

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// A structured failure from one pipeline run.
///
/// Externally tagged in JSON (`{"StagePanicked": {...}}`), so survival
/// reports and ledger consumers can match on the variant name.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PipelineError {
    /// A stage thread panicked; the supervisor caught it, drained its
    /// input, and kept the rest of the graph alive.
    StagePanicked {
        /// Which stage panicked (`"source"`, `"deconvolve"`, …).
        stage: String,
        /// The panic payload, as text.
        message: String,
    },
    /// The watchdog saw no progress anywhere in the graph for the
    /// configured timeout and blamed the upstream-most unfinished stage.
    StageStalled {
        /// The blamed stage.
        stage: String,
        /// The stall timeout that fired, milliseconds.
        timeout_ms: u64,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::StagePanicked { stage, message } => {
                write!(f, "stage `{stage}` panicked: {message}")
            }
            PipelineError::StageStalled { stage, timeout_ms } => {
                write!(
                    f,
                    "stage `{stage}` stalled (no progress for {timeout_ms} ms)"
                )
            }
        }
    }
}

impl std::error::Error for PipelineError {}

/// The verdict on one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunOutcome {
    /// Clean run: no faults fired, nothing was lost.
    #[default]
    Completed,
    /// The run finished and produced output, but data was lost or a
    /// recovery policy engaged (quarantined frames, dropped frames,
    /// bit-flips, stalls survived, deconv fallback).
    Degraded,
    /// A fatal error ([`PipelineError`]) ended the run early; the report
    /// and any blocks are partial.
    Failed,
}

impl RunOutcome {
    /// Stable lowercase name (`completed` | `degraded` | `failed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            RunOutcome::Completed => "completed",
            RunOutcome::Degraded => "degraded",
            RunOutcome::Failed => "failed",
        }
    }
}

/// What to do with a frame whose integrity checksum fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CorruptPolicy {
    /// Quarantine the frame: count it, drop it, keep running (the run
    /// degrades instead of dying). The default.
    #[default]
    Drop,
    /// Panic the consuming stage — the supervisor converts that into a
    /// [`PipelineError::StagePanicked`] and a `Failed` verdict. For runs
    /// where silent data loss is worse than an abort.
    Fail,
}

/// Supervision and degradation policy for a pipeline run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Watchdog timeout: when no stage makes progress for this long, the
    /// run is declared stalled (injected stalls are cancelled so the
    /// graph drains). `None` disables the watchdog entirely — no thread
    /// is spawned, no overhead. Must exceed the slowest single-item
    /// processing time of any stage.
    pub stall_timeout: Option<Duration>,
    /// What to do with checksum-failed frames.
    pub corrupt_policy: CorruptPolicy,
    /// Whether the deconvolve stage may fall back to the software panel
    /// engine when a hardware-model backend fails (bit-identical output,
    /// so only cycle accounting changes). With this off, a backend
    /// failure panics the stage.
    pub deconv_fallback: bool,
    /// Consecutive hardware-backend failures after which the deconvolve
    /// stage switches to the software engine permanently instead of
    /// retrying the hardware path per block.
    pub max_consecutive_deconv_failures: u32,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            stall_timeout: None,
            corrupt_policy: CorruptPolicy::Drop,
            deconv_fallback: true,
            max_consecutive_deconv_failures: 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_round_trip_through_json_with_variant_tags() {
        let errs = vec![
            PipelineError::StagePanicked {
                stage: "deconvolve".into(),
                message: "backend failed on block 3".into(),
            },
            PipelineError::StageStalled {
                stage: "source".into(),
                timeout_ms: 250,
            },
        ];
        let json = serde_json::to_string(&errs).unwrap();
        assert!(json.contains("StagePanicked"), "{json}");
        assert!(json.contains("StageStalled"), "{json}");
        let back: Vec<PipelineError> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, errs);
        assert!(back[0].to_string().contains("deconvolve"));
        assert!(back[1].to_string().contains("250 ms"));
    }

    #[test]
    fn outcome_serializes_as_variant_name_and_defaults_completed() {
        assert_eq!(
            serde_json::to_string(&RunOutcome::Degraded).unwrap(),
            "\"Degraded\""
        );
        let back: RunOutcome = serde_json::from_str("\"Failed\"").unwrap();
        assert_eq!(back, RunOutcome::Failed);
        assert_eq!(RunOutcome::default(), RunOutcome::Completed);
        assert_eq!(RunOutcome::Degraded.as_str(), "degraded");
    }

    #[test]
    fn supervisor_defaults_are_safe() {
        let cfg = SupervisorConfig::default();
        assert!(cfg.stall_timeout.is_none(), "watchdog off by default");
        assert_eq!(cfg.corrupt_policy, CorruptPolicy::Drop);
        assert!(cfg.deconv_fallback);
        assert_eq!(cfg.max_consecutive_deconv_failures, 3);
    }
}
