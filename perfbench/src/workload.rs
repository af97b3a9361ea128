//! The benchmark's three workloads, their correctness gate, and the
//! untraced (end-to-end) measurement loop.
//!
//! Every operation is checked against a reference output FNV computed
//! once per input seed before any timed window: the inline executor on the
//! same spec and seed, or — for a replay — the capture manifest (which is
//! itself checked against the inline reference when it is written).

use crate::stats;
use htims::core::capture::CaptureLog;
use htims::core::fault::session_seed;
use htims::core::pipeline::{
    output_fingerprint, PipelineOutput, RunOutcome, SchedStatsSnapshot, Scheduler, SessionConfig,
    SessionManager,
};
use htims::graph::{CaptureManifest, GraphSpec};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which operation a workload repeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One E3 run on the scheduled executor, frames generated live.
    E3Live,
    /// One E3 replay of a capture log written during set-up.
    E3Replay,
    /// Tenant sessions admitted onto one `SessionManager`, closed loop.
    TenantsSmall,
}

/// Distinct session seeds a `tenants_small` run cycles through; each has
/// its reference FNV computed during set-up.
const SESSION_SEEDS: u64 = 64;

/// One workload: an operation kind, the graph it runs (its `seed` field is
/// replaced per operation) and the number of concurrent clients.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Operation kind.
    pub kind: Kind,
    /// Graph shape, backend, executor and accumulator sharding.
    pub spec: GraphSpec,
    /// Concurrent closed-loop clients (tenants); 1 for the E3 workloads.
    pub clients: usize,
}

/// Every workload name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["e3_live", "e3_replay", "tenants_small"];

impl Workload {
    /// The workload called `name`, or `None` for an unknown name.
    pub fn named(name: &str) -> Option<Self> {
        // E3 acquisition shape: PRS degree 9 (511 drift bins) × 1000 m/z,
        // software backend at pool width, scheduled executor.
        let e3 = GraphSpec {
            frames: 20,
            blocks: 1,
            backend: "software".into(),
            threads: 0,
            executor: "scheduled".into(),
            shards: 0,
            ..GraphSpec::e3()
        };
        let w = match name {
            "e3_live" => Workload {
                kind: Kind::E3Live,
                spec: e3,
                clients: 1,
            },
            "e3_replay" => Workload {
                kind: Kind::E3Replay,
                spec: GraphSpec {
                    frames: 4,
                    blocks: 5,
                    shards: 4,
                    ..e3
                },
                clients: 1,
            },
            "tenants_small" => Workload {
                kind: Kind::TenantsSmall,
                spec: GraphSpec {
                    degree: 6,
                    mz: 60,
                    coarse: Some(30),
                    frames: 16,
                    blocks: 4,
                    backend: "fpga".into(),
                    executor: "scheduled".into(),
                    ..GraphSpec::small()
                },
                clients: nproc(),
            },
            _ => return None,
        };
        Some(w)
    }

    /// The spec of one operation on input seed `seed`.
    pub fn spec_for(&self, seed: u64) -> GraphSpec {
        GraphSpec {
            seed,
            ..self.spec.clone()
        }
    }

    /// Frames one operation pushes through the graph.
    pub fn frames_per_op(&self) -> u64 {
        self.spec.frames * self.spec.blocks as u64
    }
}

/// Logical CPUs of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
}

/// Failed operations against attempted ones. An operation fails when its
/// outcome is not `Completed` or its output FNV differs from the reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed the check.
    pub failed: u64,
}

impl Gate {
    /// Records one checked operation; `why` is printed when it failed.
    pub fn record(&mut self, what: &str, ok: bool, why: &str) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("gate: {what} failed: {why}");
        }
        ok
    }

    /// Checks one operation's outcome and output FNV against `expected`.
    pub fn check(&mut self, what: &str, outcome: RunOutcome, fnv: u64, expected: u64) -> bool {
        let ok = outcome == RunOutcome::Completed && fnv == expected;
        let why = format!(
            "outcome {}, output FNV {fnv:#018x}, reference {expected:#018x}",
            outcome.as_str()
        );
        self.record(what, ok, &why)
    }

    /// [`check`](Self::check) on a pipeline output.
    pub fn check_output(&mut self, what: &str, out: &PipelineOutput, expected: u64) -> bool {
        let fnv = output_fingerprint(&out.blocks);
        self.check(what, out.report.outcome, fnv, expected)
    }

    /// Adds another gate's tallies.
    pub fn merge(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed share of attempted operations.
    pub fn failed_frac(&self) -> f64 {
        stats::failed_frac(self.failed, self.attempted)
    }
}

/// An input seed and the output FNV every operation on it must reproduce.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Input seed of the operation.
    pub seed: u64,
    /// Expected output FNV.
    pub fnv: u64,
}

/// What set-up leaves for the timed window.
pub struct Setup {
    /// Reference FNVs, one per input seed the window may run.
    pub references: Vec<Reference>,
    /// The read-only capture log `e3_replay` replays.
    pub capture: Option<CaptureLog>,
    /// Checks made during set-up (reference runs, the capture run).
    pub gate: Gate,
}

/// Runs `spec` on the inline executor and returns its output FNV, or an
/// error when it does not complete. The reference the gate compares with.
fn inline_reference(spec: &GraphSpec) -> Result<Reference, String> {
    let out = spec.build()?.run_inline();
    if out.report.outcome != RunOutcome::Completed {
        return Err(format!(
            "inline reference for seed {} ended {}",
            spec.seed,
            out.report.outcome.as_str()
        ));
    }
    Ok(Reference {
        seed: spec.seed,
        fnv: output_fingerprint(&out.blocks),
    })
}

/// Computes the references for `seeds`, spread over the machine's cores.
fn inline_references(w: &Workload, seeds: &[u64]) -> Result<Vec<Reference>, String> {
    let chunk = seeds.len().div_ceil(nproc()).max(1);
    std::thread::scope(|s| {
        let handles: Vec<_> = seeds
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    part.iter()
                        .map(|&seed| inline_reference(&w.spec_for(seed)))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(seeds.len());
        for h in handles {
            out.extend(h.join().map_err(|_| "reference thread panicked")??);
        }
        Ok(out)
    })
}

/// Set-up outside every timed window: reference FNVs and, for
/// `e3_replay`, the capture log (written once, fsync-bound, never timed
/// here). `scratch` is a directory the benchmark owns.
pub fn setup(w: &Workload, seed: u64, scratch: &Path) -> Result<Setup, String> {
    let mut gate = Gate::default();
    match w.kind {
        Kind::E3Live => Ok(Setup {
            references: vec![inline_reference(&w.spec_for(seed))?],
            capture: None,
            gate,
        }),
        Kind::E3Replay => {
            let reference = inline_reference(&w.spec_for(seed))?;
            let dir = scratch.join("capture");
            let spec = GraphSpec {
                capture_log: Some(dir.to_string_lossy().into_owned()),
                ..w.spec_for(seed)
            };
            let out = spec.run()?;
            gate.check_output("capture run", &out, reference.fnv);
            let text = std::fs::read_to_string(dir.join("manifest.json"))
                .map_err(|e| format!("cannot read capture manifest: {e}"))?;
            let manifest: CaptureManifest =
                serde_json::from_str(&text).map_err(|e| format!("bad capture manifest: {e}"))?;
            let log =
                CaptureLog::open(&dir).map_err(|e| format!("cannot open capture log: {e}"))?;
            Ok(Setup {
                references: vec![Reference {
                    fnv: manifest.output_fnv,
                    ..reference
                }],
                capture: Some(log),
                gate,
            })
        }
        Kind::TenantsSmall => {
            let seeds: Vec<u64> = (0..SESSION_SEEDS).map(|i| session_seed(seed, i)).collect();
            Ok(Setup {
                references: inline_references(w, &seeds)?,
                capture: None,
                gate,
            })
        }
    }
}

/// What one untraced measurement window observed.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each completed operation, seconds (admission to join for
    /// a session, call to return for a run or replay).
    pub op_s: Vec<f64>,
    /// Wall time of each `GraphSpec::build` (acquisition, spec build and
    /// deconv planning), seconds.
    pub build_s: Vec<f64>,
    /// Wall time of each `SessionManager::admit` call, seconds.
    pub admit_s: Vec<f64>,
    /// Frames through the graph in operations that passed the gate.
    pub frames: u64,
    /// Host seconds the throughput is taken over: summed operation time
    /// for the one-client E3 workloads, window wall time for tenants.
    pub busy_s: f64,
    /// Scheduler counters accumulated over the window.
    pub sched: SchedStatsSnapshot,
    /// Correctness tallies of the window's operations.
    pub gate: Gate,
}

impl Window {
    /// Frames per host second.
    pub fn frames_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.frames as f64 / self.busy_s
        } else {
            0.0
        }
    }
}

fn sched_delta(before: SchedStatsSnapshot, after: SchedStatsSnapshot) -> SchedStatsSnapshot {
    SchedStatsSnapshot {
        local_pops: after.local_pops - before.local_pops,
        injector_pops: after.injector_pops - before.injector_pops,
        steals: after.steals - before.steals,
        executed: after.executed - before.executed,
        parks: after.parks - before.parks,
        wakes: after.wakes - before.wakes,
        dwell_samples: after.dwell_samples - before.dwell_samples,
    }
}

/// Repeats the workload's operation until `seconds` have passed (at least
/// one operation), tracing off, checking every output against `setup`.
pub fn measure(w: &Workload, setup: &Setup, seconds: f64) -> Window {
    let sched = Scheduler::global();
    let before = sched.stats();
    let mut window = match w.kind {
        Kind::E3Live | Kind::E3Replay => measure_runs(w, setup, seconds),
        Kind::TenantsSmall => measure_tenants(w, setup, seconds),
    };
    window.sched = sched_delta(before, sched.stats());
    window
}

fn measure_runs(w: &Workload, setup: &Setup, seconds: f64) -> Window {
    let reference = setup.references[0];
    let spec = w.spec_for(reference.seed);
    let mut win = Window::default();
    let start = Instant::now();
    while win.gate.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let t_build = Instant::now();
        let pipeline = match spec.build() {
            Ok(p) => p,
            Err(e) => {
                win.gate.record("build", false, &e);
                break;
            }
        };
        win.build_s.push(t_build.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let out = match (&setup.capture, w.kind) {
            (Some(log), Kind::E3Replay) => match log.read_all() {
                Ok(packets) => pipeline.with_replay_source(packets).run_scheduled(),
                Err(e) => {
                    win.gate.record("capture read", false, &e.to_string());
                    break;
                }
            },
            _ => pipeline.run_scheduled(),
        };
        let dt = t0.elapsed().as_secs_f64();
        if win.gate.check_output("run", &out, reference.fnv) {
            win.op_s.push(dt);
            win.frames += out.report.frames;
        }
        win.busy_s += dt;
    }
    win
}

fn measure_tenants(w: &Workload, setup: &Setup, seconds: f64) -> Window {
    let manager = SessionManager::new(Scheduler::global().clone(), w.clients);
    let fingerprint = w.spec.fingerprint();
    let next = AtomicUsize::new(0);
    let total = Mutex::new(Window::default());
    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        for tenant in 0..w.clients {
            let (manager, fingerprint, next, total) = (&manager, &fingerprint, &next, &total);
            s.spawn(move || {
                let mut mine = Window::default();
                while mine.gate.attempted == 0 || start.elapsed() < window {
                    let k = next.fetch_add(1, Ordering::Relaxed);
                    let reference = setup.references[k % setup.references.len()];
                    let spec = w.spec_for(reference.seed);
                    let t_build = Instant::now();
                    let pipeline = match spec.build() {
                        Ok(p) => p,
                        Err(e) => {
                            mine.gate.record("build", false, &e);
                            break;
                        }
                    };
                    mine.build_s.push(t_build.elapsed().as_secs_f64());
                    let config = SessionConfig {
                        label: format!("t{tenant}"),
                        seed: reference.seed,
                        fingerprint: fingerprint.clone(),
                        fault_spec: None,
                    };
                    let t0 = Instant::now();
                    let handle = match manager.admit(config, pipeline) {
                        Ok(h) => h,
                        Err((e, _)) => {
                            mine.gate.record("admission", false, &e.to_string());
                            continue;
                        }
                    };
                    mine.admit_s.push(t0.elapsed().as_secs_f64());
                    let out = handle.join();
                    let dt = t0.elapsed().as_secs_f64();
                    if mine.gate.check_output("session", &out, reference.fnv) {
                        mine.op_s.push(dt);
                        mine.frames += out.report.frames;
                    }
                }
                let mut total = total.lock().expect("no tenant panics holding the tally");
                total.op_s.extend(mine.op_s);
                total.build_s.extend(mine.build_s);
                total.admit_s.extend(mine.admit_s);
                total.frames += mine.frames;
                total.gate.merge(mine.gate);
            });
        }
    });
    let mut win = total.into_inner().expect("tenant tallies are whole");
    win.busy_s = start.elapsed().as_secs_f64();
    win
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A workload shrunk to test size (degree 5, 24 m/z, few frames).
    fn tiny(name: &str) -> Workload {
        let mut w = Workload::named(name).expect("known workload");
        w.spec.degree = 5;
        w.spec.mz = 24;
        w.spec.coarse = w.spec.coarse.map(|_| 12);
        w.spec.frames = 4;
        w.spec.blocks = 2;
        w
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create test scratch dir");
        dir
    }

    fn run_tiny(name: &str, seed: u64, corrupt_reference: bool) -> Gate {
        let w = tiny(name);
        let dir = scratch(&format!("{name}-{seed}-{corrupt_reference}"));
        let mut setup = setup(&w, seed, &dir).expect("set-up succeeds");
        if corrupt_reference {
            for r in &mut setup.references {
                r.fnv ^= 1;
            }
        }
        let window = measure(&w, &setup, 0.05);
        let _ = std::fs::remove_dir_all(&dir);
        let mut gate = setup.gate;
        gate.merge(window.gate);
        gate
    }

    #[test]
    fn every_workload_is_named() {
        for name in NAMES {
            assert!(Workload::named(name).is_some(), "{name}");
        }
        assert!(Workload::named("threaded").is_none());
    }

    #[test]
    fn gate_counts_wrong_outcome_and_wrong_fnv() {
        let mut gate = Gate::default();
        assert!(gate.check("ok", RunOutcome::Completed, 7, 7));
        assert!(!gate.check("fnv", RunOutcome::Completed, 7, 8));
        assert!(!gate.check("outcome", RunOutcome::Degraded, 7, 7));
        assert_eq!(
            gate,
            Gate {
                attempted: 3,
                failed: 2
            }
        );
        assert!((gate.failed_frac() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wrong_reference_fnv_is_caught_on_every_workload() {
        for name in NAMES {
            let gate = run_tiny(name, 11, true);
            assert!(gate.attempted > 0, "{name}");
            assert!(gate.failed > 0, "{name}: a wrong reference passed the gate");
        }
    }

    #[test]
    fn two_seeds_pass_the_gate_on_every_workload() {
        // The second seed is a held-out input: later performance claims
        // must hold on a seed other than the one they were tuned on.
        for name in NAMES {
            for seed in [1, 2] {
                let gate = run_tiny(name, seed, false);
                assert!(gate.attempted > 0, "{name} seed {seed}");
                assert_eq!(gate.failed, 0, "{name} seed {seed}");
            }
        }
    }
}
