//! End-to-end and per-layer benchmark of the htims data path.
//!
//! ```text
//! python3 perfbench/run.py \
//!     --workload e3_live|e3_replay|tenants_small --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it repeats the workload's operation for `S` seconds with
//! tracing off and reports the end-to-end metrics; with `--trace 1` it
//! reports the per-layer metrics of a traced run (see `trace.rs`). Inputs
//! are a pure function of the seed. Every operation's output is checked
//! against a reference FNV computed before the timed window; any failure
//! makes the exit code non-zero.
//!
//! Standard output carries a provenance line and, last, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! A human-readable report goes to standard error.

mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Metric;
use workload::{Gate, Workload};

/// The E3 acquisition budget: one 20-frame block per 397 ms.
const REAL_TIME_FRAMES_PER_S: f64 = 20.0 / 0.397;

/// How many times set-up is repeated for the `setup_s` median when the
/// window itself builds fewer pipelines than this.
const MIN_SETUP_SAMPLES: usize = 5;

/// Samples a percentile must have beyond it to be trusted.
const MIN_TAIL_SAMPLES: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// A directory inside the benchmark's own tree for capture logs; removed
/// again when the run ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Result<Self, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("run-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Resets the process's peak-RSS mark, so the next read covers only what
/// follows. Best effort: without it the peak includes set-up.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn provenance(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).map_or("null".to_string(), |v| json_string(&v));
    // Only its compile-time `git describe` stamp is used here.
    let prov = htims::obs::session::Provenance::collect(0, 0);
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {}, \"pool_threads\": {}, \"simd\": {}, \"HTIMS_SIMD\": {}, \
         \"HTIMS_PROF_HZ\": {}, \"prof_hz\": {}, \"git_describe\": {}}}}}",
        json_string(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::nproc(),
        htims::core::pipeline::Scheduler::global().threads(),
        json_string(htims::signal::simd::active_name()),
        env("HTIMS_SIMD"),
        env("HTIMS_PROF_HZ"),
        htims::obs::prof::hz(),
        json_string(&prov.git_describe),
    )
}

fn result_line(gate: Gate, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0 && gate.attempted > 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    )
}

/// The untraced run: end-to-end metrics.
fn end_to_end(w: &Workload, setup: &workload::Setup, args: &Args) -> (Gate, Vec<Metric>) {
    reset_peak_rss();
    let window = workload::measure(w, setup, args.seconds);
    let peak = peak_rss_mb();
    // Set-up time: one `GraphSpec::build` (acquisition, spec build, deconv
    // planning). Topped up outside the window when the window built few.
    let mut build_s = window.build_s.clone();
    let spec = w.spec_for(setup.references[0].seed);
    while build_s.len() < MIN_SETUP_SAMPLES {
        let t0 = Instant::now();
        if spec.build().is_err() {
            break;
        }
        build_s.push(t0.elapsed().as_secs_f64());
    }
    let mut gate = setup.gate;
    gate.merge(window.gate);
    let ms: Vec<f64> = window.op_s.iter().map(|s| s * 1e3).collect();
    let n = ms.len();
    let p50 = stats::percentile(&ms, 50.0).unwrap_or(0.0);
    let p90 = stats::percentile(&ms, 90.0).unwrap_or(0.0);
    let fps = window.frames_per_s();
    let setup_s = stats::median(&build_s).unwrap_or(0.0);
    eprintln!(
        "{}: {} operations, {} frames in {:.2} s busy",
        args.workload, gate.attempted, window.frames, window.busy_s
    );
    eprintln!(
        "  frames_per_s   {fps:10.3}  (real-time line {REAL_TIME_FRAMES_PER_S:.1} frames/s: {:.2}x)",
        fps / REAL_TIME_FRAMES_PER_S
    );
    eprintln!(
        "  session_ms     p50 {p50:.3}  p90 {p90:.3}  (n = {n}; highest percentile with {MIN_TAIL_SAMPLES} samples beyond: {})",
        stats::highest_supported_percentile(n, MIN_TAIL_SAMPLES)
            .map_or("none".to_string(), |p| format!("p{p}"))
    );
    if let (Some([q1, q2, q3]), Some(spread)) = (stats::quartiles(&ms), stats::spread(&ms)) {
        eprintln!(
            "  session_ms     quartiles {q1:.3} / {q2:.3} / {q3:.3}  (IQR {:.1}% of median)",
            spread * 100.0
        );
    }
    eprintln!(
        "  setup_s        {setup_s:.6}  (median of {} builds)",
        build_s.len()
    );
    eprintln!("  peak_rss_mb    {peak:.1}");
    eprintln!(
        "  failed_frac    {}  ({} of {} operations)",
        gate.failed_frac(),
        gate.failed,
        gate.attempted
    );
    // The p90 is reported above but not gated: only tenants_small runs the
    // 100 operations a p90 needs to have 10 samples beyond it, and a
    // gated metric must be reported on every workload.
    let metrics = vec![
        ("frames_per_s", "frames/s", fps),
        ("session_ms_p50", "ms", p50),
        ("setup_s", "s", setup_s),
        ("peak_rss_mb", "MB", peak),
    ];
    (gate, metrics)
}

fn traced(
    w: &Workload,
    setup: &workload::Setup,
    args: &Args,
    scratch: &Path,
) -> Result<(Gate, Vec<Metric>), String> {
    let t = trace::run(w, setup, args.seconds, scratch)?;
    let mut gate = setup.gate;
    gate.merge(t.gate);
    eprintln!(
        "{} traced run (reconciliation tolerance {}):",
        args.workload,
        trace::RECONCILE_TOLERANCE
    );
    for ((name, unit, value), (_, _, moves)) in t.metrics.iter().zip(trace::LAYER_METRICS) {
        eprintln!("  {name:30} {value:14.6} {unit:12} moves: {moves}");
    }
    Ok((gate, t.metrics))
}

fn run() -> i32 {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let Some(w) = Workload::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {} (use {})",
            args.workload,
            workload::NAMES.join(" | ")
        );
        return 2;
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let prov = provenance(&args);
    eprintln!("{prov}");
    let setup = match workload::setup(&w, args.seed, &scratch.0) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: set-up failed: {e}");
            return 1;
        }
    };
    let (gate, metrics) = if args.trace {
        match traced(&w, &setup, &args, &scratch.0) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: traced run failed: {e}");
                return 1;
            }
        }
    } else {
        end_to_end(&w, &setup, &args)
    };
    let mut gate = gate;
    if !metrics.iter().all(|m| m.2.is_finite()) {
        gate.record("metrics", false, "a metric is not a finite number");
    }
    println!("{prov}");
    println!("{}", result_line(gate, &metrics));
    if gate.failed == 0 && gate.attempted > 0 {
        0
    } else {
        1
    }
}

fn main() {
    let code = run();
    std::process::exit(code);
}
