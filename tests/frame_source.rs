//! Integration: the frame stream is pinned by golden FNVs at the E3 shape
//! and equals a per-cell libm reference loop on every SIMD backend; the
//! scheduled frame source emits what the inline reference emits — the
//! same capture-log order, the same fault decisions — and accounts one
//! latency sample per frame; end-to-end latency starts when a frame's
//! generation starts.
//!
//! Every scheduled run here uses a private 4-worker pool via `spawn_on`,
//! so the schedule does not depend on the machine's core count.

use htims::core::acquisition::{acquire, AcquireOptions, AcquiredData, GateSchedule};
use htims::core::capture::{CaptureLog, CAPTURE_SCHEMA_VERSION};
use htims::core::hybrid::FrameGenerator;
use htims::core::pipeline::{output_fingerprint, PipelineOutput, Scheduler};
use htims::fpga::dma::fnv1a64;
use htims::graph::{replay, CaptureManifest, GraphSpec};
use htims::physics::detector::AdcDetector;
use htims::physics::{Instrument, Workload};
use htims::signal::noise::{gaussian, poisson};
use htims::signal::simd;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::path::{Path, PathBuf};

/// FNV-1a 64 over the little-endian words of `GraphSpec::e3()` frames:
/// the generator's exact stream at real zero-mean occupancy (about 97% of
/// E3 cells have mean 0).
const E3_FRAME_FNVS: [(u64, u64); 3] = [
    (0, 18266487018014466266),
    (1, 2579607584825355947),
    (1_000_003, 14895153355631773197),
];

fn scheduled_on(
    pool: &Scheduler,
    spec: &GraphSpec,
    capture: Option<&CaptureLog>,
) -> PipelineOutput {
    let mut graph = spec.build().expect("spec builds");
    if let Some(log) = capture {
        graph = graph.with_capture_log(log.clone());
    }
    graph.spawn_on(pool).join()
}

fn inline(spec: &GraphSpec) -> PipelineOutput {
    GraphSpec {
        executor: "inline".into(),
        ..spec.clone()
    }
    .run()
    .expect("inline run")
}

fn temp_log_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("htims_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn logged_seq_nos(dir: &Path) -> Vec<u64> {
    CaptureLog::open(dir)
        .and_then(|log| log.read_all())
        .expect("capture log reads back")
        .iter()
        .map(|p| p.seq_no)
        .collect()
}

#[test]
fn e3_frames_keep_their_golden_fnvs() {
    let (gen, _) = GraphSpec::e3().acquisition();
    for (frame_no, fnv) in E3_FRAME_FNVS {
        let bytes: Vec<u8> = gen
            .frame(frame_no)
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect();
        assert_eq!(fnv1a64(&bytes), fnv, "E3 frame {frame_no}");
    }
}

/// `spec`'s acquisition as [`GraphSpec::acquisition`] draws it, with the
/// instrument's ADC replaced by `adc`: the expectation, the ADC and the
/// frame-stream seed a generator is built from.
fn acquisition_with(spec: &GraphSpec, adc: AdcDetector) -> (AcquiredData, AdcDetector, u64) {
    let mut inst = Instrument::with_drift_bins(spec.drift_bins());
    inst.tof.n_bins = spec.mz;
    inst.adc = adc;
    let mut rng = ChaCha8Rng::seed_from_u64(spec.seed);
    let data = acquire(
        &inst,
        &Workload::three_peptide_mix(),
        &GateSchedule::multiplexed(spec.degree),
        1,
        AcquireOptions::default(),
        &mut rng,
    );
    (data, inst.adc, spec.seed.wrapping_add(1227))
}

/// The per-cell reference loop: every cell draws its Poisson count, then
/// its shot-noise and electronic-noise deviates with libm, and sums all
/// three terms, whatever the count.
fn per_cell_frame(data: &AcquiredData, adc: &AdcDetector, seed: u64, frame_no: u64) -> Vec<u32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ frame_no.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    data.expected
        .data()
        .iter()
        .map(|&mean| {
            let n = poisson(&mut rng, mean.max(0.0)) as f64;
            let amp = n * adc.gain
                + adc.gain * adc.gain_spread * n.sqrt() * gaussian(&mut rng)
                + adc.noise_sigma * gaussian(&mut rng);
            amp.clamp(0.0, adc.full_scale).round() as u32
        })
        .collect()
}

/// Every available backend's frames equal the per-cell loop's; returns
/// the first frame.
fn assert_frames_match_per_cell(
    label: &str,
    spec: &GraphSpec,
    adc: AdcDetector,
    frames: &[u64],
) -> Vec<u32> {
    let (data, adc, seed) = acquisition_with(spec, adc);
    let gen = FrameGenerator::new(&data, &adc, seed);
    let mut first = None;
    for &frame_no in frames {
        let expected = per_cell_frame(&data, &adc, seed, frame_no);
        for be in simd::available_backends() {
            assert!(
                gen.frame_on(be, frame_no) == expected,
                "{label} frame {frame_no} diverged on {}",
                be.name()
            );
        }
        first.get_or_insert(expected);
    }
    first.expect("at least one frame")
}

#[test]
fn e3_frames_match_the_per_cell_loop_on_every_backend() {
    let frame0 =
        assert_frames_match_per_cell("E3", &GraphSpec::e3(), AdcDetector::default(), &[0, 1]);
    // The helper drew the spec's own acquisition: frame 0 is the golden one.
    let bytes: Vec<u8> = frame0.iter().flat_map(|w| w.to_le_bytes()).collect();
    assert_eq!((0, fnv1a64(&bytes)), E3_FRAME_FNVS[0]);
}

#[test]
fn small_and_edge_adc_frames_match_the_per_cell_loop_on_every_backend() {
    // The multi-tenant benchmark's shape: degree 6 × 60 m/z, where zero
    // runs between nonzero cells are short.
    let small = GraphSpec::small();
    assert_frames_match_per_cell("small", &small, AdcDetector::default(), &[0, 1, 2]);
    // A non-finite gain·spread sends every cell down the scalar path.
    let unbounded_spread = AdcDetector {
        gain_spread: f64::INFINITY,
        ..AdcDetector::default()
    };
    assert_frames_match_per_cell("infinite spread", &small, unbounded_spread, &[0, 1]);
    // σ = 5e4 clamps at full scale and puts a rounding boundary every
    // 2e-5 of the deviate.
    let loud = AdcDetector {
        noise_sigma: 5e4,
        ..AdcDetector::default()
    };
    assert_frames_match_per_cell("σ = 5e4", &small, loud, &[0, 1]);
}

#[test]
fn scheduled_source_accounts_one_sample_per_emitted_frame() {
    let pool = Scheduler::new(4);
    let spec = GraphSpec::small();
    let report = scheduled_on(&pool, &spec, None).report;
    let frames = spec.frames * spec.blocks as u64;
    let source = report.stage("source").expect("source stage");
    let latency = source.latency_ns.as_ref().expect("source latency");
    assert_eq!(source.items_out, frames);
    assert_eq!(latency.count, frames);
    assert_eq!(report.stage("link").unwrap().items_in, frames);
    // Busy time is the sum of the per-frame generation times.
    let busy_ns = source.busy_seconds * 1e9;
    assert!(
        (busy_ns - latency.sum as f64).abs() <= 1e-6 * busy_ns + 1.0,
        "busy {busy_ns} ns vs latency sum {} ns",
        latency.sum
    );
    pool.shutdown();
}

#[test]
fn scheduled_capture_log_keeps_emission_order_and_replays() {
    let pool = Scheduler::new(4);
    let dir = temp_log_dir("scheduled_capture");
    let dir_str = dir.to_str().expect("utf-8 temp dir").to_string();
    let spec = GraphSpec {
        capture_log: Some(dir_str.clone()),
        ..GraphSpec::small()
    };
    let log = CaptureLog::create(&dir).expect("create capture log");
    let out = scheduled_on(&pool, &spec, Some(&log));
    log.finish().expect("finish capture log");
    let fnv = output_fingerprint(&out.blocks);
    assert_eq!(fnv, output_fingerprint(&inline(&spec).blocks));

    let frames = spec.frames * spec.blocks as u64;
    assert_eq!(logged_seq_nos(&dir), (0..frames).collect::<Vec<_>>());

    let manifest = CaptureManifest {
        schema_version: CAPTURE_SCHEMA_VERSION,
        output_fnv: fnv,
        spec,
    };
    std::fs::write(
        dir.join("manifest.json"),
        serde_json::to_string_pretty(&manifest).unwrap(),
    )
    .unwrap();
    let replayed = replay(&dir_str).expect("replay runs");
    assert!(replayed.matches(), "replay diverged from the manifest FNV");
    let _ = std::fs::remove_dir_all(&dir);
    pool.shutdown();
}

#[test]
fn scheduled_source_faults_match_inline() {
    let pool = Scheduler::new(4);
    let faults = "frame.drop=0.2,source.stall=1ms@0.25";
    let run = |executor: &str| {
        let dir = temp_log_dir(&format!("source_faults_{executor}"));
        let spec = GraphSpec {
            executor: executor.into(),
            faults: Some(faults.into()),
            ..GraphSpec::small()
        };
        let log = CaptureLog::create(&dir).expect("create capture log");
        let out = match executor {
            "inline" => spec
                .build()
                .unwrap()
                .with_capture_log(log.clone())
                .run_inline(),
            _ => scheduled_on(&pool, &spec, Some(&log)),
        };
        log.finish().expect("finish capture log");
        let logged = logged_seq_nos(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (out, logged)
    };
    let (reference, reference_logged) = run("inline");
    let (out, logged) = run("scheduled");
    assert!(reference.report.faults.frames_dropped > 0, "drops fired");
    assert!(reference.report.faults.stalls > 0, "stalls fired");
    // The logged frames are the emitted ones: the same ids were dropped.
    assert_eq!(logged, reference_logged);
    assert!(logged.windows(2).all(|w| w[0] < w[1]), "emission order");
    assert_eq!(out.report.faults, reference.report.faults);
    assert_eq!(
        output_fingerprint(&out.blocks),
        output_fingerprint(&reference.blocks)
    );
    pool.shutdown();
}

#[test]
fn frame_latency_starts_when_generation_starts() {
    let session = "origin-at-generation";
    let out = GraphSpec::small()
        .build()
        .unwrap()
        .with_session(session)
        .run_inline();
    let source = out
        .report
        .stage("source")
        .unwrap()
        .latency_ns
        .clone()
        .unwrap();
    let e2e = htims::obs::metrics::histogram(&format!("pipeline.frame_e2e_ns#session={session}"))
        .summary();
    assert_eq!(e2e.count, source.count);
    // Each frame's end-to-end latency covers its own generation, so the
    // sorted e2e samples dominate the sorted generation times.
    assert!(
        e2e.min >= source.min,
        "e2e {e2e:?} vs generation {source:?}"
    );
    assert!(
        e2e.p50 >= source.p50,
        "e2e {e2e:?} vs generation {source:?}"
    );
    assert!(
        e2e.max >= source.max,
        "e2e {e2e:?} vs generation {source:?}"
    );
    assert!(
        e2e.sum >= source.sum,
        "e2e {e2e:?} vs generation {source:?}"
    );
}
