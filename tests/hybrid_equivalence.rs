//! Integration: every hybrid run — any executor, deconvolution backend,
//! accumulator shard count or on-chip binning — computes the same numbers
//! as the hand-wired software reference, the central correctness claim of
//! the paper's architecture; the default runs keep their pinned output
//! fingerprints; and the design point is feasible on the target device.

use htims::core::hybrid::reference_block;
use htims::core::pipeline::output_fingerprint;
use htims::fpga::deconv::{Convention, DeconvConfig, DeconvCore};
use htims::fpga::{AccumulatorCore, DmaLink, FpgaDevice, MzBinner, ResourceReport};
use htims::graph::{replay, CaptureManifest, GraphSpec};
use htims::prs::{FastMTransform, MSequence};

/// Output FNV of `GraphSpec::small()`, on every executor and SIMD backend.
const SMALL_FNV: u64 = 1789432423746869102;
/// Output FNV of `small()` binned to 30 coarse bins over 3 shards on the
/// software backend, inline.
const SMALL_BINNED_SHARDED_FNV: u64 = 14394382939900420617;

/// Each block of `spec.run()` against the reference oracle over the spec's
/// own acquisition.
fn assert_matches_reference(spec: &GraphSpec) {
    let out = spec.run().expect("spec runs");
    let (gen, seq) = spec.acquisition();
    let binner = spec.coarse.map(|c| MzBinner::uniform(spec.mz, c));
    assert_eq!(out.blocks.len(), spec.blocks, "{spec:?}");
    for (b, block) in out.blocks.iter().enumerate() {
        let start = b as u64 * spec.frames;
        let reference = reference_block(
            &gen,
            &seq,
            start,
            spec.frames,
            binner.as_ref(),
            DeconvConfig::default(),
        );
        assert_eq!(block.data, reference, "block {b} diverged: {spec:?}");
    }
}

#[test]
fn every_executor_backend_shard_and_binning_cell_matches_the_reference() {
    for executor in ["inline", "scheduled"] {
        for backend in ["fpga", "naive", "software"] {
            for shards in [0, 1, 3] {
                for coarse in [None, Some(30)] {
                    assert_matches_reference(&GraphSpec {
                        executor: executor.into(),
                        backend: backend.into(),
                        shards,
                        coarse,
                        ..GraphSpec::small()
                    });
                }
            }
        }
    }
    // 300 m/z columns are two full fixed-point panels plus a partial one,
    // so the software backend takes its multi-panel paths: serial
    // (threads 1), and slabs over the shared or a private pool.
    for threads in [0, 1, 2, 3] {
        assert_matches_reference(&GraphSpec {
            backend: "software".into(),
            mz: 300,
            threads,
            ..GraphSpec::small()
        });
    }
}

#[test]
fn default_runs_keep_their_golden_output_fingerprints() {
    let out = GraphSpec::small().run().unwrap();
    assert_eq!(output_fingerprint(&out.blocks), SMALL_FNV);
    let spec = GraphSpec {
        executor: "inline".into(),
        coarse: Some(30),
        shards: 3,
        backend: "software".into(),
        ..GraphSpec::small()
    };
    let out = spec.run().unwrap();
    assert_eq!(output_fingerprint(&out.blocks), SMALL_BINNED_SHARDED_FNV);
}

#[test]
fn retired_threaded_executor_is_an_error_in_specs_and_manifests() {
    let threaded = GraphSpec {
        executor: "threaded".into(),
        ..GraphSpec::small()
    };
    let Err(err) = threaded.build() else {
        panic!("the threaded executor must be rejected");
    };
    assert!(err.contains("scheduled | inline"), "{err}");

    // Capture logs written before the alias was retired carry
    // `"executor": "threaded"` in their manifest.
    let dir = std::env::temp_dir().join(format!("htims_threaded_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_string_lossy().into_owned();
    GraphSpec {
        capture_log: Some(dir_str.clone()),
        ..GraphSpec::small()
    }
    .run()
    .unwrap();
    let path = dir.join("manifest.json");
    let mut manifest: CaptureManifest =
        serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert_eq!(manifest.output_fnv, SMALL_FNV);
    manifest.spec.executor = "threaded".into();
    std::fs::write(&path, serde_json::to_string(&manifest).unwrap()).unwrap();
    let err = replay(&dir_str).unwrap_err();
    assert!(err.contains("scheduled | inline"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn manifests_with_the_retired_sparse_flag_still_replay() {
    // Capture logs written while the sparse sidecar existed carry
    // `"sparse": false|true` in their manifest's spec; the key is ignored
    // and the log replays to its recorded fingerprint.
    let dir = std::env::temp_dir().join(format!("htims_sparse_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_str = dir.to_string_lossy().into_owned();
    GraphSpec {
        capture_log: Some(dir_str.clone()),
        ..GraphSpec::small()
    }
    .run()
    .unwrap();
    let path = dir.join("manifest.json");
    let text = std::fs::read_to_string(&path).unwrap();
    let spec_at = text.find("\"spec\"").expect("manifest has a spec");
    let open = spec_at + text[spec_at..].find('{').expect("spec is an object") + 1;
    let legacy = format!("{}\"sparse\": true, {}", &text[..open], &text[open..]);
    std::fs::write(&path, legacy).unwrap();
    let outcome = replay(&dir_str).expect("legacy manifest replays");
    assert_eq!(outcome.expected_fnv, SMALL_FNV);
    assert_eq!(outcome.actual_fnv, SMALL_FNV);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hybrid_graph_is_bit_exact_across_channel_depths() {
    for depth in [1usize, 2, 8] {
        assert_matches_reference(&GraphSpec {
            degree: 7,
            frames: 24,
            blocks: 1,
            depth,
            seed: 11,
            ..GraphSpec::small()
        });
    }
}

#[test]
fn fpga_fixed_point_matches_float_within_one_ulp() {
    let (gen, seq) = GraphSpec {
        degree: 8,
        mz: 40,
        seed: 12,
        ..GraphSpec::small()
    }
    .acquisition();
    let mut acc = AccumulatorCore::new(gen.drift_bins(), gen.mz_bins(), 32);
    for f in 0..16 {
        acc.capture_frame(&gen.frame(f)).unwrap();
    }
    let block = acc.drain();
    let core = DeconvCore::new(
        &seq,
        DeconvConfig {
            convention: Convention::Convolution,
            ..Default::default()
        },
    );
    let transform = FastMTransform::new(&seq);
    let n = seq.len();
    let mz = gen.mz_bins();
    let ulp = (2.0f64).powi(-16);
    for col in 0..mz {
        let column: Vec<u64> = (0..n).map(|d| block[d * mz + col]).collect();
        let column_f: Vec<f64> = column.iter().map(|&v| v as f64).collect();
        let fixed = core.to_f64(&core.deconvolve_column(&column));
        let float = transform.deconvolve_convolution(&column_f);
        for (d, (a, b)) in fixed.iter().zip(float.iter()).enumerate() {
            assert!(
                (a - b).abs() <= ulp,
                "col {col} bin {d}: fixed {a} vs float {b}"
            );
        }
    }
}

#[test]
fn canonical_design_point_is_viable_on_the_xd1() {
    let seq = MSequence::new(9);
    let acc = AccumulatorCore::new(511, 100, 32);
    let deconv = DeconvCore::new(&seq, DeconvConfig::default());
    let report = ResourceReport::evaluate(
        &FpgaDevice::xc2vp50(),
        &acc,
        &deconv,
        &DmaLink::rapidarray(),
        50,
        0.02,
    );
    assert!(report.viable(), "report: {report:?}");
    assert!(report.realtime_margin > 1.0);
}

#[test]
fn link_budget_detects_overload() {
    // Streaming raw (unaccumulated) extraction-rate data must overload the
    // link — the architectural justification for on-chip accumulation.
    let link = DmaLink::pci_x();
    let frame_bytes = 511 * 2000 * 4;
    assert!(!link.can_sustain(frame_bytes, 1000.0));
    assert!(link.can_sustain(frame_bytes, 10.0));
}

#[test]
fn hybrid_cycle_accounting_matches_model() {
    let spec = GraphSpec {
        mz: 30,
        frames: 10,
        blocks: 1,
        seed: 13,
        ..GraphSpec::small()
    };
    let report = spec.run().unwrap().report;
    let acc = AccumulatorCore::new(spec.drift_bins(), spec.mz, 32);
    assert_eq!(report.capture_cycles, acc.cycles_per_frame() * 10);
    let deconv = DeconvCore::new(&MSequence::new(spec.degree), DeconvConfig::default());
    assert_eq!(report.deconv_cycles, deconv.cycles_per_block(spec.mz));
}
