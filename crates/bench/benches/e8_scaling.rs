//! E8 bench: thread scaling of the software deconvolution backend, driven
//! through the unified pipeline graph.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use htims_core::acquisition::{acquire, AcquireOptions, GateSchedule};
use htims_core::graph::GraphSpec;
use htims_core::hybrid::FrameGenerator;
use htims_core::pipeline::DeconvBackend;
use ims_fpga::deconv::DeconvConfig;
use ims_physics::{Instrument, Workload};
use ims_prs::MSequence;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

fn bench_scaling(c: &mut Criterion) {
    let degree = 9u32;
    let n = (1usize << degree) - 1;
    let mut inst = Instrument::with_drift_bins(n);
    inst.tof.n_bins = 800;
    let workload = Workload::three_peptide_mix();
    let schedule = GateSchedule::multiplexed(degree);
    let mut rng = ChaCha8Rng::seed_from_u64(8);
    let data = acquire(
        &inst,
        &workload,
        &schedule,
        5,
        AcquireOptions::default(),
        &mut rng,
    );
    let seq = MSequence::new(degree);
    let gen = FrameGenerator::new(&data, &inst.adc, 8);
    let spec = GraphSpec {
        frames: 2,
        blocks: 1,
        ..GraphSpec::e3()
    };

    let max = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(4);
    let mut group = c.benchmark_group("e8_thread_scaling");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    let mut threads = 1usize;
    while threads <= max {
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| {
                let backend = DeconvBackend::software(&seq, DeconvConfig::default(), t);
                black_box(spec.pipeline(&gen, &seq, backend).run_scheduled())
            })
        });
        threads *= 2;
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
