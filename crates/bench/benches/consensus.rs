//! Criterion timings for full consensus instances: wall-clock cost of one
//! simulated good-case decision for ProBFT, PBFT, and HotStuff, and ProBFT
//! scaling across n. (Virtual-time latency and message counts are covered
//! by the figure binaries; these benches measure the implementation.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use probft_core::harness::InstanceBuilder;
use probft_hotstuff::HsReplica;
use probft_pbft::PbftReplica;

fn bench_protocol_comparison(c: &mut Criterion) {
    let n = 40;
    let mut g = c.benchmark_group("consensus_instance");
    g.sample_size(10);

    g.bench_function(BenchmarkId::new("probft", n), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let o = InstanceBuilder::new(n).seed(seed).run();
            assert!(o.all_correct_decided());
            o.finished_at
        })
    });
    g.bench_function(BenchmarkId::new("pbft", n), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let o = InstanceBuilder::<PbftReplica>::for_protocol(n)
                .seed(seed)
                .run();
            assert!(o.all_correct_decided());
            o.finished_at
        })
    });
    g.bench_function(BenchmarkId::new("hotstuff", n), |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let o = InstanceBuilder::<HsReplica>::for_protocol(n)
                .seed(seed)
                .run();
            assert!(o.all_correct_decided());
            o.finished_at
        })
    });
    g.finish();
}

fn bench_probft_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("probft_scaling");
    g.sample_size(10);
    for n in [25usize, 50, 100] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                let o = InstanceBuilder::new(n).seed(seed).run();
                assert!(o.all_correct_decided());
                o.finished_at
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_protocol_comparison, bench_probft_scaling);
criterion_main!(benches);
