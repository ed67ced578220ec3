//! Longest-prefix-match micro-benchmarks on a backbone-sized RIB: the
//! updatable RIB trie against the FIB snapshot every packet is
//! attributed through, with the linear oracle for scale. Shows what the
//! RIB/FIB split buys on the read path, and what building the FIB costs.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use eleph_bench::bench_table;
use eleph_net::{CompressedTrieLpm, EpochLpm, LinearLpm, Lpm, Prefix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn entries(n: usize) -> Vec<(Prefix, u32)> {
    bench_table(n)
        .iter()
        .enumerate()
        .map(|(i, e)| (e.prefix, i as u32))
        .collect()
}

fn queries(n: usize) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(7);
    (0..n).map(|_| rng.gen()).collect()
}

fn bench_lookup(c: &mut Criterion) {
    let entries = entries(20_000);
    let queries = queries(10_000);

    let mut group = c.benchmark_group("lpm_lookup_10k");
    group.sample_size(20);

    let table = CompressedTrieLpm::from_entries(entries.clone());
    group.bench_function("compressed_trie", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries {
                if table.lookup(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });

    // The FIB read path: a pinned generation-0 snapshot. The attribution
    // hot path materializes an id per address (the aggregator's route
    // array), so the per-address loop writes the same output array as
    // the batched form below.
    let snap = EpochLpm::from_entries(entries.iter().copied()).pin();
    group.bench_function("live_snapshot", |b| {
        let mut out = vec![None; queries.len()];
        b.iter(|| {
            for (o, &q) in out.iter_mut().zip(&queries) {
                *o = snap.lookup_id(black_box(q));
            }
            out.iter().map(|o| usize::from(o.is_some())).sum::<usize>()
        })
    });
    // The batched form the chunked aggregation hot path uses.
    group.bench_function("live_snapshot_batched", |b| {
        let mut out = vec![None; queries.len()];
        b.iter(|| {
            snap.lookup_many(black_box(&queries), &mut out);
            out.iter().map(|o| usize::from(o.is_some())).sum::<usize>()
        })
    });

    // The linear oracle on a reduced query load (it is O(n) per lookup).
    let mut linear = LinearLpm::new();
    for (p, v) in &entries {
        linear.insert(*p, *v);
    }
    group.bench_function("linear_oracle_100q", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for &q in &queries[..100] {
                if linear.lookup(black_box(q)).is_some() {
                    hits += 1;
                }
            }
            hits
        })
    });
    group.finish();
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("lpm_build");
    group.sample_size(10);
    for n in [5_000usize, 20_000] {
        let entries = entries(n);
        group.bench_with_input(BenchmarkId::new("compressed_trie", n), &entries, |b, e| {
            b.iter(|| CompressedTrieLpm::from_entries(e.iter().copied()))
        });
        // FIB build cost: what `BgpTable::freeze` pays per table version.
        group.bench_with_input(
            BenchmarkId::new("epoch_from_entries", n),
            &entries,
            |b, e| b.iter(|| EpochLpm::from_entries(e.iter().copied())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lookup, bench_build);
criterion_main!(benches);
