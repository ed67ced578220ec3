//! Incremental-update micro-benchmarks for the epoch-swapped LPM: the
//! cost of publishing one delta, a 1k-update batch, and the baseline
//! both replace — rebuilding the whole table from scratch. Justifies
//! applying BGP churn as deltas instead of rebuilding the FIB per
//! batch.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use eleph_bench::bench_table;
use eleph_net::{EpochLpm, LpmDelta, Prefix};

const N: usize = 20_000;

fn entries() -> Vec<(Prefix, u32)> {
    bench_table(N)
        .iter()
        .enumerate()
        .map(|(i, e)| (e.prefix, i as u32))
        .collect()
}

fn bench_update(c: &mut Criterion) {
    let entries = entries();
    let mut group = c.benchmark_group("lpm_update");
    group.sample_size(20);

    // One route flap: re-announce a single existing prefix with a new
    // id. Each apply publishes a fresh generation; readers keep their
    // pinned snapshots throughout.
    let table = EpochLpm::from_entries(entries.clone());
    let victim = entries[N / 2].0;
    group.bench_function("single_delta", |b| {
        let mut id = 1_000_000u32;
        b.iter(|| {
            id += 1;
            let applied = table.apply(&[LpmDelta::Announce {
                prefix: black_box(victim),
                id,
            }]);
            black_box(applied.generation)
        })
    });

    // A churn storm: 1k re-announces published as one atomic batch
    // (one generation, one snapshot swap).
    let table = EpochLpm::from_entries(entries.clone());
    let storm: Vec<LpmDelta> = entries
        .iter()
        .step_by(N / 1_000)
        .take(1_000)
        .enumerate()
        .map(|(i, &(prefix, _))| LpmDelta::Announce {
            prefix,
            id: 2_000_000 + i as u32,
        })
        .collect();
    group.bench_function("batch_1k", |b| {
        b.iter(|| {
            let applied = table.apply(black_box(&storm));
            black_box(applied.generation)
        })
    });

    // What the delta path replaces: rebuilding the table from the full
    // RIB on every routing change.
    group.bench_function("full_rebuild_epoch", |b| {
        b.iter(|| black_box(EpochLpm::from_entries(black_box(entries.clone()))))
    });

    group.finish();
}

criterion_group!(benches, bench_update);
criterion_main!(benches);
