//! End-to-end pipeline throughput: capture bytes → per-interval
//! elephant outcomes, comparing the streaming pipeline (no matrix
//! materialization, intervals sealed online) against the equivalent
//! batch path (aggregate the whole capture, then classify). Both
//! produce bit-identical outcomes (pinned by the streaming-equivalence
//! tests); this measures what the online form costs — or saves.
//!
//! The primary arms attribute against a pre-frozen table (the
//! steady-state of a monitor whose RIB outlives many captures), so the
//! comparison isolates the aggregation+classification work. The `_cold`
//! arms include the per-run `BgpTable::freeze` (the generation-0 FIB
//! build) for the one-shot case — compare like with like.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use eleph_bench::bench_capture;
use eleph_core::{classify, ConstantLoadDetector, Scheme, PAPER_GAMMA};
use eleph_flow::{aggregate_pcap, aggregate_pcap_frozen};
use eleph_pipeline::{PcapSource, PipelineBuilder, PooledPcapSource};

fn bench_end_to_end(c: &mut Criterion) {
    let (table, config, pcap) = bench_capture(150, 4, 20);
    let frozen = table.freeze();
    let scheme = Scheme::LatentHeat { window: 3 };

    let mut group = c.benchmark_group("end_to_end_pipeline");
    group.throughput(Throughput::Bytes(pcap.len() as u64));

    group.bench_function("batch_aggregate_then_classify", |b| {
        b.iter(|| {
            let (matrix, stats) = aggregate_pcap_frozen(
                black_box(&pcap[..]),
                &frozen,
                config.interval_secs,
                config.start_unix,
                config.n_intervals,
            )
            .expect("batch aggregation");
            let result = classify(&matrix, ConstantLoadDetector::new(0.8), PAPER_GAMMA, scheme);
            (result.n_intervals(), stats.attributed)
        })
    });

    group.bench_function("streaming_pipeline", |b| {
        b.iter(|| {
            let mut pipeline = PipelineBuilder::new()
                .frozen(&frozen)
                .interval_secs(config.interval_secs)
                .start_unix(config.start_unix)
                .n_intervals(config.n_intervals)
                .detector(ConstantLoadDetector::new(0.8))
                .gamma(PAPER_GAMMA)
                .scheme(scheme)
                .build();
            pipeline
                .run(PcapSource::new(black_box(&pcap[..])).expect("valid pcap"))
                .expect("streaming run");
            let report = pipeline.finish().expect("finish");
            (report.intervals, report.stats.attributed)
        })
    });

    // Asynchronous pooled ingest feeding the serial online path: record
    // framing and packet parsing run on their own threads, overlapping
    // attribution and classification on the pipeline thread.
    let shared = std::sync::Arc::new(pcap.clone());
    group.bench_function("streaming_pooled_ingest2", |b| {
        b.iter(|| {
            let mut pipeline = PipelineBuilder::new()
                .frozen(&frozen)
                .interval_secs(config.interval_secs)
                .start_unix(config.start_unix)
                .n_intervals(config.n_intervals)
                .detector(ConstantLoadDetector::new(0.8))
                .gamma(PAPER_GAMMA)
                .scheme(scheme)
                .build();
            pipeline
                .run(
                    PooledPcapSource::new(std::sync::Arc::clone(&shared), 2)
                        .expect("valid pcap"),
                )
                .expect("pooled run");
            let report = pipeline.finish().expect("finish");
            (report.intervals, report.stats.attributed)
        })
    });

    group.bench_function("batch_cold", |b| {
        b.iter(|| {
            let (matrix, stats) = aggregate_pcap(
                black_box(&pcap[..]),
                &table,
                config.interval_secs,
                config.start_unix,
                config.n_intervals,
            )
            .expect("batch aggregation");
            let result = classify(&matrix, ConstantLoadDetector::new(0.8), PAPER_GAMMA, scheme);
            (result.n_intervals(), stats.attributed)
        })
    });

    group.bench_function("streaming_cold", |b| {
        b.iter(|| {
            let mut pipeline = PipelineBuilder::new()
                .table(black_box(&table))
                .interval_secs(config.interval_secs)
                .start_unix(config.start_unix)
                .n_intervals(config.n_intervals)
                .detector(ConstantLoadDetector::new(0.8))
                .gamma(PAPER_GAMMA)
                .scheme(scheme)
                .build();
            pipeline
                .run(PcapSource::new(black_box(&pcap[..])).expect("valid pcap"))
                .expect("streaming run");
            let report = pipeline.finish().expect("finish");
            (report.intervals, report.stats.attributed)
        })
    });

    group.finish();
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
