//! Workload inputs and their oracles, each a pure function of the seed.
//!
//! The program under test only ever sees what these functions build: a
//! routing table, a packet stream (pcap bytes or parsed metadata) and,
//! for `live_ckpt`, a route-update schedule. The oracles are computed
//! here too, once per set-up, on the batch path (aggregate the whole
//! stream into a `BandwidthMatrix`, then `classify` it), which shares no
//! code with the streaming seal path the workloads time.

use std::rc::Rc;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_bgp::{BgpTable, FrozenBgpTable, LiveBgpTable, UpdateBatch};
use eleph_core::{
    classify, ClassificationResult, ConstantLoadDetector, Scheme, PAPER_BETA, PAPER_GAMMA,
    PAPER_LATENT_WINDOW,
};
use eleph_flow::{attribute_metas, window_bounds_ns, Aggregator, BandwidthMatrix, KeyAllocator};
use eleph_packet::PacketMeta;
use eleph_pipeline::{PacketSource, TraceSource};
use eleph_trace::{
    generate_churn, ChurnConfig, ChurnScenario, LinkSpec, PacketSynth, RateTrace, WorkloadConfig,
};

/// Input sizes of every workload. [`Sizes::full`] is what the benchmark
/// command runs; [`Sizes::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// `pcap_exact`: synthetic table size (prefixes).
    pub pcap_prefixes: usize,
    /// `pcap_exact`: prefixes that carry traffic.
    pub pcap_flows: usize,
    /// `pcap_exact`: link capacity in b/s (sets packets per interval).
    pub pcap_link_bps: f64,
    /// `pcap_exact`: intervals of T = 300 s.
    pub pcap_intervals: usize,
    /// High-cardinality stream: synthetic table size.
    pub meta_prefixes: usize,
    /// High-cardinality stream: prefixes that carry traffic.
    pub meta_flows: usize,
    /// High-cardinality stream: link capacity in b/s.
    pub meta_link_bps: f64,
    /// High-cardinality stream: interval length T in seconds.
    pub meta_interval_secs: u64,
    /// High-cardinality stream: stationary on-probability of the
    /// light ("mouse") flows, which sets the active keys per interval.
    pub meta_mouse_on_prob: f64,
    /// `live_ckpt`: intervals per pass.
    pub live_intervals: usize,
    /// `live_ckpt`: prefixes withdrawn (and re-announced) by the storm.
    pub storm_count: usize,
    /// `live_ckpt`: prefixes that flap.
    pub flap_count: usize,
    /// `sketch_ss`: intervals per pass.
    pub sketch_intervals: usize,
    /// `sketch_ss`: Space-Saving budget in bytes.
    pub sketch_budget: usize,
    /// `paper_sweep`: `--scale` of `eleph all`.
    pub sweep_scale: f64,
}

impl Sizes {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Sizes {
            pcap_prefixes: 20_000,
            pcap_flows: 6_000,
            pcap_link_bps: 400_000.0,
            pcap_intervals: 24,
            meta_prefixes: 200_000,
            meta_flows: 180_000,
            meta_link_bps: 50_000_000.0,
            meta_interval_secs: 60,
            meta_mouse_on_prob: 0.85,
            live_intervals: 8,
            storm_count: 2_000,
            flap_count: 200,
            sketch_intervals: 2,
            sketch_budget: 1 << 20,
            sweep_scale: 0.1,
        }
    }

    /// Miniature sizes for the benchmark's own tests.
    pub fn tiny() -> Self {
        Sizes {
            pcap_prefixes: 2_000,
            pcap_flows: 300,
            pcap_link_bps: 100_000.0,
            pcap_intervals: 6,
            meta_prefixes: 4_000,
            meta_flows: 1_200,
            meta_link_bps: 1_000_000.0,
            meta_interval_secs: 60,
            meta_mouse_on_prob: 0.45,
            live_intervals: 6,
            storm_count: 40,
            flap_count: 8,
            sketch_intervals: 3,
            sketch_budget: 16 << 10,
            // The paper's relations need the benchmark's own population
            // size (at 0.02 the east/west burst contrast is noise).
            sweep_scale: 0.1,
        }
    }
}

/// SplitMix64 finaliser: an independent sub-seed per input stream.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Interval geometry of a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Interval length T in seconds.
    pub interval_secs: u64,
    /// Unix time of the first interval's start.
    pub start_unix: u64,
    /// Number of intervals.
    pub n_intervals: usize,
}

impl Geometry {
    /// `(start_ns, interval_ns)`, validated like the pipeline does.
    pub fn bounds_ns(&self) -> (u64, u64) {
        window_bounds_ns(self.interval_secs, self.start_unix)
    }

    fn of(config: &WorkloadConfig) -> Self {
        Geometry {
            interval_secs: config.interval_secs,
            start_unix: config.start_unix,
            n_intervals: config.n_intervals,
        }
    }
}

/// The exact batch answer for one stream.
#[derive(Debug)]
pub struct Oracle {
    /// Bytes per key per interval, as rates, keys in first-seen order.
    pub matrix: BandwidthMatrix,
    /// The paper classification of `matrix`.
    pub result: ClassificationResult,
}

impl Oracle {
    fn of(matrix: BandwidthMatrix) -> Rc<Self> {
        let result = classify_paper(&matrix);
        Rc::new(Oracle { matrix, result })
    }
}

/// The paper's configuration, which every streaming workload runs too:
/// 0.8-constant load, γ = 0.9, latent heat over 12 intervals.
fn classify_paper(matrix: &BandwidthMatrix) -> ClassificationResult {
    classify(
        matrix,
        ConstantLoadDetector::new(PAPER_BETA),
        PAPER_GAMMA,
        Scheme::LatentHeat {
            window: PAPER_LATENT_WINDOW,
        },
    )
}

fn table(prefixes: usize, seed: u64) -> BgpTable {
    synth::generate(&SynthConfig {
        n_prefixes: prefixes,
        seed: mix(seed, 1),
        ..SynthConfig::default()
    })
}

/// The west-coast traffic shape (diurnal profile, heavy-tailed flow
/// population, 09:00 PDT start) on a link of the given capacity.
fn west(
    seed: u64,
    flows: usize,
    link_bps: f64,
    interval_secs: u64,
    intervals: usize,
) -> WorkloadConfig {
    let mut config = WorkloadConfig::paper_west(mix(seed, 2));
    config.link = LinkSpec {
        name: "benchmark link".to_string(),
        capacity_bps: link_bps,
        target_peak_util: config.link.target_peak_util,
    };
    config.n_flows = flows;
    config.interval_secs = interval_secs;
    config.n_intervals = intervals;
    config
}

/// `pcap_exact` input: a full-record raw-IP pcap in memory.
#[derive(Debug)]
pub struct PcapWorkload {
    /// The frozen 20k-prefix table.
    pub frozen: FrozenBgpTable,
    /// The capture bytes.
    pub pcap: Vec<u8>,
    /// Records in the capture.
    pub records: u64,
    /// Interval geometry (T = 300 s).
    pub geometry: Geometry,
    /// Batch oracle (`aggregate_pcap_frozen` + `classify`).
    pub oracle: Rc<Oracle>,
}

/// Build the `pcap_exact` input and oracle.
pub fn pcap_workload(seed: u64, sizes: &Sizes) -> PcapWorkload {
    let table = table(sizes.pcap_prefixes, seed);
    let frozen = table.freeze();
    let config = west(
        seed,
        sizes.pcap_flows,
        sizes.pcap_link_bps,
        300,
        sizes.pcap_intervals,
    );
    let trace = RateTrace::generate(&config, &table);
    let geometry = Geometry::of(&config);
    let mut pcap = Vec::new();
    let records = PacketSynth::new(&trace)
        .write_pcap(0..geometry.n_intervals, &mut pcap)
        .expect("writing a pcap to memory cannot fail");
    let (matrix, stats) = eleph_flow::aggregate_pcap_frozen(
        &pcap[..],
        &frozen,
        geometry.interval_secs,
        geometry.start_unix,
        geometry.n_intervals,
    )
    .expect("the synthetic capture is well formed");
    assert!(stats.is_conserved(), "batch oracle lost packets");
    PcapWorkload {
        frozen,
        pcap,
        records,
        geometry,
        oracle: Oracle::of(matrix),
    }
}

/// The high-cardinality packet stream shared by `live_ckpt` and
/// `sketch_ss`: parsed metadata, no packet bytes.
fn meta_stream(
    seed: u64,
    sizes: &Sizes,
    intervals: usize,
) -> (BgpTable, Vec<PacketMeta>, Geometry) {
    let table = table(sizes.meta_prefixes, seed);
    let mut config = west(
        seed,
        sizes.meta_flows,
        sizes.meta_link_bps,
        sizes.meta_interval_secs,
        intervals,
    );
    config.mouse_on_prob = sizes.meta_mouse_on_prob;
    let trace = RateTrace::generate(&config, &table);
    let mut source = TraceSource::new(&trace);
    let mut metas = Vec::new();
    while source
        .next_chunk(&mut metas)
        .expect("synthetic source cannot fail")
        > 0
    {}
    (table, metas, Geometry::of(&config))
}

/// `live_ckpt` input: the stream, the table it starts from, and the
/// churn schedule replayed against it.
#[derive(Debug)]
pub struct LiveWorkload {
    /// The 200k-prefix table each pass's live table is seeded from.
    pub table: BgpTable,
    /// The packet stream.
    pub metas: Vec<PacketMeta>,
    /// The route-update schedule (a withdraw/re-announce storm plus
    /// damped flapping).
    pub updates: Vec<UpdateBatch>,
    /// Interval geometry.
    pub geometry: Geometry,
    /// Batch oracle: per-generation attribution, then `classify`.
    pub oracle: Rc<Oracle>,
}

/// Build the `live_ckpt` input and oracle.
pub fn live_workload(seed: u64, sizes: &Sizes) -> LiveWorkload {
    let (table, metas, geometry) = meta_stream(seed, sizes, sizes.live_intervals);
    let t = geometry.interval_secs;
    // Every event sits mid-interval, so no update batch lands on the
    // packet that crosses an interval boundary.
    let at = |slot: u64| geometry.start_unix + slot * t + t / 2;
    let updates = generate_churn(
        &table,
        &ChurnConfig {
            seed: mix(seed, 3),
            scenarios: vec![
                ChurnScenario::WithdrawReannounceStorm {
                    at_unix: at(1),
                    count: sizes.storm_count,
                    hold_secs: 3 * t,
                },
                ChurnScenario::Flap {
                    start_unix: at(2),
                    count: sizes.flap_count,
                    period_secs: t,
                    flaps: 3,
                    damped: true,
                },
            ],
        },
    );
    let matrix = live_matrix(&table, &metas, &updates, geometry);
    LiveWorkload {
        table,
        metas,
        updates,
        geometry,
        oracle: Oracle::of(matrix),
    }
}

/// Batch aggregation of a stream under a live update schedule: each
/// batch applies before the first packet at or past its time, and every
/// packet attributes against the generation current at its arrival.
fn live_matrix(
    table: &BgpTable,
    metas: &[PacketMeta],
    updates: &[UpdateBatch],
    geometry: Geometry,
) -> BandwidthMatrix {
    let live = LiveBgpTable::from_table(table);
    let mut view = live.view();
    let (start_ns, interval_ns) = geometry.bounds_ns();
    let mut alloc = KeyAllocator::new(view.n_ids());
    let mut keys = Vec::new();
    let mut bytes: Vec<Vec<u64>> = vec![Vec::new(); geometry.n_intervals];
    let mut routes = Vec::new();
    let mut next = 0;
    let mut rest = metas;
    while !rest.is_empty() {
        let due = updates
            .get(next)
            .map_or(u64::MAX, |b| b.at_unix * 1_000_000_000);
        let cut = rest
            .iter()
            .position(|m| m.ts_ns >= due)
            .unwrap_or(rest.len());
        let (segment, tail) = rest.split_at(cut);
        attribute_metas(&view, segment, &mut routes);
        for (m, route) in segment.iter().zip(&routes) {
            assert!(m.ts_ns >= start_ns, "generated packet before the window");
            let n = ((m.ts_ns - start_ns) / interval_ns) as usize;
            assert!(
                n < geometry.n_intervals,
                "generated packet after the window"
            );
            let Some(route) = *route else { continue };
            let (key, fresh) = alloc.key_for(route);
            if fresh {
                keys.push(view.prefix(route));
            }
            let row = &mut bytes[n];
            if row.len() <= key as usize {
                row.resize(key as usize + 1, 0);
            }
            row[key as usize] += u64::from(m.wire_len);
        }
        if let Some(first) = tail.first() {
            while next < updates.len() && updates[next].at_unix * 1_000_000_000 <= first.ts_ns {
                live.apply(&updates[next].updates);
                next += 1;
            }
            view = live.view();
        }
        rest = tail;
    }
    let secs = geometry.interval_secs as f64;
    let rates: Vec<Vec<f64>> = bytes
        .iter()
        .map(|row| row.iter().map(|&b| b as f64 * 8.0 / secs).collect())
        .collect();
    BandwidthMatrix::from_dense(geometry.interval_secs, geometry.start_unix, keys, &rates)
}

/// `sketch_ss` input: the high-cardinality stream on a frozen table.
#[derive(Debug)]
pub struct SketchWorkload {
    /// The frozen 200k-prefix table.
    pub frozen: FrozenBgpTable,
    /// The packet stream.
    pub metas: Vec<PacketMeta>,
    /// Interval geometry.
    pub geometry: Geometry,
    /// Space-Saving state budget in bytes.
    pub budget: usize,
    /// Exact oracle (`Aggregator` + `classify`).
    pub oracle: Rc<Oracle>,
}

/// Build the `sketch_ss` input and exact oracle.
pub fn sketch_workload(seed: u64, sizes: &Sizes) -> SketchWorkload {
    let (table, metas, geometry) = meta_stream(seed, sizes, sizes.sketch_intervals);
    let frozen = table.freeze();
    let mut agg = Aggregator::with_frozen(
        &frozen,
        geometry.interval_secs,
        geometry.start_unix,
        geometry.n_intervals,
    );
    agg.observe_chunk(&metas);
    let (matrix, stats) = agg.finish();
    assert!(stats.is_conserved(), "batch oracle lost packets");
    SketchWorkload {
        frozen,
        metas,
        geometry,
        budget: sizes.sketch_budget,
        oracle: Oracle::of(matrix),
    }
}
