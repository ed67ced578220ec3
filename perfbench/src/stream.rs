//! The streaming harness behind `pcap_exact`, `live_ckpt` and
//! `sketch_ss`.
//!
//! One *pass* builds a fresh pipeline on the default serial path and
//! feeds it the workload's whole stream, chunk by chunk, with the
//! benchmark itself pulling chunks from the source and calling
//! `Pipeline::observe_chunk`. Two kinds of packet get a call of their
//! own:
//!
//! * the first packet past an interval boundary: that call holds the
//!   whole seal (snapshot, detection, classification, sinks), which is
//!   what `pipeline.seal` times and where the seal latency starts;
//! * on `live_ckpt`, the first packet at or past a route-update batch
//!   time: that call holds `LiveBgpTable::apply` and the view re-pin
//!   (plus the one packet's attribution), which is what `bgp.apply`
//!   times.
//!
//! Every other chunk goes to `observe_chunk` whole. The seal latency of
//! an interval runs from the start of the call that seals it to the
//! moment the first sink receives it.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;
use std::time::Instant;

use eleph_bgp::{LiveBgpTable, UpdateBatch};
use eleph_core::{
    ConstantLoadDetector, ExactDense, OnlineClassifier, Scheme, StateBackend, StateBackendConfig,
    ThresholdDetector, PAPER_BETA, PAPER_GAMMA, PAPER_LATENT_WINDOW,
};
use eleph_flow::{attribute_metas, KeyAllocator, KeyId};
use eleph_packet::PacketMeta;
use eleph_pipeline::{
    Checkpoint, JsonlSink, MetaSource, PacketSource, PcapSource, Pipeline, PipelineBuilder,
    PipelineStats, SealedInterval, Sink,
};
use eleph_stats::SetAccuracy;

use crate::gen::{Geometry, LiveWorkload, Oracle, PcapWorkload, SketchWorkload};
use crate::output::{Metric, RssSampler};
use crate::spans::{span, totals, SharedTracer, Tracer};
use crate::stats::{median, relative_spread, spaced, tail, TAIL_SAMPLES};

/// One streaming workload's prepared input.
pub enum Stream<'a> {
    /// `pcap_exact`.
    Pcap(&'a PcapWorkload),
    /// `live_ckpt`.
    Live(&'a LiveWorkload),
    /// `sketch_ss`.
    Sketch(&'a SketchWorkload),
}

impl Stream<'_> {
    fn geometry(&self) -> Geometry {
        match self {
            Stream::Pcap(w) => w.geometry,
            Stream::Live(w) => w.geometry,
            Stream::Sketch(w) => w.geometry,
        }
    }

    fn oracle(&self) -> &Rc<Oracle> {
        match self {
            Stream::Pcap(w) => &w.oracle,
            Stream::Live(w) => &w.oracle,
            Stream::Sketch(w) => &w.oracle,
        }
    }

    fn updates(&self) -> &[UpdateBatch] {
        match self {
            Stream::Live(w) => &w.updates,
            _ => &[],
        }
    }

    /// Records offered to the program per pass.
    pub fn records(&self) -> u64 {
        match self {
            Stream::Pcap(w) => w.records,
            Stream::Live(w) => w.metas.len() as u64,
            Stream::Sketch(w) => w.metas.len() as u64,
        }
    }

    /// `(distinct keys, intervals)` of the oracle.
    pub fn oracle_shape(&self) -> (usize, usize) {
        let m = &self.oracle().matrix;
        (m.n_keys(), m.n_intervals())
    }

    /// Whether the workload runs the exact state backend (and is
    /// therefore held bit-identical to its oracle).
    fn exact(&self) -> bool {
        !matches!(self, Stream::Sketch(_))
    }

    fn state(&self) -> StateBackendConfig {
        match self {
            Stream::Sketch(w) => StateBackendConfig::SpaceSaving {
                budget_bytes: w.budget,
            },
            _ => StateBackendConfig::Exact,
        }
    }

    /// Name of the span around the source's `next_chunk`.
    fn source_span(&self) -> &'static str {
        match self {
            Stream::Pcap(_) => "packet.next_chunk",
            _ => "pipeline.source",
        }
    }

    /// The stream as parsed metadata (decoding the capture for
    /// `pcap_exact`), for the replays of the traced run.
    fn metas(&self) -> Vec<PacketMeta> {
        match self {
            Stream::Pcap(w) => {
                let mut source = PcapSource::new(&w.pcap[..]).expect("valid capture header");
                let mut out = Vec::new();
                while source.next_chunk(&mut out).expect("valid capture") > 0 {}
                out
            }
            Stream::Live(w) => w.metas.clone(),
            Stream::Sketch(w) => w.metas.clone(),
        }
    }
}

/// A `Write` into a buffer the harness keeps a handle to.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(data);
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What the probe sink learns about each sealed interval.
struct Probe {
    oracle: Rc<Oracle>,
    exact: bool,
    tracer: SharedTracer,
    /// Start of the `observe_chunk` (or `finish`) call now running.
    call_start: Instant,
    latencies_ms: Vec<f64>,
    /// Intervals received this pass.
    received: usize,
    /// Intervals that disagree with the oracle.
    mismatches: u64,
    accuracy: SetAccuracy,
}

/// The first sink of every pass: stamps the seal latency, checks the
/// interval against the oracle, then hands it to the JSONL sink.
struct ProbeSink {
    probe: Rc<RefCell<Probe>>,
    inner: JsonlSink<SharedBuf>,
}

impl Sink for ProbeSink {
    fn on_interval(&mut self, sealed: &SealedInterval<'_>) -> io::Result<()> {
        let received = Instant::now();
        let tracer = {
            let mut p = self.probe.borrow_mut();
            let wait = received.duration_since(p.call_start).as_secs_f64() * 1e3;
            p.latencies_ms.push(wait);
            let tracer = p.tracer.clone();
            let id = tracer.borrow_mut().enter("bench.probe");
            let o = sealed.outcome;
            let n = p.received;
            p.received += 1;
            let oracle = p.oracle.clone();
            let result = &oracle.result;
            if o.interval != n || n >= result.n_intervals() {
                p.mismatches += 1;
            } else {
                if p.exact
                    && (o.threshold.to_bits() != result.thresholds[n].to_bits()
                        || o.elephants != result.elephants[n])
                {
                    p.mismatches += 1;
                }
                p.accuracy.observe(&result.elephants[n], &o.elephants, |k| {
                    oracle.matrix.rate(n, k)
                });
            }
            tracer.borrow_mut().exit(id);
            tracer
        };
        span(&tracer, "pipeline.sink", || self.inner.on_interval(sealed))
    }

    fn finish(&mut self) -> io::Result<()> {
        self.inner.finish()
    }
}

/// Everything one pass measured.
#[derive(Debug, Default, Clone)]
struct Pass {
    wall_s: f64,
    offered: u64,
    /// Packets handed to `observe_chunk` in calls that seal nothing.
    plain_packets: u64,
    attributed: u64,
    malformed: u64,
    unroutable: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    checkpoint_bytes: u64,
    checkpoints: u64,
    /// Peak resident memory during the pass (per-pass preparation
    /// included).
    peak_rss_mb: f64,
}

/// State kept across the passes of one run.
struct Runner<'s, 'a> {
    stream: &'s Stream<'a>,
    tracer: SharedTracer,
    probe: Rc<RefCell<Probe>>,
    jsonl: SharedBuf,
    /// JSONL of the first pass; every later pass must repeat it.
    reference_jsonl: Option<Vec<u8>>,
    checkpoint: Vec<u8>,
}

impl<'s, 'a> Runner<'s, 'a> {
    fn new(stream: &'s Stream<'a>, tracer: SharedTracer) -> Self {
        let probe = Probe {
            oracle: stream.oracle().clone(),
            exact: stream.exact(),
            tracer: tracer.clone(),
            call_start: Instant::now(),
            latencies_ms: Vec::new(),
            received: 0,
            mismatches: 0,
            accuracy: SetAccuracy::new(),
        };
        Runner {
            stream,
            tracer,
            probe: Rc::new(RefCell::new(probe)),
            jsonl: SharedBuf::default(),
            reference_jsonl: None,
            checkpoint: Vec::new(),
        }
    }

    /// One full pass over the stream.
    fn pass(&mut self) -> Pass {
        {
            let mut p = self.probe.borrow_mut();
            p.latencies_ms.clear();
            p.received = 0;
            p.mismatches = 0;
        }
        self.jsonl.0.borrow_mut().clear();
        let geometry = self.stream.geometry();
        // Per-pass preparation, outside the timed part: a live table at
        // generation 0 and an owned copy of the metadata stream.
        let live = match self.stream {
            Stream::Live(w) => Some(LiveBgpTable::from_table(&w.table)),
            _ => None,
        };
        let sink = ProbeSink {
            probe: self.probe.clone(),
            inner: JsonlSink::new(self.jsonl.clone()),
        };
        let builder = PipelineBuilder::new()
            .interval_secs(geometry.interval_secs)
            .start_unix(geometry.start_unix)
            .n_intervals(geometry.n_intervals)
            .state_backend(self.stream.state())
            .sink(sink);
        let mut pass = match self.stream {
            Stream::Pcap(w) => {
                let pipeline = builder.frozen(&w.frozen).build();
                let source = PcapSource::new(&w.pcap[..]).expect("valid capture header");
                self.drive(pipeline, source)
            }
            Stream::Live(w) => {
                let live = live.as_ref().expect("built above");
                let pipeline = builder.live(live).route_updates(w.updates.clone()).build();
                self.drive(pipeline, MetaSource::new(w.metas.clone()))
            }
            Stream::Sketch(w) => {
                let pipeline = builder.frozen(&w.frozen).build();
                self.drive(pipeline, MetaSource::new(w.metas.clone()))
            }
        };
        let p = self.probe.borrow();
        pass.latencies_ms = p.latencies_ms.clone();
        pass.failed += p.mismatches;
        // Intervals never delivered count as failed too.
        pass.failed += geometry.n_intervals.saturating_sub(p.received) as u64;
        let jsonl = self.jsonl.0.borrow();
        match &self.reference_jsonl {
            None => self.reference_jsonl = Some(jsonl.clone()),
            Some(reference) => {
                let differing = reference
                    .split(|&b| b == b'\n')
                    .zip(jsonl.split(|&b| b == b'\n'))
                    .filter(|(a, b)| a != b)
                    .count();
                pass.failed += differing as u64;
            }
        }
        pass
    }

    /// Feed `source` through `pipeline` and finish it.
    fn drive<S: PacketSource>(
        &mut self,
        mut pipeline: Pipeline<'_, ConstantLoadDetector>,
        mut source: S,
    ) -> Pass {
        let geometry = self.stream.geometry();
        let (start_ns, interval_ns) = geometry.bounds_ns();
        let boundary = |open: usize| {
            if open + 1 < geometry.n_intervals {
                start_ns + (open as u64 + 1) * interval_ns
            } else {
                u64::MAX
            }
        };
        let update_ns: Vec<u64> = self
            .stream
            .updates()
            .iter()
            .map(|b| b.at_unix * 1_000_000_000)
            .collect();
        let tracer = self.tracer.clone();
        let source_span = self.stream.source_span();
        let checkpointing = matches!(self.stream, Stream::Live(_));
        let mut pass = Pass::default();
        let mut next_boundary = boundary(0);
        let mut next_update = 0usize;
        let mut buf: Vec<PacketMeta> = Vec::with_capacity(256);
        let mut error = false;

        let t0 = Instant::now();
        let root = tracer.borrow_mut().enter("bench.pass");
        'chunks: loop {
            buf.clear();
            let pulled = span(&tracer, source_span, || source.next_chunk(&mut buf));
            match pulled {
                Ok(0) => break,
                Ok(_) => {}
                Err(_) => {
                    error = true;
                    break;
                }
            }
            let mut rest = &buf[..];
            while !rest.is_empty() {
                let due = update_ns.get(next_update).copied().unwrap_or(u64::MAX);
                let cut_at = next_boundary.min(due);
                let Some(cut) = rest.iter().position(|m| m.ts_ns >= cut_at) else {
                    pass.plain_packets += rest.len() as u64;
                    if span(&tracer, "pipeline.observe", || pipeline.observe_chunk(rest)).is_err() {
                        error = true;
                        break 'chunks;
                    }
                    break;
                };
                if cut > 0 {
                    let head = &rest[..cut];
                    pass.plain_packets += cut as u64;
                    if span(&tracer, "pipeline.observe", || pipeline.observe_chunk(head)).is_err() {
                        error = true;
                        break 'chunks;
                    }
                }
                let one = &rest[cut..cut + 1];
                let ts = one[0].ts_ns;
                let sealing = ts >= next_boundary;
                let name = if sealing {
                    "pipeline.seal"
                } else {
                    "bgp.apply"
                };
                self.probe.borrow_mut().call_start = Instant::now();
                if span(&tracer, name, || pipeline.observe_chunk(one)).is_err() {
                    error = true;
                    break 'chunks;
                }
                while next_update < update_ns.len() && update_ns[next_update] <= ts {
                    next_update += 1;
                }
                if sealing {
                    let open = ((ts - start_ns) / interval_ns) as usize;
                    next_boundary = boundary(open.min(geometry.n_intervals - 1));
                    if checkpointing {
                        let ckpt = &mut self.checkpoint;
                        ckpt.clear();
                        let written =
                            span(&tracer, "pipeline.checkpoint", || pipeline.checkpoint(ckpt));
                        if written.is_err() {
                            error = true;
                            break 'chunks;
                        }
                        pass.checkpoints += 1;
                        pass.checkpoint_bytes += ckpt.len() as u64;
                    }
                }
                rest = &rest[cut + 1..];
            }
        }
        let mut stats = pipeline.stats();
        self.probe.borrow_mut().call_start = Instant::now();
        let report = span(&tracer, "pipeline.finish", || pipeline.finish());
        tracer.borrow_mut().exit(root);
        pass.wall_s = t0.elapsed().as_secs_f64();

        // Offered and malformed records: the harness drives the source
        // itself, so it folds the source's malformed count in the way
        // `Pipeline::run` would.
        let malformed = source.malformed();
        stats.offered += malformed;
        stats.malformed += malformed;
        pass.offered = stats.offered;
        pass.malformed = malformed;
        pass.unroutable = stats.unroutable;
        pass.attributed = stats.attributed;
        match report {
            Ok(report) => {
                let mut finished = report.stats;
                finished.offered += malformed;
                finished.malformed += malformed;
                if error || !conserved(&finished, self.stream.records()) {
                    pass.failed += geometry.n_intervals as u64;
                }
            }
            Err(_) => pass.failed += geometry.n_intervals as u64,
        }
        if checkpointing && !self.checkpoint_is_sound(pass.checkpoints) {
            pass.failed += 1;
        }
        pass
    }

    /// The last checkpoint of the pass decodes and records as many
    /// sealed intervals as the pass took checkpoints, with conserved
    /// accounting.
    fn checkpoint_is_sound(&self, checkpoints: u64) -> bool {
        match Checkpoint::read_from(&mut &self.checkpoint[..]) {
            Ok(c) => c.intervals_sealed() as u64 == checkpoints && c.stats().is_conserved(),
            Err(_) => false,
        }
    }
}

fn conserved(stats: &PipelineStats, records: u64) -> bool {
    stats.is_conserved() && stats.offered == records
}

/// The end-to-end figures of a streaming run (tracing off).
#[derive(Debug)]
pub struct StreamRun {
    /// Operations (sealed intervals) attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Packets offered per second of timed pass time: every untraced
    /// pass's packets over their summed wall time.
    pub throughput_pps: f64,
    /// Mean seal latency over every sealed interval of the run's
    /// untraced passes.
    pub seal_mean_ms: f64,
    /// Median of the same samples.
    pub seal_p50_ms: f64,
    /// Tail seal latency (see [`crate::stats::tail`]).
    pub seal_tail_ms: f64,
    /// Which percentile the tail is.
    pub seal_tail_percentile: f64,
    /// Samples the tail was taken over.
    pub seal_samples: usize,
    /// Seal latency samples collected (the median's sample count).
    pub seal_collected: usize,
    /// Elephant-set recall against the oracle, micro-averaged.
    pub recall: f64,
    /// Elephant-set precision against the oracle, micro-averaged.
    pub precision: f64,
    /// Peak resident memory of a pass (median over passes).
    pub peak_rss_mb: f64,
    /// Passes run, the warm-up pass included.
    pub passes: usize,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The traced passes' spans (traced runs only).
    pub tracer: Option<Tracer>,
}

/// Minimum passes of each kind a run collects even past its time
/// budget.
const MIN_PASSES: usize = 3;

/// Run passes for `seconds` of wall time. With `trace`, passes alternate
/// between untraced and traced, and the traced ones feed the per-layer
/// metrics.
pub fn run(stream: &Stream<'_>, seconds: f64, trace: bool) -> StreamRun {
    let tracer = Tracer::shared(false);
    let mut runner = Runner::new(stream, tracer.clone());
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    // A warm-up pass outside the figures faults in the pages and fills
    // the caches every later pass reuses; its outputs are still checked.
    let warmup = runner.pass();
    let start = Instant::now();
    let rss = RssSampler::start();
    loop {
        let enough_time = start.elapsed().as_secs_f64() >= seconds;
        let samples: usize = untraced.iter().map(|p| p.latencies_ms.len()).sum();
        // The untraced run reports a tail, which needs more than
        // TAIL_BEYOND seal samples; the traced run reports none.
        let enough = untraced.len() >= MIN_PASSES
            && if trace {
                traced.len() >= MIN_PASSES
            } else {
                samples > crate::stats::TAIL_BEYOND
            };
        if enough_time && enough {
            break;
        }
        let traced_turn = trace && traced.len() < untraced.len();
        tracer.borrow_mut().set_on(traced_turn);
        rss.reset();
        let mut pass = runner.pass();
        pass.peak_rss_mb = rss.peak_mb();
        if traced_turn {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }
    tracer.borrow_mut().set_on(false);
    rss.finish();

    let all = || untraced.iter().chain(&traced).chain([&warmup]);
    let attempted = all().count() as u64 * stream.geometry().n_intervals as u64;
    let failed = all().map(|p| p.failed).sum::<u64>().min(attempted);
    // The gated figures are means over the whole run, not quantiles. The
    // shared host this was tuned on (2-vCPU Xeon KVM guest) switches
    // every few seconds between two speeds about a third apart, so a
    // run's samples mix two modes in a share that differs from run to
    // run. A mean moves in proportion to that share; a quantile jumps
    // from one mode to the other when the share crosses it. Over ten
    // seeds of `live_ckpt` at 20 s, the median seal latency spread 18 %
    // and the mean 7 %; over five quieter ones the slower quartile of
    // per-pass medians spread 14 % and the mean again 7 %.
    let offered: u64 = untraced.iter().map(|p| p.offered).sum();
    let pass_s: f64 = untraced.iter().map(|p| p.wall_s).sum();
    let latencies: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    // A traced run may stop short of a tail; it reports no end-to-end
    // metric.
    let seal_tail = tail(&spaced(&latencies, TAIL_SAMPLES)).unwrap_or(crate::stats::Tail {
        percentile: 0.0,
        value: 0.0,
        samples: latencies.len(),
    });
    let peaks: Vec<f64> = untraced.iter().map(|p| p.peak_rss_mb).collect();
    let mut out = StreamRun {
        attempted,
        failed,
        throughput_pps: offered as f64 / pass_s,
        seal_mean_ms: latencies.iter().sum::<f64>() / latencies.len() as f64,
        seal_p50_ms: median(&latencies),
        seal_tail_ms: seal_tail.value,
        seal_tail_percentile: seal_tail.percentile,
        seal_samples: seal_tail.samples,
        seal_collected: latencies.len(),
        recall: runner.probe.borrow().accuracy.recall(),
        precision: runner.probe.borrow().accuracy.precision(),
        peak_rss_mb: median(&peaks),
        passes: untraced.len() + traced.len() + 1,
        layers: Vec::new(),
        tracer: None,
    };
    drop(runner);
    if trace {
        let tracer = Rc::try_unwrap(tracer)
            .expect("no other tracer handle")
            .into_inner();
        out.layers = layer_metrics(stream, &untraced, &traced, &tracer);
        out.tracer = Some(tracer);
    }
    out
}

/// Records replayed per backend when timing the sketch layer on its own.
const REPLAY_RECORDS: usize = 300_000;

/// Timings of single layers, measured by replaying the workload's
/// stream (or its oracle matrix) through that layer's public API alone.
#[derive(Debug, Default)]
struct Replay {
    attribute_ns_per_pkt: f64,
    /// `(kind, record ns, seal µs)` per state backend.
    backends: Vec<(&'static str, f64, f64)>,
    detect_us: f64,
    classify_us: f64,
    keys_per_interval: f64,
}

fn replay(stream: &Stream<'_>) -> Replay {
    let metas = stream.metas();
    let geometry = stream.geometry();
    let (start_ns, interval_ns) = geometry.bounds_ns();
    let mut routes = Vec::new();
    // The live workload attributes against the generation-0 view: the
    // table every pass starts from.
    let live_view = match stream {
        Stream::Live(w) => Some(LiveBgpTable::from_table(&w.table).view()),
        _ => None,
    };
    let attribute = |metas: &[PacketMeta], routes: &mut Vec<_>| match (stream, &live_view) {
        (Stream::Pcap(w), _) => attribute_metas(&w.frozen, metas, routes),
        (Stream::Sketch(w), _) => attribute_metas(&w.frozen, metas, routes),
        (Stream::Live(_), Some(view)) => attribute_metas(view, metas, routes),
        (Stream::Live(_), None) => unreachable!("built above"),
    };
    // Attribution over the whole stream, in the source's chunk size.
    let mut all_routes = Vec::with_capacity(metas.len());
    let mut times = Vec::new();
    for _ in 0..3 {
        all_routes.clear();
        let t = Instant::now();
        for chunk in metas.chunks(256) {
            attribute(chunk, &mut routes);
            all_routes.extend_from_slice(&routes);
        }
        times.push(t.elapsed().as_secs_f64());
    }
    let attribute_ns_per_pkt = median(&times) * 1e9 / metas.len().max(1) as f64;

    // The keyed (interval, key, bytes) stream the state backend sees.
    let mut alloc = KeyAllocator::new(0);
    let keyed: Vec<(u32, KeyId, u32)> = metas
        .iter()
        .zip(&all_routes)
        .filter_map(|(m, r)| {
            let route = (*r)?;
            let n = ((m.ts_ns - start_ns) / interval_ns) as u32;
            Some((n, alloc.key_for(route).0, m.wire_len))
        })
        .take(REPLAY_RECORDS)
        .collect();
    let secs = geometry.interval_secs as f64;
    let mut backends = Vec::new();
    for config in [
        StateBackendConfig::Exact,
        StateBackendConfig::SpaceSaving {
            budget_bytes: 1 << 20,
        },
        StateBackendConfig::CountMinRow {
            budget_bytes: 1 << 20,
        },
        StateBackendConfig::AdaptiveBloom {
            budget_bytes: 1 << 20,
        },
    ] {
        let mut backend: Box<dyn StateBackend> = config
            .build()
            .unwrap_or_else(|| Box::new(ExactDense::new()));
        let (record_ns, seal_us) = replay_backend(backend.as_mut(), &keyed, secs);
        backends.push((config.kind(), record_ns, seal_us));
    }

    // Detection and classification on the oracle's intervals.
    let matrix = &stream.oracle().matrix;
    let detector = ConstantLoadDetector::new(PAPER_BETA);
    let mut classifier = OnlineClassifier::new(
        ConstantLoadDetector::new(PAPER_BETA),
        PAPER_GAMMA,
        Scheme::LatentHeat {
            window: PAPER_LATENT_WINDOW,
        },
    );
    let (mut detect_s, mut classify_s, mut keys) = (0.0, 0.0, 0usize);
    let mut values = Vec::new();
    for n in 0..matrix.n_intervals() {
        matrix.values_into(n, &mut values);
        let t = Instant::now();
        std::hint::black_box(detector.detect(std::hint::black_box(&values)));
        detect_s += t.elapsed().as_secs_f64();
        let snapshot = matrix.interval(n).to_pairs();
        keys += snapshot.len();
        let t = Instant::now();
        std::hint::black_box(classifier.observe(&snapshot));
        classify_s += t.elapsed().as_secs_f64();
    }
    let n = matrix.n_intervals().max(1) as f64;
    Replay {
        attribute_ns_per_pkt,
        backends,
        detect_us: detect_s * 1e6 / n,
        classify_us: classify_s * 1e6 / n,
        keys_per_interval: keys as f64 / n,
    }
}

/// Record the keyed stream into one backend, sealing at every interval
/// change: `(ns per record, µs per seal)`.
fn replay_backend(
    backend: &mut dyn StateBackend,
    keyed: &[(u32, KeyId, u32)],
    secs: f64,
) -> (f64, f64) {
    let mut snapshot = Vec::new();
    let (mut record_s, mut seal_s, mut seals) = (0.0, 0.0, 0usize);
    for run in keyed.chunk_by(|a, b| a.0 == b.0) {
        let t = Instant::now();
        for &(_, key, bytes) in run {
            backend.record(key, u64::from(bytes));
        }
        record_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        backend.seal_into(secs, &mut snapshot);
        seal_s += t.elapsed().as_secs_f64();
        seals += 1;
        std::hint::black_box(&snapshot);
    }
    (
        record_s * 1e9 / keyed.len().max(1) as f64,
        seal_s * 1e6 / seals.max(1) as f64,
    )
}

/// Per-layer metrics from the traced passes, with the untraced passes
/// of the same run as the reference for the budget check.
fn layer_metrics(
    stream: &Stream<'_>,
    untraced: &[Pass],
    traced: &[Pass],
    tracer: &Tracer,
) -> Vec<Metric> {
    let r = replay(stream);
    let by_name = totals(tracer.spans());
    let get = |name: &str| by_name.iter().find(|t| t.name == name).copied();
    let self_ms = |name: &str| get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let total_ms = |name: &str| get(name).map_or(0.0, |t| t.total_ns as f64 / 1e6);
    let count = |name: &str| get(name).map_or(0, |t| t.count);

    let traced_packets: u64 = traced.iter().map(|p| p.offered).sum();
    let plain_packets: u64 = traced.iter().map(|p| p.plain_packets).sum();
    let attributed: u64 = traced.iter().map(|p| p.attributed).sum();
    let seals = count("pipeline.seal") as f64;
    let backend_kind = stream.state().kind();
    let (_, record_ns, seal_us) = *r
        .backends
        .iter()
        .find(|b| b.0 == backend_kind)
        .expect("every backend replayed");

    // Apportion replayed single-layer costs out of the pipeline spans
    // that contain them; a share can never exceed its parent's self time.
    let mut clamped = 0u64;
    let mut take = |parent: &mut f64, want: f64| {
        let got = want.min(*parent).max(0.0);
        if got < want {
            clamped += 1;
        }
        *parent -= got;
        got
    };
    let mut observe = self_ms("pipeline.observe");
    let mut seal = self_ms("pipeline.seal");
    let flow_ms = take(
        &mut observe,
        r.attribute_ns_per_pkt * traced_packets as f64 / 1e6,
    );
    let record_ms = take(&mut observe, record_ns * attributed as f64 / 1e6);
    let core_seal_ms = take(&mut seal, (seal_us + r.classify_us) * seals / 1e3);

    let wall_ms: f64 = traced.iter().map(|p| p.wall_s).sum::<f64>() * 1e3;
    let layers = [
        ("bench", self_ms("bench.pass") + self_ms("bench.probe")),
        ("packet", self_ms("packet.next_chunk")),
        ("flow", flow_ms),
        ("bgp", self_ms("bgp.apply")),
        (
            "pipeline",
            observe
                + seal
                + self_ms("pipeline.source")
                + self_ms("pipeline.sink")
                + self_ms("pipeline.checkpoint")
                + self_ms("pipeline.finish"),
        ),
        ("core", record_ms + core_seal_ms),
        ("report", 0.0),
    ];
    let self_sum_ms: f64 = layers.iter().map(|l| l.1).sum();
    let pct = |ms: f64| 100.0 * ms / wall_ms;

    // Means, not medians: the layer self times are sums over the traced
    // passes, so the whole they must add up to is the mean pass.
    let untraced_ms: Vec<f64> = untraced.iter().map(|p| p.wall_s * 1e3).collect();
    let traced_ms: Vec<f64> = traced.iter().map(|p| p.wall_s * 1e3).collect();
    let passes = traced.len() as f64;
    let untraced_pass = untraced_ms.iter().sum::<f64>() / untraced_ms.len() as f64;
    let traced_pass = traced_ms.iter().sum::<f64>() / passes;
    let budget_pass = self_sum_ms / passes;
    let gap_pct = 100.0 * (budget_pass - untraced_pass) / untraced_pass;
    let spread_pct = 100.0 * relative_spread(&untraced_ms).max(relative_spread(&traced_ms));
    let pps = |passes: &[Pass]| {
        passes.iter().map(|p| p.offered).sum::<u64>() as f64
            / passes.iter().map(|p| p.wall_s).sum::<f64>()
    };

    let seal_ms: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "pipeline.seal")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    let seal_tail = tail(&seal_ms).map_or(0.0, |t| t.value);
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };

    let mut m = vec![
        Metric::new("trace.untraced_pass_ms", untraced_pass, "ms"),
        Metric::new("trace.traced_pass_ms", traced_pass, "ms"),
        Metric::new("trace.self_sum_pass_ms", budget_pass, "ms"),
        Metric::new("trace.budget_gap_pct", gap_pct, "%"),
        Metric::new("trace.spread_pct", spread_pct, "%"),
        Metric::new(
            "trace.budget_closes",
            f64::from(u8::from(gap_pct.abs() <= spread_pct)),
            "count",
        ),
        Metric::new("trace.overhead_pps", pps(traced) - pps(untraced), "1/s"),
        Metric::new("trace.spans", tracer.spans().len() as f64, "count"),
        Metric::new("trace.apportion_clamped", clamped as f64, "count"),
    ];
    for (layer, ms) in layers {
        m.push(Metric::new(format!("{layer}.self_pct"), pct(ms), "%"));
    }
    m.extend([
        Metric::new(
            "packet.next_chunk_ns_per_pkt",
            per(
                total_ms("packet.next_chunk") * 1e6,
                traced_packets * u64::from(count("packet.next_chunk") > 0),
            ),
            "ns",
        ),
        Metric::new(
            "packet.next_chunk_pct",
            pct(self_ms("packet.next_chunk")),
            "%",
        ),
        Metric::new(
            "packet.malformed",
            traced.iter().map(|p| p.malformed).sum::<u64>() as f64,
            "count",
        ),
        Metric::new("flow.attribute_ns_per_pkt", r.attribute_ns_per_pkt, "ns"),
        Metric::new("flow.attribute_pct", pct(flow_ms), "%"),
        Metric::new(
            "flow.unroutable",
            traced.iter().map(|p| p.unroutable).sum::<u64>() as f64,
            "count",
        ),
        Metric::new(
            "bgp.apply_us",
            per(total_ms("bgp.apply") * 1e3, count("bgp.apply")),
            "us",
        ),
        Metric::new(
            "bgp.update_batches",
            count("bgp.apply") as f64 / passes,
            "count",
        ),
        Metric::new(
            "pipeline.observe_ns_per_pkt",
            per(total_ms("pipeline.observe") * 1e6, plain_packets),
            "ns",
        ),
        Metric::new(
            "pipeline.observe_pct",
            pct(self_ms("pipeline.observe")),
            "%",
        ),
        Metric::new(
            "pipeline.seal_p50_ms",
            if seal_ms.is_empty() {
                0.0
            } else {
                median(&seal_ms)
            },
            "ms",
        ),
        Metric::new("pipeline.seal_tail_ms", seal_tail, "ms"),
        Metric::new("pipeline.seal_pct", pct(self_ms("pipeline.seal")), "%"),
        Metric::new(
            "pipeline.sink_ms",
            per(total_ms("pipeline.sink"), count("pipeline.sink")),
            "ms",
        ),
        Metric::new(
            "pipeline.checkpoint_ms",
            per(
                total_ms("pipeline.checkpoint"),
                count("pipeline.checkpoint"),
            ),
            "ms",
        ),
        Metric::new(
            "pipeline.checkpoint_bytes",
            per(
                traced.iter().map(|p| p.checkpoint_bytes).sum::<u64>() as f64,
                traced.iter().map(|p| p.checkpoints).sum(),
            ),
            "bytes",
        ),
        Metric::new(
            "pipeline.checkpoint_pct",
            pct(self_ms("pipeline.checkpoint")),
            "%",
        ),
        Metric::new(
            "pipeline.finish_ms",
            per(total_ms("pipeline.finish"), count("pipeline.finish")),
            "ms",
        ),
        Metric::new("core.detect_us", r.detect_us, "us"),
        Metric::new("core.classify_us", r.classify_us, "us"),
        Metric::new("core.keys_per_interval", r.keys_per_interval, "count"),
        Metric::new("core.sketch.record_pct", pct(record_ms), "%"),
    ]);
    for (kind, record_ns, seal_us) in &r.backends {
        m.push(Metric::new(
            format!("core.sketch.{kind}.record_ns"),
            *record_ns,
            "ns",
        ));
        m.push(Metric::new(
            format!("core.sketch.{kind}.seal_us"),
            *seal_us,
            "us",
        ));
    }
    m
}
