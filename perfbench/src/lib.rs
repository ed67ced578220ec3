//! The repository benchmark: four named workloads, each built from a
//! seed, run against the eleph crates' public APIs, checked against an
//! oracle, and reported as named metrics with units.
//!
//! See `README.md` in this directory for why each workload exists and
//! which end-to-end metric each per-layer metric should move.

pub mod gen;
pub mod output;
pub mod spans;
pub mod stats;
pub mod stream;
pub mod sweep;

use std::path::{Path, PathBuf};
use std::time::Instant;

use gen::Sizes;
use output::{json_str, Machine, Metric};
use spans::Tracer;
use stream::Stream;

/// The workloads `BENCHMARK.json` declares, by the names the benchmark
/// command takes.
pub const WORKLOADS: [&str; 3] = ["pcap_exact", "live_ckpt", "paper_sweep"];

/// Workloads the command also runs but `BENCHMARK.json` does not
/// declare: `sketch_ss` swings by up to a third between runs on a
/// shared host (its Space-Saving scan is the most contention-sensitive
/// code here), more than any regression bound allows.
pub const EXTRA_WORKLOADS: [&str; 1] = ["sketch_ss"];

/// End-to-end metrics, printed by every untraced run, with units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("throughput", "1/s"),
    ("latency_mean_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("recall", "ratio"),
    ("precision", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run, with units. A layer
/// a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 60] = [
    ("trace.untraced_pass_ms", "ms"),
    ("trace.traced_pass_ms", "ms"),
    ("trace.self_sum_pass_ms", "ms"),
    ("trace.budget_gap_pct", "%"),
    ("trace.spread_pct", "%"),
    ("trace.budget_closes", "count"),
    ("trace.overhead_pps", "1/s"),
    ("trace.overhead_sweep_s", "s"),
    ("trace.spans", "count"),
    ("trace.apportion_clamped", "count"),
    ("bench.self_pct", "%"),
    ("packet.self_pct", "%"),
    ("flow.self_pct", "%"),
    ("bgp.self_pct", "%"),
    ("pipeline.self_pct", "%"),
    ("core.self_pct", "%"),
    ("report.self_pct", "%"),
    ("packet.next_chunk_ns_per_pkt", "ns"),
    ("packet.next_chunk_pct", "%"),
    ("packet.malformed", "count"),
    ("flow.attribute_ns_per_pkt", "ns"),
    ("flow.attribute_pct", "%"),
    ("flow.unroutable", "count"),
    ("bgp.apply_us", "us"),
    ("bgp.update_batches", "count"),
    ("pipeline.observe_ns_per_pkt", "ns"),
    ("pipeline.observe_pct", "%"),
    ("pipeline.seal_p50_ms", "ms"),
    ("pipeline.seal_tail_ms", "ms"),
    ("pipeline.seal_pct", "%"),
    ("pipeline.sink_ms", "ms"),
    ("pipeline.checkpoint_ms", "ms"),
    ("pipeline.checkpoint_bytes", "bytes"),
    ("pipeline.checkpoint_pct", "%"),
    ("pipeline.finish_ms", "ms"),
    ("core.detect_us", "us"),
    ("core.classify_us", "us"),
    ("core.keys_per_interval", "count"),
    ("core.sketch.record_pct", "%"),
    ("core.sketch.exact.record_ns", "ns"),
    ("core.sketch.exact.seal_us", "us"),
    ("core.sketch.spacesaving.record_ns", "ns"),
    ("core.sketch.spacesaving.seal_us", "us"),
    ("core.sketch.cmrow.record_ns", "ns"),
    ("core.sketch.cmrow.seal_us", "us"),
    ("core.sketch.bloom.record_ns", "ns"),
    ("core.sketch.bloom.seal_us", "us"),
    ("report.fig1_data_ms", "ms"),
    ("report.fig1a_ms", "ms"),
    ("report.fig1b_ms", "ms"),
    ("report.fig1c_ms", "ms"),
    ("report.table1_ms", "ms"),
    ("report.table2_ms", "ms"),
    ("report.table3_ms", "ms"),
    ("report.table4_ms", "ms"),
    ("report.west_lab_ms", "ms"),
    ("report.ablation_gamma_ms", "ms"),
    ("report.ablation_window_ms", "ms"),
    ("report.ablation_beta_ms", "ms"),
    ("report.ablation_scheme_ms", "ms"),
];

/// Times each run builds its workload, reporting the median as
/// `setup_s`.
pub const SETUP_REPS: usize = 3;

/// One run's request.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: &'a str,
    /// Input seed.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
    /// The benchmark binary, which `paper_sweep` starts in child mode
    /// to measure memory in fresh processes.
    pub exe: &'a Path,
}

/// One run's result.
#[derive(Debug)]
pub struct Outcome {
    /// No operation failed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// The metrics the result line carries: [`END_TO_END`] untraced,
    /// [`PER_LAYER`] traced, in that order.
    pub metrics: Vec<Metric>,
    /// Workload facts for the provenance header, as JSON members.
    pub facts: String,
    /// Human-readable report lines, including each of the workload's
    /// metrics under its own name (`throughput_pps`, `seal_p50_ms`, …).
    pub report: Vec<String>,
    /// The traced run's spans.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// The result line.
    pub fn result_line(&self) -> String {
        output::result_line(self.correct, self.attempted, self.failed, &self.metrics)
    }
}

/// Build a workload `SETUP_REPS` times, keeping the last build; returns
/// it with the median build time.
fn setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous build first so two never coexist.
        drop(built.take());
        let t = Instant::now();
        built = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// Put `got` in the order of `names`, filling what a workload does not
/// measure with 0.
///
/// # Panics
///
/// Panics when `got` holds a metric `names` does not list.
fn canonical(names: &[(&str, &'static str)], got: Vec<Metric>) -> Vec<Metric> {
    for m in &got {
        assert!(
            names.iter().any(|(n, _)| *n == m.name),
            "unlisted metric {}",
            m.name
        );
    }
    names
        .iter()
        .map(|&(name, unit)| {
            let value = got.iter().find(|m| m.name == name).map_or(0.0, |m| m.value);
            Metric::new(name, value, unit)
        })
        .collect()
}

/// Run one workload.
pub fn run(req: &Request<'_>) -> Result<Outcome, String> {
    match req.workload {
        "pcap_exact" => {
            let (w, setup_s) = setup(|| gen::pcap_workload(req.seed, &req.sizes));
            let facts = stream_facts(&Stream::Pcap(&w), w.pcap.len() as u64);
            Ok(run_stream(req, &Stream::Pcap(&w), setup_s, facts))
        }
        "live_ckpt" => {
            let (w, setup_s) = setup(|| gen::live_workload(req.seed, &req.sizes));
            let facts = stream_facts(&Stream::Live(&w), wire_bytes(&w.metas));
            Ok(run_stream(req, &Stream::Live(&w), setup_s, facts))
        }
        "sketch_ss" => {
            let (w, setup_s) = setup(|| gen::sketch_workload(req.seed, &req.sizes));
            let facts = stream_facts(&Stream::Sketch(&w), wire_bytes(&w.metas));
            Ok(run_stream(req, &Stream::Sketch(&w), setup_s, facts))
        }
        "paper_sweep" => run_paper_sweep(req),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

fn wire_bytes(metas: &[eleph_packet::PacketMeta]) -> u64 {
    metas.iter().map(|m| u64::from(m.wire_len)).sum()
}

/// Workload size facts of a streaming workload; the program runs its
/// serial path, on one thread.
fn stream_facts(stream: &Stream<'_>, bytes: u64) -> String {
    let (keys, intervals) = stream.oracle_shape();
    format!(
        "\"packets\":{},\"bytes\":{bytes},\"distinct_keys\":{keys},\"intervals\":{intervals},\"program_threads\":1",
        stream.records()
    )
}

fn run_stream(req: &Request<'_>, stream: &Stream<'_>, setup_s: f64, facts: String) -> Outcome {
    let r = stream::run(stream, req.seconds, req.trace);
    let error_rate = r.failed as f64 / r.attempted as f64;
    let mut report = vec![
        format!(
            "throughput_pps     {:>14.1} 1/s (all passes' packets over their time)",
            r.throughput_pps
        ),
        format!(
            "seal_mean_ms       {:>14.4} ms  (mean of the run's {} seals)",
            r.seal_mean_ms, r.seal_collected
        ),
        format!(
            "seal_p50_ms        {:>14.4} ms  (median of the same seals)",
            r.seal_p50_ms
        ),
        format!(
            "seal_tail_ms       {:>14.4} ms  (p{:.2} of {} samples spaced over the {} collected)",
            r.seal_tail_ms, r.seal_tail_percentile, r.seal_samples, r.seal_collected
        ),
        format!(
            "setup_s            {:>14.4} s   (median of {SETUP_REPS})",
            setup_s
        ),
        format!("peak_rss_mb        {:>14.1} MB", r.peak_rss_mb),
        format!(
            "error_rate         {:>14.6}     ({} of {} sealed intervals failed)",
            error_rate, r.failed, r.attempted
        ),
    ];
    if matches!(stream, Stream::Sketch(_)) {
        report.push(format!("recall             {:>14.6}", r.recall));
        report.push(format!("precision          {:>14.6}", r.precision));
    }
    report.push(format!("passes             {:>14}", r.passes));
    let metrics = if req.trace {
        canonical(&PER_LAYER, r.layers)
    } else {
        canonical(
            &END_TO_END,
            vec![
                Metric::new("throughput", r.throughput_pps, "1/s"),
                Metric::new("latency_mean_ms", r.seal_mean_ms, "ms"),
                Metric::new("latency_tail_ms", r.seal_tail_ms, "ms"),
                Metric::new("recall", r.recall, "ratio"),
                Metric::new("precision", r.precision, "ratio"),
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("peak_rss_mb", r.peak_rss_mb, "MB"),
            ],
        )
    };
    Outcome {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        facts,
        report,
        tracer: r.tracer,
    }
}

fn run_paper_sweep(req: &Request<'_>) -> Result<Outcome, String> {
    let scale = req.sizes.sweep_scale;
    let (w, setup_s) = setup(|| sweep::sweep_workload(req.seed, scale));
    let w = w.map_err(|e| format!("paper_sweep set-up failed: {e}"))?;
    let r = sweep::run_sweep(&w, req.seconds, req.trace, req.exe)
        .map_err(|e| format!("paper_sweep failed: {e}"))?;
    let sweep_ms: Vec<f64> = r.sweep_s.iter().map(|s| s * 1e3).collect();
    // Each sweep is a pass; like the streaming workloads, the gated
    // figures are means over the run (see `stream::run`).
    let mean = sweep_ms.iter().sum::<f64>() / sweep_ms.len() as f64;
    let tail = stats::tail(&stats::spaced(&sweep_ms, stats::TAIL_SAMPLES))
        .expect("run_sweep collects enough sweeps");
    let throughput = 1e3 / mean;
    // Traced runs measure no memory (and report no end-to-end metric).
    let peak = if r.peak_rss_mb.is_empty() {
        0.0
    } else {
        stats::median(&r.peak_rss_mb)
    };
    let error_rate = r.failed as f64 / r.attempted as f64;
    let mut report = vec![
        format!(
            "sweep_s            {:>14.4} s   (mean of {} render_all calls)",
            mean / 1e3,
            sweep_ms.len()
        ),
        format!(
            "sweep_p50_s        {:>14.4} s   (median of the same calls)",
            stats::median(&sweep_ms) / 1e3
        ),
        format!(
            "sweep_tail_s       {:>14.4} s   (p{:.2} of {} samples)",
            tail.value / 1e3,
            tail.percentile,
            tail.samples
        ),
        format!(
            "setup_s            {:>14.4} s   (median of {SETUP_REPS})",
            setup_s
        ),
        format!(
            "peak_rss_mb        {:>14.1} MB  (median of {} fresh-process render_all calls)",
            peak,
            r.peak_rss_mb.len()
        ),
        format!(
            "error_rate         {:>14.6}     ({} of {} operations failed)",
            error_rate, r.failed, r.attempted
        ),
    ];
    for (name, held) in &w.relations {
        report.push(format!(
            "relation {name:<36} {} (reported, not counted)",
            if *held { "holds" } else { "violated" }
        ));
    }
    let metrics = if req.trace {
        canonical(&PER_LAYER, r.layers)
    } else {
        canonical(
            &END_TO_END,
            vec![
                Metric::new("throughput", throughput, "1/s"),
                Metric::new("latency_mean_ms", mean, "ms"),
                Metric::new("latency_tail_ms", tail.value, "ms"),
                Metric::new("recall", w.accuracy.recall(), "ratio"),
                Metric::new("precision", w.accuracy.precision(), "ratio"),
                Metric::new("setup_s", setup_s, "s"),
                Metric::new("peak_rss_mb", peak, "MB"),
            ],
        )
    };
    let facts = format!(
        "\"scale\":{},\"experiments\":{},\"output_bytes\":{},\"program_threads\":\"up to 4 scoped threads per step\"",
        scale,
        sweep::EXPERIMENTS,
        w.reference.len()
    );
    Ok(Outcome {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics,
        facts,
        report,
        tracer: r.tracer,
    })
}

/// The provenance header line.
pub fn header(req: &Request<'_>, machine: &Machine, facts: &str) -> String {
    format!(
        "{{\"perfbench\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"machine\":{{{}}},\"workload_size\":{{{facts}}}}}}}",
        json_str(req.workload),
        req.seed,
        req.seconds,
        u8::from(req.trace),
        machine.json_members()
    )
}

/// Where a traced run writes its spans: under the build directory
/// (`$CARGO_TARGET_DIR`, else `perfbench/target`), which is never
/// committed.
pub fn spans_path(root: &Path, workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("perfbench").join("target"));
    base.join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.csv"))
}
