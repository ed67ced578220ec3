//! The `paper_sweep` workload: `eleph all` (`render_all`) at a fixed
//! scale.
//!
//! The untraced operation is one `render_all` call. The traced pass
//! runs the same public steps `render_all` runs, in the same order,
//! each inside its own span, and must produce the same bytes. The
//! oracle, built in set-up from one traced-style pass, is the reference
//! output plus the paper's scale-invariant relations (the ones
//! `tests/tests/paper_bands.rs` asserts, re-implemented here) and a
//! check that the multi-configuration classifier behind Figure 1
//! (`classify_many`, via `run_many`) agrees with one `classify` call
//! per configuration.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use eleph_core::holding;
use eleph_core::prefix_analysis::prefix_report;
use eleph_core::{classify, AestDetector, ConstantLoadDetector, PAPER_BETA};
use eleph_report::cli::{render_all, CommonOpts};
use eleph_report::experiments::{
    ablation_beta, ablation_gamma, ablation_scheme, ablation_window, fig1_data, fig1a, fig1b,
    fig1c, table1, table2, table3, table4, west_lab, ExperimentOutput, Fig1Data,
};
use eleph_report::{run, DetectorKind, Scenario, SchemeSpec};
use eleph_stats::SetAccuracy;

use crate::output::{lifetime_peak_rss_kb, Metric};
use crate::spans::{span, totals, SharedTracer, Tracer};
use crate::stats::{median, relative_spread};

/// The public steps `render_all` runs, in order, as span names: two
/// shared builds (`fig1_data`, `west_lab`) and eleven rendered
/// experiments.
pub const STEPS: [&str; 13] = [
    "report.fig1_data",
    "report.fig1a",
    "report.fig1b",
    "report.fig1c",
    "report.table1",
    "report.table2",
    "report.table3",
    "report.table4",
    "report.west_lab",
    "report.ablation_gamma",
    "report.ablation_window",
    "report.ablation_beta",
    "report.ablation_scheme",
];

/// Rendered experiments per sweep.
pub const EXPERIMENTS: usize = 11;

/// The prepared `paper_sweep` workload.
#[derive(Debug)]
pub struct SweepWorkload {
    /// `CommonOpts` the sweep runs with.
    pub opts: CommonOpts,
    /// Reference output.
    pub reference: String,
    /// Byte length of each rendered section of `reference`.
    pub sections: Vec<usize>,
    /// Each relation's name and whether it held on this seed.
    pub relations: Vec<(&'static str, bool)>,
    /// Figure 1 runs that disagree with per-configuration `classify`.
    pub classifier_mismatches: u64,
    /// Elephant-set accuracy of the Figure 1 runs against per-config
    /// `classify`.
    pub accuracy: SetAccuracy,
}

type Step = fn(&Fig1Data) -> io::Result<ExperimentOutput>;
type Ablation = fn(&Scenario, &eleph_report::ScenarioData) -> io::Result<ExperimentOutput>;

/// `render_all`'s body, one span per public step. Returns the output,
/// the section lengths, and the Figure 1 data for the oracle checks.
fn steps(opts: CommonOpts, tracer: &SharedTracer) -> io::Result<(String, Vec<usize>, Fig1Data)> {
    let CommonOpts { scale, seed } = opts;
    let mut out = String::new();
    let mut sections = Vec::new();
    let mut push = |text: String| {
        sections.push(text.len() + 1);
        out.push_str(&text);
        out.push('\n');
    };
    let data = span(tracer, "report.fig1_data", || fig1_data(scale, seed));
    let figure_steps: [(&'static str, Step); 6] = [
        ("report.fig1a", fig1a),
        ("report.fig1b", fig1b),
        ("report.fig1c", fig1c),
        ("report.table1", table1),
        ("report.table2", table2),
        ("report.table3", table3),
    ];
    for (name, step) in figure_steps {
        push(span(tracer, name, || step(&data).map(|o| o.render()))?);
    }
    push(span(tracer, "report.table4", || {
        table4(scale, seed).map(|o| o.render())
    })?);
    let (scenario, lab) = span(tracer, "report.west_lab", || west_lab(scale, seed));
    let ablations: [(&'static str, Ablation); 4] = [
        ("report.ablation_gamma", ablation_gamma),
        ("report.ablation_window", ablation_window),
        ("report.ablation_beta", ablation_beta),
        ("report.ablation_scheme", ablation_scheme),
    ];
    for (name, step) in ablations {
        push(span(tracer, name, || {
            step(&scenario, &lab).map(|o| o.render())
        })?);
    }
    Ok((out, sections, data))
}

/// Build the reference output and check it against the oracles.
pub fn sweep_workload(seed: u64, scale: f64) -> io::Result<SweepWorkload> {
    let opts = CommonOpts { scale, seed };
    let (reference, sections, data) = steps(opts, &Tracer::shared(false))?;
    let relations = relations(&data, opts);
    let (classifier_mismatches, accuracy) = check_classifiers(&data);
    Ok(SweepWorkload {
        opts,
        reference,
        sections,
        relations,
        classifier_mismatches,
        accuracy,
    })
}

/// Compare each Figure 1 run with a plain `classify` of the same
/// matrix and configuration: threshold bits and elephant sets.
fn check_classifiers(data: &Fig1Data) -> (u64, SetAccuracy) {
    let west = &data.west.1.matrix;
    let east = &data.east.1.matrix;
    let jobs = [
        (west, DetectorKind::ConstantLoad),
        (west, DetectorKind::Aest),
        (east, DetectorKind::ConstantLoad),
        (east, DetectorKind::Aest),
    ];
    let mut mismatches = 0;
    let mut accuracy = SetAccuracy::new();
    for ((matrix, detector), got) in jobs.into_iter().zip(&data.runs) {
        let config = SchemeSpec::paper(detector).config();
        let want = match detector {
            DetectorKind::ConstantLoad => classify(
                matrix,
                ConstantLoadDetector::new(PAPER_BETA),
                config.gamma,
                config.scheme,
            ),
            DetectorKind::Aest => {
                classify(matrix, AestDetector::new(), config.gamma, config.scheme)
            }
        };
        let same = want.elephants == got.elephants
            && want
                .thresholds
                .iter()
                .map(|t| t.to_bits())
                .eq(got.thresholds.iter().map(|t| t.to_bits()));
        mismatches += u64::from(!same);
        for n in 0..want.n_intervals().min(got.n_intervals()) {
            accuracy.observe(&want.elephants[n], &got.elephants[n], |k| matrix.rate(n, k));
        }
    }
    (mismatches, accuracy)
}

/// The paper's relations, as `tests/tests/paper_bands.rs` states them,
/// evaluated on this seed's Figure 1 data (plus, for the interval-length
/// relation, the west scenario rebuilt at T = 1 and 30 min). The test
/// pins one seed at its own scales (0.08, 0.2 and 0.4); at the
/// benchmark's scale 0.1 some seeds violate a relation (seed 109 the
/// west/east burst contrast, seed 205 the interval-length robustness),
/// so the run reports these rather than failing operations on them.
fn relations(data: &Fig1Data, opts: CommonOpts) -> Vec<(&'static str, bool)> {
    let (scenario, scen) = &data.west;
    let matrix = &scen.matrix;
    let t = scenario.workload.interval_secs;
    let window = scenario.busy_window(matrix);
    let latent = &data.runs[0];
    let single = run(matrix, SchemeSpec::single(DetectorKind::ConstantLoad));
    let h_single = holding::analyze(&single, window.clone(), t);
    let h_latent = holding::analyze(latent, window, t);
    let latent_beats_single = h_latent.mean_avg_slots > 3.0 * h_single.mean_avg_slots
        && h_single.single_interval_flows >= 10 * h_latent.single_interval_flows.max(1)
        && h_single.mean_avg_slots < 12.0;

    let mean_active = (0..matrix.n_intervals())
        .map(|n| matrix.active(n) as f64)
        .sum::<f64>()
        / matrix.n_intervals() as f64;
    let fraction = latent.mean_fraction();
    let few_carry_most =
        latent.mean_count() < 0.15 * mean_active && (0.45..=0.85).contains(&fraction);

    let (cl, aest) = (&data.runs[0], &data.runs[1]);
    let ratio = cl.mean_count() / aest.mean_count().max(1.0);
    let detectors_agree =
        (0.4..=2.5).contains(&ratio) && (cl.mean_fraction() - aest.mean_fraction()).abs() < 0.2;

    let report = prefix_report(matrix, latent, Some(&scen.table), 0..latent.n_intervals());
    let bulk: Vec<usize> = (9..33)
        .filter(|&l| report.elephant_by_length[l] > 0)
        .collect();
    let [t1, t2, stub] = report.elephant_peer_classes.unwrap_or([0; 3]);
    let prefix_structure = report.elephant_slash8 * 2 <= report.active_slash8.max(1)
        && report.elephant_slash8 <= 8
        && matches!((bulk.first(), bulk.last()), (Some(&lo), Some(&hi)) if hi - lo >= 8)
        && t1 > t2
        && t1 > stub;

    let cv = |r: &eleph_core::ClassificationResult| {
        let counts: Vec<f64> = (0..r.n_intervals()).map(|n| r.count(n) as f64).collect();
        let smoothed: Vec<f64> = counts
            .windows(6)
            .map(|w| w.iter().sum::<f64>() / 6.0)
            .collect();
        let mean = smoothed.iter().sum::<f64>() / smoothed.len() as f64;
        let var = smoothed
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / smoothed.len() as f64;
        var.sqrt() / mean
    };
    let (west_cv, east_cv) = (cv(&data.runs[0]), cv(&data.runs[2]));
    let west_bursts = west_cv > east_cv && west_cv > 0.15;

    let fractions: Vec<f64> = [60u64, 300, 1800]
        .iter()
        .map(|&t_secs| {
            let mut scenario = Scenario::west(opts.seed).scaled(opts.scale);
            let span = scenario.workload.interval_secs * scenario.workload.n_intervals as u64;
            scenario.workload.interval_secs = t_secs;
            scenario.workload.n_intervals = (span / t_secs) as usize;
            let built = scenario.build();
            run(&built.matrix, SchemeSpec::paper(DetectorKind::ConstantLoad)).mean_fraction()
        })
        .collect();
    let spread = fractions.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - fractions.iter().cloned().fold(f64::INFINITY, f64::min);
    let robust_to_t = spread < 0.15;

    vec![
        ("latent_heat_beats_single_feature", latent_beats_single),
        ("west_bursts_east_does_not", west_bursts),
        ("robust_to_measurement_interval", robust_to_t),
        ("elephants_few_and_carry_most_traffic", few_carry_most),
        ("aest_and_constant_load_agree", detectors_agree),
        ("prefix_structure_matches_paper", prefix_structure),
    ]
}

/// Sections of `got` that differ from the reference (all of them when
/// the lengths do not line up).
fn differing_sections(w: &SweepWorkload, got: &str) -> u64 {
    if got == w.reference {
        return 0;
    }
    let mut at = 0;
    let mut differ = 0;
    for &len in &w.sections {
        let want = &w.reference.as_bytes()[at..at + len];
        differ += u64::from(got.as_bytes().get(at..at + len) != Some(want));
        at += len;
    }
    differ.max(1)
}

/// The end-to-end figures of a `paper_sweep` run.
#[derive(Debug)]
pub struct SweepRun {
    /// Operations attempted: rendered experiments and classifier
    /// cross-checks.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Wall time of each untraced `render_all`.
    pub sweep_s: Vec<f64>,
    /// Peak resident memory of each fresh-process `render_all`
    /// (untraced runs only).
    pub peak_rss_mb: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// The traced passes' spans.
    pub tracer: Option<Tracer>,
}

/// Minimum sweeps of each kind per run.
const MIN_SWEEPS: usize = crate::stats::TAIL_BEYOND + 1;

/// Fresh processes an untraced run measures `render_all`'s peak
/// resident memory in, after its timed sweeps.
pub const MEMORY_SWEEPS: usize = 7;

/// The argument that makes the benchmark binary run one `render_all`
/// as a child process (see [`child_sweep`]).
pub const CHILD_FLAG: &str = "--sweep-child";

/// Repeat `render_all` for `seconds`; with `trace`, alternate with
/// traced step-by-step passes. Untraced runs then measure memory in
/// child processes of `exe`, the benchmark binary.
pub fn run_sweep(w: &SweepWorkload, seconds: f64, trace: bool, exe: &Path) -> io::Result<SweepRun> {
    let tracer = Tracer::shared(false);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    // The paper's relations are reported, not counted: they are
    // statistical properties of the generated scenario, and at this
    // scale some seeds violate one (see `relations`).
    let mut failed = w.classifier_mismatches;
    let mut attempted = 4;

    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds
        || untraced.len() < MIN_SWEEPS
        || (trace && traced.len() < 3)
    {
        let traced_turn = trace && traced.len() < untraced.len();
        tracer.borrow_mut().set_on(traced_turn);
        let t = Instant::now();
        let out = if traced_turn {
            let root = tracer.borrow_mut().enter("bench.pass");
            let out = steps(w.opts, &tracer)?.0;
            tracer.borrow_mut().exit(root);
            out
        } else {
            render_all(w.opts)?
        };
        let secs = t.elapsed().as_secs_f64();
        attempted += EXPERIMENTS as u64;
        failed += differing_sections(w, &out);
        if traced_turn {
            traced.push(secs);
        } else {
            untraced.push(secs);
        }
    }
    tracer.borrow_mut().set_on(false);
    // Memory is measured in fresh processes, one `render_all` each, as
    // `eleph all` runs. Within one long-lived process the resident peak
    // mostly measures what earlier sweeps left cached in the allocator's
    // per-thread arenas, which depends on how the threads interleaved:
    // the median peak of a run spread 20 % over ten seeds, and the
    // resident size between sweeps ranged from 30 to 130 MB.
    let mut peaks = Vec::new();
    if !trace {
        for _ in 0..MEMORY_SWEEPS {
            let (peak_mb, differing) = fresh_process_sweep(w, exe)?;
            attempted += EXPERIMENTS as u64;
            failed += differing;
            peaks.push(peak_mb);
        }
    }
    let tracer = std::rc::Rc::try_unwrap(tracer)
        .expect("no other tracer handle")
        .into_inner();
    let layers = if trace {
        layer_metrics(&untraced, &traced, &tracer)
    } else {
        Vec::new()
    };
    Ok(SweepRun {
        attempted,
        failed: failed.min(attempted),
        sweep_s: untraced,
        peak_rss_mb: peaks,
        layers,
        tracer: trace.then_some(tracer),
    })
}

/// Run `render_all` in a child process of `exe`, the benchmark binary;
/// returns the child's lifetime peak resident memory in MiB and the
/// sections of its output that differ from the reference.
fn fresh_process_sweep(w: &SweepWorkload, exe: &Path) -> io::Result<(f64, u64)> {
    let out = Command::new(exe)
        .args([
            CHILD_FLAG,
            &w.opts.seed.to_string(),
            &w.opts.scale.to_string(),
        ])
        .stdin(Stdio::null())
        .output()?;
    if !out.status.success() {
        return Err(io::Error::other(format!(
            "sweep child failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        )));
    }
    let peak_kb: u64 = String::from_utf8_lossy(&out.stderr)
        .trim()
        .parse()
        .map_err(|e| io::Error::other(format!("sweep child peak: {e}")))?;
    let got = String::from_utf8_lossy(&out.stdout);
    Ok((peak_kb as f64 / 1024.0, differing_sections(w, &got)))
}

/// Child mode (`perfbench --sweep-child SEED SCALE`): one `render_all`,
/// its output to stdout, then this process's lifetime peak resident
/// memory in KiB to stderr.
pub fn child_sweep(args: &[String]) -> Result<(), String> {
    let [seed, scale] = args else {
        return Err(format!("usage: perfbench {CHILD_FLAG} SEED SCALE"));
    };
    let opts = CommonOpts {
        seed: seed.parse().map_err(|e| format!("seed: {e}"))?,
        scale: scale.parse().map_err(|e| format!("scale: {e}"))?,
    };
    let out = render_all(opts).map_err(|e| format!("render_all: {e}"))?;
    print!("{out}");
    eprintln!("{}", lifetime_peak_rss_kb());
    Ok(())
}

fn layer_metrics(untraced: &[f64], traced: &[f64], tracer: &Tracer) -> Vec<Metric> {
    let by_name = totals(tracer.spans());
    let passes = traced.len() as f64;
    let self_ms = |name: &str| {
        by_name
            .iter()
            .find(|t| t.name == name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e6)
    };
    let report_ms: f64 = STEPS.iter().map(|s| self_ms(s)).sum();
    let bench_ms = self_ms("bench.pass");
    let wall_ms: f64 = traced.iter().sum::<f64>() * 1e3;
    let untraced_pass = untraced.iter().sum::<f64>() * 1e3 / untraced.len() as f64;
    let traced_pass = wall_ms / passes;
    let budget_pass = (report_ms + bench_ms) / passes;
    let gap_pct = 100.0 * (budget_pass - untraced_pass) / untraced_pass;
    let spread_pct = 100.0 * relative_spread(untraced).max(relative_spread(traced));
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
        Metric::new(
            "trace.overhead_sweep_s",
            median(traced) - median(untraced),
            "s",
        ),
        Metric::new("trace.spans", tracer.spans().len() as f64, "count"),
        Metric::new("bench.self_pct", 100.0 * bench_ms / wall_ms, "%"),
        Metric::new("report.self_pct", 100.0 * report_ms / wall_ms, "%"),
    ];
    for step in STEPS {
        m.push(Metric::new(
            format!("{step}_ms"),
            self_ms(step) / passes,
            "ms",
        ));
    }
    m
}
