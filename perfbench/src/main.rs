//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a provenance header line, a human-readable report, and as its
//! last line the result object
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Run it from
//! the repository root.
//!
//! `perfbench --sweep-child SEED SCALE` is the child mode `paper_sweep`
//! starts itself in to measure `render_all`'s memory in a fresh process.

use std::path::Path;
use std::process::ExitCode;

use eleph_perfbench::gen::Sizes;
use eleph_perfbench::output::Machine;
use eleph_perfbench::{header, run, spans_path, sweep, Request, EXTRA_WORKLOADS, WORKLOADS};

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1";

fn parse<'a>(args: &'a [String], exe: &'a Path) -> Result<Request<'a>, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} takes a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.as_str()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) && !EXTRA_WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or {EXTRA_WORKLOADS:?}"
        ));
    }
    Ok(Request {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
        exe,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(sweep::CHILD_FLAG) {
        return match sweep::child_sweep(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let req = match parse(&args, &exe) {
        Ok(req) => req,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    let machine = Machine::probe(root);
    let outcome = match run(&req) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", header(&req, &machine, &outcome.facts));
    for line in &outcome.report {
        println!("# {line}");
    }
    if let Some(tracer) = &outcome.tracer {
        let path = spans_path(root, req.workload, req.seed);
        match tracer.write_csv(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing spans to {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
