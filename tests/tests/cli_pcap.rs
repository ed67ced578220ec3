//! `eleph run --pcap` end to end: the CLI reads the capture from a file
//! (serially through a buffered reader, or through pooled ingest) and
//! writes JSONL through the rotating file sink. Every configuration must
//! emit the same bytes as a pipeline streaming the same capture from
//! memory with the same options.

use std::cell::RefCell;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;

use eleph_bgp::synth::{self, SynthConfig};
use eleph_pipeline::{JsonlSink, PcapSource, PipelineBuilder};
use eleph_report::cli::{run_streaming, RunOpts};
use eleph_trace::{PacketSynth, RateTrace, WorkloadConfig};

const PREFIXES: usize = 2_000;
const INTERVAL_SECS: u64 = 20;
const INTERVALS: usize = 6;

/// A `Write` into a buffer the test keeps a handle to (sinks are
/// `'static`).
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

/// Concatenate a rotated JSONL chain: `path.1`, `path.2`, …, `path`.
fn read_chain(path: &Path) -> Vec<u8> {
    let mut out = Vec::new();
    for n in 1.. {
        let mut segment = path.as_os_str().to_os_string();
        segment.push(format!(".{n}"));
        match fs::read(PathBuf::from(segment)) {
            Ok(bytes) => out.extend_from_slice(&bytes),
            Err(_) => break,
        }
    }
    out.extend_from_slice(&fs::read(path).expect("current JSONL file"));
    out
}

#[test]
fn eleph_run_pcap_paths_emit_identical_jsonl() {
    let table = synth::generate(&SynthConfig {
        n_prefixes: PREFIXES,
        ..SynthConfig::default()
    });
    let config = WorkloadConfig {
        n_flows: 120,
        n_intervals: INTERVALS,
        interval_secs: INTERVAL_SECS,
        link: eleph_trace::LinkSpec {
            name: "cli link".to_string(),
            capacity_bps: 3_000_000.0,
            target_peak_util: 0.5,
        },
        ..WorkloadConfig::small_test(5)
    };
    let trace = RateTrace::generate(&config, &table);
    let mut pcap = Vec::new();
    PacketSynth::new(&trace)
        .write_pcap(0..INTERVALS, &mut pcap)
        .expect("in-memory pcap");

    let dir = std::env::temp_dir().join(format!("eleph-cli-pcap-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    let capture = dir.join("capture.pcap");
    fs::write(&capture, &pcap).expect("write capture");

    let args = |extra: &[&str], out: &Path| -> Vec<String> {
        let mut args: Vec<String> = vec![
            "--pcap".into(),
            capture.display().to_string(),
            "--prefixes".into(),
            PREFIXES.to_string(),
            "--interval-secs".into(),
            INTERVAL_SECS.to_string(),
            "--start-unix".into(),
            config.start_unix.to_string(),
            "--intervals".into(),
            INTERVALS.to_string(),
            "--out".into(),
            out.display().to_string(),
        ];
        args.extend(extra.iter().map(|s| s.to_string()));
        args
    };

    // The reference: the same options, the capture streamed from memory.
    let opts = RunOpts::parse(&args(&[], &dir.join("unused.jsonl")));
    let jsonl = SharedBuf::default();
    let mut pipeline = PipelineBuilder::new()
        .detector(opts.make_detector())
        .gamma(opts.gamma)
        .scheme(opts.make_scheme())
        .state_backend(opts.make_state())
        .table(&table)
        .interval_secs(INTERVAL_SECS)
        .start_unix(config.start_unix)
        .n_intervals(INTERVALS)
        .sink(JsonlSink::new(jsonl.clone()))
        .build();
    pipeline
        .run(PcapSource::new(&pcap[..]).expect("valid capture"))
        .expect("in-memory run");
    pipeline.finish().expect("in-memory finish");
    let reference = jsonl.0.borrow().clone();
    assert_eq!(
        reference.iter().filter(|&&b| b == b'\n').count(),
        INTERVALS,
        "one JSONL line per interval"
    );

    for (name, extra) in [
        ("serial", &[][..]),
        ("pooled", &["--ingest-workers", "2"][..]),
        ("rotated", &["--rotate-bytes", "400"][..]),
    ] {
        let out = dir.join(format!("{name}.jsonl"));
        run_streaming(&args(extra, &out)).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            reference == read_chain(&out),
            "{name}: JSONL differs from the in-memory run"
        );
    }
    let mut rotated = dir.join("rotated.jsonl").into_os_string();
    rotated.push(".1");
    assert!(
        Path::new(&rotated).exists(),
        "--rotate-bytes 400 never rotated"
    );
    let _ = fs::remove_dir_all(&dir);
}
