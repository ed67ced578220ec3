//! The benchmark's output: metric records, the result line, and the
//! machine/provenance header.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// The measured value, finite.
    pub value: f64,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
}

impl Metric {
    /// A metric record.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Whether `name` is a valid metric or workload name: 1–64 characters
/// from `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: 1–16 characters from
/// `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip format
/// gives it.
///
/// # Panics
///
/// Panics on a non-finite value, which strict JSON cannot carry.
pub fn json_num(value: f64) -> String {
    assert!(value.is_finite(), "non-finite metric value {value}");
    format!("{value}")
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
///
/// # Panics
///
/// Panics on an invalid or repeated metric name, an invalid unit, or a
/// non-finite value — all bugs in the benchmark itself.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        assert!(valid_name(&m.name), "invalid metric name {:?}", m.name);
        assert!(
            valid_unit(m.unit),
            "invalid unit {:?} of {}",
            m.unit,
            m.name
        );
        assert!(
            metrics[..i].iter().all(|o| o.name != m.name),
            "metric {} reported twice",
            m.name
        );
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{body}}}}}"
    )
}

/// Where and on what a run happened, so results from different boxes
/// or different sources are never compared by accident.
#[derive(Debug, Clone)]
pub struct Machine {
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// Kernel release.
    pub kernel: String,
    /// Git revision of the checkout, when it is a git checkout.
    pub git_revision: String,
    /// FNV-1a digest of every `.rs` file under `crates/`, which
    /// identifies the code under test where there is no git metadata.
    pub source_digest: String,
}

impl Machine {
    /// Probe the current machine, reading only `/proc` and the
    /// checkout rooted at `root`.
    pub fn probe(root: &Path) -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Machine {
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel,
            git_revision: git_revision(root).unwrap_or_else(|| "unavailable".to_string()),
            source_digest: source_digest(&root.join("crates")),
        }
    }

    /// The header as JSON object members (no braces).
    pub fn json_members(&self) -> String {
        format!(
            "\"cpu\":{},\"nproc\":{},\"kernel\":{},\"git_revision\":{},\"source_digest\":{}",
            json_str(&self.cpu),
            self.nproc,
            json_str(&self.kernel),
            json_str(&self.git_revision),
            json_str(&self.source_digest)
        )
    }
}

/// Resolve `.git/HEAD` by hand (no `git` process): a detached hash, a
/// loose ref, or a packed ref.
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// FNV-1a over the relative paths and contents of every `.rs` file
/// below `dir`, in sorted path order.
fn source_digest(dir: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, &mut files);
    if files.is_empty() {
        return "unavailable".to_string();
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for path in &files {
        let rel = path.strip_prefix(dir).unwrap_or(path);
        feed(rel.to_string_lossy().as_bytes());
        feed(&std::fs::read(path).unwrap_or_default());
    }
    format!("fnv1a64:{h:016x}")
}

/// A KiB field of `/proc/self/status` (0 where that file does not
/// exist).
fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// This process's resident set size in KiB.
fn rss_kb() -> u64 {
    status_kb("VmRSS:")
}

/// This process's peak resident set size over its lifetime, in KiB, as
/// the kernel tracks it (exact, unlike a sampled peak).
pub fn lifetime_peak_rss_kb() -> u64 {
    status_kb("VmHWM:")
}

/// Samples this process's resident set size every [`RSS_PERIOD`] on a
/// background thread, keeping the maximum since the last
/// [`RssSampler::reset`]. Resetting at the start of each timed pass and
/// reading at its end gives that pass's peak; set-up allocations freed
/// before the pass do not count, unlike the kernel's lifetime
/// high-water mark.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kb: Arc<AtomicU64>,
    handle: std::thread::JoinHandle<()>,
}

/// How often [`RssSampler`] reads the resident set size.
const RSS_PERIOD: std::time::Duration = std::time::Duration::from_millis(5);

impl RssSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kb = Arc::new(AtomicU64::new(rss_kb()));
        let (flag, peak) = (stop.clone(), peak_kb.clone());
        // Both atomics publish nothing but their own value, so Relaxed
        // suffices.
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(RSS_PERIOD);
                peak.fetch_max(rss_kb(), Ordering::Relaxed);
            }
        });
        RssSampler {
            stop,
            peak_kb,
            handle,
        }
    }

    /// Start a new peak from the current resident size.
    pub fn reset(&self) {
        self.peak_kb.store(rss_kb(), Ordering::Relaxed);
    }

    /// The peak since the last reset, in MiB.
    pub fn peak_mb(&self) -> f64 {
        let peak = self
            .peak_kb
            .fetch_max(rss_kb(), Ordering::Relaxed)
            .max(rss_kb());
        peak as f64 / 1024.0
    }

    /// Stop sampling and join the thread.
    pub fn finish(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .expect("the sampler thread does not panic");
    }
}
