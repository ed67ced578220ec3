//! In-memory span recording for the traced run.
//!
//! A span is `(name, start, end, parent)`, recorded around a call the
//! benchmark makes into one layer's public API. Spans stay in memory
//! until the run ends; a layer's *self time* is its spans' duration
//! minus the part their child spans cover.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

/// Parent id of a top-level span.
pub const ROOT: u32 = u32::MAX;

/// Id returned by [`Tracer::enter`] while tracing is off.
const OFF: u32 = u32::MAX;

/// Spans [`Tracer::write_csv`] writes at most (a traced `pcap_exact`
/// run records several hundred thousand; all of them feed the metrics).
pub const MAX_WRITTEN: usize = 100_000;

/// One recorded span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `packet.next_chunk`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
}

/// Span recorder. When off, [`Tracer::enter`] and [`Tracer::exit`] do
/// nothing but test a flag, so the untraced run pays (almost) nothing.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// A tracer shared between the harness and the sinks it installs in a
/// pipeline (everything runs on one thread).
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A tracer, recording or not.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A shared tracer.
    pub fn shared(on: bool) -> SharedTracer {
        Rc::new(RefCell::new(Tracer::new(on)))
    }

    /// Turn recording on or off (between passes only: no span may be
    /// open).
    pub fn set_on(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Open a span nested in the innermost open one.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return OFF;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        id
    }

    /// Close the span `id` returned by [`Tracer::enter`].
    #[inline]
    pub fn exit(&mut self, id: u32) {
        if id == OFF {
            return;
        }
        let end = self.epoch.elapsed().as_nanos() as u64;
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.spans[id as usize].end_ns = end;
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the first [`MAX_WRITTEN`] spans as CSV
    /// (`id,name,start_ns,end_ns,parent`; parent `-1` for top-level
    /// spans). A parent always precedes its children, so the prefix is
    /// self-contained.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent")?;
        for (i, s) in self.spans.iter().take(MAX_WRITTEN).enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(out, "{i},{},{},{},{parent}", s.name, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}

/// Run `f` inside a span named `name`.
#[inline]
pub fn span<R>(tracer: &SharedTracer, name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = tracer.borrow_mut().enter(name);
    let r = f();
    tracer.borrow_mut().exit(id);
    r
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    /// Span name.
    pub name: &'static str,
    /// Number of spans with this name.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time (duration minus child-span durations).
    pub self_ns: u64,
}

/// Aggregate spans by name, in first-seen order.
pub fn totals(spans: &[Span]) -> Vec<NameTotals> {
    let mut self_ns: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != ROOT {
            let p = s.parent as usize;
            self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    let mut out: Vec<NameTotals> = Vec::new();
    for (s, own) in spans.iter().zip(self_ns) {
        let dur = s.end_ns - s.start_ns;
        match out.iter_mut().find(|t| t.name == s.name) {
            Some(t) => {
                t.count += 1;
                t.total_ns += dur;
                t.self_ns += own;
            }
            None => out.push(NameTotals {
                name: s.name,
                count: 1,
                total_ns: dur,
                self_ns: own,
            }),
        }
    }
    out
}
