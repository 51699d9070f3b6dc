//! In-memory spans recorded from the benchmark's side of every layer
//! boundary, and the arithmetic that turns them into per-layer numbers.
//!
//! A span is `{name, start, end, parent, op}` on one thread. Only
//! *sampled* operations record spans, and a sampled operation records all
//! of them, so nesting stays intact. Spans live in a per-thread vector
//! until the thread hands them back with [`take`]; nothing is written
//! before the run ends.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

/// One operation in this many is traced in a traced window.
pub const SAMPLE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the causing span in the same thread's vector.
    pub parent: u32,
    pub op: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
#[inline]
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    /// Is the operation this thread is running sampled? The only thing
    /// an untraced run ever touches.
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Closes its span when dropped.
pub struct Guard(bool);

/// Open a span nested under the innermost open span of this thread's
/// current operation. Free when that operation is not sampled.
#[inline]
pub fn span(name: &'static str) -> Guard {
    if !ACTIVE.get() {
        return Guard(false);
    }
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        let parent = l.open.last().copied().unwrap_or(NO_PARENT);
        l.open.push(l.spans.len() as u32);
        l.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent,
            op: l.op,
        });
    });
    Guard(true)
}

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            let end = now_ns();
            LOCAL.with(|l| {
                let l = &mut *l.borrow_mut();
                let idx = l.open.pop().expect("span guards drop in LIFO order");
                l.spans[idx as usize].end = end;
            });
        }
    }
}

/// The root span of one operation; while it is open and `sampled`, every
/// [`span`] on this thread records.
pub struct OpGuard(Guard);

#[inline]
pub fn op(name: &'static str, id: u64, sampled: bool) -> OpGuard {
    if !sampled {
        return OpGuard(Guard(false));
    }
    ACTIVE.set(true);
    LOCAL.with(|l| l.borrow_mut().op = id);
    OpGuard(span(name))
}

impl Drop for OpGuard {
    #[inline]
    fn drop(&mut self) {
        if self.0 .0 {
            // Close the root span first, then stop recording.
            drop(std::mem::replace(&mut self.0, Guard(false)));
            ACTIVE.set(false);
        }
    }
}

/// Record a finished span with explicit times and parent — for
/// operations that interleave on one thread (pipelined requests) and so
/// cannot use the LIFO guards. Returns the span's index.
pub fn record(name: &'static str, start: u64, end: u64, parent: u32, op: u64) -> u32 {
    LOCAL.with(|l| {
        let l = &mut *l.borrow_mut();
        l.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        (l.spans.len() - 1) as u32
    })
}

/// Hand back (and clear) the calling thread's spans.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Self time of every span of one thread: its duration minus the part
/// of that interval its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start.max(p.start);
            let hi = s.end.min(p.end);
            covered[s.parent as usize] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Durations and self times of every span with one name.
#[derive(Default)]
pub struct NameStats {
    pub durs: Vec<u64>,
    pub selfs: Vec<u64>,
}

impl NameStats {
    pub fn self_total(&self) -> u64 {
        self.selfs.iter().sum()
    }
    pub fn dur_total(&self) -> u64 {
        self.durs.iter().sum()
    }
}

pub fn aggregate(threads: &[Vec<Span>]) -> BTreeMap<&'static str, NameStats> {
    let mut by_name: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for spans in threads {
        for (s, self_ns) in spans.iter().zip(self_times(spans)) {
            let e = by_name.entry(s.name).or_default();
            e.durs.push(s.end - s.start);
            e.selfs.push(self_ns);
        }
    }
    by_name
}

/// Summed duration of the root (`op.*`) spans, in ns.
pub fn op_total_ns(by_name: &BTreeMap<&'static str, NameStats>) -> u64 {
    by_name
        .iter()
        .filter(|(n, _)| n.starts_with("op."))
        .map(|(_, s)| s.dur_total())
        .sum()
}

/// Where an operation's time went, as shares of the summed root spans:
/// one entry per layer (the span name up to its first `.`), with the
/// root spans' own self time under `"op"` — the time no layer boundary
/// accounts for.
pub fn layer_shares(by_name: &BTreeMap<&'static str, NameStats>) -> BTreeMap<&'static str, f64> {
    let root_total = op_total_ns(by_name);
    let mut shares = BTreeMap::new();
    if root_total == 0 {
        return shares;
    }
    for (name, stats) in by_name {
        let layer = name.split('.').next().unwrap_or(name);
        *shares.entry(layer).or_insert(0.0) += stats.self_total() as f64 / root_total as f64;
    }
    shares
}

/// Spans per thread written to the trace file; the aggregates always use
/// every span.
const FILE_SPANS_PER_THREAD: usize = 50_000;

/// Write the spans as Chrome trace events (`chrome://tracing`, Perfetto).
pub fn write_chrome(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
    let mut first = true;
    for (tid, spans) in threads.iter().enumerate() {
        for (idx, s) in spans.iter().take(FILE_SPANS_PER_THREAD).enumerate() {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                s.name,
                tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.op,
                idx,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    s.parent as i64
                },
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // op [0,100] ⊃ entry [10,90] ⊃ {closure [20,50], closure [60,80]}
        let spans = vec![
            sp("op.read", 0, 100, NO_PARENT),
            sp("core.read_txn", 10, 90, 0),
            sp("ftree.get", 20, 50, 1),
            sp("ftree.get", 60, 80, 1),
        ];
        assert_eq!(self_times(&spans), vec![20, 30, 30, 20]);
        let agg = aggregate(&[spans]);
        assert_eq!(agg["ftree.get"].durs, vec![30, 20]);
        assert_eq!(agg["core.read_txn"].self_total(), 30);
        let shares = layer_shares(&agg);
        assert!((shares["op"] - 0.2).abs() < 1e-12);
        assert!((shares["core"] - 0.3).abs() < 1e-12);
        assert!((shares["ftree"] - 0.5).abs() < 1e-12);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![sp("op.put", 10, 50, NO_PARENT), sp("net.recv", 40, 70, 0)];
        assert_eq!(self_times(&spans), vec![30, 30]);
    }

    #[test]
    fn guards_nest_and_unsampled_ops_record_nothing() {
        {
            let _op = op("op.read", 1, false);
            let _s = span("core.read_txn");
        }
        assert!(take().is_empty());
        {
            let _op = op("op.read", 2, true);
            let _a = span("core.read_txn");
            {
                let _b = span("ftree.get");
            }
            let _c = span("ftree.get");
        }
        // A span outside any sampled op is dropped.
        drop(span("storage.sync"));
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op.read", NO_PARENT, 2),
                ("core.read_txn", 0, 2),
                ("ftree.get", 1, 2),
                ("ftree.get", 1, 2),
            ]
        );
        assert!(spans.iter().all(|s| s.end >= s.start && s.end > 0));
        assert!(spans[0].end >= spans[1].end);
    }
}
