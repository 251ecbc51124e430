//! The span recorder behind the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer (crate): name, start, end, parent span, and the op they belong to.
//! They stay in memory and are written out when the run ends. A span opened
//! with [`Tracer::blocking`] also reads the calling thread's on-CPU time from
//! `/proc/thread-self/schedstat` at both ends, so its wall time splits into
//! on-CPU and blocked (joins, locks, condvars, run queue). A disabled tracer
//! costs one branch per call site.
//!
//! Root spans are of four kinds: `op` (one measured op, whose children are
//! the layer calls it made), `replay` (public calls re-issued after an op to
//! expose what the op did inside a private function), `probe` (a single
//! public call re-issued to split out work the op's call does internally)
//! and `input` (building the next inputs between timed loops). Replays and
//! probes run inside the timed loop but are the trace's own extra work, so
//! they are subtracted before comparing with the untraced phase.

use crate::measure::thread_cpu_ns;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// On-CPU nanoseconds of the calling thread inside the span (blocking
    /// spans only).
    pub cpu_ns: Option<u64>,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` when tracing is off).
#[derive(Clone, Copy, Debug)]
#[must_use]
pub struct Open(Option<(usize, Option<u64>)>);

/// Per-name aggregate over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    pub wall_ns: u64,
    /// Wall time minus the part covered by child spans.
    pub self_ns: u64,
    /// Wall time minus on-CPU time, over blocking spans.
    pub blocked_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counters: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with op `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, cpu: bool) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let cpu_start = if cpu { thread_cpu_ns() } else { None };
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
            cpu_ns: None,
        });
        self.stack.push(index);
        Open(Some((index, cpu_start)))
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Open {
        self.open(name, false)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        let Some((index, cpu_start)) = open.0 else { return };
        let end_ns = self.now_ns();
        let cpu_ns = cpu_start.and_then(|start| Some(thread_cpu_ns()?.saturating_sub(start)));
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(index), "spans must close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.cpu_ns = cpu_ns;
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, false);
        let value = f();
        self.end(open);
        value
    }

    /// Runs `f` inside a leaf span that also splits on-CPU from blocked time.
    pub fn blocking<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, true);
        let value = f();
        self.end(open);
        value
    }

    /// Adds `value` to counter `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            *self.counters.entry(name).or_default() += value;
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Per-span-name totals, self time and blocked time included.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let children = self.children();
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for (index, span) in self.spans.iter().enumerate() {
            let agg = out.entry(span.name).or_default();
            agg.calls += 1;
            agg.wall_ns += span.wall_ns();
            agg.self_ns += span.wall_ns() - self.covered_ns(index, &children[index]);
            if let Some(cpu) = span.cpu_ns {
                agg.blocked_ns += span.wall_ns().saturating_sub(cpu);
            }
        }
        out
    }

    /// Share of the wall time of `op` spans that their child spans cover.
    pub fn coverage(&self) -> f64 {
        let children = self.children();
        let (mut covered, mut total) = (0u64, 0u64);
        for (index, span) in self.spans.iter().enumerate() {
            if span.name == "op" {
                covered += self.covered_ns(index, &children[index]);
                total += span.wall_ns();
            }
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    /// Wall seconds of `replay` and `probe` roots: the work the trace adds
    /// inside a timed loop.
    pub fn added_s(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && matches!(s.name, "replay" | "probe"))
            .map(|s| s.wall_ns() as f64 * 1e-9)
            .sum()
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (index, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(index);
            }
        }
        children
    }

    /// Nanoseconds of span `index` covered by the union of its children.
    fn covered_ns(&self, index: usize, children: &[usize]) -> u64 {
        let parent = &self.spans[index];
        let mut intervals: Vec<(u64, u64)> = children
            .iter()
            .map(|&c| {
                let s = &self.spans[c];
                (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns))
            })
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        covered
    }

    /// Writes every span as one tab-separated line.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "span\tparent\top\tname\tstart_ns\tend_ns\tcpu_ns")?;
        for (index, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let cpu = s.cpu_ns.map_or_else(|| "-".to_string(), |c| c.to_string());
            writeln!(
                out,
                "{index}\t{parent}\t{}\t{}\t{}\t{}\t{cpu}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let mut t = Tracer::new(true);
        let op = t.begin("op");
        t.leaf("a", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.leaf("b", || std::thread::sleep(std::time::Duration::from_millis(5)));
        t.end(op);
        let agg = t.aggregate();
        assert_eq!(agg["op"].calls, 1);
        assert!(agg["op"].self_ns < agg["op"].wall_ns / 2);
        assert_eq!(agg["a"].self_ns, agg["a"].wall_ns);
        assert!(t.coverage() > 0.5 && t.coverage() <= 1.0);
    }

    #[test]
    fn blocking_spans_see_sleep_as_blocked() {
        let mut t = Tracer::new(true);
        t.blocking("wait", || std::thread::sleep(std::time::Duration::from_millis(20)));
        let agg = t.aggregate();
        assert!(agg["wait"].blocked_ns > 10_000_000, "{:?}", agg["wait"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin("op");
        t.leaf("a", || ());
        t.end(op);
        t.count("c", 1.0);
        assert!(t.aggregate().is_empty());
        assert_eq!(t.counter("c"), 0.0);
    }
}
