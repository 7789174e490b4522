//! Order statistics and the benchmark's own span recorder.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between closest
/// ranks; `None` for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5).unwrap_or(0.0)
}

/// The arithmetic mean of `xs` (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed span: a named interval in the benchmark's own code around a
/// call into a layer, with the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Spans nest: [`Spans::enter`] makes the new
/// span the parent of any span entered before the matching [`Spans::exit`].
/// A layer's self time is its spans' duration minus the part of each
/// interval covered by child spans.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total: Duration,
    pub self_time: Duration,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Spans {
    /// Opens a span named `name`; returns its index for [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span { name, start: now, end: now, parent: self.open.last().copied() });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn exit(&mut self, id: usize) {
        let now = self.origin.elapsed();
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_time) {
            let t = out.entry(s.name).or_default();
            let d = s.end - s.start;
            t.count += 1;
            t.total += d;
            t.self_time += d.saturating_sub(child);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.time("outer", |s| {
            std::thread::sleep(Duration::from_millis(2));
            s.time("inner", |_| std::thread::sleep(Duration::from_millis(5)));
        });
        let t = s.totals();
        let outer = &t["outer"];
        let inner = &t["inner"];
        assert_eq!(outer.count, 1);
        assert!(outer.total >= inner.total);
        assert_eq!(outer.self_time, outer.total - inner.total);
        assert_eq!(inner.self_time, inner.total);
    }
}
