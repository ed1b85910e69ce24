//! In-memory span recorder for the traced runs.
//!
//! A span is a name, a start, an end and the span that caused it.
//! Spans stay in memory until the run reports; a layer's self time is
//! its span's duration minus the part of that interval its children
//! cover (children may overlap each other, as pool workers do).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are seconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `ser.simulate`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch (equal to `start` while open).
    pub end: f64,
    /// Index of the parent span, `None` for a top-level span.
    pub parent: Option<usize>,
}

impl Span {
    /// Inclusive duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

thread_local! {
    /// Open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the epoch.
    pub fn now(&self) -> f64 {
        self.at(Instant::now())
    }

    /// Seconds from the epoch to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// The innermost open span of the calling thread.
    pub fn current(&self) -> Option<usize> {
        OPEN.with(|open| open.borrow().last().copied())
    }

    /// Runs `f` inside a span named `name`, parented to the calling
    /// thread's innermost open span.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let id = {
            let mut spans = self.spans.lock().expect("span store poisoned");
            spans.push(Span {
                name,
                start,
                end: start,
                parent: self.current(),
            });
            spans.len() - 1
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        let out = f();
        OPEN.with(|open| open.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("span store poisoned")[id].end = end;
        out
    }

    /// Runs `f` on this thread as if `parent` were its innermost open
    /// span (how a pool worker's spans hang under the span that
    /// spawned the pool).
    pub fn adopt<T>(&self, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let depth = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            open.extend(parent);
            open.len()
        });
        let out = f();
        OPEN.with(|open| {
            open.borrow_mut()
                .truncate(depth - usize::from(parent.is_some()))
        });
        out
    }

    /// Records a finished span whose bounds were observed rather than
    /// wrapped (serve events); returns its index.
    pub fn record(&self, name: &'static str, start: f64, end: f64, parent: Option<usize>) -> usize {
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
        });
        spans.len() - 1
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Total length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(lo: f64, hi: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut v: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| e > s)
        .collect();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in v {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0.0, |(s, e)| e - s)
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| s.duration() - covered(s.start, s.end, kids))
        .collect()
}

/// Per-name totals of one trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their inclusive durations.
    pub inclusive: f64,
    /// Sum of their self times.
    pub self_time: f64,
}

/// Groups spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_time) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.inclusive += s.duration();
        t.self_time += self_time;
    }
    out
}

/// Time in `[lo, hi]` that no top-level span covers.
pub fn untimed(spans: &[Span], lo: f64, hi: f64) -> f64 {
    let top: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| (s.start, s.end))
        .collect();
    (hi - lo) - covered(lo, hi, &top)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0)]), 5.0);
        assert_eq!(covered(0.0, 10.0, &[(1.0, 2.0), (5.0, 6.0)]), 2.0);
        assert_eq!(covered(0.0, 10.0, &[(8.0, 12.0), (-3.0, 1.0)]), 3.0);
        assert_eq!(covered(0.0, 10.0, &[(2.0, 9.0), (3.0, 4.0)]), 7.0);
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        // A pool span [0, 10] with two workers running side by side
        // over [1, 4] and [3, 6]: the children cover 5 s, not 6 s.
        let spans = vec![
            span("pool", 0.0, 10.0, None),
            span("worker", 1.0, 4.0, Some(0)),
            span("worker", 3.0, 6.0, Some(0)),
            span("leaf", 1.5, 2.5, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![5.0, 2.0, 3.0, 1.0]);
        let t = totals(&spans);
        assert_eq!(t["worker"].calls, 2);
        assert_eq!(t["worker"].inclusive, 6.0);
        assert_eq!(t["worker"].self_time, 5.0);
        assert_eq!(untimed(&spans, 0.0, 12.0), 2.0);
    }

    #[test]
    fn recorder_nests_and_adopts_across_threads() {
        let rec = Recorder::new();
        rec.span("outer", || {
            rec.span("inner", || {});
            let parent = rec.current();
            std::thread::scope(|s| {
                s.spawn(|| rec.adopt(parent, || rec.span("worker", || {})));
            });
        });
        rec.span("next", || {});
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("outer", None),
                ("inner", Some(0)),
                ("worker", Some(0)),
                ("next", None)
            ]
        );
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(rec.current(), None);
    }
}
