//! Spans recorded from the benchmark's own files, around the calls
//! into each layer. Spans are kept in memory and written out when the
//! run ends; a layer's self time is its span's duration minus the part
//! of that interval its child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call. `name` is `layer.operation` (`passes.inline`,
/// `runtime.hybrid`); `item` names the program, row or request stream
/// the call worked on; `parent` is the index of the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub item: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// Single-threaded span recorder: spans nest by the order of `begin`
/// and `end` calls. Threads that time their own calls (the service
/// clients) hand their intervals over with [`Tracer::record`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    items: Vec<String>,
    item: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            items: vec![String::new()],
            item: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Names the item the following spans belong to.
    pub fn set_item(&mut self, name: &str) {
        self.item = match self.items.iter().position(|i| i == name) {
            Some(i) => i as u32,
            None => {
                self.items.push(name.to_string());
                (self.items.len() - 1) as u32
            }
        };
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            item: self.item,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and any span still open inside it) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
        self.spans[id.0 as usize].duration_ns()
    }

    /// Times `f` as one span; returns its result and the duration in
    /// nanoseconds.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.begin(name);
        let r = std::hint::black_box(f());
        (r, self.end(id))
    }

    /// Adds a span timed elsewhere (another thread), as a child of the
    /// span currently open here.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            item: self.item,
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: per-name totals with self time, then the spans
    /// themselves (at most `max_spans`; the totals always cover all).
    pub fn to_json(&self, max_spans: usize) -> Json {
        let selfs = self_times(&self.spans);
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += self_ns;
        }
        let layers = by_name
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("layer", Json::str(name.split('.').next().unwrap_or(name))),
                    ("spans", Json::Num(count as f64)),
                    ("total_ms", Json::Num(total as f64 / 1e6)),
                    ("self_ms", Json::Num(self_ns as f64 / 1e6)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .take(max_spans)
            .map(|s| {
                Json::obj([
                    ("item", Json::str(self.items[s.item as usize].as_str())),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("spans_recorded", Json::Num(self.spans.len() as f64)),
            (
                "spans_written",
                Json::Num(self.spans.len().min(max_spans) as f64),
            ),
            ("self_time_by_name", Json::Arr(layers)),
            ("spans", Json::Arr(spans)),
        ])
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children of one parent that overlap
/// each other (intervals handed over by concurrent threads) are counted
/// once, as their union.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            item: 0,
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("driver.compile", 0, 100, None),
            span("passes.pipeline", 10, 40, Some(0)),
            span("passes.inline", 12, 20, Some(1)),
            span("passes.dce", 20, 38, Some(1)),
            span("core.ctx", 50, 70, Some(0)),
            span("exec.lower", 200, 230, None),
        ];
        // Root: 100 − (30 + 20); the grandchildren are not subtracted twice.
        assert_eq!(self_times(&spans), vec![50, 4, 8, 18, 20, 30]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span("service.window", 100, 200, None),
            // Two concurrent clients overlap on 120..150.
            span("service.analyze", 110, 150, Some(0)),
            span("service.analyze", 120, 160, Some(0)),
            // Starts before the parent and ends after it: clipped.
            span("service.analyze", 90, 105, Some(0)),
            span("service.analyze", 190, 260, Some(0)),
        ];
        // Covered: 100..105, 110..160, 190..200 = 65.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn tracer_nests_by_call_order() {
        let mut t = Tracer::new();
        t.set_item("spmv-uniform");
        let outer = t.begin("runtime.hybrid");
        let (v, _) = t.time("exec.lower", || 7);
        assert_eq!(v, 7);
        t.record("service.analyze", 1, 2);
        t.end(outer);
        t.set_item("scale-uniform");
        t.time("exec.lower", || ());
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent, s[3].parent),
            (None, Some(0), Some(0), None)
        );
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!((s[0].item, s[3].item), (1, 2));
        let json = t.to_json(2);
        assert_eq!(json.get("spans_recorded"), Some(&Json::Num(4.0)));
        assert_eq!(
            json.get("spans")
                .and_then(Json::as_array)
                .map(<[Json]>::len),
            Some(2)
        );
    }
}
