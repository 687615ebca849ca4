//! Benchmark-side spans: the traced run wraps every call into a layer's
//! public function in one, keeps them in memory, and writes them out at
//! exit. A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.

use crate::json::Json;
use std::cell::RefCell;
use std::io::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Replayed-op identifier: the spans of one op share it.
    pub op: u32,
}

struct Inner {
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

/// Single-threaded span recorder (the traced run replays with one client).
/// Switched off it runs the closure and records nothing, which is how the
/// traced run takes its own untraced baseline.
pub struct Recorder {
    on: bool,
    origin: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new(on: bool) -> Recorder {
        Recorder {
            on,
            origin: Instant::now(),
            inner: RefCell::new(Inner {
                spans: Vec::new(),
                stack: Vec::new(),
                op: 0,
            }),
        }
    }

    /// Spans opened from here on belong to op `op`.
    pub fn set_op(&self, op: u32) {
        self.inner.borrow_mut().op = op;
    }

    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = inner.spans.len() as u32;
            let (parent, op) = (inner.stack.last().copied(), inner.op);
            inner.spans.push(Span {
                name,
                start_ns: self.origin.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                op,
            });
            inner.stack.push(id);
            id
        };
        let out = f();
        let end = self.origin.elapsed().as_nanos() as u64;
        let mut inner = self.inner.borrow_mut();
        inner.spans[id as usize].end_ns = end;
        inner.stack.pop();
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to its own.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let (lo, hi) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-op sum of the self times of the spans called `name`, indexed by op
/// id (`ops` ids in all; an op without such a span reads 0).
pub fn per_op_self_ns(spans: &[Span], self_ns: &[u64], name: &str, ops: usize) -> Vec<u64> {
    let mut out = vec![0u64; ops];
    for (s, own) in spans.iter().zip(self_ns) {
        if s.name == name {
            out[s.op as usize] += own;
        }
    }
    out
}

/// One JSON object per line: name, start, end, parent, op id.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let line = Json::obj([
            ("id", Json::Num(id as f64)),
            ("name", Json::str(s.name)),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            (
                "parent",
                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("op", Json::Num(f64::from(s.op))),
        ]);
        writeln!(out, "{}", line.render())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>, op: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span("root", 0, 100, None, 0),
            span("a", 10, 30, Some(0), 0),
            span("b", 20, 50, Some(0), 0), // overlaps a: union is 10..50
            span("c", 25, 28, Some(2), 0), // grandchild: not root's child
            span("late", 90, 120, Some(0), 0), // clipped to 90..100
            span("leaf", 200, 260, None, 1),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20, 30 - 3, 3, 30, 60]);
        assert_eq!(per_op_self_ns(&spans, &own, "leaf", 2), vec![0, 60]);
        assert_eq!(per_op_self_ns(&spans, &own, "a", 2), vec![20, 0]);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let rec = Recorder::new(true);
        rec.set_op(3);
        let v = rec.time("outer", || {
            rec.time("inner", || std::hint::black_box(7));
            rec.time("inner", || std::hint::black_box(8))
        });
        assert_eq!(v, 8);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }

    #[test]
    fn switched_off_records_nothing() {
        let rec = Recorder::new(false);
        assert_eq!(rec.time("x", || 5), 5);
        assert!(rec.into_spans().is_empty());
    }
}
