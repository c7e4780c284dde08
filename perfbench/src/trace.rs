//! The span recorder behind the traced runs.
//!
//! A span is one timed call from the benchmark into a layer: a name, its
//! start and end on the monotonic clock, the span that was open when it
//! began (its parent), and the editing operation it served, when there is
//! one. Spans of one operation share its id — the authoring site and that
//! site's sequence number — so an operation's spans join into one trace
//! from generation to its execution at a peer, across sessions' threads of
//! control. Spans stay in memory and are written when the run ends.
//!
//! A disabled tracer reads no clock and stores nothing, so untraced runs
//! pay one branch per call site.

use crate::clock::now_ns;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

pub const NO_SPAN: u32 = u32::MAX;

/// An editing operation's identity: authoring site and its sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct OpId {
    pub site: u32,
    pub seq: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub op: Option<OpId>,
}

#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: Option<OpId>) -> u32 {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.open.last().copied().unwrap_or(NO_SPAN),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        if id == NO_SPAN {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id as usize].end = now_ns();
    }

    /// Record a finished span with explicit times.
    #[cfg(test)]
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        op: Option<OpId>,
    ) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Length of the union of half-open intervals (sorted in place).
pub fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in iv.iter() {
        if e <= s {
            continue;
        }
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Each span's self time: its duration minus the part of it that the union
/// of its children covers (children may overlap one another).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            for k in kids.iter_mut() {
                *k = (k.0.max(s.start), k.1.min(s.end));
            }
            (s.end - s.start).saturating_sub(union_len(kids))
        })
        .collect()
}

/// Share of the window `[from, to)` covered by the union of the spans
/// `pick` selects.
pub fn coverage(spans: &[Span], from: u64, to: u64, pick: impl Fn(&Span) -> bool) -> f64 {
    if to <= from {
        return 0.0;
    }
    let mut iv: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| pick(s))
        .map(|s| (s.start.max(from), s.end.min(to)))
        .collect();
    union_len(&mut iv) as f64 / (to - from) as f64
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn aggregate(spans: &[Span]) -> BTreeMap<&'static str, Agg> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    for (s, st) in spans.iter().zip(selfs) {
        let a = out.entry(s.name).or_default();
        a.count += 1;
        a.total_ns += s.end - s.start;
        a.self_ns += st;
    }
    out
}

/// Spans grouped by the operation they served: one trace per operation.
pub fn traces_by_op(spans: &[Span]) -> BTreeMap<OpId, Vec<usize>> {
    let mut out: BTreeMap<OpId, Vec<usize>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if let Some(op) = s.op {
            out.entry(op).or_default().push(i);
        }
    }
    out
}

/// Write a per-name summary (`# name count total_ns self_ns`), then at most
/// `cap` spans as tab-separated lines
/// `id name start_ns end_ns parent op_site op_seq` (`-` for none).
pub fn write_tsv(spans: &[Span], path: &str, cap: usize) -> io::Result<()> {
    let mut out = String::from("# name\tcount\ttotal_ns\tself_ns\n");
    for (name, a) in aggregate(spans) {
        let _ = writeln!(out, "# {name}\t{}\t{}\t{}", a.count, a.total_ns, a.self_ns);
    }
    out.push_str("# id\tname\tstart_ns\tend_ns\tparent\top_site\top_seq\n");
    for (i, s) in spans.iter().enumerate().take(cap) {
        let parent = if s.parent == NO_SPAN {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        let (site, seq) = match s.op {
            Some(op) => (op.site.to_string(), op.seq.to_string()),
            None => ("-".to_string(), "-".to_string()),
        };
        let _ = writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{site}\t{seq}",
            s.name, s.start, s.end
        );
    }
    if spans.len() > cap {
        let _ = writeln!(out, "# truncated: {} of {} spans written", cap, spans.len());
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(site: u32, seq: u64) -> Option<OpId> {
        Some(OpId { site, seq })
    }

    #[test]
    fn nested_spans_get_parents_and_self_time() {
        let mut t = Tracer::new(true);
        let a = t.enter("outer", None);
        let b = t.enter("inner", op(1, 1));
        t.exit(b);
        t.exit(a);
        let s = t.spans();
        assert_eq!(s[a as usize].parent, NO_SPAN);
        assert_eq!(s[b as usize].parent, a);
        assert!(
            s[a as usize].start <= s[b as usize].start && s[b as usize].end <= s[a as usize].end
        );

        // Explicit times: outer [0,100) with child [10,40) → self 70.
        let mut t = Tracer::new(true);
        let r = t.record("outer", 0, 100, NO_SPAN, None);
        let c = t.record("mid", 10, 40, r, None);
        t.record("leaf", 20, 30, c, None);
        assert_eq!(self_times(t.spans()), vec![70, 20, 10]);
        let agg = aggregate(t.spans());
        assert_eq!(
            agg["outer"],
            Agg {
                count: 1,
                total_ns: 100,
                self_ns: 70
            }
        );
    }

    #[test]
    fn overlapping_children_are_not_double_counted() {
        let mut t = Tracer::new(true);
        let r = t.record("root", 0, 100, NO_SPAN, None);
        t.record("a", 10, 50, r, None);
        t.record("b", 30, 70, r, None); // overlaps a on [30,50)
        t.record("c", 90, 120, r, None); // runs past its parent's end
                                         // Union of children inside [0,100): [10,70) ∪ [90,100) = 70.
        assert_eq!(self_times(t.spans())[0], 30);
        let mut iv = vec![(5, 9), (0, 3), (2, 4), (9, 9)];
        assert_eq!(union_len(&mut iv), 8);
    }

    #[test]
    fn spans_sharing_an_op_id_join_into_one_trace() {
        let mut t = Tracer::new(true);
        let g = t.record("client.generate", 0, 5, NO_SPAN, op(1, 7));
        t.record("gen.read", 10, 30, NO_SPAN, None);
        let x = t.record("client.execute", 20, 25, 1, op(1, 7));
        t.record("client.execute", 40, 45, NO_SPAN, op(2, 7));
        let traces = traces_by_op(t.spans());
        assert_eq!(
            traces[&OpId { site: 1, seq: 7 }],
            vec![g as usize, x as usize]
        );
        assert_eq!(traces[&OpId { site: 2, seq: 7 }], vec![3]);
        assert_eq!(traces.len(), 2);
    }

    #[test]
    fn coverage_measures_union_over_window() {
        let mut t = Tracer::new(true);
        let r = t.record("poll.wait", 0, 40, NO_SPAN, None);
        t.record("gen.read", 40, 90, NO_SPAN, None);
        t.record("conn.read", 50, 60, 1, None);
        let roots = |s: &Span| s.parent == NO_SPAN;
        assert!((coverage(t.spans(), 0, 100, roots) - 0.9).abs() < 1e-12);
        assert!((coverage(t.spans(), 20, 60, roots) - 1.0).abs() < 1e-12);
        assert_eq!(coverage(t.spans(), 5, 5, roots), 0.0);
        let _ = r;
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.enter("x", op(1, 1));
        assert_eq!(a, NO_SPAN);
        t.exit(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new(true);
        let a = t.enter("a", None);
        let _b = t.enter("b", None);
        t.exit(a);
    }
}
