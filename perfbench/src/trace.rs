//! In-memory spans recorded around calls into the program, and the self
//! time derived from them.
//!
//! A span has a name (`<layer>.<what>`), an id shared by every span of one
//! trial (the trial index; [`CAMPAIGN_ID`] for once-per-campaign work), an
//! optional parent, and a start and end in nanoseconds since the recorder
//! was created. Spans stay in memory while the pass runs and are written
//! out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Id of spans that belong to the whole campaign rather than one trial.
pub const CAMPAIGN_ID: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when live; a dead recorder only runs the closures.
pub struct Recorder {
    live: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(live: bool) -> Recorder {
        Recorder {
            live,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str, id: u64) {
        if !self.live {
            return;
        }
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.live {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("close without open span");
        self.spans[idx].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        self.open(name, id);
        let out = f();
        self.close();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut dyn Write) -> io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = if s.id == CAMPAIGN_ID {
                "null".to_string()
            } else {
                s.id.to_string()
            };
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"id\":{id},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children may nest further and may overlap
/// one another; overlapping stretches are counted once, and any part of
/// a child outside its parent's interval is ignored.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-name totals of self time, summed over spans.
pub fn self_time_by_name(spans: &[Span], selfs: &[u64]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(selfs) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            id: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_of_a_hand_built_tree() {
        // root [0, 100)
        //   a [10, 40)            nested: a1 [15, 25)
        //   b [30, 60)            overlaps a over [30, 40)
        //   c [90, 120)           runs past the root's end
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a1", Some(1), 15, 25),
            span("b", Some(0), 30, 60),
            span("c", Some(0), 90, 120),
        ];
        let selfs = self_times(&spans);
        // Root children cover [10, 60) and [90, 100): 60 ns.
        assert_eq!(selfs[0], 40);
        // a's only child covers 10 of its 30 ns.
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 10);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 30);
        let by_name = self_time_by_name(&spans, &selfs);
        assert_eq!(by_name["root"], 40);
        assert_eq!(by_name["a"], 20);
    }

    #[test]
    fn identical_and_contained_children_count_once() {
        let spans = vec![
            span("root", None, 0, 50),
            span("x", Some(0), 10, 30),
            span("y", Some(0), 10, 30),
            span("z", Some(0), 12, 20),
        ];
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn recorder_nests_spans_under_the_innermost_open_one() {
        let mut rec = Recorder::new(true);
        rec.open("trial", 7);
        rec.time("inner", 7, || ());
        rec.close();
        rec.time("after", CAMPAIGN_ID, || ());
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        rec.write_jsonl(&mut out).expect("writes");
        let text = String::from_utf8(out).expect("utf8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(2).expect("line").contains("\"id\":null"));
    }

    #[test]
    fn a_dead_recorder_runs_the_work_and_records_nothing() {
        let mut rec = Recorder::new(false);
        assert_eq!(rec.time("x", 1, || 41 + 1), 42);
        assert!(rec.spans().is_empty());
    }
}
