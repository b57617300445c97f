//! Spans recorded from the benchmark's side of each layer boundary. The
//! program itself is untouched: a span wraps one call into a public
//! function, and a layer's self time is its span minus its child spans.

use std::collections::BTreeMap;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One closed span. `parent` 0 means a root; ids start at 1. `op` is the
/// schedule index of the request, shared by every span of that request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span sink, written out once when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A sink with room for `cap` spans reserved now, so recording does
    /// not allocate inside a timed call.
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            open: Vec::with_capacity(8),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: usize) {
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let start_ns = self.now();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            name,
            op: op as u32,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span and return its duration.
    pub fn exit(&mut self) -> u64 {
        let end_ns = self.now();
        let index = self.open.pop().expect("exit without enter");
        self.spans[index].end_ns = end_ns;
        end_ns - self.spans[index].start_ns
    }

    /// Time `f` as a span.
    pub fn span<T>(&mut self, name: &'static str, op: usize, f: impl FnOnce() -> T) -> T {
        self.enter(name, op);
        let out = f();
        self.exit();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{id, parent, name, op, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let parent = s.parent as usize - 1;
            own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Ascending self times grouped by span name.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        by_name.entry(span.name).or_default().push(own);
    }
    for values in by_name.values_mut() {
        values.sort_unstable();
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            op: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "eval", 30, 90),
            span(4, 3, "index", 40, 50),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 50, 10]);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name["eval"], vec![50]);
        assert_eq!(by_name["op"], vec![20]);
    }

    #[test]
    fn tracer_nests_and_links_parents() {
        let mut tracer = Tracer::with_capacity(64);
        tracer.enter("op", 7);
        tracer.span("parse", 7, || ());
        tracer.enter("eval", 7);
        tracer.span("index", 7, || ());
        tracer.exit();
        tracer.exit();
        let spans = tracer.spans();
        let shape: Vec<(u32, u32, &str)> = spans.iter().map(|s| (s.id, s.parent, s.name)).collect();
        assert_eq!(
            shape,
            vec![
                (1, 0, "op"),
                (2, 1, "parse"),
                (3, 1, "eval"),
                (4, 3, "index")
            ]
        );
        assert!(spans.iter().all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);
    }
}
