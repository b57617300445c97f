//! A span-based profiler for `EXPLAIN ANALYZE`-style reports.
//!
//! The evaluator opens a [`SpanId`] per operator node, evaluates the
//! node, and closes the span with the step charge, output cardinality,
//! and the fast-path tags that fired in it. [`Profiler::render`] then prints the
//! frame tree with per-node wall time.
//!
//! By default time comes from a monotonic wall clock. When the
//! [`PROFILE_TICKS_ENV`] environment variable is set, the profiler
//! switches to a **counting clock**: every read advances a counter by a
//! fixed number of ticks (the variable's value, in nanoseconds; 1000 if
//! unparsable). Since evaluation is deterministic, the tick clock makes
//! the whole rendered report deterministic too — that is what lets
//! `:profile` be byte-equal across the CLI, the server, and the serial
//! twin in tests.

use std::time::Instant;

use crate::fmt_ns;

/// Environment variable selecting the deterministic counting clock.
pub const PROFILE_TICKS_ENV: &str = "BALG_PROFILE_TICKS";

/// Maximum number of frames a profiler keeps; spans opened past the cap
/// are dropped (and the report says so), bounding memory on deep plans.
pub const DEFAULT_FRAME_CAP: usize = 4096;

#[derive(Debug)]
enum Clock {
    Wall(Instant),
    Ticks { next: u64, step: u64 },
}

impl Clock {
    fn now_ns(&mut self) -> u64 {
        match self {
            Clock::Wall(start) => u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Clock::Ticks { next, step } => {
                *next += *step;
                *next
            }
        }
    }
}

/// One closed (or still-open) operator frame.
#[derive(Debug)]
pub struct Frame {
    /// Operator label (e.g. `union+`, `π·× (indexed-join)`).
    pub label: String,
    /// Nesting depth at open time; drives report indentation.
    pub depth: usize,
    start_ns: u64,
    /// Wall (or tick) time between open and close, including children.
    pub elapsed_ns: u64,
    /// Step charge attributed to this frame, including children.
    pub steps: u64,
    /// Distinct-element count of the frame's output bag, when bag-valued.
    pub rows: Option<u64>,
    /// Every fast-path tag that fired in the frame (e.g. `in-place`,
    /// `key-hash`), each once, in firing order.
    pub tags: Vec<&'static str>,
    /// Whether the frame ended in an evaluation error.
    pub error: bool,
}

/// Handle returned by [`Profiler::start`]; pass it back to
/// [`Profiler::finish`]. A capped-out profiler hands back an inert id.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(usize);

const DROPPED: usize = usize::MAX;

/// Records a tree of operator frames for one query evaluation.
#[derive(Debug)]
pub struct Profiler {
    clock: Clock,
    frames: Vec<Frame>,
    stack: Vec<usize>,
    cap: usize,
    truncated: bool,
}

impl Default for Profiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Profiler {
    /// A profiler using the wall clock, or the deterministic tick clock
    /// when [`PROFILE_TICKS_ENV`] is set in the environment.
    pub fn new() -> Self {
        let clock = match std::env::var(PROFILE_TICKS_ENV) {
            Ok(v) => Clock::Ticks {
                next: 0,
                step: v.parse().unwrap_or(1000),
            },
            Err(_) => Clock::Wall(Instant::now()),
        };
        Profiler {
            clock,
            frames: Vec::new(),
            stack: Vec::new(),
            cap: DEFAULT_FRAME_CAP,
            truncated: false,
        }
    }

    /// Open a frame. Frames opened past the cap are dropped.
    pub fn start(&mut self, label: impl Into<String>) -> SpanId {
        if self.frames.len() >= self.cap {
            self.truncated = true;
            return SpanId(DROPPED);
        }
        let depth = self.stack.len();
        let start_ns = self.clock.now_ns();
        self.frames.push(Frame {
            label: label.into(),
            depth,
            start_ns,
            elapsed_ns: 0,
            steps: 0,
            rows: None,
            tags: Vec::new(),
            error: false,
        });
        let id = self.frames.len() - 1;
        self.stack.push(id);
        SpanId(id)
    }

    /// Close a frame with its measurements. Closing out of order pops
    /// any dangling children first, so a `?`-propagated error cannot
    /// corrupt the tree.
    pub fn finish(
        &mut self,
        id: SpanId,
        steps: u64,
        rows: Option<u64>,
        tags: Vec<&'static str>,
        error: bool,
    ) {
        if id.0 == DROPPED {
            return;
        }
        let end = self.clock.now_ns();
        while let Some(top) = self.stack.pop() {
            if top == id.0 {
                break;
            }
        }
        let frame = &mut self.frames[id.0];
        frame.elapsed_ns = end.saturating_sub(frame.start_ns);
        frame.steps = steps;
        frame.rows = rows;
        frame.tags = tags;
        frame.error = error;
    }

    /// The recorded frames, in open (pre-)order.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Total time of the root frame (0 if nothing was recorded).
    pub fn total_ns(&self) -> u64 {
        self.frames.first().map_or(0, |f| f.elapsed_ns)
    }

    /// Whether any span was dropped by the frame cap.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Render the frame tree, one line per frame, indented by depth:
    /// `label [tag, …] — time, steps, rows`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for frame in &self.frames {
            for _ in 0..frame.depth {
                out.push_str("  ");
            }
            out.push_str(&frame.label);
            if !frame.tags.is_empty() {
                out.push_str(&format!(" [{}]", frame.tags.join(", ")));
            }
            out.push_str(&format!(
                " \u{2014} {}, {} steps",
                fmt_ns(frame.elapsed_ns),
                frame.steps
            ));
            if let Some(rows) = frame.rows {
                out.push_str(&format!(", {rows} rows"));
            }
            if frame.error {
                out.push_str(", error");
            }
            out.push('\n');
        }
        if self.truncated {
            out.push_str(&format!(
                "\u{2026} profile truncated at {} frames\n",
                self.cap
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticks(step: u64) -> Profiler {
        Profiler {
            clock: Clock::Ticks { next: 0, step },
            frames: Vec::new(),
            stack: Vec::new(),
            cap: DEFAULT_FRAME_CAP,
            truncated: false,
        }
    }

    #[test]
    fn tick_clock_renders_deterministically() {
        let mut p = ticks(1000);
        let root = p.start("union+");
        let left = p.start("base R");
        p.finish(left, 1, Some(4), Vec::new(), false);
        let right = p.start("\u{3c0}\u{b7}\u{d7}");
        p.finish(right, 30, Some(12), vec!["in-place", "key-hash"], false);
        p.finish(root, 42, Some(7), Vec::new(), false);
        assert_eq!(
            p.render(),
            "union+ \u{2014} 5.000\u{b5}s, 42 steps, 7 rows\n  \
             base R \u{2014} 1.000\u{b5}s, 1 steps, 4 rows\n  \
             \u{3c0}\u{b7}\u{d7} [in-place, key-hash] \u{2014} 1.000\u{b5}s, 30 steps, 12 rows\n"
        );
        assert_eq!(p.total_ns(), 5000);
    }

    #[test]
    fn frame_cap_truncates_safely() {
        let mut p = ticks(1);
        p.cap = 2;
        let a = p.start("a");
        let b = p.start("b");
        let c = p.start("c");
        p.finish(c, 0, None, Vec::new(), false);
        p.finish(b, 0, None, Vec::new(), false);
        p.finish(a, 0, None, Vec::new(), false);
        assert!(p.truncated());
        assert_eq!(p.frames().len(), 2);
        assert!(p.render().contains("truncated at 2 frames"));
    }

    #[test]
    fn out_of_order_finish_unwinds_stack() {
        let mut p = ticks(1);
        let a = p.start("a");
        let _b = p.start("b");
        // Finish the parent directly (error propagation path).
        p.finish(a, 5, None, Vec::new(), true);
        assert!(p.stack.is_empty());
        assert!(p.render().contains("error"));
    }
}
