//! In-memory host-time spans recorded around each layer call the ledger
//! makes, and the self-time arithmetic that attributes a pass to them.
//!
//! Spans live in a `Vec` while the benchmark runs and are written out
//! once at exit. A disabled tracer reads no clock, so the untimed passes
//! that produce the end-to-end numbers pay nothing for it.

use std::time::Instant;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `runner.memo_leg`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list, if any.
    pub parent: Option<usize>,
    /// The cell (benchmark, or benchmark and configuration) the span
    /// worked on; empty for pass-wide spans.
    pub cell: String,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. [`Tracer::off`] records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Self {
            origin: None,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Self {
            origin: Some(Instant::now()),
            ..Self::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    fn now_ns(&self) -> u64 {
        self.origin
            .map_or(0, |o| o.elapsed().as_nanos().try_into().unwrap_or(u64::MAX))
    }

    /// Open a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, cell: &str) {
        if !self.is_on() {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            cell: cell.to_string(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, cell: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name, cell);
        let out = f();
        self.exit();
        out
    }

    /// Take every span recorded so far (open spans are closed first).
    pub fn take(&mut self) -> Vec<Span> {
        while !self.open.is_empty() {
            self.exit();
        }
        std::mem::take(&mut self.spans)
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            cell: String::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)), // overlaps a by 10
            span("c", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![60, 22, 20, 8]);
        let total: u64 = self_times(&spans[..2]).iter().sum();
        assert_eq!(total, 100, "nested self times add up to the root");
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.time("x", "", || 7), 7);
        assert!(t.take().is_empty());
        let mut t = Tracer::on();
        t.enter("root", "");
        t.time("child", "cell", || ());
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
