//! Hierarchical spans keyed on simulated cycles.
//!
//! A span is an interval of simulated time with a name; spans nest by
//! stack discipline, so `region:butterfly` opened while `run:fft` is
//! open records the path `run:fft/region:butterfly`. Closing with no
//! span open is a panic — an unbalanced close is always a caller bug
//! and silently ignoring it would corrupt every enclosing interval.

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Full `/`-joined path from the outermost open span.
    pub path: String,
    /// Nesting depth (0 = outermost).
    pub depth: usize,
    /// Cycle the span was opened at.
    pub start_cycle: u64,
    /// Cycle the span was closed at.
    pub end_cycle: u64,
}

impl SpanRecord {
    /// Cycles spent inside the span (end − start).
    pub fn cycles(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// Stack of open spans plus the log of completed ones.
#[derive(Debug, Clone, Default)]
pub struct SpanTracker {
    open: Vec<(String, u64)>,
    completed: Vec<SpanRecord>,
}

impl SpanTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Open a span named `name` at `cycle`. Returns the full path.
    pub fn enter(&mut self, name: &str, cycle: u64) -> String {
        let path = match self.open.last() {
            Some((parent, _)) => format!("{parent}/{name}"),
            None => name.to_string(),
        };
        self.open.push((path.clone(), cycle));
        path
    }

    /// Close the innermost span at `cycle` and return its record.
    ///
    /// # Panics
    ///
    /// Panics if no span is open (unbalanced close) or if `cycle` is
    /// before the span's start (time went backwards).
    pub fn exit(&mut self, cycle: u64) -> SpanRecord {
        let (path, start) = self
            .open
            .pop()
            .expect("span exit with no open span (unbalanced close)");
        assert!(
            cycle >= start,
            "span '{path}' closed at cycle {cycle} before its start {start}"
        );
        let rec = SpanRecord {
            path,
            depth: self.open.len(),
            start_cycle: start,
            end_cycle: cycle,
        };
        self.completed.push(rec.clone());
        rec
    }

    /// Close every open span, innermost first, at `cycle` — clamped so
    /// a span that opened *after* `cycle` still closes at its own start
    /// (zero length) instead of panicking. This is the recovery path
    /// for runs torn down mid-flight (caught panic, watchdog trip);
    /// the drained records are returned in close order.
    pub fn close_open(&mut self, cycle: u64) -> Vec<SpanRecord> {
        let mut drained = Vec::with_capacity(self.open.len());
        while let Some(&(_, start)) = self.open.last() {
            drained.push(self.exit(cycle.max(start)));
        }
        drained
    }

    /// Path of the innermost open span, if any.
    pub fn current_path(&self) -> Option<&str> {
        self.open.last().map(|(p, _)| p.as_str())
    }

    /// Completed spans, in close order.
    pub fn completed(&self) -> &[SpanRecord] {
        &self.completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_builds_paths() {
        let mut t = SpanTracker::new();
        assert_eq!(t.enter("run:fft", 0), "run:fft");
        assert_eq!(t.enter("region:butterfly", 10), "run:fft/region:butterfly");
        assert_eq!(t.current_path(), Some("run:fft/region:butterfly"));
        let inner = t.exit(50);
        assert_eq!(inner.path, "run:fft/region:butterfly");
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.cycles(), 40);
        let outer = t.exit(60);
        assert_eq!(outer.path, "run:fft");
        assert_eq!(outer.depth, 0);
        assert!(t.current_path().is_none());
        assert_eq!(t.completed().len(), 2);
    }

    #[test]
    #[should_panic(expected = "unbalanced close")]
    fn unbalanced_close_panics() {
        let mut t = SpanTracker::new();
        t.enter("a", 0);
        t.exit(1);
        t.exit(2); // nothing open
    }

    #[test]
    #[should_panic(expected = "before its start")]
    fn closing_in_the_past_panics() {
        let mut t = SpanTracker::new();
        t.enter("a", 100);
        t.exit(50);
    }

    #[test]
    fn close_open_drains_innermost_first_and_clamps() {
        let mut t = SpanTracker::new();
        t.enter("run:a", 10);
        t.enter("region:x", 500); // opened after the recovery cycle
        let drained = t.close_open(100);
        assert_eq!(drained.len(), 2);
        assert_eq!(drained[0].path, "run:a/region:x");
        // Clamped: closes at its own start, not before it.
        assert_eq!(drained[0].end_cycle, 500);
        assert_eq!(drained[0].cycles(), 0);
        assert_eq!(drained[1].path, "run:a");
        assert_eq!(drained[1].end_cycle, 100);
        assert!(t.current_path().is_none());
        assert!(t.close_open(0).is_empty());
        // The tracker is reusable afterwards: balanced spans nest from
        // the top level again.
        assert_eq!(t.enter("run:b", 0), "run:b");
        t.exit(5);
    }
}
