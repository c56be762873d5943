//! # axmemo-telemetry
//!
//! Zero-dependency tracing and metrics for the AxMemo workspace: a
//! registry of named counters, hierarchical spans keyed on *simulated*
//! cycles, a structured event stream with pluggable sinks (ring buffer
//! for tests, JSONL for offline tooling) and a phase profiler. A text
//! report renders the counters and spans for humans.
//!
//! The whole workspace threads a `&mut Telemetry` through its hot
//! paths. When the handle is disabled ([`Telemetry::off`]) every
//! method is a single branch on a bool and returns immediately, so
//! instrumented code pays essentially nothing in the common case:
//!
//! ```
//! use axmemo_telemetry::{RingBufferSink, Telemetry};
//!
//! let sink = RingBufferSink::new(64);
//! let mut tel = Telemetry::enabled();
//! tel.add_sink(Box::new(sink.clone()));
//!
//! tel.set_cycle(100);
//! tel.span_enter("run:fft");
//! tel.count("lut.l1.hit", 1);
//! tel.event("lut.lookup", &[("hit", true.into())]);
//! tel.set_cycle(250);
//! tel.span_exit();
//!
//! assert_eq!(tel.registry().counter("lut.l1.hit"), 1);
//! assert_eq!(sink.count_kind("lut.lookup"), 1);
//! assert_eq!(tel.spans()[0].cycles(), 150);
//! ```

pub mod event;
pub mod metrics;
pub mod profile;
pub mod report;
pub mod sink;
pub mod span;

pub use event::{escape_json, event_to_json, Event, Value};
pub use metrics::Registry;
pub use profile::{folded_escape, BlockStat, PhaseId, Profile, Profiler};
pub use sink::{EventSink, JsonlSink, RingBufferSink};
pub use span::{SpanRecord, SpanTracker};

/// The telemetry handle threaded through the simulator, the LUT
/// hierarchy and the workload runner.
///
/// Construct with [`Telemetry::enabled`] to collect, or
/// [`Telemetry::off`] (also `Default`) for a no-op handle that is
/// cheap to build — no allocation happens until something is recorded.
#[derive(Default)]
pub struct Telemetry {
    enabled: bool,
    cycle: u64,
    registry: Registry,
    spans: SpanTracker,
    sinks: Vec<Box<dyn EventSink>>,
    profiler: Profiler,
}

impl Telemetry {
    /// Disabled handle: every recording method is a no-op.
    pub fn off() -> Self {
        Self::default()
    }

    /// Enabled handle with no sinks attached; metrics and spans are
    /// collected in-memory, events go nowhere until a sink is added.
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Attach a sink for the structured event stream.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Set the simulated cycle used to key subsequent events/spans.
    #[inline]
    pub fn set_cycle(&mut self, cycle: u64) {
        self.cycle = cycle;
    }

    /// Current simulated cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Add `n` to counter `name`.
    #[inline]
    pub fn count(&mut self, name: &'static str, n: u64) {
        if !self.enabled {
            return;
        }
        self.registry.counter_add(name, n);
    }

    /// Emit a structured event at the current cycle, tagged with the
    /// innermost open span path.
    ///
    /// Only the enabled-and-has-sinks check is inlined into callers;
    /// building and dispatching the event is out of line.
    #[inline(always)]
    pub fn event(&mut self, kind: &'static str, fields: &[(&'static str, Value)]) {
        if self.enabled && !self.sinks.is_empty() {
            self.emit(kind, fields);
        }
    }

    #[cold]
    #[inline(never)]
    fn emit(&mut self, kind: &'static str, fields: &[(&'static str, Value)]) {
        let ev = Event {
            cycle: self.cycle,
            kind,
            span: self.spans.current_path().unwrap_or("").to_string(),
            fields: fields.to_vec(),
        };
        for sink in &mut self.sinks {
            sink.record(&ev);
        }
    }

    /// Open a span at the current cycle.
    pub fn span_enter(&mut self, name: &str) {
        if !self.enabled {
            return;
        }
        let path = self.spans.enter(name, self.cycle);
        let cycle = self.cycle;
        self.emit_raw(Event {
            cycle,
            kind: "span.enter",
            span: path,
            fields: Vec::new(),
        });
    }

    /// Close the innermost span at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics (from [`SpanTracker::exit`]) when no span is open.
    pub fn span_exit(&mut self) {
        if !self.enabled {
            return;
        }
        let rec = self.spans.exit(self.cycle);
        self.emit_raw(Event {
            cycle: rec.end_cycle,
            kind: "span.exit",
            span: rec.path.clone(),
            fields: vec![
                ("start_cycle", Value::U64(rec.start_cycle)),
                ("cycles", Value::U64(rec.cycles())),
            ],
        });
    }

    /// Record one already-completed span covering
    /// `start_cycle..end_cycle`, emitting the same `span.enter` /
    /// `span.exit` event pair as live bracketing would.
    ///
    /// Sweep orchestrators use this to attach per-job spans (for example
    /// `job:blackscholes:L1+L2@500ppm`) *after* the parallel workers
    /// have finished, in deterministic job-index order — a worker thread
    /// cannot write into the shared handle while jobs are in flight.
    /// The handle's current cycle is left at `end_cycle`.
    pub fn record_span(&mut self, name: &str, start_cycle: u64, end_cycle: u64) {
        if !self.enabled {
            return;
        }
        self.set_cycle(start_cycle);
        self.span_enter(name);
        self.set_cycle(end_cycle.max(start_cycle));
        self.span_exit();
    }

    fn emit_raw(&mut self, ev: Event) {
        for sink in &mut self.sinks {
            sink.record(&ev);
        }
    }

    /// Metrics collected so far.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Completed spans, in close order.
    pub fn spans(&self) -> &[SpanRecord] {
        self.spans.completed()
    }

    /// The phase profiler riding this handle. Independent of
    /// [`Telemetry::is_enabled`]: a disabled handle with an enabled
    /// profiler collects cycle attribution while keeping every counter,
    /// span and event stream byte-identical to a profiling-off run —
    /// the bench layer's `--profile-out` uses exactly that combination.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Mutable access to the profiler (enter/exit/leaf charges).
    #[inline]
    pub fn profiler_mut(&mut self) -> &mut Profiler {
        &mut self.profiler
    }

    /// Snapshot the profiler into a mergeable [`Profile`], or `None`
    /// when profiling is disabled.
    pub fn take_profile(&self) -> Option<Profile> {
        self.profiler.is_enabled().then(|| self.profiler.snapshot())
    }

    /// Close every span (and profiler frame) still open — the recovery
    /// path after a caught panic or a mid-run simulator error, which
    /// would otherwise leave the stack unbalanced for the next run
    /// sharing this handle. Each drained span closes at
    /// `max(current cycle, its start)` and emits the usual `span.exit`
    /// event tagged `recovered`. Returns how many spans were open.
    pub fn close_open_spans(&mut self) -> usize {
        self.profiler.close_open();
        if !self.enabled {
            return 0;
        }
        let recs = self.spans.close_open(self.cycle);
        for rec in &recs {
            let ev = Event {
                cycle: rec.end_cycle,
                kind: "span.exit",
                span: rec.path.clone(),
                fields: vec![
                    ("start_cycle", Value::U64(rec.start_cycle)),
                    ("cycles", Value::U64(rec.cycles())),
                    ("recovered", Value::Bool(true)),
                ],
            };
            self.emit_raw(ev);
        }
        recs.len()
    }

    /// Flush every attached sink.
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }

    /// Human-readable metrics + span report (see [`report::render_text`]).
    pub fn text_report(&self) -> String {
        report::render_text(self)
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("cycle", &self.cycle)
            .field("sinks", &self.sinks.len())
            .field("profiling", &self.profiler.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let sink = RingBufferSink::new(8);
        let mut tel = Telemetry::off();
        tel.add_sink(Box::new(sink.clone()));
        tel.count("a", 1);
        tel.event("k", &[]);
        tel.span_enter("s");
        tel.span_exit(); // no-op, must not panic even though nothing is open
        assert_eq!(tel.registry().counter("a"), 0);
        assert!(sink.is_empty());
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn events_carry_cycle_and_span() {
        let sink = RingBufferSink::new(8);
        let mut tel = Telemetry::enabled();
        tel.add_sink(Box::new(sink.clone()));
        tel.set_cycle(5);
        tel.span_enter("run:sobel");
        tel.set_cycle(9);
        tel.event("lut.lookup", &[("hit", Value::Bool(false))]);
        tel.set_cycle(20);
        tel.span_exit();

        let events = sink.events();
        assert_eq!(events.len(), 3); // enter, lookup, exit
        assert_eq!(events[1].cycle, 9);
        assert_eq!(events[1].span, "run:sobel");
        assert_eq!(events[2].kind, "span.exit");
        assert_eq!(events[2].field("cycles"), Some(&Value::U64(15)));
    }

    #[test]
    fn counters_accumulate() {
        let mut tel = Telemetry::enabled();
        tel.count("c", 2);
        tel.count("c", 3);
        assert_eq!(tel.registry().counter("c"), 5);
    }

    #[test]
    #[should_panic(expected = "unbalanced close")]
    fn enabled_unbalanced_exit_panics() {
        let mut tel = Telemetry::enabled();
        tel.span_exit();
    }

    #[test]
    fn record_span_matches_live_bracketing() {
        let sink = RingBufferSink::new(8);
        let mut tel = Telemetry::enabled();
        tel.add_sink(Box::new(sink.clone()));
        tel.record_span("job:fft:L1", 10, 250);
        assert_eq!(tel.spans().len(), 1);
        assert_eq!(tel.spans()[0].path, "job:fft:L1");
        assert_eq!(tel.spans()[0].cycles(), 240);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, "span.enter");
        assert_eq!(events[1].kind, "span.exit");
        // End before start clamps instead of underflowing.
        tel.record_span("job:weird", 100, 0);
        assert_eq!(tel.spans()[1].cycles(), 0);
        // A disabled handle records nothing.
        let mut off = Telemetry::off();
        off.record_span("x", 0, 1);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn event_without_sinks_is_cheap_noop() {
        let mut tel = Telemetry::enabled();
        tel.event("k", &[("x", Value::U64(1))]); // must not panic
    }

    #[test]
    fn close_open_spans_recovers_unbalanced_stack() {
        let sink = RingBufferSink::new(8);
        let mut tel = Telemetry::enabled();
        tel.add_sink(Box::new(sink.clone()));
        tel.set_cycle(10);
        tel.span_enter("run:doomed");
        tel.span_enter("region:inner");
        tel.set_cycle(40);
        // Simulates a caught panic: nobody called span_exit.
        assert_eq!(tel.close_open_spans(), 2);
        assert_eq!(tel.spans().len(), 2);
        assert_eq!(tel.spans()[0].path, "run:doomed/region:inner");
        assert_eq!(tel.spans()[1].end_cycle, 40);
        let exits = sink.events();
        let recovered = exits
            .iter()
            .filter(|e| e.kind == "span.exit" && e.field("recovered").is_some())
            .count();
        assert_eq!(recovered, 2);
        // The next run records a clean tree at depth zero.
        tel.span_enter("run:healthy");
        tel.set_cycle(50);
        tel.span_exit();
        assert_eq!(tel.spans()[2].path, "run:healthy");
        assert_eq!(tel.spans()[2].depth, 0);
        assert_eq!(tel.close_open_spans(), 0);
    }

    #[test]
    fn profiler_rides_a_disabled_handle() {
        let mut tel = Telemetry::off();
        assert!(tel.take_profile().is_none());
        tel.profiler_mut().enable();
        tel.profiler_mut().enter(PhaseId::Run);
        tel.profiler_mut().leaf(PhaseId::CrcBeat, 4);
        tel.profiler_mut().exit_cycles(10);
        // Handle stays disabled: no counters, spans, or events.
        tel.count("c", 1);
        assert_eq!(tel.registry().counter("c"), 0);
        assert!(!tel.is_enabled());
        let profile = tel.take_profile().expect("profiling on");
        assert_eq!(profile.phases["run"].total, 10);
        // close_open_spans also drains profiler frames.
        tel.profiler_mut().enter(PhaseId::Run);
        tel.close_open_spans();
        tel.profiler_mut().enter(PhaseId::Run);
        tel.profiler_mut().exit_cycles(5); // nests at top level again
    }
}
