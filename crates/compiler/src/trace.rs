//! Dynamic IR trace capture (the LLVM-Tracer substitute, §5 step 1).
//!
//! [`TraceCapture`] implements [`axmemo_sim::TraceSink`] and records every
//! committed instruction with its static id (pc), written value, and
//! effective address. The DDDG builder consumes this trace.

use axmemo_sim::cpu::TraceSink;
use axmemo_sim::ir::Inst;

/// One committed dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Static instruction index (program counter).
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// Destination register and value written, if any.
    pub wrote: Option<(u8, u64)>,
    /// Effective address for memory operations.
    pub addr: Option<u64>,
}

/// Recording trace sink.
///
/// # Examples
///
/// ```
/// use axmemo_compiler::trace::TraceCapture;
/// use axmemo_sim::{builder::ProgramBuilder, cpu::{Machine, SimConfig, Simulator}};
///
/// let mut b = ProgramBuilder::new();
/// b.movi(1, 7).halt();
/// let p = b.build().unwrap();
/// let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
/// let mut m = Machine::new(64);
/// let mut cap = TraceCapture::new();
/// sim.run_reference(&p, &mut m, Some(&mut cap)).unwrap();
/// assert_eq!(cap.events().len(), 2); // movi + halt
/// ```
#[derive(Debug, Default)]
pub struct TraceCapture {
    events: Vec<TraceEvent>,
    /// Optional cap to bound memory on long runs (0 = unbounded).
    limit: usize,
}

impl TraceCapture {
    /// Unbounded capture.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capture at most `limit` events (the rest of the run is dropped;
    /// profiling sample sets comfortably fit).
    pub fn with_limit(limit: usize) -> Self {
        Self {
            events: Vec::new(),
            limit,
        }
    }

    /// The recorded events in commit order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Consume the capture, returning the events.
    pub fn into_events(self) -> Vec<TraceEvent> {
        self.events
    }
}

impl TraceSink for TraceCapture {
    fn record(&mut self, pc: usize, inst: &Inst, wrote: Option<(u8, u64)>, addr: Option<u64>) {
        if self.limit != 0 && self.events.len() >= self.limit {
            return;
        }
        self.events.push(TraceEvent {
            pc,
            inst: *inst,
            wrote,
            addr,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axmemo_sim::builder::ProgramBuilder;
    use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
    use axmemo_sim::ir::{IAluOp, Operand};

    fn run_capture(cap: &mut TraceCapture) {
        let mut b = ProgramBuilder::new();
        b.movi(1, 1);
        b.alu(IAluOp::Add, 2, 1, Operand::Imm(2));
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(64);
        sim.run_reference(&p, &mut m, Some(cap)).unwrap();
    }

    #[test]
    fn records_pc_and_written_values() {
        let mut cap = TraceCapture::new();
        run_capture(&mut cap);
        let ev = cap.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].pc, 0);
        assert_eq!(ev[0].wrote, Some((1, 1)));
        assert_eq!(ev[1].wrote, Some((2, 3)));
        assert_eq!(ev[2].wrote, None); // halt
    }

    #[test]
    fn limit_caps_recording() {
        let mut cap = TraceCapture::with_limit(1);
        run_capture(&mut cap);
        assert_eq!(cap.events().len(), 1);
    }
}
