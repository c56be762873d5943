//! Dynamic data dependence graph (DDDG) construction — the ALADDIN
//! substitute (§5 step 2).
//!
//! A DDDG `G = (V, E)` is a DAG whose vertices are dynamic instruction
//! instances and whose edges are true (read-after-write) dependencies.
//! Each vertex is weighted by its estimated latency. Register renaming
//! is implicit (we track the last dynamic writer of each architectural
//! register), so the graph captures true dependencies only; memory
//! dependencies are tracked through a last-store map per address.
//!
//! Only value-producing instructions become vertices. Stores mark their
//! address so later loads depend on them; branches and markers are not
//! vertices (control flow is outside the dataflow graph, as in the
//! paper's Fig. 6 where the subgraph is pure dataflow).

use crate::trace::TraceEvent;
use axmemo_sim::ir::{Inst, NUM_REGS};
use axmemo_sim::pipeline::LatencyModel;
use std::collections::HashMap;

/// Vertex identifier (index into [`Dddg::vertices`]).
pub type VertexId = usize;

/// One DDDG vertex: a dynamic, value-producing instruction instance.
#[derive(Debug, Clone)]
pub struct Vertex {
    /// Static instruction id (program counter).
    pub pc: usize,
    /// The instruction.
    pub inst: Inst,
    /// Estimated latency (vertex weight; Fig. 6's parenthesised numbers).
    pub weight: u64,
    /// Producer vertices (true dependencies).
    pub inputs: Vec<VertexId>,
    /// Consumer vertices (filled after construction).
    pub outputs: Vec<VertexId>,
    /// Value this instance produced (for error profiling).
    pub value: u64,
    /// Whether this vertex is a memory load (a natural memoization
    /// input boundary).
    pub is_load: bool,
}

/// The dynamic data dependence graph.
#[derive(Debug, Clone, Default)]
pub struct Dddg {
    /// Vertices in dynamic (topological) order.
    pub vertices: Vec<Vertex>,
}

impl Dddg {
    /// Build the DDDG from a captured trace, weighting vertices with
    /// `latency`.
    pub fn from_trace(events: &[TraceEvent], latency: &LatencyModel) -> Self {
        let mut vertices: Vec<Vertex> = Vec::new();
        // Last dynamic writer of each architectural register.
        let mut reg_writer: [Option<VertexId>; NUM_REGS] = [None; NUM_REGS];
        // Last store to each address (loads depend on it).
        let mut mem_writer: HashMap<u64, VertexId> = HashMap::new();

        for ev in events {
            let (weight, is_vertex, is_load) = classify(&ev.inst, latency);
            if !is_vertex {
                // Stores update the memory writer map through their own
                // producing vertex... stores are not value producers but
                // loads must see them; record the *producer of the stored
                // value* as the dependency.
                if let Inst::St { rs, .. } = ev.inst {
                    if let (Some(addr), Some(w)) = (ev.addr, reg_writer[rs as usize]) {
                        mem_writer.insert(addr, w);
                    }
                }
                continue;
            }
            let id = vertices.len();
            let mut inputs = Vec::new();
            for src in source_regs(&ev.inst) {
                if let Some(w) = reg_writer[src as usize] {
                    if !inputs.contains(&w) {
                        inputs.push(w);
                    }
                }
            }
            if is_load {
                if let Some(addr) = ev.addr {
                    if let Some(&w) = mem_writer.get(&addr) {
                        if !inputs.contains(&w) {
                            inputs.push(w);
                        }
                    }
                }
            }
            let value = ev.wrote.map(|(_, v)| v).unwrap_or(0);
            vertices.push(Vertex {
                pc: ev.pc,
                inst: ev.inst,
                weight,
                inputs,
                outputs: Vec::new(),
                value,
                is_load,
            });
            if let Some((rd, _)) = ev.wrote {
                reg_writer[rd as usize] = Some(id);
            }
        }
        // Fill consumer lists.
        let edges: Vec<(VertexId, VertexId)> = vertices
            .iter()
            .enumerate()
            .flat_map(|(i, v)| v.inputs.iter().map(move |&p| (p, i)))
            .collect();
        for (p, c) in edges {
            vertices[p].outputs.push(c);
        }
        Self { vertices }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// Total vertex weight (denominator of memoization coverage).
    pub fn total_weight(&self) -> u64 {
        self.vertices.iter().map(|v| v.weight).sum()
    }

    /// Export the graph in Graphviz dot format (the Fig. 6 view).
    /// Vertices are labelled `pc:mnemonic (weight)`; an optional set of
    /// highlighted vertices (a candidate subgraph) is filled.
    pub fn to_dot(&self, highlight: &[VertexId]) -> String {
        use core::fmt::Write as _;
        let hl: std::collections::HashSet<VertexId> = highlight.iter().copied().collect();
        let mut out = String::from("digraph dddg {\n  rankdir=TB;\n  node [shape=box];\n");
        for (i, v) in self.vertices.iter().enumerate() {
            let style = if hl.contains(&i) {
                ", style=filled, fillcolor=lightgrey"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  n{i} [label=\"{}: {} ({})\"{style}];",
                v.pc,
                mnemonic(&v.inst),
                v.weight
            );
        }
        for (i, v) in self.vertices.iter().enumerate() {
            for &p in &v.inputs {
                let _ = writeln!(out, "  n{p} -> n{i};");
            }
        }
        out.push_str("}\n");
        out
    }
}

/// Short mnemonic for dot labels.
fn mnemonic(inst: &Inst) -> &'static str {
    match inst {
        Inst::IAlu { .. } => "alu",
        Inst::FBin { .. } => "fop",
        Inst::FUn { .. } => "funop",
        Inst::Ld { .. } | Inst::MemoLdCrc { .. } => "load",
        Inst::MovImm { .. } | Inst::Mov { .. } => "mov",
        _ => "other",
    }
}

/// (weight, is-a-vertex, is-a-load) classification for an instruction.
fn classify(inst: &Inst, lat: &LatencyModel) -> (u64, bool, bool) {
    match *inst {
        Inst::IAlu { op, .. } => (lat.ialu(op).0, true, false),
        Inst::FBin { op, .. } => (lat.fbin(op).0, true, false),
        Inst::FUn { op, .. } => (lat.fun(op).0, true, false),
        Inst::Ld { .. } | Inst::MemoLdCrc { .. } => (1, true, true),
        Inst::MovImm { .. } | Inst::Mov { .. } => (1, true, false),
        // Control flow, stores, memoization ops, markers: not dataflow
        // vertices.
        _ => (0, false, false),
    }
}

/// Architectural source registers read by an instruction.
fn source_regs(inst: &Inst) -> Vec<u8> {
    use axmemo_sim::ir::Operand;
    match *inst {
        Inst::IAlu { ra, rb, .. } => match rb {
            Operand::Reg(r) => vec![ra, r],
            Operand::Imm(_) => vec![ra],
        },
        Inst::FBin { ra, rb, .. } => vec![ra, rb],
        Inst::FUn { ra, .. } => vec![ra],
        Inst::Ld { base, .. } | Inst::MemoLdCrc { base, .. } => vec![base],
        Inst::Mov { ra, .. } => vec![ra],
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCapture;
    use axmemo_sim::builder::ProgramBuilder;
    use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
    use axmemo_sim::ir::{FBinOp, IAluOp, MemWidth, Operand};

    fn trace_of(build: impl FnOnce(&mut ProgramBuilder)) -> Vec<TraceEvent> {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(4096);
        let mut cap = TraceCapture::new();
        sim.run_reference(&p, &mut m, Some(&mut cap)).unwrap();
        cap.into_events()
    }

    #[test]
    fn true_dependencies_form_edges() {
        let ev = trace_of(|b| {
            b.movi(1, 2); // v0
            b.movi(2, 3); // v1
            b.alu(IAluOp::Add, 3, 1, Operand::Reg(2)); // v2 <- v0, v1
            b.alu(IAluOp::Mul, 4, 3, Operand::Reg(3)); // v3 <- v2
        });
        let g = Dddg::from_trace(&ev, &LatencyModel::default());
        assert_eq!(g.len(), 4);
        assert_eq!(g.vertices[2].inputs, vec![0, 1]);
        assert_eq!(g.vertices[3].inputs, vec![2]);
        assert!(g.vertices[2].outputs.contains(&3));
    }

    #[test]
    fn renaming_tracks_last_writer() {
        let ev = trace_of(|b| {
            b.movi(1, 2); // v0
            b.movi(1, 5); // v1 overwrites r1
            b.alu(IAluOp::Add, 2, 1, Operand::Imm(0)); // v2 <- v1 only
        });
        let g = Dddg::from_trace(&ev, &LatencyModel::default());
        assert_eq!(g.vertices[2].inputs, vec![1]);
    }

    #[test]
    fn loads_depend_on_stores_to_same_address() {
        let ev = trace_of(|b| {
            b.movi(1, 0x100); // v0 addr
            b.movi(2, 42); // v1 value
            b.st(MemWidth::B4, 2, 1, 0); // store (not a vertex)
            b.ld(MemWidth::B4, 3, 1, 0); // v2: load <- v1 (through memory)
        });
        let g = Dddg::from_trace(&ev, &LatencyModel::default());
        let load = &g.vertices[2];
        assert!(load.is_load);
        assert!(load.inputs.contains(&1), "load inputs: {:?}", load.inputs);
    }

    #[test]
    fn weights_follow_latency_model() {
        let ev = trace_of(|b| {
            b.movf(1, 1.0);
            b.fun(axmemo_sim::ir::FUnOp::Exp, 2, 1);
            b.fbin(FBinOp::Add, 3, 2, 2);
        });
        let g = Dddg::from_trace(&ev, &LatencyModel::default());
        let lat = LatencyModel::default();
        assert_eq!(g.vertices[1].weight, lat.fp_libm);
        assert_eq!(g.vertices[2].weight, lat.fp_op);
        assert_eq!(g.total_weight(), 1 + lat.fp_libm + lat.fp_op);
    }

    #[test]
    fn dot_export_contains_all_vertices_and_edges() {
        let ev = trace_of(|b| {
            b.movi(1, 2);
            b.alu(IAluOp::Add, 2, 1, Operand::Reg(1));
        });
        let g = Dddg::from_trace(&ev, &LatencyModel::default());
        let dot = g.to_dot(&[1]);
        assert!(dot.starts_with("digraph dddg {"));
        assert!(dot.contains("n0 ["));
        assert!(dot.contains("n0 -> n1;"));
        assert!(dot.contains("fillcolor=lightgrey"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn branches_and_stores_are_not_vertices() {
        let ev = trace_of(|b| {
            b.movi(1, 1);
            let l = b.label("x");
            b.bind(l);
            b.st(MemWidth::B4, 1, 1, 0);
        });
        let g = Dddg::from_trace(&ev, &LatencyModel::default());
        assert_eq!(g.len(), 1); // only the movi
    }
}
