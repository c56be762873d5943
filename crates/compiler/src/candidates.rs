//! Candidate subgraph search (§5 step 3).
//!
//! An *AxMemo-transformable* candidate subgraph `S` of the DDDG is a
//! vertex set that can be replaced by a LUT access without disturbing
//! the rest of the program: every edge entering `S` lands on an input
//! vertex, every edge leaving `S` departs from an output vertex. The
//! desirability of `S` is its **compute-to-input ratio**
//!
//! ```text
//! CI_Ratio = Σ_{v ∈ S} weight(v) / #inputs(S)
//! ```
//!
//! The search runs a directed breadth-first growth rooted at each vertex
//! of the transpose graph (i.e. growing backward from a sole output
//! vertex toward producers), keeping the best-ratio subgraph per root.
//! Candidates are then filtered for structural uniqueness (identical
//! static-pc signatures, e.g. loop iterations), subset-pruned, and
//! overlapping survivors merged — producing the Table 1 statistics.

use crate::dddg::{Dddg, VertexId};
use std::collections::{BTreeSet, HashMap, HashSet};

/// One candidate subgraph (dynamic instance).
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Vertices in the subgraph (dynamic ids).
    pub vertices: Vec<VertexId>,
    /// The sole output vertex the search was rooted at.
    pub output: VertexId,
    /// Number of external inputs (distinct producers outside `S` plus
    /// load vertices' memory inputs).
    pub num_inputs: usize,
    /// Total vertex weight.
    pub weight: u64,
    /// Sorted static-pc signature (structural identity).
    pub signature: Vec<usize>,
}

impl Candidate {
    /// Compute-to-input ratio (Equation 1).
    pub fn ci_ratio(&self) -> f64 {
        self.weight as f64 / self.num_inputs.max(1) as f64
    }
}

/// Search parameters.
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Maximum inputs AxMemo hardware supports per memoized block.
    pub max_inputs: usize,
    /// Minimum CI_Ratio for a candidate to be kept.
    pub min_ci_ratio: f64,
    /// Minimum vertices in a candidate (trivial one-op blocks are not
    /// worth a lookup).
    pub min_vertices: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            max_inputs: 16,
            min_ci_ratio: 4.0,
            min_vertices: 3,
        }
    }
}

/// Table 1 row: the aggregate analysis of one benchmark's DDDG.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisSummary {
    /// Total dynamic candidate subgraphs found.
    pub total_dynamic_subgraphs: usize,
    /// Unique subgraphs after structural dedup + subset pruning + merge.
    pub unique_subgraphs: usize,
    /// Mean CI_Ratio over the filtered unique candidates.
    pub mean_ci_ratio: f64,
    /// Memoization coverage: weight of candidate vertices over total
    /// graph weight.
    pub coverage: f64,
}

/// Find the best candidate rooted at `output` by backward BFS growth.
///
/// A producer joins `S` only if *all* of its consumers are already in
/// `S` (otherwise it would need to be a second output). Growth runs
/// until no producer qualifies, whatever the input count; the kept
/// candidate is the growth-order prefix with the best CI_Ratio among
/// those with at most `max_inputs` inputs and at least `min_vertices`
/// vertices.
fn grow_from(g: &Dddg, output: VertexId, cfg: &SearchConfig) -> Option<Candidate> {
    let mut in_s: HashSet<VertexId> = HashSet::from([output]);
    let mut order: Vec<VertexId> = vec![output];
    let mut best: Option<(f64, usize)> = None; // (ratio, order length)

    loop {
        // Record current state if eligible.
        let (inputs, weight) = measure(g, &in_s);
        if inputs <= cfg.max_inputs && order.len() >= cfg.min_vertices {
            let ratio = weight as f64 / inputs.max(1) as f64;
            if best.map(|(r, _)| ratio > r).unwrap_or(true) {
                best = Some((ratio, order.len()));
            }
        }
        // Frontier: producers of S not yet in S whose consumers are all
        // inside S.
        let mut next: Option<VertexId> = None;
        for &v in &order {
            for &p in &g.vertices[v].inputs {
                if in_s.contains(&p) {
                    continue;
                }
                let consumers_inside = g.vertices[p].outputs.iter().all(|c| in_s.contains(c));
                if consumers_inside {
                    next = Some(p);
                    break;
                }
            }
            if next.is_some() {
                break;
            }
        }
        match next {
            Some(p) => {
                in_s.insert(p);
                order.push(p);
            }
            None => break,
        }
    }

    let (_, keep) = best?;
    let kept: HashSet<VertexId> = order[..keep].iter().copied().collect();
    let (inputs, weight) = measure(g, &kept);
    let mut vertices: Vec<VertexId> = kept.into_iter().collect();
    vertices.sort_unstable();
    let mut signature: Vec<usize> = vertices.iter().map(|&v| g.vertices[v].pc).collect();
    signature.sort_unstable();
    let cand = Candidate {
        vertices,
        output,
        num_inputs: inputs,
        weight,
        signature,
    };
    (cand.ci_ratio() >= cfg.min_ci_ratio).then_some(cand)
}

/// Count external inputs and total weight of a vertex set.
fn measure(g: &Dddg, s: &HashSet<VertexId>) -> (usize, u64) {
    let mut ext: BTreeSet<VertexId> = BTreeSet::new();
    let mut weight = 0;
    let mut load_inputs = 0usize;
    for &v in s {
        weight += g.vertices[v].weight;
        for &p in &g.vertices[v].inputs {
            if !s.contains(&p) {
                ext.insert(p);
            }
        }
        // A load inside S brings one memory input into the block.
        if g.vertices[v].is_load {
            load_inputs += 1;
        }
    }
    (ext.len() + load_inputs, weight)
}

/// Run the full search: one growth per vertex, then dedup/subset/merge.
pub fn find_candidates(g: &Dddg, cfg: &SearchConfig) -> Vec<Candidate> {
    let mut all = Vec::new();
    for v in 0..g.len() {
        if let Some(c) = grow_from(g, v, cfg) {
            all.push(c);
        }
    }
    all
}

/// Structural dedup (identical static signatures), subset pruning, and
/// overlap merging — §5's filtering step. Returns the unique candidates.
pub fn filter_unique(candidates: &[Candidate]) -> Vec<Candidate> {
    // Dedup by signature, keeping the first dynamic instance.
    let mut by_sig: HashMap<Vec<usize>, Candidate> = HashMap::new();
    for c in candidates {
        by_sig
            .entry(c.signature.clone())
            .or_insert_with(|| c.clone());
    }
    let mut unique: Vec<Candidate> = by_sig.into_values().collect();
    // Subset pruning: drop candidates whose signature is a subset of
    // another's.
    unique.sort_by_key(|c| std::cmp::Reverse(c.signature.len()));
    let mut kept: Vec<Candidate> = Vec::new();
    for c in unique {
        let c_set: HashSet<usize> = c.signature.iter().copied().collect();
        let subset_of_kept = kept.iter().any(|k| {
            let k_set: HashSet<usize> = k.signature.iter().copied().collect();
            c_set.is_subset(&k_set)
        });
        if !subset_of_kept {
            kept.push(c);
        }
    }
    kept
}

/// Merge unique candidates whose static signatures overlap heavily
/// (§5: "we merge the remaining subgraphs with high overlap to create
/// larger subgraphs for better memoization efficiency"). Two candidates
/// merge when the Jaccard similarity of their signatures exceeds
/// `threshold`; merging unions the signatures and sums the weights.
pub fn merge_overlapping(candidates: &[Candidate], threshold: f64) -> Vec<Candidate> {
    let mut pool: Vec<Candidate> = candidates.to_vec();
    loop {
        let mut merged_any = false;
        'outer: for i in 0..pool.len() {
            for j in i + 1..pool.len() {
                let a: HashSet<usize> = pool[i].signature.iter().copied().collect();
                let b: HashSet<usize> = pool[j].signature.iter().copied().collect();
                let inter = a.intersection(&b).count();
                let union = a.union(&b).count();
                if union == 0 {
                    continue;
                }
                let jaccard = inter as f64 / union as f64;
                if jaccard >= threshold {
                    let second = pool.remove(j);
                    let first = &mut pool[i];
                    let mut sig: Vec<usize> = a.union(&b).copied().collect();
                    sig.sort_unstable();
                    // Union of vertex sets; weight of the union counted
                    // once per vertex.
                    let mut verts: Vec<VertexId> = first
                        .vertices
                        .iter()
                        .chain(second.vertices.iter())
                        .copied()
                        .collect();
                    verts.sort_unstable();
                    verts.dedup();
                    first.vertices = verts;
                    first.signature = sig;
                    first.num_inputs = first.num_inputs.max(second.num_inputs);
                    first.weight = first.weight.max(second.weight);
                    merged_any = true;
                    break 'outer;
                }
            }
        }
        if !merged_any {
            return pool;
        }
    }
}

/// Produce the Table 1 summary for one benchmark's DDDG.
pub fn analyze(g: &Dddg, cfg: &SearchConfig) -> AnalysisSummary {
    let dynamic = find_candidates(g, cfg);
    let unique = merge_overlapping(&filter_unique(&dynamic), 0.5);
    let mean_ci_ratio = if unique.is_empty() {
        0.0
    } else {
        unique.iter().map(Candidate::ci_ratio).sum::<f64>() / unique.len() as f64
    };
    // Coverage: weight of vertices belonging to any dynamic candidate.
    let mut covered: HashSet<VertexId> = HashSet::new();
    for c in &dynamic {
        covered.extend(c.vertices.iter().copied());
    }
    let covered_weight: u64 = covered.iter().map(|&v| g.vertices[v].weight).sum();
    let total = g.total_weight();
    AnalysisSummary {
        total_dynamic_subgraphs: dynamic.len(),
        unique_subgraphs: unique.len(),
        mean_ci_ratio,
        coverage: if total == 0 {
            0.0
        } else {
            covered_weight as f64 / total as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceCapture;
    use axmemo_sim::builder::ProgramBuilder;
    use axmemo_sim::cpu::{Machine, SimConfig, Simulator};
    use axmemo_sim::ir::{Cond, FBinOp, FUnOp, IAluOp, MemWidth, Operand};
    use axmemo_sim::pipeline::LatencyModel;

    fn dddg_of(build: impl FnOnce(&mut ProgramBuilder)) -> Dddg {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        b.halt();
        let p = b.build().unwrap();
        let mut sim = Simulator::new(SimConfig::baseline()).unwrap();
        let mut m = Machine::new(4096);
        let mut cap = TraceCapture::new();
        sim.run_reference(&p, &mut m, Some(&mut cap)).unwrap();
        Dddg::from_trace(cap.events(), &LatencyModel::default())
    }

    /// An expensive chain with two inputs: exp(x) * log(y) + x.
    fn expensive_block(b: &mut ProgramBuilder) {
        b.movi(10, 0x100);
        b.ld(MemWidth::B4, 1, 10, 0); // x
        b.ld(MemWidth::B4, 2, 10, 4); // y
        b.fun(FUnOp::Exp, 3, 1);
        b.fun(FUnOp::Log, 4, 2);
        b.fbin(FBinOp::Mul, 5, 3, 4);
        b.fbin(FBinOp::Add, 6, 5, 1);
        b.st(MemWidth::B4, 6, 10, 8);
    }

    #[test]
    fn finds_high_ci_block() {
        let g = dddg_of(expensive_block);
        let cands = find_candidates(&g, &SearchConfig::default());
        assert!(!cands.is_empty());
        let best = cands
            .iter()
            .max_by(|a, b| a.ci_ratio().total_cmp(&b.ci_ratio()))
            .unwrap();
        // The exp+log+mul+add chain should be found with few inputs.
        assert!(best.weight >= 90, "weight {}", best.weight);
        assert!(best.num_inputs <= 4, "inputs {}", best.num_inputs);
        assert!(best.ci_ratio() > 20.0, "ratio {}", best.ci_ratio());
    }

    #[test]
    fn loop_iterations_dedup_to_one_unique() {
        let g = dddg_of(|b| {
            b.movi(20, 0).movi(21, 8).movi(10, 0x100);
            let top = b.label("top");
            b.bind(top);
            b.ld(MemWidth::B4, 1, 10, 0);
            b.fun(FUnOp::Exp, 2, 1);
            b.fbin(FBinOp::Mul, 3, 2, 2);
            b.fbin(FBinOp::Add, 4, 3, 2);
            b.st(MemWidth::B4, 4, 10, 4);
            b.alu(IAluOp::Add, 20, 20, Operand::Imm(1));
            b.branch(Cond::LtS, 20, Operand::Reg(21), top);
        });
        let cfg = SearchConfig {
            min_ci_ratio: 2.0,
            ..SearchConfig::default()
        };
        let dynamic = find_candidates(&g, &cfg);
        let unique = filter_unique(&dynamic);
        assert!(dynamic.len() >= 8, "dynamic {}", dynamic.len());
        // All 8 iterations share one structure (plus perhaps the loop
        // counter chain).
        assert!(unique.len() <= 3, "unique {}", unique.len());
    }

    #[test]
    fn subset_candidates_are_pruned() {
        let g = dddg_of(expensive_block);
        let cands = find_candidates(&g, &SearchConfig::default());
        let unique = filter_unique(&cands);
        // No kept signature may be a strict subset of another.
        for (i, a) in unique.iter().enumerate() {
            for (j, b) in unique.iter().enumerate() {
                if i == j {
                    continue;
                }
                let a_set: std::collections::HashSet<_> = a.signature.iter().collect();
                let b_set: std::collections::HashSet<_> = b.signature.iter().collect();
                assert!(!a_set.is_subset(&b_set), "candidate {i} ⊂ {j}");
            }
        }
    }

    #[test]
    fn analyze_reports_coverage() {
        let g = dddg_of(expensive_block);
        let s = analyze(&g, &SearchConfig::default());
        assert!(s.total_dynamic_subgraphs >= 1);
        assert!(s.unique_subgraphs >= 1);
        assert!(s.coverage > 0.5, "coverage {}", s.coverage);
        assert!(s.coverage <= 1.0);
        assert!(s.mean_ci_ratio > 0.0);
    }

    #[test]
    fn merge_unions_heavily_overlapping_candidates() {
        let mk = |sig: Vec<usize>| Candidate {
            vertices: sig.clone(),
            output: *sig.last().unwrap(),
            num_inputs: 2,
            weight: sig.len() as u64 * 10,
            signature: sig,
        };
        // 4/5 overlap: merges. Disjoint: survives separately.
        let a = mk(vec![1, 2, 3, 4]);
        let b = mk(vec![2, 3, 4, 5]);
        let c = mk(vec![100, 101]);
        let merged = merge_overlapping(&[a, b, c], 0.5);
        assert_eq!(merged.len(), 2);
        let big = merged.iter().find(|m| m.signature.len() == 5).unwrap();
        assert_eq!(big.signature, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn merge_with_high_threshold_is_identity() {
        let mk = |sig: Vec<usize>| Candidate {
            vertices: sig.clone(),
            output: *sig.last().unwrap(),
            num_inputs: 2,
            weight: 10,
            signature: sig,
        };
        let cands = vec![mk(vec![1, 2]), mk(vec![2, 3])];
        let merged = merge_overlapping(&cands, 0.99);
        assert_eq!(merged.len(), 2);
    }

    #[test]
    fn low_reuse_graph_yields_no_candidates() {
        // Cheap ALU-only chain: CI ratio below threshold.
        let g = dddg_of(|b| {
            b.movi(1, 1);
            b.alu(IAluOp::Add, 2, 1, Operand::Imm(1));
            b.alu(IAluOp::Add, 3, 2, Operand::Imm(1));
        });
        let cands = find_candidates(&g, &SearchConfig::default());
        assert!(cands.is_empty());
    }
}
