//! Hierarchical phase profiler with cycle attribution.
//!
//! Where the metrics registry answers "how often" and spans answer
//! "when", the profiler answers "where do the cycles go": a tree of
//! *phases* (a fixed enum, so the hot path indexes an array instead of
//! hashing strings) each accumulating entry counts, exclusive
//! **simulated cycles**, and inclusive **host nanoseconds**, plus a
//! per-superblock attribution table for the threaded interpreter.
//!
//! Three recording shapes:
//!
//! * [`Profiler::enter`] / [`Profiler::exit_cycles`] bracket a phase
//!   that *contains* other phases (`run`, `dispatch`). The bracketed
//!   phase is charged the cycles not already charged to its children,
//!   so exclusive cycles never double-count.
//! * [`Profiler::leaf`] charges a childless phase in one call with no
//!   host-clock read — this is the only shape on the simulator's hot
//!   path, and it costs one branch, one array index, and two adds.
//! * [`Profiler::block_retire`] attributes cycles/instructions to a
//!   basic block of the current program.
//!
//! [`Profiler::snapshot`] flattens the tree into a [`Profile`]: a
//! deterministic path-keyed map that merges associatively
//! ([`Profile::merge`]) so a sweep orchestrator can fold per-job
//! profiles in job-index order and get the same bytes at any worker
//! count. The JSON and folded renderers emit **only** deterministic
//! data (cycles and counts); host nanoseconds appear in the text
//! renderer alone, following the same discipline as the bench layer's
//! `text_note` (host-dependent values never reach machine-readable
//! output).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::event::escape_json;

/// Fixed set of profiled phases. Array-indexed on the hot path; the
/// wire name ([`PhaseId::name`]) is what appears in reports and folded
/// stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum PhaseId {
    /// One whole benchmark run (baseline excluded; the profiler rides
    /// the telemetry handle, which only the memoized leg carries).
    Run = 0,
    /// The interpreter dispatch loop (threaded or legacy).
    Dispatch,
    /// CRC stalls: cycles an issue waits on the CRC unit (a `lookup`
    /// waiting for its LUT's queued inputs to be hashed, or an
    /// `ld_crc`/`reg_crc` waiting on a full input queue). Entered once
    /// per feed and per lookup.
    CrcBeat,
    /// L1 LUT set search on lookup (every probe pays this).
    LutL1Search,
    /// L2 LUT probe (only when the L1 set search missed and an L2
    /// exists, or on an L2 hit).
    LutL2Probe,
    /// LUT update (insert on miss-fill; counted, 0 cycles: the op
    /// writes no register, so no issue waits on it).
    LutUpdate,
    /// LUT eviction / L2 spill (counted, 0 cycles: it rides the update
    /// or lookup that triggered it).
    LutEvict,
    /// LUT invalidation at region end (counted, 0 cycles, as for
    /// [`PhaseId::LutUpdate`]).
    LutInvalidate,
    /// Quality-monitor work: hit sampling, output comparisons,
    /// degradation/re-enable probes (counted; no modelled hardware
    /// cycles of its own).
    Quality,
    /// Cycles retired inside fused superblocks by the threaded-code
    /// tier, recorded as a leaf under [`PhaseId::Dispatch`]. What the
    /// dispatch phase keeps as *exclusive* time is then exactly the
    /// unfused residue: outer-loop transfers and side exits.
    DispatchThreaded,
}

/// Number of distinct [`PhaseId`]s (size of per-node child arrays).
pub const PHASE_COUNT: usize = 10;

impl PhaseId {
    /// Every phase, in enum (= report) order.
    pub const ALL: [PhaseId; PHASE_COUNT] = [
        PhaseId::Run,
        PhaseId::Dispatch,
        PhaseId::CrcBeat,
        PhaseId::LutL1Search,
        PhaseId::LutL2Probe,
        PhaseId::LutUpdate,
        PhaseId::LutEvict,
        PhaseId::LutInvalidate,
        PhaseId::Quality,
        PhaseId::DispatchThreaded,
    ];

    /// Wire name used in reports and folded-stack paths.
    pub fn name(self) -> &'static str {
        match self {
            PhaseId::Run => "run",
            PhaseId::Dispatch => "dispatch",
            PhaseId::CrcBeat => "crc.beat",
            PhaseId::LutL1Search => "lut.l1.search",
            PhaseId::LutL2Probe => "lut.l2.probe",
            PhaseId::LutUpdate => "lut.update",
            PhaseId::LutEvict => "lut.evict",
            PhaseId::LutInvalidate => "lut.invalidate",
            PhaseId::Quality => "quality.monitor",
            PhaseId::DispatchThreaded => "dispatch.threaded",
        }
    }
}

/// Sentinel for "no child node" in the per-node child arrays.
const NO_NODE: u32 = u32::MAX;

/// One node of the live phase tree.
#[derive(Debug, Clone)]
struct Node {
    children: [u32; PHASE_COUNT],
    count: u64,
    self_cycles: u64,
    incl_ns: u64,
}

impl Node {
    fn new() -> Self {
        Self {
            children: [NO_NODE; PHASE_COUNT],
            count: 0,
            self_cycles: 0,
            incl_ns: 0,
        }
    }
}

/// One open stack frame: the node being timed, its host start time,
/// and the cycles its children have charged since it was entered (so
/// [`Profiler::exit_cycles`] can compute the exclusive share).
#[derive(Debug)]
struct Frame {
    node: u32,
    start: Instant,
    charged: u64,
}

/// Per-block attribution counters (threaded interpreter, one per superblock).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStat {
    /// Times the block was entered.
    pub entries: u64,
    /// Simulated cycles retired while executing the block.
    pub cycles: u64,
    /// Dynamic instructions retired in the block.
    pub insts: u64,
}

/// Block attribution for one program label: the static PC range of
/// every basic block plus its accumulated [`BlockStat`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockProfile {
    /// `[start, end)` instruction-index range of each block.
    pub ranges: Vec<(u32, u32)>,
    /// Accumulated counters, indexed like `ranges`.
    pub stats: Vec<BlockStat>,
}

/// Aggregated per-phase statistics in a [`Profile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Times the phase was entered.
    pub count: u64,
    /// Exclusive simulated cycles (not charged to any child phase).
    pub cycles: u64,
    /// Inclusive simulated cycles: `cycles` plus every descendant's
    /// inclusive cycles. Maintained through [`Profile::merge`] because
    /// both sides add element-wise.
    pub total: u64,
    /// Inclusive host nanoseconds measured at phase exit. Zero for
    /// [`Profiler::leaf`] phases (no host-clock read on the hot path)
    /// — host time is text-report-only and never serialized.
    pub ns: u64,
}

/// The low-overhead hierarchical phase profiler.
///
/// Disabled by default ([`Profiler::default`]); every recording method
/// is then a single branch. Enable with [`Profiler::enable`] (or ride
/// `Telemetry::take_profile` from the bench layer).
#[derive(Debug, Default)]
pub struct Profiler {
    on: bool,
    /// Node 0 is the virtual root (present whenever enabled).
    nodes: Vec<Node>,
    stack: Vec<Frame>,
    label: String,
    block_tables: Vec<(String, BlockProfile)>,
    current_blocks: Option<usize>,
}

impl Profiler {
    /// Disabled profiler (every method a no-op).
    pub fn off() -> Self {
        Self::default()
    }

    /// Enabled profiler, ready to record.
    pub fn enabled() -> Self {
        let mut p = Self::default();
        p.enable();
        p
    }

    /// Whether this profiler records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Turn recording on (idempotent).
    pub fn enable(&mut self) {
        self.on = true;
        if self.nodes.is_empty() {
            self.nodes.push(Node::new());
        }
    }

    /// Discard all recorded data but keep the enabled state. The
    /// budgeted runner calls this after a *failed* attempt so
    /// aggregated profiles describe exactly one successful run per
    /// cell, independent of the retry schedule.
    pub fn clear(&mut self) {
        self.nodes.clear();
        if self.on {
            self.nodes.push(Node::new());
        }
        self.stack.clear();
        self.block_tables.clear();
        self.current_blocks = None;
    }

    /// Label used for subsequently registered block tables (normally
    /// the benchmark name; set by the runner before the simulator
    /// starts).
    pub fn set_label(&mut self, label: &str) {
        if self.on {
            self.label = label.to_string();
        }
    }

    fn child(&mut self, parent: u32, phase: PhaseId) -> u32 {
        let slot = self.nodes[parent as usize].children[phase as usize];
        if slot != NO_NODE {
            return slot;
        }
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node::new());
        self.nodes[parent as usize].children[phase as usize] = idx;
        idx
    }

    #[inline]
    fn top_node(&self) -> u32 {
        self.stack.last().map_or(0, |f| f.node)
    }

    /// Open `phase` as a child of the innermost open phase (or of the
    /// root) and start its host-time clock.
    pub fn enter(&mut self, phase: PhaseId) {
        if !self.on {
            return;
        }
        let node = self.child(self.top_node(), phase);
        self.nodes[node as usize].count += 1;
        self.stack.push(Frame {
            node,
            start: Instant::now(),
            charged: 0,
        });
    }

    /// Close the innermost open phase, recording host time only (its
    /// exclusive cycles stay whatever its children left uncharged —
    /// used on failure paths where no trustworthy total exists).
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let Some(frame) = self.stack.pop() else {
            return;
        };
        self.nodes[frame.node as usize].incl_ns += frame.start.elapsed().as_nanos() as u64;
        if let Some(parent) = self.stack.last_mut() {
            parent.charged += frame.charged;
        }
    }

    /// Close the innermost open phase whose *inclusive* simulated cost
    /// was `total_cycles`: the phase's exclusive share is `total_cycles`
    /// minus what its children charged while it was open (saturating —
    /// child charges can exceed the parent total when modelled unit
    /// latencies overlap pipeline time).
    pub fn exit_cycles(&mut self, total_cycles: u64) {
        if !self.on {
            return;
        }
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let node = &mut self.nodes[frame.node as usize];
        node.incl_ns += frame.start.elapsed().as_nanos() as u64;
        node.self_cycles += total_cycles.saturating_sub(frame.charged);
        if let Some(parent) = self.stack.last_mut() {
            parent.charged += total_cycles.max(frame.charged);
        }
    }

    /// Charge `cycles` to `phase` as a leaf child of the innermost open
    /// phase. No host-clock read — this is the hot-path shape.
    #[inline]
    pub fn leaf(&mut self, phase: PhaseId, cycles: u64) {
        if !self.on {
            return;
        }
        let node = self.child(self.top_node(), phase);
        let n = &mut self.nodes[node as usize];
        n.count += 1;
        n.self_cycles += cycles;
        if let Some(frame) = self.stack.last_mut() {
            frame.charged += cycles;
        }
    }

    /// Cycles the innermost open frame's children have charged so far.
    /// The threaded interpreter reads this around each superblock so it
    /// can attribute the superblock's cycle delta *minus* whatever its
    /// LUT leaves already claimed — keeping every child's exclusive
    /// share exact without any host-clock reads.
    #[inline]
    pub fn open_charged(&self) -> u64 {
        self.stack.last().map_or(0, |f| f.charged)
    }

    /// Drain every open frame (host time recorded, cycles left as
    /// charged), returning how many were open. Failure paths call this
    /// so a caught panic or watchdog trip cannot leave the stack
    /// unbalanced for the next run.
    pub fn close_open(&mut self) -> usize {
        let mut closed = 0;
        while !self.stack.is_empty() {
            self.exit();
            closed += 1;
        }
        closed
    }

    /// Register (or re-attach to) the block table for the current
    /// label. Stats accumulate across repeated runs of the same
    /// program; a label whose ranges changed gets a fresh table (the
    /// full ranges are compared, not just the count, so two range
    /// tables of the same size never alias).
    pub fn begin_blocks(&mut self, ranges: &[(u32, u32)]) {
        if !self.on {
            return;
        }
        if let Some(idx) = self
            .block_tables
            .iter()
            .position(|(label, b)| *label == self.label && b.ranges == ranges)
        {
            self.current_blocks = Some(idx);
            return;
        }
        self.block_tables.push((
            self.label.clone(),
            BlockProfile {
                ranges: ranges.to_vec(),
                stats: vec![BlockStat::default(); ranges.len()],
            },
        ));
        self.current_blocks = Some(self.block_tables.len() - 1);
    }

    /// Attribute one execution of block `index` of the current block
    /// table: `cycles` simulated cycles and `insts` retired
    /// instructions. No-op when no table is active.
    #[inline]
    pub fn block_retire(&mut self, index: usize, cycles: u64, insts: u64) {
        if !self.on {
            return;
        }
        let Some(table) = self.current_blocks else {
            return;
        };
        let Some(stat) = self.block_tables[table].1.stats.get_mut(index) else {
            return;
        };
        stat.entries += 1;
        stat.cycles += cycles;
        stat.insts += insts;
    }

    /// Flatten the recorded tree into a [`Profile`]. Open frames (there
    /// should be none at snapshot time) contribute their counts and
    /// already-charged cycles but no host time.
    pub fn snapshot(&self) -> Profile {
        let mut phases = BTreeMap::new();
        if !self.nodes.is_empty() {
            let root = &self.nodes[0];
            for phase in PhaseId::ALL {
                let child = root.children[phase as usize];
                if child != NO_NODE {
                    emit_node(&self.nodes, child, phase, "", &mut phases);
                }
            }
        }
        let mut blocks = BTreeMap::new();
        for (label, table) in &self.block_tables {
            merge_blocks(&mut blocks, label, table);
        }
        Profile { phases, blocks }
    }
}

/// Recursively emit `node` (reached via `phase`) under `prefix`,
/// returning the subtree's inclusive cycles.
fn emit_node(
    nodes: &[Node],
    node: u32,
    phase: PhaseId,
    prefix: &str,
    out: &mut BTreeMap<String, PhaseStat>,
) -> u64 {
    let n = &nodes[node as usize];
    let name = folded_escape(phase.name());
    let path = if prefix.is_empty() {
        name
    } else {
        format!("{prefix};{name}")
    };
    let mut child_total = 0u64;
    for p in PhaseId::ALL {
        let c = n.children[p as usize];
        if c != NO_NODE {
            child_total += emit_node(nodes, c, p, &path, out);
        }
    }
    let total = n.self_cycles + child_total;
    out.insert(
        path,
        PhaseStat {
            count: n.count,
            cycles: n.self_cycles,
            total,
            ns: n.incl_ns,
        },
    );
    total
}

fn merge_blocks(into: &mut BTreeMap<String, BlockProfile>, label: &str, table: &BlockProfile) {
    match into.get_mut(label) {
        Some(mine) if mine.ranges == table.ranges => {
            for (m, o) in mine.stats.iter_mut().zip(&table.stats) {
                m.entries += o.entries;
                m.cycles += o.cycles;
                m.insts += o.insts;
            }
        }
        Some(_) => {} // shape mismatch: keep the first table's attribution
        None => {
            into.insert(label.to_string(), table.clone());
        }
    }
}

/// Escape one folded-stack path segment: `;` separates frames and a
/// space separates the stack from its value, so both are rewritten
/// (`;` → `,`, space → `_`). Phase names contain neither; this guards
/// future label-derived segments.
pub fn folded_escape(segment: &str) -> String {
    segment.replace(';', ",").replace(' ', "_")
}

/// An immutable, mergeable snapshot of a profiler run: phase paths
/// (`;`-joined, BTreeMap-ordered) → [`PhaseStat`], plus per-program
/// block attribution. All cross-run aggregation happens on this type.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Phase tree flattened to `;`-joined paths, e.g.
    /// `run;dispatch;crc.beat`.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Per-program-label block attribution.
    pub blocks: BTreeMap<String, BlockProfile>,
}

impl Profile {
    /// Whether the profile holds no data at all.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.blocks.is_empty()
    }

    /// Fold `other` into `self`: phase stats add element-wise per path;
    /// block tables add element-wise per label when shapes agree (a
    /// mismatched shape keeps `self`'s table). Addition is commutative
    /// and associative, so any merge order over any partition of the
    /// same runs produces identical bytes.
    pub fn merge(&mut self, other: &Profile) {
        for (path, stat) in &other.phases {
            let mine = self.phases.entry(path.clone()).or_default();
            mine.count += stat.count;
            mine.cycles += stat.cycles;
            mine.total += stat.total;
            mine.ns += stat.ns;
        }
        for (label, table) in &other.blocks {
            merge_blocks(&mut self.blocks, label, table);
        }
    }

    /// Inferno-compatible folded-stack lines: one `path value` line per
    /// phase with its **exclusive** cycles (so a flamegraph's widths
    /// add up without double counting), in deterministic path order.
    /// Block attribution is not emitted here — block cycles overlap
    /// the phase charges, and double-counted stacks would mis-scale
    /// the flamegraph; use the text/JSON renderers for blocks.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for (path, stat) in &self.phases {
            let _ = writeln!(out, "{path} {}", stat.cycles);
        }
        out
    }

    /// Deterministic JSON: phase paths with counts and cycles, plus
    /// block tables. Host nanoseconds are deliberately absent (host
    /// time may differ between byte-identical runs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"phases\":[");
        for (i, (path, stat)) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"path\":\"");
            escape_json(path, &mut out);
            let _ = write!(
                out,
                "\",\"count\":{},\"cycles\":{},\"total\":{}}}",
                stat.count, stat.cycles, stat.total
            );
        }
        out.push_str("],\"blocks\":{");
        for (i, (label, table)) in self.blocks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json(label, &mut out);
            out.push_str("\":{\"ranges\":[");
            for (j, (start, end)) in table.ranges.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "[{start},{end}]");
            }
            out.push_str("],\"stats\":[");
            for (j, stat) in table.stats.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"entries\":{},\"cycles\":{},\"insts\":{}}}",
                    stat.entries, stat.cycles, stat.insts
                );
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Human-readable report: the phase tree (indented, with counts,
    /// exclusive/inclusive cycles and host milliseconds when measured)
    /// followed by the top hot blocks of every program.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.phases.is_empty() {
            out.push_str("== profile: phases ==\n");
            let name_w = self
                .phases
                .keys()
                .map(|p| leaf_name(p).len() + 2 * depth_of(p))
                .max()
                .unwrap_or(0)
                .max("phase".len());
            let _ = writeln!(
                out,
                "  {:<name_w$}  {:>12}  {:>14}  {:>14}  {:>10}",
                "phase", "count", "self-cycles", "total-cycles", "host-ms"
            );
            for (path, stat) in &self.phases {
                let indent = 2 * depth_of(path);
                let label = format!("{:indent$}{}", "", leaf_name(path));
                let ms = stat.ns as f64 / 1e6;
                let _ = writeln!(
                    out,
                    "  {label:<name_w$}  {:>12}  {:>14}  {:>14}  {:>10.3}",
                    stat.count, stat.cycles, stat.total, ms
                );
            }
        }
        for (label, table) in &self.blocks {
            let mut order: Vec<usize> = (0..table.stats.len())
                .filter(|&i| table.stats[i].entries > 0)
                .collect();
            order.sort_by(|&a, &b| {
                table.stats[b]
                    .cycles
                    .cmp(&table.stats[a].cycles)
                    .then(a.cmp(&b))
            });
            if order.is_empty() {
                continue;
            }
            let _ = writeln!(out, "== profile: hot blocks ({label}) ==");
            let _ = writeln!(
                out,
                "  {:>5}  {:>14}  {:>12}  {:>14}  {:>14}",
                "block", "pc", "entries", "cycles", "insts"
            );
            for &i in order.iter().take(10) {
                let (start, end) = table.ranges.get(i).copied().unwrap_or((0, 0));
                let stat = &table.stats[i];
                let _ = writeln!(
                    out,
                    "  {i:>5}  {:>14}  {:>12}  {:>14}  {:>14}",
                    format!("[{start}..{end})"),
                    stat.entries,
                    stat.cycles,
                    stat.insts
                );
            }
        }
        out
    }
}

fn depth_of(path: &str) -> usize {
    path.matches(';').count()
}

fn leaf_name(path: &str) -> &str {
    path.rsplit(';').next().unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> Profile {
        let mut p = Profiler::enabled();
        p.enter(PhaseId::Run);
        p.enter(PhaseId::Dispatch);
        p.leaf(PhaseId::CrcBeat, 10);
        p.leaf(PhaseId::LutL1Search, 6);
        p.leaf(PhaseId::LutL1Search, 6);
        p.exit_cycles(100);
        p.exit_cycles(120);
        p.snapshot()
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::off();
        p.enter(PhaseId::Run);
        p.leaf(PhaseId::CrcBeat, 10);
        p.exit_cycles(100);
        p.begin_blocks(&[(0, 4)]);
        p.block_retire(0, 5, 3);
        assert!(p.snapshot().is_empty());
        assert!(!p.is_enabled());
    }

    #[test]
    fn exclusive_cycles_subtract_child_charges() {
        let profile = sample_profile();
        let run = profile.phases["run"];
        let dispatch = profile.phases["run;dispatch"];
        let crc = profile.phases["run;dispatch;crc.beat"];
        let l1 = profile.phases["run;dispatch;lut.l1.search"];
        assert_eq!(
            crc,
            PhaseStat {
                count: 1,
                cycles: 10,
                total: 10,
                ns: 0
            }
        );
        assert_eq!(l1.count, 2);
        assert_eq!(l1.cycles, 12);
        // Dispatch ran 100 cycles inclusive; 22 went to leaves.
        assert_eq!(dispatch.cycles, 78);
        assert_eq!(dispatch.total, 100);
        // Run wraps dispatch: 20 exclusive cycles of its own.
        assert_eq!(run.cycles, 20);
        assert_eq!(run.total, 120);
        assert_eq!(run.count, 1);
    }

    #[test]
    fn inclusive_never_below_exclusive_and_children_sum_exactly() {
        let profile = sample_profile();
        for (path, stat) in &profile.phases {
            assert!(stat.total >= stat.cycles, "{path}: {stat:?}");
            // Direct children's inclusive cycles sum to parent
            // inclusive minus parent exclusive.
            let child_sum: u64 = profile
                .phases
                .iter()
                .filter(|(p, _)| {
                    p.starts_with(&format!("{path};")) && depth_of(p) == depth_of(path) + 1
                })
                .map(|(_, s)| s.total)
                .sum();
            assert_eq!(stat.total - stat.cycles, child_sum, "{path}");
        }
    }

    #[test]
    fn overcharged_parent_saturates_to_zero_exclusive() {
        let mut p = Profiler::enabled();
        p.enter(PhaseId::Dispatch);
        p.leaf(PhaseId::CrcBeat, 500);
        p.exit_cycles(100); // modelled latencies overlapped pipeline time
        let profile = p.snapshot();
        assert_eq!(profile.phases["dispatch"].cycles, 0);
        // Inclusive is derived from the subtree, so it still covers the
        // children: invariants hold even when saturation kicked in.
        assert_eq!(profile.phases["dispatch"].total, 500);
    }

    #[test]
    fn merge_is_associative_and_matches_whole() {
        let a = sample_profile();
        let b = sample_profile();
        let c = sample_profile();
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.phases["run"].total, 360);
        assert_eq!(left.phases["run"].count, 3);
    }

    #[test]
    fn merge_into_empty_is_identity() {
        let a = sample_profile();
        let mut agg = Profile::default();
        agg.merge(&a);
        assert_eq!(agg, a);
    }

    #[test]
    fn folded_escape_rewrites_separators() {
        assert_eq!(folded_escape("lut.l1.search"), "lut.l1.search");
        assert_eq!(folded_escape("a;b c"), "a,b_c");
        assert_eq!(folded_escape(";; "), ",,_");
    }

    #[test]
    fn folded_lines_are_stack_space_value() {
        let profile = sample_profile();
        let folded = profile.render_folded();
        for line in folded.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack<space>value");
            assert!(!stack.is_empty());
            value.parse::<u64>().expect("u64 value");
        }
        assert!(
            folded.contains("run;dispatch;lut.l1.search 12\n"),
            "{folded}"
        );
        assert!(folded.contains("run;dispatch 78\n"), "{folded}");
        assert!(folded.contains("run 20\n"), "{folded}");
    }

    #[test]
    fn to_json_pins_the_exact_schema() {
        let mut p = Profiler::enabled();
        p.set_label("fft");
        p.enter(PhaseId::Run);
        p.begin_blocks(&[(0, 4), (4, 9)]);
        p.block_retire(0, 12, 4);
        p.block_retire(1, 30, 5);
        p.block_retire(0, 12, 4);
        p.leaf(PhaseId::LutUpdate, 3);
        p.exit_cycles(60);
        // Host time is measured but never serialized.
        assert_eq!(
            p.snapshot().to_json(),
            concat!(
                r#"{"phases":[{"path":"run","count":1,"cycles":57,"total":60},"#,
                r#"{"path":"run;lut.update","count":1,"cycles":3,"total":3}],"#,
                r#""blocks":{"fft":{"ranges":[[0,4],[4,9]],"#,
                r#""stats":[{"entries":2,"cycles":24,"insts":8},"#,
                r#"{"entries":1,"cycles":30,"insts":5}]}}}"#,
            )
        );
    }

    #[test]
    fn close_open_drains_all_frames() {
        let mut p = Profiler::enabled();
        p.enter(PhaseId::Run);
        p.enter(PhaseId::Dispatch);
        p.leaf(PhaseId::CrcBeat, 7);
        assert_eq!(p.close_open(), 2);
        assert_eq!(p.close_open(), 0);
        let profile = p.snapshot();
        // Counts and leaf charges survive; no totals were invented.
        assert_eq!(profile.phases["run;dispatch;crc.beat"].cycles, 7);
        assert_eq!(profile.phases["run"].count, 1);
        // A fresh run after recovery nests cleanly at the top level.
        p.enter(PhaseId::Run);
        p.exit_cycles(50);
        assert_eq!(p.snapshot().phases["run"].cycles, 50);
    }

    #[test]
    fn clear_discards_data_but_stays_enabled() {
        let mut p = Profiler::enabled();
        p.enter(PhaseId::Run);
        p.leaf(PhaseId::CrcBeat, 7);
        p.clear();
        assert!(p.is_enabled());
        assert!(p.snapshot().is_empty());
        assert_eq!(p.close_open(), 0, "clear drops open frames too");
    }

    #[test]
    fn block_tables_accumulate_per_label_and_merge() {
        let mut p = Profiler::enabled();
        p.set_label("sobel");
        p.begin_blocks(&[(0, 3)]);
        p.block_retire(0, 10, 3);
        // Re-attaching to the same label accumulates.
        p.begin_blocks(&[(0, 3)]);
        p.block_retire(0, 10, 3);
        let a = p.snapshot();
        assert_eq!(a.blocks["sobel"].stats[0].entries, 2);
        let mut agg = a.clone();
        agg.merge(&a);
        assert_eq!(agg.blocks["sobel"].stats[0].cycles, 40);
        // Out-of-range retire indices are ignored, not a panic.
        p.block_retire(99, 1, 1);
    }

    #[test]
    fn text_report_lists_phases_and_hot_blocks() {
        let mut p = Profiler::enabled();
        p.set_label("fft");
        p.enter(PhaseId::Run);
        p.begin_blocks(&[(0, 4), (4, 9)]);
        p.block_retire(1, 30, 5);
        p.leaf(PhaseId::CrcBeat, 3);
        p.exit_cycles(60);
        let text = p.snapshot().render_text();
        assert!(text.contains("== profile: phases =="), "{text}");
        assert!(text.contains("crc.beat"), "{text}");
        assert!(text.contains("== profile: hot blocks (fft) =="), "{text}");
        assert!(text.contains("[4..9)"), "{text}");
        // Never-entered blocks are omitted.
        assert!(!text.contains("[0..4)"), "{text}");
    }
}
