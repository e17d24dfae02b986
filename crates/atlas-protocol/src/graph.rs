//! Dependency-graph command executor (Algorithm 3 of the paper).
//!
//! Committed commands carry a set of dependencies (identifiers of conflicting
//! commands). A command may only execute after its dependencies have executed
//! or in the same *batch* as them; inside a batch, commands follow the fixed
//! total order on [`Dot`]s. Batches correspond to strongly connected
//! components of the dependency graph restricted to not-yet-executed
//! commands, executed in (reverse) topological order — i.e. dependencies
//! first. Because processes agree on each command's final dependencies
//! (Invariant 1), every process forms the same batches (Invariant 4) and
//! therefore executes conflicting commands in the same order.
//!
//! The executor is incremental: each committed command triggers a bounded
//! closure search instead of a full-graph recomputation, and commands blocked
//! on a not-yet-committed dependency are indexed so they are retried exactly
//! when that dependency commits.

use atlas_core::{Command, DepSet, Dot, IdMap, IdSet, ProcessId};
use serde::{Deserialize, Serialize};

/// Outcome of adding a committed command to the executor: the list of
/// commands that became executable, in execution order.
pub type ExecutionBatch = Vec<(Dot, Command)>;

/// Compact encoding of the graph's executed set — the protocol's
/// executed-state marker shipped to a wiped peer during catch-up base
/// transfer (see `Protocol::save_executed`). Every dot `⟨s, 1..=f⟩` for
/// `(s, f)` in `frontiers` is executed, plus every dot listed in `above`;
/// nothing else is.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutedMarker {
    /// Contiguous executed prefix per source, sorted by source; sources
    /// with an empty prefix are omitted.
    pub frontiers: Vec<(ProcessId, u64)>,
    /// Executed dots above their source's frontier (out-of-order
    /// executions whose predecessors have not all executed yet), sorted.
    pub above: Vec<Dot>,
}

/// State of a vertex in the dependency graph.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Vertex {
    cmd: Command,
    deps: DepSet,
}

/// What is executed of one source's identifier space.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
struct Marks {
    source: ProcessId,
    /// Contiguous executed prefix: every `⟨source, 1..=frontier⟩` executed.
    frontier: u64,
    /// Compaction floor (≤ the frontier), see `compact_below`.
    floor: u64,
}

/// Incremental dependency-graph executor.
///
/// ```
/// use atlas_core::{Command, Dot, Rifl};
/// use atlas_protocol::graph::DependencyGraph;
///
/// let mut graph = DependencyGraph::new();
/// let a = Dot::new(1, 1);
/// let b = Dot::new(2, 1);
/// // b depends on a, a has no dependencies (Figure 1 of the paper).
/// let executed = graph.commit(b, Command::put(Rifl::new(1, 1), 0, 1, 8), vec![a]);
/// assert!(executed.is_empty()); // blocked: a not committed yet
/// let executed = graph.commit(a, Command::put(Rifl::new(2, 1), 0, 2, 8), vec![]);
/// let order: Vec<_> = executed.iter().map(|(dot, _)| *dot).collect();
/// assert_eq!(order, vec![a, b]); // a executes before b everywhere
/// ```
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct DependencyGraph {
    /// Committed but not yet executed vertices.
    pending: IdMap<Dot, Vertex>,
    /// Per-source marks, sorted by source (a handful: a scan beats a hash).
    marks: Vec<Marks>,
    /// Dots executed *above* their source's frontier — out of order, so
    /// usually none. With the frontiers this is the whole executed set: a
    /// command executed in order costs the graph no memory.
    above: IdSet<Dot>,
    /// For each not-yet-committed dot, the committed dots blocked on it.
    waiting_on: IdMap<Dot, IdSet<Dot>>,
    /// Total number of executed commands.
    executed_count: u64,
    /// Batches (strongly connected components) executed so far, and the
    /// commands in them, `noOp`s included.
    batches: (u64, u64),
}

impl DependencyGraph {
    /// Creates an empty executor.
    pub fn new() -> Self {
        Self::default()
    }

    fn marks_of(&self, source: ProcessId) -> Marks {
        let found = self.marks.iter().find(|m| m.source == source);
        found.copied().unwrap_or_default()
    }

    fn marks_mut(&mut self, source: ProcessId) -> &mut Marks {
        let at = self.marks.partition_point(|m| m.source < source);
        if self.marks.get(at).is_none_or(|m| m.source != source) {
            let fresh = Marks::default();
            self.marks.insert(at, Marks { source, ..fresh });
        }
        &mut self.marks[at]
    }

    /// Whether `dot` has already been executed.
    pub fn is_executed(&self, dot: &Dot) -> bool {
        dot.seq <= self.executed_frontier(dot.source) || self.above.contains(dot)
    }

    /// The compaction floor for `source`: every dot of `source` at or below
    /// it is executed and has been garbage-collected.
    pub fn floor_of(&self, source: ProcessId) -> u64 {
        self.marks_of(source).floor
    }

    /// The contiguous executed prefix of `source`'s identifier space: every
    /// dot `⟨source, 1..=frontier⟩` has been executed here.
    pub fn executed_frontier(&self, source: ProcessId) -> u64 {
        self.marks_of(source).frontier
    }

    /// Raises the compaction floor to `horizon` (per source), clamped to
    /// the source's frontier, so a (buggy or malicious) horizon can never
    /// imply execution of a dot that did not execute. Returns how many
    /// identifiers the floor newly covers; idempotent and monotone.
    pub fn compact_below(&mut self, horizon: &[(ProcessId, u64)]) -> u64 {
        let mut covered = 0;
        for &(source, h) in horizon {
            if let Some(marks) = self.marks.iter_mut().find(|m| m.source == source) {
                let floor = h.min(marks.frontier);
                covered += floor.saturating_sub(marks.floor);
                marks.floor = marks.floor.max(floor);
            }
        }
        covered
    }

    /// Serializes the executed set as an [`ExecutedMarker`] (deterministic:
    /// both halves sorted).
    pub fn executed_marker(&self) -> ExecutedMarker {
        let marks = self.marks.iter().filter(|m| m.frontier > 0);
        let mut above: Vec<Dot> = self.above.iter().copied().collect();
        above.sort_unstable();
        ExecutedMarker {
            frontiers: marks.map(|m| (m.source, m.frontier)).collect(),
            above,
        }
    }

    /// Installs a peer's [`ExecutedMarker`] into a **fresh** graph (catch-up
    /// base transfer): the marked dots are treated as executed — and as
    /// already garbage-collected up to each frontier — so replaying the
    /// peer's pending commits on top never re-executes what the transferred
    /// store already reflects. Returns `false` (and changes nothing) if this
    /// graph has already executed anything.
    pub fn restore_marker(&mut self, marker: &ExecutedMarker) -> bool {
        if self.executed_count > 0 {
            return false;
        }
        for &(source, frontier) in &marker.frontiers {
            let marks = self.marks_mut(source);
            (marks.frontier, marks.floor) = (frontier, frontier);
            self.executed_count += frontier;
        }
        for dot in &marker.above {
            if !self.is_executed(dot) {
                self.mark_executed(*dot);
            }
        }
        true
    }

    /// Whether `dot` is committed (possibly already executed, including
    /// dots below the compaction floor).
    pub fn is_committed(&self, dot: &Dot) -> bool {
        self.is_executed(dot) || self.pending.contains_key(dot)
    }

    /// Number of committed-but-not-executed commands.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Total number of executed commands.
    pub fn executed_count(&self) -> u64 {
        self.executed_count
    }

    /// `(batches, commands)` executed by this graph so far: their quotient
    /// is the mean execution batch size.
    pub fn batches(&self) -> (u64, u64) {
        self.batches
    }

    /// The dots that some committed command is waiting for (i.e. dependencies
    /// that have not been committed here yet). Used to trigger recovery of
    /// missing commands after a coordinator failure.
    pub fn missing_dependencies(&self) -> Vec<Dot> {
        self.waiting_on
            .iter()
            .filter(|(dot, waiters)| !waiters.is_empty() && !self.is_committed(dot))
            .map(|(dot, _)| *dot)
            .collect()
    }

    /// Registers the committed command `dot` with dependencies `deps` and
    /// returns every command that became executable, in execution order.
    ///
    /// `noOp` commands participate in the graph (they unblock their
    /// dependants) but are filtered out of the returned batch since they must
    /// not be applied to the state machine.
    pub fn commit(&mut self, dot: Dot, cmd: Command, deps: Vec<Dot>) -> ExecutionBatch {
        let mut executed = Vec::new();
        self.commit_with(dot, cmd, deps.into(), &mut |dot, cmd| {
            executed.push((dot, cmd))
        });
        executed
    }

    /// [`commit`](Self::commit) as the engine calls it: the set it already
    /// holds, and each execution handed to `out` instead of collected.
    pub(crate) fn commit_with(
        &mut self,
        dot: Dot,
        cmd: Command,
        deps: DepSet,
        out: &mut impl FnMut(Dot, Command),
    ) {
        if self.is_committed(&dot) {
            // Duplicate MCommit deliveries are possible (e.g. after recovery);
            // they must be idempotent.
            return;
        }
        let waiters = self.waiting_on.remove(&dot);
        let mut candidates = Vec::new();
        if deps.iter().all(|dep| *dep == dot || self.is_executed(dep)) {
            // Nothing to wait for and nothing to order against: a batch of
            // one, executed without a walk. This is almost every commit.
            self.batches.0 += 1;
            self.execute(dot, cmd, out);
        } else {
            self.pending.insert(dot, Vertex { cmd, deps });
            candidates.push(dot);
        }
        // Then everything that was blocked waiting for it.
        candidates.extend(waiters.into_iter().flatten());
        // Vertices a failed walk of this very call proved blocked, mapped to
        // the uncommitted dot they (transitively) depend on. Lets sibling
        // candidates short-circuit instead of re-walking the same blocked
        // region — without it, a long dependency chain committed in reverse
        // order costs a full closure walk per waiter per commit (cubic
        // overall).
        let mut blocked_on: IdMap<Dot, Dot> = IdMap::default();
        for candidate in candidates {
            if self.pending.contains_key(&candidate) && !blocked_on.contains_key(&candidate) {
                self.try_execute(candidate, &mut blocked_on, out);
            }
        }
    }

    /// Marks `dot` executed, advancing its source's contiguous prefix over
    /// whatever run of consecutive sequences is now executed.
    fn mark_executed(&mut self, dot: Dot) {
        self.executed_count += 1;
        let at = self.marks_mut(dot.source).frontier + 1;
        if dot.seq != at {
            self.above.insert(dot);
            return;
        }
        let mut frontier = at;
        while self.above.remove(&Dot::new(dot.source, frontier + 1)) {
            frontier += 1;
        }
        self.marks_mut(dot.source).frontier = frontier;
    }

    /// Executes one member of the current batch.
    fn execute(&mut self, dot: Dot, cmd: Command, out: &mut impl FnMut(Dot, Command)) {
        self.batches.1 += 1;
        self.mark_executed(dot);
        self.waiting_on.remove(&dot);
        if !cmd.is_noop() {
            out(dot, cmd);
        }
    }

    /// Attempts to execute the closure of `root`; hands executed commands
    /// (in order) to `out`. On failure (the closure reaches an uncommitted
    /// dot), indexes the DFS path on that dot and records it in `blocked_on`.
    fn try_execute(
        &mut self,
        root: Dot,
        blocked_on: &mut IdMap<Dot, Dot>,
        out: &mut impl FnMut(Dot, Command),
    ) {
        // 1. Compute the closure of `root` over non-executed dependencies,
        //    with a DFS that tracks its current path: on a missing (or
        //    known-blocked) dependency, every vertex on the path transitively
        //    reaches it, so all of them can be indexed at once.
        let mut closure: Vec<Dot> = Vec::new();
        let mut seen: IdSet<Dot> = IdSet::default();
        // DFS frames: (vertex, its dependencies, next dependency position).
        let mut path: Vec<(Dot, DepSet, usize)> = Vec::new();
        seen.insert(root);
        closure.push(root);
        let root_deps = self
            .pending
            .get(&root)
            .expect("candidate must be pending")
            .deps
            .clone();
        path.push((root, root_deps, 0));

        let mut missing: Option<Dot> = None;
        'walk: while let Some((_, deps, pos)) = path.last_mut() {
            let Some(&next) = deps.as_slice().get(*pos) else {
                path.pop();
                continue;
            };
            *pos += 1;
            if self.is_executed(&next) || !seen.insert(next) {
                continue;
            }
            if let Some(&m) = blocked_on.get(&next) {
                // `next` was proven blocked on `m` earlier in this commit
                // call; everything on the current path reaches `next`.
                missing = Some(m);
                break 'walk;
            }
            match self.pending.get(&next) {
                Some(vertex) => {
                    closure.push(next);
                    let deps = vertex.deps.clone();
                    path.push((next, deps, 0));
                }
                None => {
                    // An uncommitted dependency: the walk (and everything on
                    // its path) must wait for it.
                    missing = Some(next);
                    break 'walk;
                }
            }
        }
        if let Some(missing) = missing {
            let waiters = self.waiting_on.entry(missing).or_default();
            for (dot, _, _) in &path {
                waiters.insert(*dot);
                blocked_on.insert(*dot, missing);
            }
            return;
        }

        // 2. All closure members are committed: find strongly connected
        //    components and execute them dependencies-first.
        let sccs = tarjan_sccs(&closure, |dot| {
            let deps = self.pending.get(dot).map(|v| v.deps.iter().copied());
            deps.into_iter()
                .flatten()
                .filter(|d| seen.contains(d) && !self.is_executed(d))
                .collect()
        });

        // Tarjan emits SCCs in reverse topological order of the condensation,
        // i.e. an SCC is emitted only after everything it depends on. That is
        // exactly execution order.
        for mut scc in sccs {
            // Inside a batch, commands follow the fixed total order `<` on
            // identifiers (Algorithm 3, line 55).
            scc.sort_unstable();
            self.batches.0 += 1;
            for dot in scc {
                let vertex = self
                    .pending
                    .remove(&dot)
                    .expect("closure member must be pending");
                self.execute(dot, vertex.cmd, out);
            }
        }
    }
}

/// Iterative Tarjan strongly-connected-components over the vertices in
/// `vertices`, with successors given by `successors`. Returns the SCCs in
/// reverse topological order (dependencies before dependants).
fn tarjan_sccs(vertices: &[Dot], mut successors: impl FnMut(&Dot) -> Vec<Dot>) -> Vec<Vec<Dot>> {
    #[derive(Default, Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }

    let mut state: IdMap<Dot, NodeState> = IdMap::default();
    state.reserve(vertices.len());
    let mut next_index = 0usize;
    let mut stack: Vec<Dot> = Vec::new();
    let mut sccs: Vec<Vec<Dot>> = Vec::new();

    // Explicit DFS stack: (node, successor list, next successor position).
    enum Frame {
        Enter(Dot),
        Continue(Dot, Vec<Dot>, usize),
    }

    for &start in vertices {
        if state.get(&start).map(|s| s.visited).unwrap_or(false) {
            continue;
        }
        let mut call_stack = vec![Frame::Enter(start)];
        while let Some(frame) = call_stack.pop() {
            match frame {
                Frame::Enter(v) => {
                    let entry = state.entry(v).or_default();
                    if entry.visited {
                        continue;
                    }
                    entry.visited = true;
                    entry.index = next_index;
                    entry.lowlink = next_index;
                    entry.on_stack = true;
                    next_index += 1;
                    stack.push(v);
                    let succs = successors(&v);
                    call_stack.push(Frame::Continue(v, succs, 0));
                }
                Frame::Continue(v, succs, mut pos) => {
                    // Update lowlink with the child we just returned from.
                    if pos > 0 {
                        let child = succs[pos - 1];
                        let child_low = state.get(&child).map(|s| s.lowlink).unwrap_or(usize::MAX);
                        let entry = state.get_mut(&v).expect("visited");
                        if child_low < entry.lowlink {
                            entry.lowlink = child_low;
                        }
                    }
                    let mut descended = false;
                    while pos < succs.len() {
                        let w = succs[pos];
                        pos += 1;
                        let w_state = state.entry(w).or_default();
                        if !w_state.visited {
                            call_stack.push(Frame::Continue(v, succs.clone(), pos));
                            call_stack.push(Frame::Enter(w));
                            descended = true;
                            break;
                        } else if w_state.on_stack {
                            let w_index = w_state.index;
                            let entry = state.get_mut(&v).expect("visited");
                            if w_index < entry.lowlink {
                                entry.lowlink = w_index;
                            }
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All successors processed: maybe emit an SCC.
                    let v_state = *state.get(&v).expect("visited");
                    if v_state.lowlink == v_state.index {
                        let mut scc = Vec::new();
                        while let Some(w) = stack.pop() {
                            state.get_mut(&w).expect("on stack").on_stack = false;
                            scc.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(scc);
                    }
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use atlas_core::Rifl;

    fn cmd(n: u64) -> Command {
        Command::put(Rifl::new(n, 1), 0, n, 8)
    }

    fn dots(batch: &ExecutionBatch) -> Vec<Dot> {
        batch.iter().map(|(dot, _)| *dot).collect()
    }

    #[test]
    fn independent_command_executes_immediately() {
        let mut g = DependencyGraph::new();
        let a = Dot::new(1, 1);
        let out = g.commit(a, cmd(1), vec![]);
        assert_eq!(dots(&out), vec![a]);
        assert!(g.is_executed(&a));
        assert_eq!(g.executed_count(), 1);
    }

    #[test]
    fn figure1_commit_order_a_then_b() {
        // Final dependencies of Figure 1: dep[a] = {}, dep[b] = {a}.
        let mut g = DependencyGraph::new();
        let a = Dot::new(1, 1);
        let b = Dot::new(5, 1);
        // Processes 1 and 2 commit a first, then b: two singleton batches.
        assert_eq!(dots(&g.commit(a, cmd(1), vec![])), vec![a]);
        assert_eq!(dots(&g.commit(b, cmd(2), vec![a])), vec![b]);
        assert_eq!(g.batches(), (2, 2));
    }

    #[test]
    fn figure1_commit_order_b_then_a() {
        // Processes 3, 4 and 5 commit b first: b must wait for a.
        let mut g = DependencyGraph::new();
        let a = Dot::new(1, 1);
        let b = Dot::new(5, 1);
        assert!(g.commit(b, cmd(2), vec![a]).is_empty());
        assert!(!g.is_executed(&b));
        // When a commits, both execute — a first, in two singleton batches.
        let out = g.commit(a, cmd(1), vec![]);
        assert_eq!(dots(&out), vec![a, b]);
        assert_eq!(g.batches(), (2, 2));
    }

    #[test]
    fn mutual_dependencies_form_one_batch_ordered_by_dot() {
        // dep[a] = {b} and dep[b] = {a}: one batch, ordered by identifier.
        let mut g = DependencyGraph::new();
        let a = Dot::new(2, 1);
        let b = Dot::new(1, 1);
        assert!(g.commit(a, cmd(1), vec![b]).is_empty());
        let out = g.commit(b, cmd(2), vec![a]);
        // b = ⟨1,1⟩ < a = ⟨2,1⟩, so b executes first within the batch.
        assert_eq!(dots(&out), vec![b, a]);
        assert_eq!(g.batches(), (1, 2));
    }

    #[test]
    fn execution_order_agrees_across_commit_orders() {
        // Same final dependencies, all 6 commit orders: the execution order
        // of the three mutually dependent commands must be identical.
        let a = Dot::new(1, 1);
        let b = Dot::new(2, 1);
        let c = Dot::new(3, 1);
        let deps = |d: Dot| -> Vec<Dot> {
            // A cycle a -> b -> c -> a.
            if d == a {
                vec![b]
            } else if d == b {
                vec![c]
            } else {
                vec![a]
            }
        };
        let mut reference: Option<Vec<Dot>> = None;
        let permutations = [
            [a, b, c],
            [a, c, b],
            [b, a, c],
            [b, c, a],
            [c, a, b],
            [c, b, a],
        ];
        for perm in permutations {
            let mut g = DependencyGraph::new();
            let mut order = Vec::new();
            for d in perm {
                let out = g.commit(d, cmd(d.source as u64), deps(d));
                order.extend(dots(&out));
            }
            assert_eq!(order.len(), 3, "all commands must execute");
            match &reference {
                None => reference = Some(order),
                Some(r) => assert_eq!(&order, r),
            }
        }
    }

    #[test]
    fn duplicate_commit_is_idempotent() {
        let mut g = DependencyGraph::new();
        let a = Dot::new(1, 1);
        assert_eq!(g.commit(a, cmd(1), vec![]).len(), 1);
        assert!(g.commit(a, cmd(1), vec![]).is_empty());
        assert_eq!(g.executed_count(), 1);
    }

    #[test]
    fn noop_unblocks_but_is_not_executed() {
        let mut g = DependencyGraph::new();
        let missing = Dot::new(3, 1);
        let b = Dot::new(1, 1);
        assert!(g.commit(b, cmd(1), vec![missing]).is_empty());
        // Recovery replaces the missing command with a noOp.
        let out = g.commit(missing, Command::noop(), vec![]);
        // Only b is returned for application to the state machine.
        assert_eq!(dots(&out), vec![b]);
        assert!(g.is_executed(&missing));
        assert_eq!(g.executed_count(), 2);
    }

    #[test]
    fn long_chain_executes_in_dependency_order() {
        // At 1600 the test's own runtime is the guard: a graph that re-walks
        // the pending chain per commit (cubic in n) took about a minute.
        for n in [100u64, 1600] {
            let mut g = DependencyGraph::new();
            let dot = |i: u64| Dot::new(1, i);
            // Commit the chain backwards: i depends on i-1.
            for i in (2..=n).rev() {
                assert!(g.commit(dot(i), cmd(i), vec![dot(i - 1)]).is_empty());
            }
            let out = g.commit(dot(1), cmd(1), vec![]);
            let expected: Vec<Dot> = (1..=n).map(dot).collect();
            assert_eq!(dots(&out), expected);
        }
    }

    #[test]
    fn missing_dependencies_are_reported() {
        let mut g = DependencyGraph::new();
        let missing = Dot::new(9, 7);
        let b = Dot::new(1, 1);
        g.commit(b, cmd(1), vec![missing]);
        assert_eq!(g.missing_dependencies(), vec![missing]);
        g.commit(missing, cmd(2), vec![]);
        assert!(g.missing_dependencies().is_empty());
    }

    #[test]
    fn diamond_dependencies_execute_each_command_once() {
        // d depends on b and c, which both depend on a.
        let mut g = DependencyGraph::new();
        let a = Dot::new(1, 1);
        let b = Dot::new(2, 1);
        let c = Dot::new(3, 1);
        let d = Dot::new(4, 1);
        assert!(g.commit(d, cmd(4), vec![b, c]).is_empty());
        assert!(g.commit(b, cmd(2), vec![a]).is_empty());
        assert!(g.commit(c, cmd(3), vec![a]).is_empty());
        let out = g.commit(a, cmd(1), vec![]);
        let order = dots(&out);
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], a);
        assert_eq!(order[3], d);
        assert_eq!(g.executed_count(), 4);
    }

    #[test]
    fn unrelated_commands_do_not_wait_for_each_other() {
        let mut g = DependencyGraph::new();
        let blocked = Dot::new(1, 1);
        let free = Dot::new(2, 1);
        let missing = Dot::new(3, 1);
        assert!(g.commit(blocked, cmd(1), vec![missing]).is_empty());
        // An unrelated command must still execute immediately.
        assert_eq!(dots(&g.commit(free, cmd(2), vec![])), vec![free]);
        assert_eq!(g.pending_count(), 1);
    }

    #[test]
    fn dependency_on_executed_command_is_satisfied() {
        let mut g = DependencyGraph::new();
        let a = Dot::new(1, 1);
        let b = Dot::new(1, 2);
        g.commit(a, cmd(1), vec![]);
        // b depends on the already-executed a.
        assert_eq!(dots(&g.commit(b, cmd(2), vec![a])), vec![b]);
    }

    #[test]
    fn frontier_tracks_the_contiguous_executed_prefix() {
        let mut g = DependencyGraph::new();
        g.commit(Dot::new(1, 1), cmd(1), vec![]);
        g.commit(Dot::new(1, 3), cmd(3), vec![]);
        // Sequence 2 is missing: the frontier stops at 1.
        assert_eq!(g.executed_frontier(1), 1);
        g.commit(Dot::new(1, 2), cmd(2), vec![]);
        assert_eq!(g.executed_frontier(1), 3);
        assert_eq!(g.executed_frontier(9), 0, "unknown source has no prefix");
    }

    #[test]
    fn compaction_drops_executed_dots_but_still_reports_them_executed() {
        let mut g = DependencyGraph::new();
        for seq in 1..=5 {
            g.commit(Dot::new(1, seq), cmd(seq), vec![]);
        }
        let dropped = g.compact_below(&[(1, 3)]);
        assert_eq!(dropped, 3);
        assert_eq!(g.floor_of(1), 3);
        // Membership below the floor is implied, so duplicate commits of a
        // collected dot are still idempotent.
        assert!(g.is_executed(&Dot::new(1, 2)));
        assert!(g.commit(Dot::new(1, 2), cmd(2), vec![]).is_empty());
        assert_eq!(g.executed_count(), 5);
        // Idempotent: the same (or a lower) horizon drops nothing.
        assert_eq!(g.compact_below(&[(1, 3)]), 0);
        assert_eq!(g.compact_below(&[(1, 1)]), 0);
        assert_eq!(g.floor_of(1), 3);
    }

    #[test]
    fn compaction_is_clamped_to_the_frontier() {
        let mut g = DependencyGraph::new();
        g.commit(Dot::new(1, 1), cmd(1), vec![]);
        g.commit(Dot::new(1, 3), cmd(3), vec![]);
        // A horizon beyond the contiguous prefix must not imply execution
        // of the missing sequence 2.
        let dropped = g.compact_below(&[(1, 3)]);
        assert_eq!(dropped, 1);
        assert_eq!(g.floor_of(1), 1);
        assert!(!g.is_executed(&Dot::new(1, 2)));
        assert!(g.is_executed(&Dot::new(1, 3)), "kept in the set");
    }

    #[test]
    fn executed_marker_round_trips_into_a_fresh_graph() {
        let mut g = DependencyGraph::new();
        for seq in 1..=4 {
            g.commit(Dot::new(1, seq), cmd(seq), vec![]);
        }
        g.commit(Dot::new(2, 2), cmd(9), vec![]); // above frontier of source 2
        g.compact_below(&[(1, 2)]);
        let marker = g.executed_marker();
        assert_eq!(marker.frontiers, vec![(1, 4)]);
        assert_eq!(marker.above, vec![Dot::new(2, 2)]);

        let mut fresh = DependencyGraph::new();
        assert!(fresh.restore_marker(&marker));
        assert_eq!(fresh.executed_count(), 5);
        for seq in 1..=4 {
            assert!(fresh.is_executed(&Dot::new(1, seq)));
        }
        assert!(fresh.is_executed(&Dot::new(2, 2)));
        assert!(!fresh.is_executed(&Dot::new(2, 1)));
        // Replaying a commit the marker covers is a no-op...
        assert!(fresh.commit(Dot::new(1, 3), cmd(3), vec![]).is_empty());
        // ...while a genuinely new commit still executes.
        let out = fresh.commit(Dot::new(3, 1), cmd(7), vec![Dot::new(1, 2)]);
        assert_eq!(dots(&out), vec![Dot::new(3, 1)]);
    }

    #[test]
    fn restore_marker_refuses_a_graph_with_progress() {
        let mut g = DependencyGraph::new();
        g.commit(Dot::new(1, 1), cmd(1), vec![]);
        let marker = ExecutedMarker {
            frontiers: vec![(2, 5)],
            above: vec![],
        };
        assert!(!g.restore_marker(&marker));
        assert_eq!(g.executed_frontier(2), 0, "refused install changes nothing");
    }
}
