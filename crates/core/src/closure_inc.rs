//! Warm-started incremental selection of maximum-gain closed sets.
//!
//! The solver selects one maximum-gain closed set per loop iteration,
//! and successive iterations differ only by the last violation batch's
//! deltas: weight raises, constraint arcs and freezes. Rebuilding the
//! flow network and solving it from zero flow on every call
//! ([`crate::closure::ConstraintSystem::max_gain_closed_set`]) throws
//! that locality away.
//!
//! [`IncrementalClosure`] instead **persists the residual graph**
//! across calls. Between two selections it consumes the constraint
//! system's append-only change log ([`ConstraintSystem::gain_log`] /
//! [`ConstraintSystem::arc_log`]) and applies the corresponding
//! capacity deltas to the live residual:
//!
//! * a **capacity increase** (weight raise growing `|b·w|`, a new
//!   constraint arc, the `INF` sink arc of a freeze) keeps the current
//!   flow feasible — nothing to repair;
//! * a **capacity decrease below the current flow** (a freeze removing
//!   a positive gain arc; in general any gain shrink or sign flip) is
//!   repaired locally: the overflow is cancelled along flow-carrying
//!   paths — downstream to the sink for source-side arcs, upstream to
//!   the source for sink-side arcs — which flow conservation
//!   guarantees exist (the cancelled units belong to source→sink paths
//!   of the flow decomposition through that arc).
//!
//! With the flow feasible again, the engine augments it to a maximum
//! flow by **search-tree augmentation** (Boykov & Kolmogorov, IEEE
//! PAMI 2004). A source tree grows from `s` and a sink tree from `t`
//! over residual arcs; where the two trees touch, the path through
//! both is augmented. Arcs the augmentation saturates cut subtrees
//! off; each orphaned root is re-adopted by a neighbour in its own
//! tree whose path to the root is still intact (checked by walking
//! parent pointers, cut short by per-augmentation timestamps and
//! distance marks) or released, and released nodes re-activate their
//! tree neighbours. The trees are rebuilt once per selection; a warm
//! flow usually leaves few augmenting paths, so the source tree stays
//! near the small closure instead of every phase sweeping the whole
//! residual, as a level-graph method does.
//!
//! When no node is active, every residual arc leaving the source tree
//! ends inside it, and every tree node reaches `s` along residual tree
//! arcs. **The source tree is then exactly the set of nodes reachable
//! from `s` in the residual graph**, so the closure is read off it by a
//! flag scan in ascending vertex order, without a separate search.
//!
//! When a delta batch dirties more than `rebuild_percent` percent of
//! the vertices the engine falls back to a fresh build (mirroring the
//! checker's `max_dirty_percent`), and when no deltas are pending — the
//! common case right after a commit, which leaves the constraint system
//! untouched — the previous member list is served from cache without
//! touching a single arc.
//!
//! # Why the result is bit-identical to the from-scratch engine
//!
//! Both engines implement the canonical closure-selection rule of
//! [`crate::closure`]: *the inclusion-minimal maximum-gain closed set*,
//! extracted as the source-reachable side of the residual graph of a
//! maximum flow, listed in ascending vertex order. A maximum flow is
//! not unique, but by the Picard–Queyranne structure of minimum cuts
//! the residual source-reachable set is the same for **every** maximum
//! flow of the same capacitated network. The warm residual describes
//! the same capacities as a fresh build (cancelled arcs end at zero
//! flow and capacity-0 arcs are invisible to reachability), the
//! augmentation drives it to *a* maximum flow, and the source tree is
//! that flow's reachable set — hence the member list is identical to
//! the fresh engine's (which keeps its own Dinic), and the solver's
//! `debug_assert!` differential oracle plus the property suite in
//! `tests/properties.rs` verify exactly that on every debug-mode call.

use std::collections::VecDeque;
use std::time::Instant;

use retime::VertexId;

use crate::closure::ConstraintSystem;
use crate::incremental::PerfCounters;

const INF: i64 = i64::MAX / 4;

/// `parent` of a tree root (`s` or `t`).
const ROOT: u32 = u32::MAX;
/// `parent` of a node whose tree arc the last augmentation saturated.
const ORPHAN: u32 = u32::MAX - 1;

/// Search-tree membership of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tree {
    Free,
    Source,
    Sink,
}

/// Default rebuild threshold of the warm engine, in percent of `|V|`.
pub const DEFAULT_REBUILD_PERCENT: u32 = 50;

/// Which engine the solver uses to select max-gain closed sets
/// ([`crate::algorithm::SolverConfig::with_closure_engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosureEngine {
    /// Rebuild the flow network and run Dinic from zero flow on every
    /// closure call (the [`crate::closure`] baseline).
    Fresh,
    /// Persist the residual graph across calls ([`IncrementalClosure`]),
    /// falling back to a fresh build when a delta batch dirties more
    /// than `rebuild_percent` percent of the vertices (`0` forces the
    /// fallback on every delta, `100` never falls back).
    Warm {
        /// Dirty-vertex fallback threshold in percent of `|V|`.
        rebuild_percent: u32,
    },
}

impl Default for ClosureEngine {
    fn default() -> Self {
        ClosureEngine::Warm {
            rebuild_percent: DEFAULT_REBUILD_PERCENT,
        }
    }
}

/// The warm-started closure engine (see the module docs for the
/// algorithm and the bit-identity argument).
///
/// One instance serves one [`ConstraintSystem`] for its lifetime (the
/// solver creates one per phase); it observes mutations through the
/// system's change log, so callers only mutate the system and call
/// [`IncrementalClosure::select`].
#[derive(Debug)]
pub struct IncrementalClosure {
    rebuild_percent: u32,
    built: bool,
    /// Constraint-system vertices, including the host. Network nodes
    /// are `0..n` = vertices, `n` = source, `n + 1` = sink.
    n: usize,
    // Paired-edge residual network: forward arcs at even ids, their
    // reverse at odd ids (`e ^ 1`), like the from-scratch Dinic.
    to: Vec<u32>,
    cap: Vec<i64>,
    adj: Vec<Vec<u32>>,
    /// Edge id of the source→v arc (-1 = not created yet).
    src_edge: Vec<i32>,
    /// Edge id of the v→sink arc (-1 = not created yet).
    snk_edge: Vec<i32>,
    /// The gain `b(v)·w(v)` currently encoded in the capacities.
    gain: Vec<i64>,
    frozen: Vec<bool>,
    flow: i64,
    arc_cursor: usize,
    gain_cursor: usize,
    cached: Vec<VertexId>,
    touched: u64,
    scratch: Vec<u32>,
    // Search-tree state, sized to the network and reused by every
    // augmentation run.
    tree: Vec<Tree>,
    /// The arc from a tree node toward its parent (an id in the node's
    /// own adjacency), or [`ROOT`] / [`ORPHAN`].
    parent: Vec<u32>,
    /// Timestamp of the last time `dist` was known to be exact.
    ts: Vec<u64>,
    /// Tree-path length to the root, exact when `ts` is current.
    dist: Vec<u32>,
    /// Augmentation clock; only ever increases, so marks left by an
    /// earlier run are never mistaken for current ones.
    time: u64,
    active: Vec<bool>,
    /// Next adjacency position a node's growth scan examines; reset
    /// whenever the node is (re)activated.
    next_arc: Vec<u32>,
    queue: VecDeque<u32>,
    orphans: VecDeque<u32>,
    // Flow-cancellation search: stamped visit marks, DFS stack and the
    // path found, reused across calls.
    visit: Vec<u64>,
    visit_stamp: u64,
    stack: Vec<(u32, u32)>,
    path: Vec<u32>,
}

impl IncrementalClosure {
    /// Creates an engine with the given rebuild threshold (percent of
    /// `|V|`; see [`ClosureEngine::Warm`]). The network is built lazily
    /// on the first [`IncrementalClosure::select`].
    pub fn new(rebuild_percent: u32) -> Self {
        Self {
            rebuild_percent,
            built: false,
            n: 0,
            to: Vec::new(),
            cap: Vec::new(),
            adj: Vec::new(),
            src_edge: Vec::new(),
            snk_edge: Vec::new(),
            gain: Vec::new(),
            frozen: Vec::new(),
            flow: 0,
            arc_cursor: 0,
            gain_cursor: 0,
            cached: Vec::new(),
            touched: 0,
            scratch: Vec::new(),
            tree: Vec::new(),
            parent: Vec::new(),
            ts: Vec::new(),
            dist: Vec::new(),
            time: 0,
            active: Vec::new(),
            next_arc: Vec::new(),
            queue: VecDeque::new(),
            orphans: VecDeque::new(),
            visit: Vec::new(),
            visit_stamp: 0,
            stack: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Returns the canonical maximum-gain closed set of `system`,
    /// bit-identical to [`ConstraintSystem::max_gain_closed_set`].
    ///
    /// Applies every change-log delta recorded since the previous call,
    /// repairs and re-augments the persistent residual (or rebuilds
    /// past the threshold), and updates `perf` (`closure_calls`,
    /// `closure_arcs_touched`, `closure_fallback_full`,
    /// `closure_warm_nanos`).
    pub fn select(&mut self, system: &ConstraintSystem, perf: &mut PerfCounters) -> Vec<VertexId> {
        let t0 = Instant::now();
        self.touched = 0;
        perf.closure_calls += 1;
        if !self.built {
            self.rebuild(system);
        } else {
            let pending_arcs = system.arc_log().len() - self.arc_cursor;
            let pending_gains = system.gain_log().len() - self.gain_cursor;
            if pending_arcs + pending_gains > 0 {
                self.scratch.clear();
                self.scratch
                    .extend_from_slice(&system.gain_log()[self.gain_cursor..]);
                for &(p, q) in &system.arc_log()[self.arc_cursor..] {
                    self.scratch.push(p);
                    self.scratch.push(q);
                }
                self.scratch.sort_unstable();
                self.scratch.dedup();
                if self.scratch.len() * 100 > self.rebuild_percent as usize * self.n {
                    perf.closure_fallback_full += 1;
                    self.rebuild(system);
                } else {
                    self.apply_deltas(system);
                    self.augment_to_max();
                }
            }
            // No pending deltas: the previous extraction is still exact
            // (the system — hence the network — is unchanged), so the
            // cached member list is served without touching any arc.
        }
        perf.closure_arcs_touched += self.touched;
        perf.closure_warm_nanos += t0.elapsed().as_nanos() as u64;
        perf.member_clone_bytes += std::mem::size_of_val(self.cached.as_slice()) as u64;
        self.cached.clone()
    }

    fn source(&self) -> usize {
        self.n
    }

    fn sink(&self) -> usize {
        self.n + 1
    }

    /// Fresh build: the same network the from-scratch engine
    /// constructs, augmented from zero flow.
    fn rebuild(&mut self, system: &ConstraintSystem) {
        let n = system.len();
        self.n = n;
        let nodes = n + 2;
        // Right-size up front and reuse every buffer's capacity (and
        // the adjacency lists' inner allocations) across rebuilds — on
        // 10k+-vertex networks the warm engine's full-rebuild fallback
        // would otherwise re-allocate the whole residual each time.
        let edge_estimate = 2 * (n + system.arc_log().len());
        self.to.clear();
        self.to.reserve(edge_estimate);
        self.cap.clear();
        self.cap.reserve(edge_estimate);
        for a in self.adj.iter_mut() {
            a.clear();
        }
        self.adj.resize_with(nodes, Vec::new);
        self.tree.resize(nodes, Tree::Free);
        self.parent.resize(nodes, ROOT);
        self.ts.resize(nodes, 0);
        self.dist.resize(nodes, 0);
        self.active.resize(nodes, false);
        self.next_arc.resize(nodes, 0);
        self.visit.resize(nodes, 0);
        self.src_edge.clear();
        self.src_edge.resize(n, -1);
        self.snk_edge.clear();
        self.snk_edge.resize(n, -1);
        self.gain.clear();
        self.gain.resize(n, 0);
        self.frozen.clear();
        self.frozen.resize(n, false);
        self.frozen[0] = true;
        self.flow = 0;
        let (s, t) = (self.source(), self.sink());
        for v in 1..n {
            let v_id = VertexId::new(v);
            if system.is_frozen(v_id) {
                self.frozen[v] = true;
                self.snk_edge[v] = self.add_edge(v, t, INF) as i32;
                continue;
            }
            let g = system.gain(v_id);
            self.gain[v] = g;
            if g > 0 {
                self.src_edge[v] = self.add_edge(s, v, g) as i32;
            } else if g < 0 {
                self.snk_edge[v] = self.add_edge(v, t, -g) as i32;
            }
        }
        for &(p, q) in system.arc_log() {
            self.add_edge(p as usize, q as usize, INF);
        }
        self.arc_cursor = system.arc_log().len();
        self.gain_cursor = system.gain_log().len();
        self.built = true;
        self.augment_to_max();
    }

    /// Applies the pending change-log deltas (the dirty vertices are
    /// already collected in `scratch`) and advances the cursors.
    fn apply_deltas(&mut self, system: &ConstraintSystem) {
        let dirty = std::mem::take(&mut self.scratch);
        for &v in &dirty {
            self.apply_vertex_state(system, v as usize);
        }
        self.scratch = dirty;
        for i in self.arc_cursor..system.arc_log().len() {
            let (p, q) = system.arc_log()[i];
            self.add_edge(p as usize, q as usize, INF);
        }
        self.arc_cursor = system.arc_log().len();
        self.gain_cursor = system.gain_log().len();
    }

    /// Reconciles one vertex's source/sink capacities with its current
    /// state in the system (no-op when nothing effectively changed).
    fn apply_vertex_state(&mut self, system: &ConstraintSystem, v: usize) {
        if self.frozen[v] {
            return; // freezes are permanent; gains of frozen vertices are ignored
        }
        let v_id = VertexId::new(v);
        if system.is_frozen(v_id) {
            if self.gain[v] > 0 {
                self.set_source_cap(v, 0);
            }
            self.set_sink_cap(v, INF);
            self.frozen[v] = true;
            self.gain[v] = 0;
        } else {
            self.set_gain(v, system.gain(v_id));
        }
    }

    /// Re-encodes the gain of an unfrozen vertex `v` as its
    /// source/sink capacities.
    fn set_gain(&mut self, v: usize, g_new: i64) {
        let g_old = self.gain[v];
        if g_new == g_old {
            return;
        }
        if g_old > 0 || g_new > 0 {
            self.set_source_cap(v, g_new.max(0));
        }
        if g_old < 0 || g_new < 0 {
            self.set_sink_cap(v, (-g_new).max(0));
        }
        self.gain[v] = g_new;
    }

    fn add_edge(&mut self, from: usize, to: usize, cap: i64) -> u32 {
        self.touched += 1;
        let id = self.to.len() as u32;
        self.adj[from].push(id);
        self.to.push(to as u32);
        self.cap.push(cap);
        self.adj[to].push(id + 1);
        self.to.push(from as u32);
        self.cap.push(0);
        id
    }

    fn ensure_src_edge(&mut self, v: usize) -> usize {
        if self.src_edge[v] < 0 {
            let s = self.source();
            self.src_edge[v] = self.add_edge(s, v, 0) as i32;
        }
        self.src_edge[v] as usize
    }

    fn ensure_snk_edge(&mut self, v: usize) -> usize {
        if self.snk_edge[v] < 0 {
            let t = self.sink();
            self.snk_edge[v] = self.add_edge(v, t, 0) as i32;
        }
        self.snk_edge[v] as usize
    }

    /// Sets the total capacity of the source→v arc to `target`. When
    /// the arc's current flow exceeds `target`, the overflow is
    /// cancelled downstream (v ⇝ sink along flow-carrying arcs) first.
    fn set_source_cap(&mut self, v: usize, target: i64) {
        let e = self.ensure_src_edge(v);
        self.touched += 1;
        let flow_on = self.cap[e ^ 1];
        if target >= flow_on {
            self.cap[e] = target - flow_on;
        } else {
            let excess = flow_on - target;
            self.cancel(v, excess, true);
            self.cap[e ^ 1] = target;
            self.cap[e] = 0;
            self.flow -= excess;
        }
    }

    /// Sets the total capacity of the v→sink arc to `target`. When the
    /// arc's current flow exceeds `target`, the overflow is cancelled
    /// upstream (v ⇝ source backward along flow-carrying arcs) first.
    fn set_sink_cap(&mut self, v: usize, target: i64) {
        let e = self.ensure_snk_edge(v);
        self.touched += 1;
        let flow_on = self.cap[e ^ 1];
        if target >= flow_on {
            self.cap[e] = target - flow_on;
        } else {
            let excess = flow_on - target;
            self.cancel(v, excess, false);
            self.cap[e ^ 1] = target;
            self.cap[e] = 0;
            self.flow -= excess;
        }
    }

    /// Cancels `amount` units of flow through `start`: `downstream`
    /// follows flow-carrying forward arcs to the sink (restoring
    /// conservation after a source-side inflow cut), otherwise
    /// flow-carrying arcs are walked backward to the source (after a
    /// sink-side outflow cut). Flow decomposition guarantees the paths
    /// exist; see the module docs.
    fn cancel(&mut self, start: usize, mut amount: i64, downstream: bool) {
        let target = if downstream {
            self.sink()
        } else {
            self.source()
        };
        while amount > 0 {
            assert!(
                self.find_flow_path(start, target, downstream),
                "flow conservation guarantees a cancellation path"
            );
            let mut step = amount;
            for &e in &self.path {
                let carried = if downstream {
                    self.cap[(e ^ 1) as usize]
                } else {
                    self.cap[e as usize]
                };
                step = step.min(carried);
            }
            debug_assert!(step > 0);
            for &e in &self.path {
                if downstream {
                    self.cap[e as usize] += step;
                    self.cap[(e ^ 1) as usize] -= step;
                } else {
                    self.cap[e as usize] -= step;
                    self.cap[(e ^ 1) as usize] += step;
                }
            }
            amount -= step;
        }
    }

    /// DFS for a simple path of flow-carrying arcs from `start` to
    /// `target`, left in `self.path`; `false` when there is none.
    /// Downstream paths use forward arcs (even ids) whose reverse
    /// residual — the flow — is positive; upstream paths use reverse
    /// arcs (odd ids) whose own residual is the paired forward arc's
    /// flow.
    fn find_flow_path(&mut self, start: usize, target: usize, downstream: bool) -> bool {
        self.visit_stamp += 1;
        let stamp = self.visit_stamp;
        self.visit[start] = stamp;
        self.stack.clear();
        self.stack.push((start as u32, 0));
        self.path.clear();
        while let Some(&(node, idx)) = self.stack.last() {
            let (node, idx) = (node as usize, idx as usize);
            if idx >= self.adj[node].len() {
                self.stack.pop();
                self.path.pop();
                continue;
            }
            self.stack.last_mut().expect("non-empty stack").1 += 1;
            let e = self.adj[node][idx];
            self.touched += 1;
            let usable = if downstream {
                e.is_multiple_of(2) && self.cap[(e ^ 1) as usize] > 0
            } else {
                !e.is_multiple_of(2) && self.cap[e as usize] > 0
            };
            if !usable {
                continue;
            }
            let next = self.to[e as usize] as usize;
            if self.visit[next] == stamp {
                continue;
            }
            self.visit[next] = stamp;
            self.path.push(e);
            if next == target {
                return true;
            }
            self.stack.push((next as u32, 0));
        }
        false
    }

    /// Augments the current (feasible) flow to a maximum flow with
    /// fresh search trees, then reads the canonical closure off the
    /// final source tree into the cache.
    fn augment_to_max(&mut self) {
        let (s, t) = (self.source(), self.sink());
        self.tree.fill(Tree::Free);
        self.active.fill(false);
        self.queue.clear();
        self.orphans.clear();
        self.time += 1;
        for (root, side) in [(s, Tree::Source), (t, Tree::Sink)] {
            self.tree[root] = side;
            self.parent[root] = ROOT;
            self.ts[root] = self.time;
            self.dist[root] = 0;
            self.activate(root);
        }
        let mut current: Option<usize> = None;
        loop {
            let p = match current.take() {
                Some(p) if self.tree[p] != Tree::Free => p,
                held => {
                    if let Some(p) = held {
                        self.active[p] = false;
                    }
                    match self.next_active() {
                        Some(p) => p,
                        None => break,
                    }
                }
            };
            match self.grow(p) {
                Some(bridge) => {
                    self.time += 1;
                    self.augment(bridge);
                    self.adopt_orphans();
                    // Keep growing from `p`: it may touch the other
                    // tree again further down its adjacency.
                    current = Some(p);
                }
                None => self.active[p] = false,
            }
        }
        // The source tree is now the residual source-reachable set.
        self.cached.clear();
        for v in 1..self.n {
            if self.tree[v] == Tree::Source {
                self.cached.push(VertexId::new(v));
            }
        }
    }

    /// Marks `v` active, queueing it unless it already is, and restarts
    /// its growth scan: a node re-activated because a neighbour left
    /// its tree must look at every arc again.
    fn activate(&mut self, v: usize) {
        self.next_arc[v] = 0;
        if !self.active[v] {
            self.active[v] = true;
            self.queue.push_back(v as u32);
        }
    }

    /// Pops the next active tree node, dropping nodes that were
    /// released from their tree after being queued.
    fn next_active(&mut self) -> Option<usize> {
        while let Some(p) = self.queue.pop_front() {
            let p = p as usize;
            if self.tree[p] != Tree::Free {
                return Some(p);
            }
            self.active[p] = false;
        }
        None
    }

    /// Grows `p`'s tree over its residual arcs from the scan cursor on.
    /// Returns the source→sink-tree arc where the trees touch, if any.
    fn grow(&mut self, p: usize) -> Option<u32> {
        let side = self.tree[p];
        while (self.next_arc[p] as usize) < self.adj[p].len() {
            let e = self.adj[p][self.next_arc[p] as usize];
            self.touched += 1;
            // The residual arc between p and q in the tree's growth
            // direction: p→q for the source tree, q→p for the sink tree.
            let (residual, bridge) = match side {
                Tree::Source => (self.cap[e as usize], e),
                _ => (self.cap[(e ^ 1) as usize], e ^ 1),
            };
            if residual > 0 {
                let q = self.to[e as usize] as usize;
                if self.tree[q] == Tree::Free {
                    self.tree[q] = side;
                    self.parent[q] = e ^ 1;
                    self.ts[q] = self.ts[p];
                    self.dist[q] = self.dist[p] + 1;
                    self.activate(q);
                } else if self.tree[q] != side {
                    return Some(bridge);
                } else if self.ts[q] <= self.ts[p] && self.dist[q] > self.dist[p] {
                    // Shorten q's path through p (BK's distance heuristic).
                    self.parent[q] = e ^ 1;
                    self.ts[q] = self.ts[p];
                    self.dist[q] = self.dist[p] + 1;
                }
            }
            self.next_arc[p] += 1;
        }
        None
    }

    /// Pushes the bottleneck along `s ⇝ tail(bridge) → head(bridge) ⇝ t`
    /// through both trees, orphaning every node whose tree arc
    /// saturates.
    fn augment(&mut self, bridge: u32) {
        let bridge = bridge as usize;
        let head = self.to[bridge] as usize;
        let tail = self.to[bridge ^ 1] as usize;
        let mut step = self.cap[bridge];
        // Source-tree arcs run parent→child (`pe ^ 1`), sink-tree arcs
        // child→parent (`pe`).
        let mut v = tail;
        while self.parent[v] != ROOT {
            let pe = self.parent[v] as usize;
            step = step.min(self.cap[pe ^ 1]);
            v = self.to[pe] as usize;
        }
        let mut v = head;
        while self.parent[v] != ROOT {
            let pe = self.parent[v] as usize;
            step = step.min(self.cap[pe]);
            v = self.to[pe] as usize;
        }
        self.cap[bridge] -= step;
        self.cap[bridge ^ 1] += step;
        self.touched += 1;
        for (start, down) in [(tail, 1usize), (head, 0)] {
            let mut v = start;
            while self.parent[v] != ROOT {
                let pe = self.parent[v] as usize;
                self.touched += 1;
                self.cap[pe ^ down] -= step;
                self.cap[pe ^ down ^ 1] += step;
                if self.cap[pe ^ down] == 0 {
                    self.parent[v] = ORPHAN;
                    self.orphans.push_back(v as u32);
                }
                v = self.to[pe] as usize;
            }
        }
        self.flow += step;
    }

    /// Re-attaches every orphan to a neighbour of its own tree whose
    /// root path is intact (preferring the shortest), or releases it —
    /// re-activating the tree neighbours that could grow into it and
    /// orphaning its children.
    fn adopt_orphans(&mut self) {
        while let Some(j) = self.orphans.pop_front() {
            let j = j as usize;
            let side = self.tree[j];
            let mut best: Option<(u32, u32)> = None;
            for k in 0..self.adj[j].len() {
                let a = self.adj[j][k];
                self.touched += 1;
                let i = self.to[a as usize] as usize;
                if self.tree[i] != side || self.parent[i] == ORPHAN || !self.feeds(side, a) {
                    continue;
                }
                if let Some(d) = self.root_distance(i) {
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((a, d));
                    }
                }
            }
            if let Some((a, d)) = best {
                self.parent[j] = a;
                self.ts[j] = self.time;
                self.dist[j] = d + 1;
                continue;
            }
            self.tree[j] = Tree::Free;
            for k in 0..self.adj[j].len() {
                let a = self.adj[j][k];
                self.touched += 1;
                let i = self.to[a as usize] as usize;
                if self.tree[i] != side {
                    continue;
                }
                if self.feeds(side, a) {
                    self.activate(i);
                }
                let pi = self.parent[i];
                if pi != ROOT && pi != ORPHAN && self.to[pi as usize] as usize == j {
                    self.parent[i] = ORPHAN;
                    self.orphans.push_back(i as u32);
                }
            }
        }
    }

    /// Whether arc `a` of a node `j` in tree `side` has residual
    /// capacity in the direction that tree grows — `to[a]`→`j` for the
    /// source tree, `j`→`to[a]` for the sink tree — so `to[a]` could be
    /// `j`'s parent, or grow into `j` once `j` is released.
    fn feeds(&self, side: Tree, a: u32) -> bool {
        let a = a as usize;
        match side {
            Tree::Source => self.cap[a ^ 1] > 0,
            _ => self.cap[a] > 0,
        }
    }

    /// The tree-path length from `i` to its root, or `None` when the
    /// path runs into an orphan. Marks every node on a valid path with
    /// the current time and its exact distance, so later walks stop
    /// there.
    fn root_distance(&mut self, i: usize) -> Option<u32> {
        let mut v = i;
        let mut d = 0u32;
        loop {
            if self.ts[v] == self.time {
                d += self.dist[v];
                break;
            }
            match self.parent[v] {
                ROOT => {
                    self.ts[v] = self.time;
                    self.dist[v] = 0;
                    break;
                }
                ORPHAN => return None,
                pe => {
                    d += 1;
                    v = self.to[pe as usize] as usize;
                }
            }
        }
        let mut v = i;
        let mut dv = d;
        while self.ts[v] != self.time {
            self.ts[v] = self.time;
            self.dist[v] = dv;
            dv -= 1;
            v = self.to[self.parent[v] as usize] as usize;
        }
        Some(d)
    }

    /// Test hook: overrides the encoded gain of `v` directly (the
    /// production path only ever sees the monotone raises and freezes
    /// the change log carries; sign flips and magnitude drops are
    /// exercised through this hook).
    #[cfg(test)]
    fn force_gain(&mut self, v: usize, g_new: i64) {
        assert!(self.built && !self.frozen[v]);
        self.set_gain(v, g_new);
    }

    /// Test hook: re-optimizes after [`IncrementalClosure::force_gain`]
    /// and returns the canonical closure.
    #[cfg(test)]
    fn reoptimize(&mut self) -> Vec<VertexId> {
        self.augment_to_max();
        self.cached.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VertexId {
        VertexId::new(i)
    }

    /// Fresh oracle over explicit gains/arcs/freezes (weights all 1,
    /// so `gain == b`).
    fn fresh(gains: &[i64], arcs: &[(usize, usize)], frozen: &[usize]) -> Vec<VertexId> {
        let mut cs = ConstraintSystem::new(gains.to_vec());
        for &(p, q) in arcs {
            cs.add_arc(v(p), v(q));
        }
        for &f in frozen {
            cs.freeze(v(f));
        }
        cs.max_gain_closed_set()
    }

    /// Builds a warm engine over the same instance.
    fn warm(gains: &[i64], arcs: &[(usize, usize)]) -> (IncrementalClosure, PerfCounters) {
        let mut cs = ConstraintSystem::new(gains.to_vec());
        for &(p, q) in arcs {
            cs.add_arc(v(p), v(q));
        }
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        let got = engine.select(&cs, &mut perf);
        assert_eq!(got, fresh(gains, arcs, &[]), "initial build must agree");
        (engine, perf)
    }

    #[test]
    fn capacity_drop_below_current_flow_is_repaired() {
        // v1 (gain 10) drags v2 (gain -4): flow 4 crosses the network.
        let gains = [0, 10, -4];
        let arcs = [(1, 2)];
        let (mut engine, _) = warm(&gains, &arcs);
        assert_eq!(engine.flow, 4);
        // Drop v1's gain to 2 < flow 4: repair must cancel 2 units
        // downstream, then conclude the closure is empty (2 - 4 < 0).
        engine.force_gain(1, 2);
        assert_eq!(engine.reoptimize(), fresh(&[0, 2, -4], &arcs, &[]));
        assert!(engine.reoptimize().is_empty());
        // And back up: the drained residual must accept new flow.
        engine.force_gain(1, 9);
        assert_eq!(engine.reoptimize(), fresh(&[0, 9, -4], &arcs, &[]));
    }

    #[test]
    fn gain_sign_flip_migrates_arc_sides() {
        // v1 feeds flow through the chain; flipping its gain negative
        // moves it from a source-side arc to a sink-side arc, and the
        // previously-pushed flow must be fully cancelled.
        let gains = [0, 6, -3, 4];
        let arcs = [(1, 2), (3, 2)];
        let (mut engine, _) = warm(&gains, &arcs);
        engine.force_gain(1, -5);
        assert_eq!(engine.reoptimize(), fresh(&[0, -5, -3, 4], &arcs, &[]));
        // Flip the other way: a cost becomes a seed.
        engine.force_gain(2, 7);
        assert_eq!(engine.reoptimize(), fresh(&[0, -5, 7, 4], &arcs, &[]));
        // And flip v1 back positive again.
        engine.force_gain(1, 1);
        assert_eq!(engine.reoptimize(), fresh(&[0, 1, 7, 4], &arcs, &[]));
    }

    #[test]
    fn empty_closure_after_delta_and_recovery() {
        let gains = [0, 5, -2];
        let arcs = [(1, 2)];
        let (mut engine, _) = warm(&gains, &arcs);
        assert_eq!(engine.cached.len(), 2);
        // Shrink the seed until the closure gain goes non-positive.
        engine.force_gain(1, 2);
        assert!(engine.reoptimize().is_empty());
        assert_eq!(engine.reoptimize(), fresh(&[0, 2, -2], &arcs, &[]));
        // The drained residual accepts new flow after the empty round.
        engine.force_gain(1, 4);
        assert_eq!(engine.reoptimize(), fresh(&[0, 4, -2], &arcs, &[]));
    }

    #[test]
    fn repeated_deltas_to_the_same_vertex() {
        let gains = [0, 8, -5, -5];
        let arcs = [(1, 2), (1, 3)];
        let (mut engine, _) = warm(&gains, &arcs);
        let mut cur = gains.to_vec();
        for g in [12, 3, -1, 0, 15, 9, 11] {
            engine.force_gain(1, g);
            cur[1] = g;
            assert_eq!(engine.reoptimize(), fresh(&cur, &arcs, &[]), "gain {g}");
        }
    }

    /// Random non-monotone drives (gain drops and sign flips through
    /// the test hook, interleaved with new arcs) keep the warm engine
    /// on the fresh engine's closure. These exercise orphan adoption
    /// and release on residuals that earlier augmentations shaped.
    #[test]
    fn random_gain_and_arc_drives_match_fresh() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for _ in 0..200 {
            let n = 3 + next(10) as usize;
            let mut gains: Vec<i64> = (0..n).map(|_| next(41) as i64 - 20).collect();
            gains[0] = 0;
            let mut arcs = Vec::new();
            for _ in 0..next(2 * n as u64) {
                let (p, q) = (
                    1 + next(n as u64 - 1) as usize,
                    1 + next(n as u64 - 1) as usize,
                );
                if p != q && !arcs.contains(&(p, q)) {
                    arcs.push((p, q));
                }
            }
            let (mut engine, _) = warm(&gains, &arcs);
            for _ in 0..12 {
                let v = 1 + next(n as u64 - 1) as usize;
                if next(3) == 0 {
                    let q = 1 + next(n as u64 - 1) as usize;
                    if v != q && !arcs.contains(&(v, q)) {
                        arcs.push((v, q));
                        engine.add_edge(v, q, INF);
                    }
                } else {
                    gains[v] = next(41) as i64 - 20;
                    engine.force_gain(v, gains[v]);
                }
                assert_eq!(
                    engine.reoptimize(),
                    fresh(&gains, &arcs, &[]),
                    "{gains:?} {arcs:?}"
                );
            }
        }
    }

    #[test]
    fn freeze_with_flow_cancels_downstream_via_public_path() {
        // The production-path capacity drop: freezing a positive-gain
        // vertex whose source arc carries flow.
        let mut cs = ConstraintSystem::new(vec![0, 10, -4, 3]);
        cs.add_arc(v(1), v(2));
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        cs.freeze(v(1));
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        assert_eq!(engine.select(&cs, &mut perf), vec![v(3)]);
    }

    #[test]
    fn warm_engine_tracks_system_mutations() {
        let mut cs = ConstraintSystem::new(vec![0, 8, -3, 5, -6, 2]);
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        let mut step = |engine: &mut IncrementalClosure, cs: &ConstraintSystem, what: &str| {
            let got = engine.select(cs, &mut perf);
            let want = cs.max_gain_closed_set();
            assert_eq!(got, want, "after {what}");
            assert_eq!(cs.gain_of(&got), cs.gain_of(&want), "gain after {what}");
        };
        step(&mut engine, &cs, "build");
        cs.add_arc(v(1), v(2));
        step(&mut engine, &cs, "arc 1->2");
        cs.raise_weight(v(2), 2);
        step(&mut engine, &cs, "raise w(2)");
        cs.add_arc(v(3), v(4));
        step(&mut engine, &cs, "arc 3->4");
        cs.raise_weight(v(4), 2);
        step(&mut engine, &cs, "raise w(4): {3,4} turns net-negative");
        cs.add_arc(v(5), v(4));
        step(&mut engine, &cs, "arc 5->4");
        cs.freeze(v(1));
        step(&mut engine, &cs, "freeze 1");
        cs.freeze(v(3));
        step(&mut engine, &cs, "freeze 3");
        cs.raise_weight(v(1), 5); // weight raise on a frozen vertex: no-op
        step(&mut engine, &cs, "raise w(1) while frozen");
        cs.freeze(v(5));
        step(&mut engine, &cs, "freeze 5: nothing positive remains");
        assert!(engine.select(&cs, &mut perf).is_empty());
    }

    #[test]
    fn unchanged_system_serves_cached_closure() {
        let mut cs = ConstraintSystem::new(vec![0, 4, -1]);
        cs.add_arc(v(1), v(2));
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        let first = engine.select(&cs, &mut perf);
        let after_build = perf.closure_arcs_touched;
        assert!(after_build > 0);
        let second = engine.select(&cs, &mut perf);
        assert_eq!(first, second);
        assert_eq!(
            perf.closure_arcs_touched, after_build,
            "a cached call must not touch any arc"
        );
        assert_eq!(perf.closure_calls, 2);
    }

    #[test]
    fn rebuild_threshold_forces_and_forbids_fallback() {
        let gains = vec![0, 6, -2, 3];
        // threshold 0: every pending delta forces a full rebuild.
        let mut cs = ConstraintSystem::new(gains.clone());
        let mut engine = IncrementalClosure::new(0);
        let mut perf = PerfCounters::default();
        engine.select(&cs, &mut perf);
        assert_eq!(
            perf.closure_fallback_full, 0,
            "initial build is not a fallback"
        );
        cs.add_arc(v(1), v(2));
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        assert_eq!(perf.closure_fallback_full, 1);
        // threshold 100: the dirty set can never exceed |V|, so the
        // engine never falls back.
        let mut cs = ConstraintSystem::new(gains);
        let mut engine = IncrementalClosure::new(100);
        let mut perf = PerfCounters::default();
        engine.select(&cs, &mut perf);
        cs.add_arc(v(1), v(2));
        cs.raise_weight(v(2), 3);
        cs.freeze(v(3));
        assert_eq!(engine.select(&cs, &mut perf), cs.max_gain_closed_set());
        assert_eq!(perf.closure_fallback_full, 0);
    }
}
