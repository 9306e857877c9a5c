"""Algorithm 1: a forest of series-parallel decomposition trees for general DAGs.

This is the paper's original algorithmic contribution (Sec. III-C, Alg. 1,
Fig. 2).  Decomposition trees are *grown* from the start node towards the end
node:

- ``grow_series`` extends a tree along its sink while **all** incoming edges
  of the sink belong to the tree (``indegree(v) <= outsize(T)``), appending
  either a single edge (out-degree 1) or a recursively grown parallel
  operation;
- ``grow_parallel`` maintains a *wavefront* of active subtrees rooted at a
  branching node, repeatedly merging same-terminal subtrees into parallel
  nodes and growing the rest;
- when the wavefront stalls (no merge or growth possible), the input graph is
  not series-parallel: one active subtree is **cut** from the DAG — it is
  moved to the forest and the expected in-degree of its sink is reduced —
  which unblocks its siblings.

The graph is virtually extended with ``VIRTUAL_SOURCE -> s`` and
``t -> VIRTUAL_SINK`` edges (the paper's ``(eps, s)`` / ``(t, eps)``), so the
core tree of the forest spans from virtual edge to virtual edge.

With careful bookkeeping the algorithm runs in linear time in the number of
edges.  Every edge of the DAG ends up in exactly one tree of the forest; the
test-suite checks this invariant together with the SP-ness of every tree (via
:mod:`repro.sp.recognition`).

Cut choice
----------
The paper cuts a *random* active subtree and notes that "a well-designed
heuristic might exploit" the freedom of choice (the Fig. 2 discussion: cutting
the single edge ``1-4`` instead of the five-edge subtree ``1-5`` keeps the
larger structure intact).  We implement the strategies

``random``    paper default — uniformly among active subtrees,
``first``     deterministic first-in-wavefront,
``smallest``  cut the subtree with the fewest edges (keeps large trees whole),
``largest``   adversarial counterpart, for the ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..graphs.taskgraph import TaskGraph
from .sptree import SPLeaf, SPTree, parallel, series

__all__ = [
    "VIRTUAL_SOURCE",
    "VIRTUAL_SINK",
    "DecompositionForest",
    "grow_decomposition_forest",
    "CUT_STRATEGIES",
]

Node = Hashable


class _Virtual:
    """Sentinel node; never equal to any task id."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


VIRTUAL_SOURCE: Node = _Virtual("eps_in")
VIRTUAL_SINK: Node = _Virtual("eps_out")

CUT_STRATEGIES = ("random", "first", "smallest", "largest")


@dataclass
class DecompositionForest:
    """Result of Algorithm 1.

    ``trees[0]`` is the core tree (spanning virtual source to virtual sink);
    the remaining entries are the subtrees cut during growth, in cut order.
    ``original_tasks`` records the input graph's node set, so that nodes
    introduced by single-source/sink normalization can be filtered out again.
    """

    trees: List[SPTree]
    n_cuts: int
    n_completion_edges: int = 0
    source: Node = None
    sink: Node = None
    original_tasks: frozenset = frozenset()

    @property
    def core(self) -> SPTree:
        return self.trees[0]

    def task_nodes(self) -> set:
        """All original-graph nodes covered by the forest."""
        out = set()
        for t in self.trees:
            out |= t.nodes()
        return out & set(self.original_tasks)

    def real_edges(self) -> List[Tuple[Node, Node]]:
        """All original-graph edges across the forest (virtual and
        normalization edges removed)."""
        keep = self.original_tasks
        out = []
        for t in self.trees:
            for u, v in t.leaf_edges():
                if u in keep and v in keep:
                    out.append((u, v))
        return out


class _ForestGrower:
    """Mutable state shared by the recursive growth functions."""

    def __init__(
        self,
        succ: Dict[Node, List[Node]],
        indeg: Dict[Node, int],
        rng: Optional[np.random.Generator],
        cut_strategy: str,
    ) -> None:
        self.succ = succ
        self.indeg = indeg
        self.rng = rng
        self.cut_strategy = cut_strategy
        self.forest: List[SPTree] = []
        self.n_cuts = 0

    # -- Alg. 1, GROW_SERIES -------------------------------------------
    def grow_series(self, tree: SPTree) -> SPTree:
        # The appended operations are chained once at the end — the same
        # flattened tree as ``series(tree, part)`` per step, without
        # re-copying the growing child list every step.
        parts: Optional[List[SPTree]] = None
        part = tree
        while part.sink is not VIRTUAL_SINK and self.indeg[part.sink] <= part.outsize:
            v = part.sink
            out = self.succ[v]
            if len(out) == 1:
                part = SPLeaf(v, out[0])
            else:
                part = self.grow_parallel(v)
            if parts is None:
                parts = [tree]
            parts.append(part)
        return tree if parts is None else series(*parts)

    # -- Alg. 1, GROW_PARALLEL -------------------------------------------
    def grow_parallel(self, v: Node) -> SPTree:
        wavefront: List[SPTree] = [SPLeaf(v, w) for w in self.succ[v]]
        while True:
            changed = True
            while changed:
                changed = False
                wavefront, merged = self._merge(wavefront)
                changed = changed or merged
                if len(wavefront) == 1:
                    return wavefront[0]
                for i, t in enumerate(wavefront):
                    grown = self.grow_series(t)
                    if grown is not t:
                        wavefront[i] = grown
                        changed = True
            # No merge or growth happened: the graph is not series-parallel
            # here.  Cut one active subtree from the DAG (Alg. 1 l. 38-40).
            idx = self._choose_cut(wavefront)
            cut = wavefront.pop(idx)
            self.forest.append(cut)
            self.n_cuts += 1
            self.indeg[cut.sink] -= cut.outsize

    @staticmethod
    def _merge(wavefront: List[SPTree]) -> Tuple[List[SPTree], bool]:
        """Combine same-terminal subtrees into parallel operations."""
        groups: Dict[Tuple[Node, Node], List[SPTree]] = {}
        for t in wavefront:
            groups.setdefault((t.source, t.sink), []).append(t)
        if all(len(g) == 1 for g in groups.values()):
            return wavefront, False
        out: List[SPTree] = []
        for g in groups.values():
            out.append(parallel(g) if len(g) > 1 else g[0])
        return out, True

    def _choose_cut(self, wavefront: Sequence[SPTree]) -> int:
        if self.cut_strategy == "first":
            return 0
        if self.cut_strategy == "smallest":
            return min(range(len(wavefront)), key=lambda i: wavefront[i].n_edges)
        if self.cut_strategy == "largest":
            return max(range(len(wavefront)), key=lambda i: wavefront[i].n_edges)
        if self.rng is None:
            return 0
        return int(self.rng.integers(len(wavefront)))


def grow_decomposition_forest(
    g: TaskGraph,
    *,
    rng: Optional[np.random.Generator] = None,
    cut_strategy: str = "random",
) -> DecompositionForest:
    """Run Algorithm 1 on an arbitrary task DAG.

    The graph is normalized to a single source/sink internally (virtual
    zero-cost nodes, Sec. III-C); the forest's core tree spans
    ``VIRTUAL_SOURCE`` to ``VIRTUAL_SINK``.

    Coverage guarantee: the paper's growth process consumes each edge exactly
    once, but on adversarial inputs repeated cuts can block the core before
    the sink is reached, stranding edges behind a starved node.  Any such
    leftover edges are appended to the forest as single-edge trees
    (``n_completion_edges`` reports how many; it is 0 on all paper-style
    inputs).
    """
    if cut_strategy not in CUT_STRATEGIES:
        raise ValueError(
            f"unknown cut strategy {cut_strategy!r}; choose from {CUT_STRATEGIES}"
        )
    if g.n_tasks == 0:
        raise ValueError("empty graph")
    norm, src, snk = g.normalized()

    succ: Dict[Node, List[Node]] = {t: norm.successors(t) for t in norm.tasks()}
    succ[snk] = [VIRTUAL_SINK]
    indeg: Dict[Node, int] = {t: norm.in_degree(t) for t in norm.tasks()}
    indeg[src] = 1  # the virtual edge (eps, s)
    indeg[VIRTUAL_SINK] = 1

    grower = _ForestGrower(succ, indeg, rng, cut_strategy)
    core = grower.grow_series(SPLeaf(VIRTUAL_SOURCE, src))
    trees = [core] + grower.forest

    # Coverage completion (see docstring).
    covered = set()
    for t in trees:
        covered.update(t.leaf_edges())
    n_completion = 0
    for u in norm.tasks():
        for v in succ[u]:
            if v is VIRTUAL_SINK:
                continue
            if (u, v) not in covered:
                trees.append(SPLeaf(u, v))
                n_completion += 1

    return DecompositionForest(
        trees=trees,
        n_cuts=grower.n_cuts,
        n_completion_edges=n_completion,
        source=src,
        sink=snk,
        original_tasks=frozenset(g.tasks()),
    )
