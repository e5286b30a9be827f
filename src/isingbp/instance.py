"""Problem instances: spin systems with pair couplings and transverse fields.

An instance is a graph of Ising couplings J_ij together with a per-spin
transverse field h_i >= 0.  Negative input fields carry no physics here:
a field sign flips into a phase of the trial amplitudes, so loaders
normalize h_i -> |h_i| and record which sites were flipped.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from numbers import Integral

import numpy as np


class InstanceError(ValueError):
    """Invalid instance data (bad sizes, edges, or fields)."""


class GenerationError(RuntimeError):
    """A random generator could not produce a valid instance."""


@dataclass(eq=False, frozen=True)
class QuantumInstance:
    """Spin system: n spins, coupling edges (i, j, J), transverse fields h.

    edge_index is an (m, 2) int array of rows i < j in increasing order
    (sorted by i, then j); couplings is (m,) and fields is (n,) with every
    entry >= 0.  The instance keeps read-only copies of the three arrays,
    so it never changes after construction.  flipped_sites records sites
    whose input field was negative and was normalized away by the loader.
    """

    n: int
    edge_index: np.ndarray
    couplings: np.ndarray
    fields: np.ndarray
    seed: int = 0
    flipped_sites: tuple = field(default=())

    def __post_init__(self):
        for name, dtype, shape in (("edge_index", np.int64, (-1, 2)),
                                   ("couplings", np.float64, -1),
                                   ("fields", np.float64, -1)):
            value = np.array(np.reshape(getattr(self, name), shape), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        if self.n < 1:
            raise InstanceError(f"need at least one spin, got n={self.n}")
        if self.fields.shape != (self.n,):
            raise InstanceError("fields must have one entry per spin")
        if np.any(self.fields < 0):
            raise InstanceError("transverse fields must be >= 0 after normalization")
        if not np.all(np.isfinite(self.fields)) or not np.all(np.isfinite(self.couplings)):
            raise InstanceError("fields and couplings must be finite")
        m = self.edge_index.shape[0]
        if self.couplings.shape != (m,):
            raise InstanceError("one coupling per edge required")
        _check_edges(self.n, self.edge_index)

    @property
    def m(self) -> int:
        return self.edge_index.shape[0]

    @cached_property
    def graph(self) -> "ClassicalGraph":
        """The coupling graph, built on first use; edge e is edge_index[e]."""
        return ClassicalGraph(self.n, self.edge_index)

    def edge_list(self) -> list:
        return [
            (int(i), int(j), float(c))
            for (i, j), c in zip(self.edge_index, self.couplings)
        ]

    def with_uniform_field(self, h: float) -> "QuantumInstance":
        """This instance at uniform field h; it shares the arrays and graph."""
        if h < 0:
            raise InstanceError("uniform field must be >= 0")
        inst = replace(self, fields=np.full(self.n, float(h)), flipped_sites=())
        inst.__dict__.update(edge_index=self.edge_index, couplings=self.couplings,
                             graph=self.graph)
        return inst

    def __eq__(self, other):
        if not isinstance(other, QuantumInstance):
            return NotImplemented
        return (
            self.n == other.n
            and self.seed == other.seed
            and np.array_equal(self.edge_index, other.edge_index)
            and np.array_equal(self.couplings, other.couplings)
            and np.array_equal(self.fields, other.fields)
        )


def _check_edges(n: int, edge_index: np.ndarray) -> None:
    """Reject self-loops, out-of-range endpoints, rows with i > j,
    duplicate rows and rows out of order of an (m, 2) edge array."""
    if not edge_index.size:
        return
    i, j = edge_index[:, 0], edge_index[:, 1]
    if np.any(i == j):
        raise InstanceError("self-loops are not allowed")
    if i.min() < 0 or edge_index.max() >= n:
        raise InstanceError("edge endpoint out of range")
    if np.any(i > j):
        raise InstanceError("edges must be stored with i < j")
    if np.unique(i * n + j).size != i.size:
        raise InstanceError("duplicate edges are not allowed")
    if np.any(np.diff(i * n + j) < 0):
        raise InstanceError("edges must be sorted by i, then j")


def _canonical_edges(pairs, couplings):
    """Sort endpoints within edges and edges lexicographically."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    couplings = np.asarray(couplings, dtype=np.float64).reshape(-1)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    order = np.lexsort((hi, lo))
    return np.column_stack([lo, hi])[order], couplings[order]


class ClassicalGraph:
    """Interaction graph the trial-measure couplings live on.

    It is the coupling graph of an instance, built once as inst.graph; the
    directed-edge bookkeeping here backs every message-passing routine.
    Directed edge 2*e runs lo -> hi along edge e, 2*e + 1 runs hi -> lo.
    """

    def __init__(self, n: int, edge_index):
        edge_index = np.asarray(edge_index, dtype=np.int64).reshape(-1, 2)
        edge_index, _ = _canonical_edges(edge_index, np.zeros(len(edge_index)))
        _check_edges(n, edge_index)
        self.n = int(n)
        self.edge_index = edge_index
        self.m = edge_index.shape[0]
        # directed arrays: src[2e] = lo, src[2e+1] = hi
        self.src = np.empty(2 * self.m, dtype=np.int64)
        self.dst = np.empty(2 * self.m, dtype=np.int64)
        self.src[0::2] = edge_index[:, 0]
        self.src[1::2] = edge_index[:, 1]
        self.dst[0::2] = edge_index[:, 1]
        self.dst[1::2] = edge_index[:, 0]
        self.edge_of_dir = np.repeat(np.arange(self.m, dtype=np.int64), 2)
        # CSR: the directed edges leaving site s are
        # dir_order[dir_start[s]:dir_start[s + 1]], in increasing index order
        self.dir_order = np.argsort(self.src, kind="stable")
        self.degrees = np.bincount(self.src, minlength=self.n)
        self.dir_start = np.concatenate([[0], np.cumsum(self.degrees)])
        # m >= n edges close a cycle; else a forest has one BFS run per
        # component and n - m components
        self.is_forest = (self.m < self.n
                          and len(self._bfs(range(self.n))[0]) == self.n - self.m)

    def _bfs(self, roots) -> tuple:
        """Breadth-first runs from each root that no earlier run reached.

        A run takes sites in FIFO order and their neighbours in dir_order
        order.  Returns (runs, parent_dir): the sites of each run in visit
        order, and per site the directed edge into it from its BFS parent
        (-1 at a root).
        """
        start = self.dir_start.tolist()
        dirs = self.dir_order.tolist()
        ends = self.dst[self.dir_order].tolist()
        seen = bytearray(self.n)
        parent_dir = [-1] * self.n
        runs = []
        for root in roots:
            if seen[root]:
                continue
            seen[root] = 1
            run = [root]
            for s in run:
                for k in range(start[s], start[s + 1]):
                    t = ends[k]
                    if not seen[t]:
                        seen[t] = 1
                        parent_dir[t] = dirs[k]
                        run.append(t)
            runs.append(run)
        return runs, parent_dir

    @cached_property
    def sweep_groups(self) -> dict:
        """Directed edges bucketed by the number of other edges at their source.

        Returns {ln: (dirs (G,), nbrs (G, ln))}: dirs in increasing order,
        nbrs[g] the other directed edges leaving src[dirs[g]] in dir_order
        order.  Groups appear in order of their first directed edge.
        """
        ln_of_dir = self.degrees[self.src] - 1
        lns, first = np.unique(ln_of_dir, return_index=True)
        groups = {}
        for ln in lns[np.argsort(first)]:
            dirs = np.flatnonzero(ln_of_dir == ln)
            around = self.dir_order[
                self.dir_start[self.src[dirs]][:, None] + np.arange(ln + 1)
            ]
            nbrs = around[around != dirs[:, None]].reshape(dirs.size, ln)
            groups[int(ln)] = (dirs, nbrs)
        return groups

    def forest_schedule(self) -> list:
        """The collect/distribute MaxSum schedule of a forest.

        Each component is rooted at the middle site of one of its longest
        paths.  The directed edges come in batches: child -> parent by
        the depth of the child, deepest first, then parent -> child by the
        depth of the child, shallowest first.  The message on d = (i -> j)
        reads the messages into i from its other neighbours, and each of
        those lies in an earlier batch, so one pass in this order computes
        every message from final inputs (Kschischang, Frey and Loeliger,
        IEEE Trans. Inf. Theory 47, 498, 2001).

        Returns one (dirs, groups) pair per batch: dirs the batch's
        directed edges by (ln, index), with ln the number of other edges
        at the source, and groups {ln: (dirs, nbrs)} over them as in
        sweep_groups.  It is built on each call (about 0.1 ms for a
        14-site chain on a 2-vCPU Xeon) rather than kept on the graph,
        which lives as long as its instance does.  Raises ValueError on a
        loopy graph.
        """
        if not self.is_forest:
            raise ValueError("the two-pass schedule needs a forest")
        # each tree's centre: the middle of the path from the last site of
        # a BFS run to the last site of a run from there
        src = self.src.tolist()
        runs, parent_dir = self._bfs([run[-1] for run in self._bfs(range(self.n))[0]])
        centres = []
        for run in runs:
            path = [run[-1]]
            while parent_dir[path[-1]] >= 0:
                path.append(src[parent_dir[path[-1]]])
            centres.append(path[len(path) // 2])
        runs, parent_dir = self._bfs(centres)
        depth = [0] * self.n
        for s in chain.from_iterable(run[1:] for run in runs):
            depth[s] = depth[src[parent_dir[s]]] + 1
        depth, parent_dir = np.array(depth), np.array(parent_dir)
        child = np.flatnonzero(depth > 0)
        top = int(depth.max(initial=0))
        dirs = np.concatenate([parent_dir[child] ^ 1, parent_dir[child]])
        batch = np.concatenate([top - depth[child], top - 1 + depth[child]])
        ln = self.degrees[self.src[dirs]] - 1
        order = np.lexsort((dirs, ln, batch))
        dirs, batch, ln = dirs[order], batch[order], ln[order]
        # the sweep_groups rows of each ln's directed edges, in schedule
        # order (a group's dirs increase, so searchsorted finds the rows)
        taken, used = {}, {}
        for k, (group, rows) in self.sweep_groups.items():
            taken[k], used[k] = rows[np.searchsorted(group, dirs[ln == k])], 0
        batches = []  # [start, end, groups] of each batch
        cuts = np.flatnonzero(np.diff(batch, prepend=-1)
                              | np.diff(ln, prepend=-1))
        ends = np.append(cuts, dirs.size)[1:]
        for lo, hi, b, k in zip(cuts.tolist(), ends.tolist(),
                                batch[cuts].tolist(), ln[cuts].tolist()):
            if b == len(batches):
                batches.append([lo, hi, {}])
            batches[-1][1] = hi
            batches[-1][2][k] = (dirs[lo:hi], taken[k][used[k]:used[k] + hi - lo])
            used[k] += hi - lo
        return [(dirs[lo:hi], groups) for lo, hi, groups in batches]

    @cached_property
    def site_groups(self) -> dict:
        """Sites bucketed by degree.

        Returns {deg: (sites (G,), dirs (G, deg))}: sites in increasing
        order, dirs[g] the directed edges leaving sites[g] in dir_order
        order.  Groups appear in order of increasing degree.
        """
        groups = {}
        for deg in np.unique(self.degrees):
            sites = np.flatnonzero(self.degrees == deg)
            dirs = self.dir_order[self.dir_start[sites][:, None] + np.arange(deg)]
            groups[int(deg)] = (sites, dirs)
        return groups

    @cached_property
    def colour_classes(self) -> list:
        """A greedy proper colouring: sites in index order each take the
        smallest colour no lower-indexed neighbour holds.

        Returns one increasing site array per colour; no two sites of a
        class are neighbours, and there are at most max degree + 1 classes.
        """
        colour = np.empty(self.n, dtype=np.int64)
        for s in range(self.n):
            nbrs = self.dst[self.dir_order[self.dir_start[s]:self.dir_start[s + 1]]]
            taken = set(colour[nbrs[nbrs < s]].tolist())
            colour[s] = min(set(range(len(taken) + 1)) - taken)
        return [np.flatnonzero(colour == c)
                for c in range(int(colour.max(initial=-1)) + 1)]

    def bfs_order(self, root: int = 0) -> np.ndarray:
        """Sites in BFS order from root, unseen components appended in index
        order.  Raises ValueError unless root is an int site in [0, n)."""
        if isinstance(root, bool) or not (isinstance(root, Integral)
                                          and 0 <= root < self.n):
            raise ValueError(f"root must be a site in [0, {self.n}), got {root!r}")
        runs, _ = self._bfs(chain([int(root)], range(self.n)))
        return np.fromiter(chain.from_iterable(runs), dtype=np.int64, count=self.n)


def _draw_couplings(rng: np.random.Generator, m: int, law: str) -> np.ndarray:
    if law == "ferro":
        return np.ones(m)
    if law == "pm_one":
        return rng.choice(np.array([-1.0, 1.0]), size=m)
    if law == "gaussian":
        return rng.standard_normal(m)
    raise InstanceError(f"unknown coupling law {law!r}")


def generate_chain(n: int, law: str, h: float, seed: int) -> QuantumInstance:
    """Open chain of n spins with couplings on consecutive pairs."""
    if n < 2:
        raise InstanceError("a chain needs at least 2 spins")
    if h < 0:
        raise InstanceError("uniform field must be >= 0")
    rng = np.random.default_rng(seed)
    edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    couplings = _draw_couplings(rng, n - 1, law)
    return QuantumInstance(
        n=n,
        edge_index=edges,
        couplings=couplings,
        fields=np.full(n, float(h)),
        seed=seed,
    )


def generate_rrg(n: int, d: int, law: str, h: float, seed: int,
                 max_restarts: int = 1000) -> QuantumInstance:
    """Random regular graph via the configuration model.

    Pairs stubs uniformly at random and restarts from scratch whenever the
    pairing produces a self-loop or a multi-edge.
    """
    if d < 1 or d >= n:
        raise InstanceError(f"degree must satisfy 1 <= d < n, got d={d}, n={n}")
    if (n * d) % 2 != 0:
        raise InstanceError("n * d must be even")
    if h < 0:
        raise InstanceError("uniform field must be >= 0")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n), d)
    for _ in range(max_restarts):
        perm = rng.permutation(stubs)
        a, b = perm[0::2], perm[1::2]
        if np.any(a == b):
            continue
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        keys = lo * n + hi
        if np.unique(keys).size != keys.size:
            continue
        pairs, _ = _canonical_edges(np.column_stack([lo, hi]), np.zeros(len(lo)))
        couplings = _draw_couplings(rng, n * d // 2, law)
        return QuantumInstance(
            n=n,
            edge_index=pairs,
            couplings=couplings,
            fields=np.full(n, float(h)),
            seed=seed,
        )
    raise GenerationError(
        f"no simple {d}-regular pairing found in {max_restarts} restarts"
    )


def save_instance(inst: QuantumInstance) -> str:
    """Serialize to a flat JSON document with keys n, edges, h, seed."""
    doc = {
        "n": inst.n,
        "edges": inst.edge_list(),
        "h": [float(x) for x in inst.fields],
        "seed": int(inst.seed),
    }
    return json.dumps(doc, indent=1)


def _is_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def load_instance(text: str) -> QuantumInstance:
    """Parse an instance document, normalizing negative fields to |h|.

    Sites whose field sign was flipped are recorded in flipped_sites.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"instance document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    missing = {"n", "edges", "h"} - set(doc)
    if missing:
        raise InstanceError(f"instance document missing keys {sorted(missing)}")
    n = doc["n"]
    if not _is_int(n):
        raise InstanceError("n must be an integer")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise InstanceError("edges must be a list")
    if not all(isinstance(e, list) and len(e) == 3 and _is_int(e[0])
               and _is_int(e[1]) and _is_real(e[2]) for e in edges):
        raise InstanceError("each edge must be a triple [i, j, J] of integers "
                            "i, j and a number J")
    pairs = [(e[0], e[1]) for e in edges]
    couplings = [e[2] for e in edges]
    if not (isinstance(doc["h"], list) and all(map(_is_real, doc["h"]))):
        raise InstanceError("h must be a list of numbers")
    h = np.asarray(doc["h"], dtype=np.float64)
    seed = doc.get("seed", 0)
    if not _is_int(seed):
        raise InstanceError("seed must be an integer")
    flipped = tuple(int(i) for i in np.flatnonzero(h < 0))
    edge_index, couplings = _canonical_edges(pairs, couplings)
    return QuantumInstance(
        n=n,
        edge_index=edge_index,
        couplings=couplings,
        fields=np.abs(h),
        seed=seed,
        flipped_sites=flipped,
    )
