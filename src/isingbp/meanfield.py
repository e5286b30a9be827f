"""Product (mean-field) trial states optimized by MaxSum message passing.

With all pair couplings of the trial measure at zero the variational
energy is a sum of single-site and single-bond terms in the per-spin
fields alone.  MaxSum over a grid of field values then finds the optimal
product state; on trees it returns the exact grid optimum.  The energy of
a product state is a true quantum expectation value, so the result is
always an upper bound on the ground-state energy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_bp import ParameterSet, observables
from .grids import Grid, _maxsum_loop, argmax_tiebreak
from .instance import QuantumInstance

DEFAULT_FIELD_GRID = Grid(step=0.02, half_count=150)


def mf_energy(inst: QuantumInstance, b) -> float:
    """Variational energy of the product state with per-spin fields b."""
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if b.shape != (inst.n,):
        raise ValueError("need one field per spin")
    return _observables(inst, b).energy


def _observables(inst, b):
    # at K = 0 every cavity field 2b at its source is an exact BP fixed point
    return observables(inst, ParameterSet(b, np.zeros(inst.m)),
                       2.0 * b[inst.graph.src])


@dataclass
class MFSolution:
    b: np.ndarray
    energy: float
    m_x: float | None
    q_z: float
    converged: bool
    iterations: int
    residual: float


_PATIENCE = 50  # sweeps without a better residual before the loop gives up

# Row groups of the hop kernel: more groups give tighter bounds and
# narrower windows but more bound passes; eight measured fastest at nb = 301.
_ROW_GROUPS = 8


def _hop_tables(j_tanh, tanh_vals, messages):
    """hop[d][x] = max_y [J_d tanh_x tanh_y + M_d(y)] for directed edge d.

    j_tanh[d][x] = J_d tanh_x is fixed for a solve and is passed in.  Each
    entry is the float value max_y fl(fl(a_x t_y) + M_d(y)) with a_x =
    j_tanh[d][x], evaluated only over the columns y that can hold a row's
    maximum.  The rows are split into _ROW_GROUPS contiguous groups; with
    a_lo and a_hi the smallest and largest a_x of a group,

        U(y) = fl(max(fl(a_lo t_y), fl(a_hi t_y)) + M_d(y))
        L    = max_y fl(min(fl(a_lo t_y), fl(a_hi t_y)) + M_d(y)).

    Round-to-nearest is monotone, so fl(a_x t_y) lies between the two
    products for every row x of the group and adding M_d(y) keeps the
    order: no value in column y exceeds U(y), and no row's maximum is
    below L.  A column with U(y) < L therefore never holds a maximum, and
    the maximum over the columns from the first to the last one with
    U(y) >= L is the dense maximum bit for bit, without any margin.

    The (group, edge) windows are sorted by width and evaluated in blocks
    of at most nb * nb values (0.72 MB at the default nb = 301), each
    window padded to the block's widest and shifted left where it would
    pass the last column.  The rows of a group are padded to a common
    count by repeating its last row; the repeats write the same value.
    """
    ndir, nb = j_tanh.shape
    hop = np.empty((ndir, nb))
    if not hop.size:
        return hop
    groups = min(_ROW_GROUPS, nb)
    bounds = np.arange(groups + 1) * nb // groups
    rows = int(np.max(np.diff(bounds)))
    row_idx = np.minimum(bounds[:-1, None] + np.arange(rows),
                         bounds[1:, None] - 1)

    a_lo = np.minimum.reduceat(j_tanh, bounds[:-1], axis=1)
    a_hi = np.maximum.reduceat(j_tanh, bounds[:-1], axis=1)
    first = np.empty((groups, ndir), dtype=np.intp)
    last = np.empty((groups, ndir), dtype=np.intp)
    upper = np.empty((ndir, nb))
    p_hi = np.empty((ndir, nb))
    lower = np.empty((ndir, nb))
    keep = np.empty((ndir, nb), dtype=bool)
    for g in range(groups):
        np.multiply(a_lo[:, g, None], tanh_vals, out=upper)
        np.multiply(a_hi[:, g, None], tanh_vals, out=p_hi)
        np.minimum(upper, p_hi, out=lower)
        lower += messages
        np.maximum(upper, p_hi, out=upper)
        upper += messages
        np.greater_equal(upper, lower.max(axis=1)[:, None], out=keep)
        first[g] = keep.argmax(axis=1)
        last[g] = nb - 1 - keep[:, ::-1].argmax(axis=1)

    start = first.ravel()
    width = last.ravel() - start + 1
    order = np.argsort(width, kind="stable")
    flat = np.empty(nb * nb)
    cols = np.arange(nb)
    end = order.size
    while end > 0:
        w = int(width[order[end - 1]])
        beg = max(0, end - nb * nb // (rows * w))
        task = order[beg:end]
        g, d = np.divmod(task, ndir)
        y = np.minimum(start[task], nb - w)[:, None] + cols[:w]
        x = row_idx[g]
        buf = flat[:task.size * w * rows].reshape(task.size, w, rows)
        np.multiply(tanh_vals[y][:, :, None], j_tanh[d[:, None], x][:, None, :],
                    out=buf)
        buf += messages[d[:, None], y][:, :, None]
        hop[d[:, None], x] = buf.max(axis=1)
        end = beg
    return hop


def mf_maxsum_solve(inst: QuantumInstance, grid: Grid = DEFAULT_FIELD_GRID,
                    max_iters: int = 1000, seed: int = 0) -> MFSolution:
    """MaxSum over the field grid; returns extracted fields, their energy
    and the m_x and q_z of the product state.

    If the sweeps do not converge (possible on loopy graphs) the extraction
    uses the best message set seen, and the loop gives up after _PATIENCE
    (50) sweeps without a better residual: oscillating message sets stop
    giving new information long before max_iters.  The energy is a valid
    upper bound either way.  Extraction decides sites in BFS order,
    conditioning each arg-max on already-decided neighbors, which keeps
    tied optima globally consistent; remaining ties go to the smallest
    |b|, negative first.
    """
    graph = inst.graph
    vals = grid.values
    nb = vals.size
    tanh_vals = np.tanh(2.0 * vals)
    site_term = inst.fields[:, None] / np.cosh(2.0 * vals)[None, :]
    j_tanh = inst.couplings[graph.edge_of_dir][:, None] * tanh_vals[None, :]
    site_src = site_term[graph.src]
    rev = np.arange(2 * graph.m) ^ 1

    def sweep(messages):
        hop = _hop_tables(j_tanh, tanh_vals, messages)
        hop_sum = np.zeros((graph.n, nb))
        np.add.at(hop_sum, graph.dst, hop)
        return site_src + hop_sum[graph.src] - hop[rev]

    messages, converged, iterations, residual = _maxsum_loop(
        sweep, (2 * graph.m, nb), not graph.is_forest, seed, max_iters,
        _PATIENCE)

    b_star = _extract_fields(inst, vals, tanh_vals, j_tanh, site_term, messages)
    obs = _observables(inst, b_star)
    return MFSolution(
        b=b_star,
        energy=obs.energy,
        m_x=obs.m_x,
        q_z=obs.q_z,
        converged=converged,
        iterations=iterations,
        residual=residual,
    )


def _extract_fields(inst, vals, tanh_vals, j_tanh, site_term, messages):
    graph = inst.graph
    hop = _hop_tables(j_tanh, tanh_vals, messages)
    b_star = np.zeros(inst.n)
    b_idx = np.full(inst.n, -1, dtype=np.int64)
    for site in graph.bfs_order():
        site = int(site)
        weight = site_term[site].copy()
        for d in graph.out_dirs[site]:
            other = int(graph.dst[d])
            rev = int(d) ^ 1
            if b_idx[other] >= 0:
                j = inst.couplings[graph.edge_of_dir[d]]
                weight += (
                    j * tanh_vals * tanh_vals[b_idx[other]]
                    + messages[rev][b_idx[other]]
                )
            else:
                weight += hop[rev]
        b_idx[site] = argmax_tiebreak(weight, vals)
        b_star[site] = vals[b_idx[site]]
    return b_star
