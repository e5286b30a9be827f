"""Product (mean-field) trial states optimized on a grid of field values.

With all pair couplings of the trial measure at zero the variational
energy is a sum of single-site and single-bond terms in the per-spin
fields alone.  On forests one collect/distribute MaxSum pass over the
grid finds the optimal product state; on loopy graphs a colour-class
coordinate descent over the same grid finds a local optimum.  The energy
of a product state is a true quantum expectation value, so the result is
always an upper bound on the ground-state energy.
"""

from __future__ import annotations

import numpy as np

from .classical_bp import ParameterSet, Solution, energy_kind_of, observables
from .grids import (Grid, _normalized, argmax_tiebreak, check_count,
                    tiebreak_order)
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
                    max_iters: int = 1000, seed: int = 0) -> Solution:
    """Product state on the field grid; returns its fields, their energy
    and the m_x and q_z of the state.

    On a forest one collect/distribute pass of MaxSum (_forest_messages)
    finds the exact grid optimum: it computes every message once, from
    final inputs, so the result reports converged=True, iterations=1 and
    residual=0.0, and max_iters does not limit it.  Extraction decides
    sites in BFS order, conditioning each arg-max on already-decided
    neighbors, which keeps tied optima globally consistent; remaining
    ties go to the smallest |b|, negative first.

    On a loopy graph, where MaxSum need not converge, a colour-class
    descent (_descent) runs instead and max_iters caps the passes of each
    start.  Its result is a local optimum on the grid.  The energy is an
    exact expectation value, so it is an upper bound on either path.
    """
    check_count("max_iters", max_iters, 1)
    if inst.graph.is_forest:
        b_star = _extract_fields(inst, grid.values,
                                 *_forest_messages(inst, grid.values))
        converged, iterations, residual = True, 1, 0.0
    else:
        b_star, converged, iterations, residual = _descent(inst, grid,
                                                           max_iters, seed)
    obs = _observables(inst, b_star)
    return Solution(energy=obs.energy, m_x=obs.m_x, q_z=obs.q_z,
                    converged=converged, iterations=iterations,
                    energy_kind=energy_kind_of(inst.graph, None),
                    residual=residual, b=b_star)


def _forest_messages(inst, vals):
    """MaxSum on a forest in one pass of graph.forest_schedule; returns
    the messages and their hop tables.

    The message on d = (i -> j) is the site term of i plus the hop rows
    of the messages into i from its other neighbours, normalized to max
    zero.  Each batch's hop tables are computed once its messages are
    final; _hop_tables computes each row on its own, bit for bit, so they
    are the hop tables of the whole message set.
    """
    graph = inst.graph
    tanh_vals = np.tanh(2.0 * vals)
    site_term = _site_term(inst, vals)
    j_tanh = inst.couplings[graph.edge_of_dir][:, None] * tanh_vals[None, :]
    messages = np.zeros((2 * graph.m, vals.size))
    hop = np.zeros_like(messages)
    for dirs, groups in graph.forest_schedule():
        for ln, (sub, nbrs) in groups.items():
            new = site_term[graph.src[sub]]
            for k in range(ln):
                new += hop[nbrs[:, k] ^ 1]
            messages[sub] = _normalized(new)
        hop[dirs] = _hop_tables(j_tanh[dirs], tanh_vals, messages[dirs])
    return messages, hop


def _site_term(inst, vals):
    """site_term[i][x] = h_i sech(2 b_x), site i's energy gain at b_x."""
    return inst.fields[:, None] / np.cosh(2.0 * vals)[None, :]


_RANDOM_STARTS = 8  # seeded grid draws besides b = 0 and the saturated start
_WINDOW = np.array([-1, 0, 1])  # grid offsets around v* that hold the arg-max


def _descent(inst, grid, max_iters, seed):
    """Iterated conditional modes over the colour classes of the graph.

    With its neighbours fixed, site i contributes
    -(h_i sech(2b_i) + L_i tanh(2b_i)) to the energy, where
    L_i = sum_j J_ij tanh(2b_j).  The sites of one colour class share no
    bond, so each moves at once to the arg-max of h_i sech(2v) +
    L_i tanh(2v) over the grid, first in tiebreak_order, but only where
    that beats its current value: the energy falls strictly with every
    move, and a pass without a move is a fixed point.

    The arg-max needs three grid values, not the whole grid.  With
    R = hypot(h_i, L_i) and sin(theta) = tanh(2v), the objective is
    R cos(theta - phi) with sin(phi) = L_i / R; theta increases with v, so
    the objective is unimodal in v and its grid maximum is one of the two
    grid values around v* = atanh(L_i / R) / 2.  Both lie within one step
    of the grid value nearest to v*, and the three are compared with the
    same float expression, ties going to the first in tiebreak_order.

    The starts are b = 0, b = max(grid) everywhere (b = min(grid) is its
    mirror image, since E(b) = E(-b)) and _RANDOM_STARTS seeded uniform
    draws from the grid; they run together as the rows of one array, and
    a row stops once a pass leaves it unchanged, or after max_iters passes.
    Returns (b, converged, passes, residual) of the start with the lowest
    reported energy, the first one on ties; the residual is the largest
    energy drop of one move in its last pass, 0 at a fixed point.
    """
    graph = inst.graph
    vals = grid.values
    n, nb = graph.n, vals.size
    tanh_vals = np.tanh(2.0 * vals)
    sech_vals = 1.0 / np.cosh(2.0 * vals)
    rank = np.empty(nb, dtype=np.int64)
    rank[tiebreak_order(vals)] = np.arange(nb)
    draws = np.random.default_rng(seed).integers(nb, size=(_RANDOM_STARTS, n))
    state = np.vstack([np.full((1, n), np.argmin(np.abs(vals))),
                       np.full((1, n), nb - 1), draws])
    # one zero column past the last site pads the neighbour tables
    t = np.zeros((state.shape[0], n + 1))
    t[:, :n] = tanh_vals[state]
    j_dir = inst.couplings[graph.edge_of_dir]
    classes = []
    for sites in graph.colour_classes:
        deg = graph.degrees[sites]
        slot = np.arange(int(deg.max(initial=0)))
        real = slot < deg[:, None]
        dirs = graph.dir_order[np.where(real, graph.dir_start[sites][:, None]
                                        + slot, 0)]
        classes.append((sites, inst.fields[sites],
                        np.where(real, graph.dst[dirs], n),
                        np.where(real, j_dir[dirs], 0.0)))

    passes = np.full(state.shape[0], max_iters)
    drop = np.zeros(state.shape[0])
    active = np.arange(state.shape[0])
    for sweep in range(1, max_iters + 1):
        drop[active] = 0.0
        rows = active[:, None]
        for sites, h, nbrs, j in classes:
            local = (t[rows[:, :, None], nbrs] * j).sum(axis=2)
            sin_phi = np.divide(local, np.hypot(h, local),
                                out=np.zeros_like(local), where=local != 0.0)
            np.clip(sin_phi, tanh_vals[0], tanh_vals[-1], out=sin_phi)
            centre = np.rint((0.5 * np.arctanh(sin_phi) - vals[0]) / grid.step)
            cand = np.clip(centre.astype(np.int64)[:, :, None] + _WINDOW,
                           0, nb - 1)
            cand = np.take_along_axis(cand, rank[cand].argsort(axis=2), axis=2)
            score = (h[:, None] * sech_vals[cand]
                     + local[:, :, None] * tanh_vals[cand])
            pick = score.argmax(axis=2)[:, :, None]
            cur = state[rows, sites]
            gain = (np.take_along_axis(score, pick, axis=2)[:, :, 0]
                    - (h * sech_vals[cur] + local * tanh_vals[cur]))
            move = gain > 0.0
            new = np.where(move, np.take_along_axis(cand, pick, axis=2)[:, :, 0],
                           cur)
            state[rows, sites] = new
            t[rows, sites] = tanh_vals[new]
            drop[active] = np.maximum(drop[active],
                                      np.where(move, gain, 0.0).max(axis=1))
        still = drop[active] > 0.0
        passes[active[~still]] = sweep
        active = active[still]
        if not active.size:
            break

    win = int(np.argmin([_observables(inst, vals[row]).energy for row in state]))
    return (vals[state[win]], win not in active, int(passes[win]),
            float(drop[win]))


def _extract_fields(inst, vals, messages, hop):
    graph = inst.graph
    tanh_vals = np.tanh(2.0 * vals)
    site_term = _site_term(inst, vals)
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
