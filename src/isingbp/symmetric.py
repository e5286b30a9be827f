"""Zero-field trial states: couplings only, optimized by MaxSum.

With all per-spin fields at zero the cavity fields vanish identically and
the variational energy depends on the trial couplings alone,

    E(K) = -sum_(ij) J_ij tanh(2 K_ij) - sum_i h_i / prod_(j in di) cosh(2 K_ij).

Every spin expectation <s_i^z> is exactly zero in this family, so it
describes symmetric (paramagnetic-looking) states.  On loopy graphs the
Bethe energy of such a state is an estimate, not a bound, and can drop
below the true ground energy.

MaxSum messages live on a coupling grid.  The joint inner maximization
over the couplings around a site never gets enumerated per target value:
for a target coupling K_ij it is max over combos of
[c * prod_k sech(2 K_ik) + sum_k M_k] with c = h_i sech(2 K_ij) >= 0, a
maximum of lines in c, so pruning each neighbor table to its upper
envelope and composing the envelopes gives the exhaustive answer exactly
at a fraction of the cost, at any degree.  Composing two envelopes takes
the envelope of their a*b product lines; a dominance prefilter on the
(a, b) table drops most of them before the sort, only lines the envelope
drops anyway, so the composed front is the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_bp import ParameterSet, observables
from .grids import Grid, _maxsum_loop, tiebreak_order
from .instance import QuantumInstance

DEFAULT_COUPLING_GRID = Grid(step=0.01, half_count=200)

_DENSE_FRONT_LIMIT = 4096


def ss_energy(inst: QuantumInstance, k) -> float:
    """Bethe energy of the zero-field state with trial couplings k."""
    k = np.asarray(k, dtype=np.float64).reshape(-1)
    if k.shape != (inst.m,):
        raise ValueError("need one trial coupling per edge")
    return _observables(inst, k).energy


def _observables(inst, k):
    # at B = 0 the zero cavity fields are an exact BP fixed point
    return observables(inst, ParameterSet(np.zeros(inst.n), k),
                       np.zeros(2 * inst.m))


@dataclass
class SSSolution:
    k: np.ndarray
    energy: float
    m_x: float | None
    q_z: float
    converged: bool
    iterations: int
    residual: float


def _envelope(p: np.ndarray, q: np.ndarray):
    """Prune lines c -> p*c + q (c >= 0) to their upper envelope.

    Drops pointwise-dominated lines with a cumulative max, then runs a
    convex-hull scan; with slopes ascending and intercepts descending the
    survivors are exactly the lines that win somewhere on c >= 0.
    """
    order = np.lexsort((-q, p))
    p, q = p[order], q[order]
    keep = np.ones(p.size, dtype=bool)
    keep[1:] = p[1:] > p[:-1]
    p, q = p[keep], q[keep]
    rev_max = np.maximum.accumulate(q[::-1])[::-1]
    keep = np.ones(p.size, dtype=bool)
    keep[:-1] = q[:-1] > rev_max[1:]
    p, q = p[keep], q[keep]
    if p.size > _DENSE_FRONT_LIMIT:
        return p, q
    hull_p, hull_q = [], []
    # Python floats: the same IEEE arithmetic as numpy scalars, faster
    for x, y in zip(p.tolist(), q.tolist()):
        while len(hull_p) >= 2:
            x1, y1 = hull_p[-2], hull_q[-2]
            x2, y2 = hull_p[-1], hull_q[-1]
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                hull_p.pop()
                hull_q.pop()
            else:
                break
        hull_p.append(x)
        hull_q.append(y)
    return np.asarray(hull_p), np.asarray(hull_q)


def _compose(front_a, front_b):
    """Upper envelope of the product lines (pa_i * pb_j, qa_i + qb_j).

    Before the sort, a line is dropped when an anti-diagonal neighbour in
    the (i, j) table, (i+1, j-1) or (i-1, j+1), is strictly steeper and no
    lower.  _envelope drops every such line anyway, with every line of
    equal (p, q): the steeper one, or the end of a chain of such
    neighbours, dominates them all and survives.  The survivors keep their
    row-major order, so the stable sort breaks ties as on the full
    product and the result is the same bytes.  On hulls, with slopes
    rising and intercepts falling along both axes, what is left to sort
    is a small multiple of the product's Pareto staircase.
    """
    pa, qa = front_a
    pb, qb = front_b
    p = pa[:, None] * pb[None, :]
    q = qa[:, None] + qb[None, :]
    drop = np.zeros(p.shape, dtype=bool)
    # (i, j) against (i+1, j-1), and (i+1, j-1) against (i, j)
    lo_p, lo_q = p[:-1, 1:], q[:-1, 1:]
    hi_p, hi_q = p[1:, :-1], q[1:, :-1]
    drop[:-1, 1:] = (hi_p > lo_p) & (hi_q >= lo_q)
    drop[1:, :-1] |= (lo_p > hi_p) & (lo_q >= hi_q)
    keep = ~drop
    return _envelope(p[keep], q[keep])


def _eval_front(front, c: np.ndarray) -> np.ndarray:
    p, q = front
    out = np.full(c.shape, -np.inf)
    step = max(1, (1 << 22) // max(1, p.size))
    for start in range(0, c.size, step):
        block = c[start:start + step, None]
        out[start:start + step] = np.max(block * p[None, :] + q[None, :], axis=1)
    return out


def ss_maxsum_solve(inst: QuantumInstance, grid: Grid = DEFAULT_COUPLING_GRID,
                    max_iters: int = 1000) -> SSSolution:
    """MaxSum over the coupling grid; extraction is a per-edge arg-max of

        w_e(K) = -J_e tanh(2K) + M_fwd(K) + M_rev(K),

    ties to the smallest |K|, negative first.  Non-convergence (loopy
    graphs) falls back to the best message set seen.
    """
    graph = inst.graph
    vals = grid.values
    sech = 1.0 / np.cosh(2.0 * vals)
    bond_gain = inst.couplings[:, None] * np.tanh(2.0 * vals)[None, :]

    def sweep(messages):
        fronts = [_envelope(sech, messages[d])
                  for d in range(2 * graph.m)]
        new = np.empty_like(messages)
        for d in range(2 * graph.m):
            site = int(graph.src[d])
            others = [fronts[int(d_out) ^ 1] for d_out in graph.out_dirs[site]
                      if int(d_out) != d]
            # the first front is a hull already, and enveloping a hull
            # leaves it unchanged; a leaf keeps the identity front
            front = others[0] if others else (np.ones(1), np.zeros(1))
            for other in others[1:]:
                front = _compose(front, other)
            c = inst.fields[site] * sech
            new[d] = bond_gain[graph.edge_of_dir[d]] + _eval_front(front, c)
        return new

    messages, converged, iterations, residual = _maxsum_loop(
        sweep, (2 * graph.m, vals.size), max_iters)

    # one arg-max per edge over the grid in tie-break order
    order = tiebreak_order(vals)
    weight = -bond_gain + messages[0::2] + messages[1::2]
    k_star = vals[order[np.argmax(weight[:, order], axis=1)]]
    obs = _observables(inst, k_star)
    return SSSolution(
        k=k_star,
        energy=obs.energy,
        m_x=obs.m_x,
        q_z=obs.q_z,
        converged=converged,
        iterations=iterations,
        residual=residual,
    )
