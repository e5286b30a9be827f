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
at a fraction of the cost, at any degree.

On a loopy graph a sweep computes all 2m new messages from the old ones
in batched passes over the directed edges, rows in blocks of at most
_BLOCK_ELEMS table entries.  On a forest one collect/distribute pass
runs the same stages once per batch of graph.forest_schedule.  Both keep
every float expression of the one-edge-at-a-time sweep
(tests/oracles.py), so the messages are the same bytes:

1. Fronts.  Every message envelopes the lines (sech(2K), M(K)), whose
   slopes are sorted once: each equal-slope group keeps its largest
   intercept, the first on ties, and a reverse cumulative max drops the
   lines that a steeper one matches or beats.
2. Compose.  Composing two envelopes takes the envelope of their a*b
   product lines.  Line i of a hull wins on a window of c, so the
   product line (i, j) can win only where the windows of i and j,
   scaled by their slopes, meet; both run monotone along their hulls,
   so one merge over a block of rows finds each i's consecutive range
   of j.  Only those candidates are made (on ±J and Gaussian regular
   graphs fewer than a + b per composition, nearly all of them on its
   hull), and one sort call orders those of a block of rows, row by row.
3. Evaluate.  A front's maximum of p*c + q at each c, at the distinct
   slopes only, since c(K) = c(-K): the float max over the few lines
   whose unscaled windows hold c, found for a block of rows by one
   search of the window ends among the c values.

Both envelope stages end in the convex-hull scan, a sequential stack
pass.  Where it pops each line it pops at the next line, one at a time,
as it does on almost every front at degree 3, numpy foresees the whole
run from one test per line (_single_pops); a row that pops nothing is
the simplest such case.  Only the other rows run the Python scan
(_hull_scan), line by line, and so does a large front that has its
block to itself, where foreseeing the run costs about what the scan does.
"""

from __future__ import annotations

import numpy as np

from .classical_bp import ParameterSet, Solution, energy_kind_of, observables
from .grids import (Grid, _maxsum_loop, _normalized, check_count,
                    tiebreak_order)
from .instance import QuantumInstance

DEFAULT_COUPLING_GRID = Grid(step=0.01, half_count=200)

_BLOCK_ELEMS = 1 << 14  # entries per temporary table of a block of rows
_SLACK = 1e-6  # relative widening of the line windows in c
_ROUNDING = 2.0 ** -40  # rounding a float scan may hide, relative to sizes
_RANGE = 2.0 ** 511  # products of slopes within [1/_RANGE, _RANGE] are normal
_FRONT_BITS = 24  # window keys hold front indices below 2**24

# the front of a leaf: max over no neighbours is c itself
_IDENTITY = (np.ones(1), np.zeros(1), np.array([0, 1]))


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


def _hull_scan(xs: list, ys: list, lo: int, hi: int) -> list:
    """Indices of the lines c -> xs[i]*c + ys[i], lo <= i < hi, that the
    convex-hull scan keeps.

    The lines come by strictly rising slope with strictly falling
    intercept; the scan pops the last hull line while the new one reaches
    the line before it no later than the last did, so the survivors are
    exactly the lines that win somewhere on c >= 0.
    """
    # Python floats: the same IEEE arithmetic as numpy scalars, faster
    hull = [lo]
    x2, y2 = xs[lo], ys[lo]
    for k in range(lo + 1, hi):
        x, y = xs[k], ys[k]
        while len(hull) >= 2:
            x1, y1 = xs[hull[-2]], ys[hull[-2]]
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1):
                hull.pop()
                x2, y2 = x1, y1
            else:
                break
        hull.append(k)
        x2, y2 = x, y
    return hull


def _pops(p, q, i, j, k):
    """The hull scan's test on lines i < j < k: j goes when k reaches i no
    later than j does."""
    return (q[j] - q[i]) * (p[k] - p[i]) <= (q[k] - q[i]) * (p[j] - p[i])


def _single_pops(rows, p, q):
    """Which lines the hull scan pops, where its run is easy to foresee.

    The lines come flat, row by row.  On each new line k the scan tests
    the last hull line t = k-1 against the one below it and pops t while
    the test holds.  Guess that it pops exactly the middles of the
    consecutive triples that pass the test, each at the next line.  The
    guess is the scan's run iff at every k of a row, with b the last line
    before t that the guess keeps and bb the last before b: t popped
    passes the test on (b, t, k) and fails it on (bb, b, k) or has no bb;
    t kept fails the test on (b, t, k) or has no b.  That takes one test
    per line, in numpy.  Returns the guessed pops and the rows where the
    guess is wrong.
    """
    n = p.size
    line = np.arange(n)
    popped = np.zeros(n, dtype=bool)
    popped[1:-1] = (rows[2:] == rows[:-2]) & _pops(p, q, line[:-2], line[1:-1], line[2:])
    # below[i]: the last line before i that the guess keeps, or -1
    below = np.full(n, -1)
    below[1:] = np.maximum.accumulate(np.where(popped, -1, line))[:-1]
    k = line[1:][rows[1:] == rows[:-1]]
    t = k - 1
    b = below[t]
    bb = below[np.maximum(b, 0)]
    has_b = (b >= 0) & (rows[np.maximum(b, 0)] == rows[t])
    has_bb = has_b & (bb >= 0) & (rows[np.maximum(bb, 0)] == rows[t])
    b, bb = np.maximum(b, 0), np.maximum(bb, 0)
    pops_t = has_b & _pops(p, q, b, t, k)
    pops_b = has_bb & _pops(p, q, bb, b, k)
    right = np.where(popped[t], pops_t & ~pops_b, ~pops_t)
    return popped, np.unique(rows[k[~right]])


def _settle(p, q, valid):
    """Upper envelopes of the rows of a (rows, width) line table.

    Each row holds its lines at the True entries of valid, by strictly
    rising slope, with finite intercepts, and -inf at the other entries.
    A line is dropped when a steeper one of its row is no lower, then
    the rows go through the hull scan: the Python scan where _single_pops
    cannot foresee it, or where a row has its block to itself.  Returns
    the fronts (p, q, start): flat arrays, row r's lines at
    [start[r], start[r + 1]).
    """
    rev_max = np.maximum.accumulate(q[:, ::-1], axis=1)[:, ::-1]
    keep = valid.copy()
    keep[:, :-1] &= q[:, :-1] > rev_max[:, 1:]
    count = keep.sum(axis=1)
    rows = np.repeat(np.arange(count.size), count)
    p, q = p[keep], q[keep]
    if len(count) > 1:
        popped, redo = _single_pops(rows, p, q)
    else:  # a large front alone in its block: foreseeing costs a scan
        popped, redo = np.zeros(p.size, dtype=bool), np.flatnonzero(count > 2)
    keep = ~popped
    start = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=start[1:])
    if redo.size:
        xs, ys = p.tolist(), q.tolist()
        for lo, hi in zip(start[redo].tolist(), start[redo + 1].tolist()):
            keep[lo:hi] = False
            keep[_hull_scan(xs, ys, lo, hi)] = True
    np.cumsum(np.bincount(rows[keep], minlength=count.size), out=start[1:])
    return p[keep], q[keep], start


def _join(parts):
    """One fronts triple from the fronts of consecutive blocks of rows."""
    if len(parts) == 1:
        return parts[0]
    count = np.concatenate([np.diff(start) for _, _, start in parts])
    start = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=start[1:])
    return (np.concatenate([p for p, _, _ in parts]),
            np.concatenate([q for _, q, _ in parts]), start)


def _blocks(sizes, budget):
    """Blocks of row indices, in ascending order of sizes, each small
    enough that its padded table, rows x the largest size, holds at most
    budget entries (or is one row)."""
    order = np.argsort(sizes, kind="stable")
    sizes = sizes[order]
    s = 0
    while s < order.size:
        cost = np.arange(1, order.size - s + 1) * sizes[s:]
        e = s + max(1, int(np.searchsorted(cost, budget, side="right")))
        yield order[s:e]
        s = e


def _flat(first, count):
    """The count[g] indices first[g], first[g] + 1, ... of every g in turn."""
    return np.arange(count.sum()) + np.repeat(first - (np.cumsum(count) - count), count)


def _slope_groups(sech):
    """The distinct slopes in ascending order, the group of each grid
    value, the column of each group's first member, and per further rank
    the columns of the members of that rank with their groups.  Equal
    slopes keep grid order within their group."""
    order = np.argsort(sech, kind="stable")
    s = sech[order]
    new = np.ones(s.size, dtype=bool)
    new[1:] = s[1:] > s[:-1]
    group = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    rank = np.arange(s.size) - first[group]
    inverse = np.empty(s.size, dtype=np.int64)
    inverse[order] = group
    ties = [(order[rank == t], group[rank == t])
            for t in range(1, rank.max(initial=0) + 1)]
    return s[first], inverse, order[first], ties


def _fronts(messages, slopes):
    """The envelope of the lines (sech(2K), M(K)) of every message."""
    u, _, heads, ties = slopes
    parts = []
    step = max(1, _BLOCK_ELEMS // max(1, messages.shape[1]))
    for s in range(0, max(1, len(messages)), step):
        block = messages[s:s + step]
        q = block[:, heads]
        # the largest intercept per slope, the first in grid order on ties
        for cols, groups in ties:
            cand, cur = block[:, cols], q[:, groups]
            q[:, groups] = np.where(cand > cur, cand, cur)
        parts.append(_settle(np.broadcast_to(u, q.shape), q,
                             np.ones(q.shape, dtype=bool)))
    return _join(parts)


def _keys(front, x):
    """Keys of the values x >= 0 (or their bit patterns) of fronts, rounded down."""
    return (front << (63 - _FRONT_BITS)) | (x.view(np.int64) >> _FRONT_BITS)


def _window_keys(fronts, delta, scaled=True):
    """Integer keys (lo, hi) of the c-windows of every line of every front,
    times its slope if scaled: ordered by (front, end), monotone per front.

    On a hull, with slopes p strictly rising and intercepts strictly
    falling, and no _pops on consecutive lines, line k wins p*c + q on the
    window between its crossings with its neighbours (0 before the first
    line, inf after the last).  A float scan or max can keep a line that
    misses by rounding, so each crossing moves out to where the neighbour
    comes within delta plus _ROUNDING times the slope terms, and the
    window widens by _SLACK.  Every line of a front that is not such a
    hull, or has slopes or intercepts outside _RANGE, gets [0, inf].

    A key (_keys) holds the front index in its top _FRONT_BITS bits and
    below them the top bits of the end's float64 pattern, which order like
    the end itself for ends >= 0; truncation rounds lo down and hi up.  A
    reverse cumulative min of lo and a cumulative max of hi along each
    front make its windows monotone and only widen them.  The fronts go in
    chunks of at most _BLOCK_ELEMS lines (or one front).
    """
    p_all, q_all, start = fronts
    lo_keys = np.empty(p_all.size, dtype=np.int64)
    hi_keys = np.empty(p_all.size, dtype=np.int64)
    f = 0
    while f < start.size - 1:
        e = max(f + 1, int(np.searchsorted(start, start[f] + _BLOCK_ELEMS, side="right")) - 1)
        lines = slice(start[f], start[e])
        p, q = p_all[lines], q_all[lines]
        count = start[f + 1:e + 1] - start[f:e]
        front = np.repeat(np.arange(f, e), count)
        same = front[1:] == front[:-1]  # lines k and k + 1 in one front
        # the arithmetic on fronts that are not hulls is discarded
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            bad = ~((p >= 1.0 / _RANGE) & (p <= _RANGE) & (np.abs(q) <= _RANGE ** 2))
            bad[1:] |= same & ~((p[1:] > p[:-1]) & (q[1:] < q[:-1]))
            bad[1:-1] |= same[1:] & same[:-1] & _pops(
                p, q, slice(None, -2), slice(1, -1), slice(2, None))
            hull = (np.bincount(front[bad] - f, minlength=count.size) == 0)[front - f]
            dq, dp = q[:-1] - q[1:], p[1:] - p[:-1]
            slack = _ROUNDING * p[1:]
            lo = np.zeros(p.size)
            lo[1:] = np.where(same, (dq - delta) / (dp + slack), 0.0)
            hi = np.full(p.size, np.inf)
            hi[:-1] = np.where(same & (dp > slack), (dq + delta) / (dp - slack), np.inf)
            w = p if scaled else 1.0
            lo = np.where(hull & (lo > 0), lo * w * (1.0 - _SLACK), 0.0)
            hi = np.where(hull, hi * w * (1.0 + _SLACK), np.inf)
        lo_keys[lines] = np.minimum.accumulate(_keys(front, lo)[::-1])[::-1]
        hi_keys[lines] = np.maximum.accumulate(
            _keys(front, hi.view(np.int64) + ((1 << _FRONT_BITS) - 1)))
        f = e
    return lo_keys, hi_keys


def _ranges(fa, keys_a, ra, keys_b, rb):
    """The candidate lines of rows ra, rb: for each line i of front ra[g]
    of every row g, its flat index in fa, and the flat index in fb of the
    first of the lines j of front rb[g] whose scaled windows meet i's, and
    their number (they are consecutive).  The lines of a row come in
    order, rows after each other.  Also returns the line count of each
    front ra[g].
    """
    start = fa[2]
    a = start[ra + 1] - start[ra]
    ia = _flat(start[ra], a)
    other = np.repeat(rb << (63 - _FRONT_BITS), a)
    mask = (1 << (63 - _FRONT_BITS)) - 1
    j0 = np.searchsorted(keys_b[1], other | (keys_a[0][ia] & mask), side="left")
    j1 = np.searchsorted(keys_b[0], other | (keys_a[1][ia] & mask), side="right")
    return ia, j0, np.maximum(j1 - j0, 0), a


def _sizes(fa, keys_a, ra, keys_b, rb):
    """The candidate count of every row of _ranges, rows in blocks of at
    most _BLOCK_ELEMS lines of fa."""
    size = np.empty(ra.size, dtype=np.int64)
    for block in _blocks(np.diff(fa[2])[ra], _BLOCK_ELEMS):
        _, _, count, a = _ranges(fa, keys_a, ra[block], keys_b, rb[block])
        total = np.concatenate([[0], np.cumsum(count)])
        ends = np.cumsum(a)
        size[block] = total[ends] - total[ends - a]
    return size


def _candidates(fa, keys_a, ra, fb, keys_b, rb, size):
    """The candidate lines (pa_i * pb_j, qa_i + qb_j) of rows ra, rb, size
    of them per row, made in row-major (i, j) order: the (rows, width)
    slope and intercept tables by slope, the highest first, ties in
    row-major order, then slope +inf and intercept -inf; and the mask of
    the first line of each slope, where the other intercepts are -inf.
    """
    ia, j0, count, _ = _ranges(fa, keys_a, ra, keys_b, rb)
    ia, jb = np.repeat(ia, count), _flat(j0, count)
    first = np.arange(size.max()) < size[:, None]
    p = np.full(first.shape, np.inf)
    q = np.full(first.shape, -np.inf)
    p[first] = fa[0][ia] * fb[0][jb]
    q[first] = fa[1][ia] + fb[1][jb]
    order = np.lexsort((-q, p), axis=1)
    p = np.take_along_axis(p, order, axis=1)
    q = np.take_along_axis(q, order, axis=1)
    first[:, 1:] &= p[:, 1:] > p[:, :-1]
    q[~first] = -np.inf
    return p, q, first


def _compose(batch_a, batch_b):
    """Upper envelopes of the product lines (pa_i * pb_j, qa_i + qb_j).

    A batch is (fronts, rows): row g composes front rows_a[g] of the
    first with front rows_b[g] of the second.  Returns the batch of the
    composed fronts.

    A product line can win at c only where i wins in the first front at
    c * pb_j and j in the second at c * pa_i, that is where their scaled
    windows (_window_keys) meet.  Only those lines are made, in row-major
    (i, j) order, so a stable sort breaks ties as on the full product and
    the envelope is the same bytes.
    """
    (fa, ra), (fb, rb) = batch_a, batch_b
    # rounding of the product lines, in intercept terms
    delta = _ROUNDING * sum(max(-q.min(initial=0.0), q.max(initial=0.0))
                            for q in (fa[1], fb[1]))
    keys_a = _window_keys(fa, delta)
    keys_b = keys_a if fb is fa else _window_keys(fb, delta)
    size = _sizes(fa, keys_a, ra, keys_b, rb)
    parts = []
    # a quarter of the budget: these tables reach _settle while the sweep
    # holds its fronts, their window keys and the new messages
    blocks = list(_blocks(size, _BLOCK_ELEMS // 4))
    for block in blocks:
        parts.append(_settle(*_candidates(fa, keys_a, ra[block], fb, keys_b,
                                          rb[block], size[block])))
    # the composed fronts come in block order
    rows = np.empty(ra.size, dtype=np.int64)
    rows[np.concatenate(blocks)] = np.arange(ra.size)
    return _join(parts), rows


def _evaluate(batch, h, slopes):
    """Yield (rows, maxima) over blocks of rows: row g's maximum of
    p*c + q over its front's lines at c = h[g] * sech(2K) on the grid.

    Only at the distinct slopes, as c(K) = c(-K), and only over the
    consecutive lines whose unscaled windows (_window_keys) hold c: a line
    outside is below a neighbour by more than the rounding of both.
    """
    (p, q, start), rows = batch
    u, inverse = slopes[:2]
    delta = _ROUNDING * max(-q.min(initial=0.0), q.max(initial=0.0))
    a = start[rows + 1] - start[rows]
    for block in _blocks(a + u.size, _BLOCK_ELEMS):
        lines = _flat(start[rows[block]], a[block])
        lp, lq = p[lines], q[lines]
        lo_keys, hi_keys = _window_keys(
            (lp, lq, np.concatenate([[0], np.cumsum(a[block])])), delta, scaled=False)
        c = (h[block, None] * u).ravel()
        # sorted, as h >= 0; |c| turns the c = -0.0 of a field -0.0 into 0.0
        key = _keys(np.arange(block.size).repeat(u.size), np.abs(c))
        # line k's window holds the c_j, lo <= j < hi: the first line of
        # each c_j, then the rare further ones in line order
        lo = np.searchsorted(key, lo_keys, side="left")
        hi = np.searchsorted(key, hi_keys, side="right")
        first = np.repeat(np.arange(lines.size), hi - np.concatenate([[0], hi[:-1]]))
        top = lp[first] * c + lq[first]
        more = np.maximum(hi[:-1] - lo[1:], 0)
        if more.any():
            line, j = np.repeat(np.arange(1, lines.size), more), _flat(lo[1:], more)
            np.maximum.at(top, j, lp[line] * c[j] + lq[line])
        yield block, top.reshape(block.size, -1)[:, inverse]


def _emitter(inst: QuantumInstance, grid: Grid):
    """emit(groups, fronts, out) and the slope groups of the grid.

    emit writes into out[d] the new message of each directed edge d of
    groups, an iterable of (ln, dirs, rows) with rows[g, k] the row of
    fronts that holds the front of the k-th message dirs[g] reads: the
    messages into src[d] from its other neighbours, in dir_order order.
    The first front is a hull already, and enveloping a hull leaves it
    unchanged; a leaf keeps the identity front.
    """
    graph = inst.graph
    vals = grid.values
    sech = 1.0 / np.cosh(2.0 * vals)
    bond_gain = inst.couplings[:, None] * np.tanh(2.0 * vals)[None, :]
    slopes = _slope_groups(sech)

    def emit(groups, fronts, out):
        for ln, dirs, rows in groups:
            if ln == 0:
                batch = (_IDENTITY, np.zeros(dirs.size, dtype=np.int64))
            else:
                batch = (fronts, rows[:, 0])
            for k in range(1, ln):
                batch = _compose(batch, (fronts, rows[:, k]))
            for block, top in _evaluate(batch, inst.fields[graph.src[dirs]], slopes):
                d = dirs[block]
                out[d] = top + bond_gain[graph.edge_of_dir[d]]

    return emit, slopes


def _sweeper(inst: QuantumInstance, grid: Grid):
    """The MaxSum sweep messages -> new messages of ss_maxsum_solve on a
    loopy graph."""
    emit, slopes = _emitter(inst, grid)
    groups = inst.graph.sweep_groups

    def sweep(messages):
        # fronts before new: on large graphs the order of these
        # allocations moves the process's peak resident memory by MBs
        fronts = _fronts(messages, slopes)
        new = np.empty_like(messages)
        emit(((ln, dirs, nbrs ^ 1) for ln, (dirs, nbrs) in groups.items()),
             fronts, new)
        return new

    return sweep


def _forest_messages(inst: QuantumInstance, grid: Grid) -> np.ndarray:
    """The MaxSum messages of a forest in one pass of graph.forest_schedule.

    Each batch envelopes only the messages it reads, which earlier
    batches made final, and its new messages are normalized as in
    _maxsum_loop.  Every stage computes each row on its own, so the
    messages are the bytes of a fixed point of the loopy sweep.
    """
    graph = inst.graph
    emit, slopes = _emitter(inst, grid)
    messages = np.zeros((2 * graph.m, grid.size))
    for dirs, groups in graph.forest_schedule():
        read = np.unique(np.concatenate([nbrs.ravel() ^ 1
                                         for _, nbrs in groups.values()]))
        emit([(ln, sub, np.searchsorted(read, nbrs ^ 1))
              for ln, (sub, nbrs) in groups.items()],
             _fronts(messages[read], slopes), messages)
        messages[dirs] = _normalized(messages[dirs])
    return messages


def ss_maxsum_solve(inst: QuantumInstance, grid: Grid = DEFAULT_COUPLING_GRID,
                    max_iters: int = 1000) -> Solution:
    """MaxSum over the coupling grid; extraction is a per-edge arg-max of

        w_e(K) = -J_e tanh(2K) + M_fwd(K) + M_rev(K),

    ties to the smallest |K|, negative first.

    On a forest one collect/distribute pass (_forest_messages) computes
    every message once from final inputs; the result reports
    converged=True, iterations=1 and residual=0.0, and max_iters does not
    limit it.  On a loopy graph synchronous sweeps run from zero messages
    until the residual reaches 1e-9, at most max_iters of them (counted
    by iterations); without convergence the extraction uses the best
    message set seen and converged is False.
    """
    check_count("max_iters", max_iters, 1)
    vals = grid.values
    if inst.graph.is_forest:
        messages = _forest_messages(inst, grid)
        converged, iterations, residual = True, 1, 0.0
    else:
        messages, converged, iterations, residual = _maxsum_loop(
            _sweeper(inst, grid), (2 * inst.m, vals.size), max_iters)

    # one arg-max per edge over the grid in tie-break order
    order = tiebreak_order(vals)
    bond_gain = inst.couplings[:, None] * np.tanh(2.0 * vals)[None, :]
    weight = -bond_gain + messages[0::2] + messages[1::2]
    k_star = vals[order[np.argmax(weight[:, order], axis=1)]]
    obs = _observables(inst, k_star)
    return Solution(energy=obs.energy, m_x=obs.m_x, q_z=obs.q_z,
                    converged=converged, iterations=iterations,
                    energy_kind=energy_kind_of(inst.graph, k_star),
                    residual=residual, k=k_star)
