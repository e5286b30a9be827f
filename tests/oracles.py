"""Independent reference computations used to pin solver outputs.

Everything here is deliberately naive: transfer-matrix style dynamic
programs over grid assignments on chains, and plain enumeration wrappers.
These are written once against the definitions and never against the
solvers they check.
"""

import numpy as np

import testutil


def mf_chain_minimum(inst, grid) -> float:
    """Exact minimum of the product-state energy over grid fields on a chain.

    E(b) = sum_e -J_e tanh(2 b_i) tanh(2 b_j) + sum_i -h_i / cosh(2 b_i),
    minimized by a left-to-right dynamic program; requires edges (i, i+1).
    """
    vals = grid.values
    t = np.tanh(2.0 * vals)
    site = -inst.fields[:, None] / np.cosh(2.0 * vals)
    jmap = {(int(i), int(j)): float(c)
            for (i, j), c in zip(inst.edge_index, inst.couplings)}
    best = site[0].copy()
    for i in range(1, inst.n):
        jj = jmap[(i - 1, i)]
        trans = best[:, None] - jj * t[:, None] * t[None, :]
        best = site[i] + np.min(trans, axis=0)
    return float(np.min(best))


def ss_chain_minimum(inst, grid) -> float:
    """Exact minimum of the spin-symmetric energy over grid couplings on a
    chain.

    E(k) = sum_e -J_e tanh(2 k_e) + sum_i -h_i prod_{e at i} sech(2 k_e),
    with the product over the (at most two) chain edges at site i.
    """
    vals = grid.values
    sech = 1.0 / np.cosh(2.0 * vals)
    jmap = {(int(i), int(j)): float(c)
            for (i, j), c in zip(inst.edge_index, inst.couplings)}
    m = inst.n - 1
    best = -jmap[(0, 1)] * np.tanh(2.0 * vals) - inst.fields[0] * sech
    for i in range(1, m):
        jj = jmap[(i, i + 1)]
        trans = best[:, None] - inst.fields[i] * sech[:, None] * sech[None, :]
        best = np.min(trans, axis=0) - jj * np.tanh(2.0 * vals)
    best = best - inst.fields[m] * sech
    return float(np.min(best))


def energy_of_config(inst, sigma) -> float:
    """Classical Ising energy of one spin configuration (h ignored)."""
    i, j = inst.edge_index[:, 0], inst.edge_index[:, 1]
    return float(-np.sum(inst.couplings * sigma[i] * sigma[j]))


def classical_ground_energy(inst) -> float:
    """Brute-force minimum of the classical coupling energy (h = 0)."""
    if inst.n > 20:
        raise ValueError("too large for enumeration")
    best = np.inf
    for code in range(1 << inst.n):
        sigma = 1.0 - 2.0 * ((code >> np.arange(inst.n)) & 1)
        best = min(best, energy_of_config(inst, sigma))
    return float(best)


def forest_check(graph) -> bool:
    """Whether the graph has no cycle, by union-find over its edges."""
    parent = list(range(graph.n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in graph.edge_index:
        ri, rj = find(int(i)), find(int(j))
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def free_fermion_chain_energy(inst) -> float:
    """Ground energy of an open transverse-field Ising chain, edges (i, i+1).

    The chain maps to free fermions (Lieb, Schultz and Mattis 1961; Pfeuty
    1970): E0 = -sum of the singular values of the bidiagonal M with
    M[i, i] = h_i and M[i, i+1] = J_i.
    """
    mat = np.diag(np.asarray(inst.fields, dtype=np.float64))
    for (i, j), coupling in zip(inst.edge_index, inst.couplings):
        if j != i + 1:
            raise ValueError("free fermions need chain edges (i, i+1)")
        mat[i, j] = coupling
    return float(-np.sum(np.linalg.svd(mat, compute_uv=False)))


def bp_fixed_point_loop(graph, b, k, init, damping, eps, max_iters, patience=None):
    """Damped synchronous BP on one parameter set, one update at a time.

    nu'_{i->j} = 2 b_i + sum_{l in di \\ j} field_shift(nu_{l->i}, k_il),
    clamped to +-NU_CAP, then nu <- (1 - damping) nu' + damping nu, until
    the largest change of an update is <= eps, until the least such change
    has not fallen for `patience` updates (unless patience is None), or for
    max_iters updates.  Without convergence the iterate of least change is
    returned with that change.  Returns (nu, BPReport).
    """
    from isingbp.classical_bp import NU_CAP, BPReport, field_shift

    rev = np.arange(2 * graph.m) ^ 1
    nu = np.array(init, dtype=np.float64)
    best_res, best_nu, best_it = np.inf, nu, 0
    for it in range(1, max_iters + 1):
        if graph.m:
            shift_in = field_shift(nu[rev], k[graph.edge_of_dir])
            total = np.bincount(graph.src, weights=shift_in, minlength=graph.n)
            new = np.clip(2.0 * b[graph.src] + total[graph.src] - shift_in,
                          -NU_CAP, NU_CAP)
            residual = float(np.max(np.abs(new - nu)))
        else:
            new = nu.copy()
            residual = 0.0
        nu = (1.0 - damping) * new + damping * nu
        if residual <= eps:
            return nu, BPReport(converged=True, iterations=it, residual=residual)
        if residual < best_res:
            best_res, best_nu, best_it = residual, nu, it
        if patience is not None and it - best_it >= patience:
            break
    return best_nu, BPReport(converged=False, iterations=it, residual=best_res)


def refit_one(inst, b, k, nu_init, rng):
    """Refit of one gs candidate, start by start, with the gs refit constants.

    Starts are nu_init, zeros and _BP_RESTARTS uniform draws in [-2, 2]
    from rng.  Converged fixed points are deduplicated (max change < 1e-7),
    those with mean |<s^z>| below _DELTA_M rejected unless none passes
    (then flagged), and the lowest energy kept; with no converged start
    the least-residual run is returned unflagged.  Every start stops on
    the refit's patience rule.  Returns (obs, nu, report, fallback,
    reports), reports holding every start's BPReport.
    """
    from isingbp import general
    from isingbp.classical_bp import ParameterSet, observables

    params = ParameterSet(b, k)
    graph = inst.graph
    damping = 0.0 if graph.is_forest else 0.5
    inits = [np.asarray(nu_init), np.zeros(2 * graph.m)]
    for _ in range(general._BP_RESTARTS):
        inits.append(rng.uniform(-2.0, 2.0, size=2 * graph.m))
    fixed, backup, reports = [], None, []
    for init in inits:
        nu, rep = bp_fixed_point_loop(graph, params.b, params.k, init, damping,
                                      general._BP_EPS, general._BP_MAX_ITERS,
                                      general._BP_PATIENCE)
        reports.append(rep)
        obs = observables(inst, params, nu)
        if rep.converged:
            if not any(np.max(np.abs(nu - f[1])) < 1e-7 for f in fixed):
                fixed.append((obs, nu, rep))
        elif backup is None or rep.residual < backup[2].residual:
            backup = (obs, nu, rep)
    if not fixed:
        return (*backup, False, reports)
    passing = [f for f in fixed
               if float(np.mean(np.abs(f[0].sigma_z))) >= general._DELTA_M]
    obs, nu, rep = min(passing or fixed, key=lambda f: f[0].energy)
    return obs, nu, rep, not passing, reports


def hop_tables_dense(j_tanh, tanh_vals, messages):
    """Mean-field hop tables by a full max over every column.

    hop[d][x] = max_y fl(fl(j_tanh[d][x] tanh_y) + M_d(y)), with the (x, y)
    table of one directed edge at a time built in one nb * nb buffer.
    """
    ndir, nb = j_tanh.shape
    hop = np.empty((ndir, nb))
    buf = np.empty((nb, nb))
    for d in range(ndir):
        np.multiply(j_tanh[d][:, None], tanh_vals[None, :], out=buf)
        buf += messages[d][None, :]
        np.max(buf, axis=1, out=hop[d])
    return hop


def mf_sweep(inst, grid):
    """The synchronous mean-field MaxSum sweep messages -> new messages.

    Every message on d = (i -> j) becomes the site term of i plus all hop
    rows into i, less the hop row of the reverse message.  Iterated from
    zero to a residual of 1e-9 it is the reference for the one-pass forest
    messages of mf_maxsum_solve.
    """
    from isingbp.meanfield import _hop_tables, _site_term

    graph = inst.graph
    tanh_vals = np.tanh(2.0 * grid.values)
    site_src = _site_term(inst, grid.values)[graph.src]
    j_tanh = inst.couplings[graph.edge_of_dir][:, None] * tanh_vals[None, :]
    rev = np.arange(2 * graph.m) ^ 1

    def sweep(messages):
        hop = _hop_tables(j_tanh, tanh_vals, messages)
        hop_sum = np.zeros((graph.n, tanh_vals.size))
        np.add.at(hop_sum, graph.dst, hop)
        return site_src + hop_sum[graph.src] - hop[rev]

    return sweep


def maxsum_loop(sweep, shape, max_iters, eps=1e-9):
    """Iterate sweep(messages) -> new messages over a (directed edge, grid
    value) table, each message shifted to max zero, from zero until the
    residual max|new - old| reaches eps, at most max_iters sweeps.

    Without convergence it returns the least-residual message set seen
    (the first of equal residuals).  Returns (messages, converged,
    iterations, residual).
    """
    messages = np.zeros(shape)
    best = (np.inf, messages)
    for iterations in range(1, max_iters + 1):
        new = sweep(messages)
        new = new - new.max(axis=1, keepdims=True)
        residual = float(np.max(np.abs(new - messages))) if new.size else 0.0
        messages = new
        if residual < best[0]:
            best = (residual, messages)
        if residual <= eps:
            return messages, True, iterations, residual
    return best[1], False, max_iters, best[0]


def mf_maxsum_loop(inst, grid, max_iters=1000):
    """Mean-field MaxSum on a forest by synchronous sweeps from zero, then
    meanfield's extraction; returns (b, converged, sweeps, residual)."""
    from isingbp.meanfield import _extract_fields, _hop_tables

    messages, converged, sweeps, residual = maxsum_loop(
        mf_sweep(inst, grid), (2 * inst.m, grid.size), max_iters)
    tanh_vals = np.tanh(2.0 * grid.values)
    j_tanh = inst.couplings[inst.graph.edge_of_dir][:, None] * tanh_vals[None, :]
    hop = _hop_tables(j_tanh, tanh_vals, messages)
    b = _extract_fields(inst, grid.values, messages, hop)
    return b, converged, sweeps, residual


def mf_descent_dense(inst, grid, max_iters, seed):
    """Colour-class descent of meanfield._descent, one start and one site
    at a time, each arg-max taken over the whole grid.

    Same starts (b = 0, b = max(grid), then the seeded draws), the same
    pass and stopping rule, and the winner is the first start of least
    mf_energy.
    Returns (b, converged, passes, residual).
    """
    from isingbp.grids import argmax_tiebreak
    from isingbp.meanfield import _RANDOM_STARTS, mf_energy

    graph = inst.graph
    vals = grid.values
    tanh_v, sech_v = np.tanh(2.0 * vals), 1.0 / np.cosh(2.0 * vals)
    draws = np.random.default_rng(seed).integers(
        vals.size, size=(_RANDOM_STARTS, inst.n))
    starts = [np.full(inst.n, np.argmin(np.abs(vals))),
              np.full(inst.n, vals.size - 1), *draws]
    runs, out_dirs = [], testutil.out_dirs_of(graph)
    for idx in starts:
        idx = idx.copy()
        converged, passes, drop = False, max_iters, 0.0
        for sweep in range(1, max_iters + 1):
            drop = 0.0
            for sites in graph.colour_classes:
                t = tanh_v[idx]
                gains = np.zeros(sites.size)
                new = idx.copy()
                for pos, i in enumerate(sites):
                    out = out_dirs[i]
                    local = np.sum(t[graph.dst[out]]
                                   * inst.couplings[graph.edge_of_dir[out]])
                    score = inst.fields[i] * sech_v + local * tanh_v
                    best = argmax_tiebreak(score, vals)
                    if score[best] > score[idx[i]]:
                        gains[pos] = score[best] - score[idx[i]]
                        new[i] = best
                idx = new
                drop = max(drop, gains.max())
            if drop == 0.0:
                converged, passes = True, sweep
                break
        runs.append((mf_energy(inst, vals[idx]), vals[idx], converged, passes,
                     drop))
    best = min(range(len(runs)), key=lambda r: runs[r][0])
    return runs[best][1:]


def _site_term(h, b, lyp, lym):
    """Transverse-field term of a site: 2h / (e^a1 + e^a2), scaled by max."""
    a1 = 2.0 * b + lyp
    a2 = -2.0 * b + lym
    mx = np.maximum(a1, a2)
    return 2.0 * h * np.exp(-mx) / (np.exp(a1 - mx) + np.exp(a2 - mx))


def _combos(size, ln):
    """(ln, size**ln) state index per neighbour position, last one fastest."""
    if not ln:
        return np.zeros((0, 1), dtype=np.int64)
    return np.stack(
        np.meshgrid(*([np.arange(size)] * ln), indexing="ij")
    ).reshape(ln, -1)


def _fold(table, rows, idx, op=np.add, start=0.0):
    """out[g, c] = start op table[rows[g, 0], idx[0, c]] op ... per position."""
    out = np.full((rows.shape[0], idx.shape[1]), start)
    for pos in range(rows.shape[1]):
        out = op(out, table[rows[:, pos]][:, idx[pos]])
    return out


def window_values_dense(h_sites, cfg, tol, tables, dirs, nbrs):
    """Window table of the exhaustive inner max, built in one piece.

    Entry [g, s, c]: for target state s of directed edge dirs[g] and
    neighbour-state combination c, the best site term over grid fields b
    with 2b + sum(u_in) inside [max(nu_out, c_max - u_t) - tol,
    min(nu_out, c_min - u_t) + tol] (the target's own BP constraint and
    its neighbours'), at the rounded unconstrained optimum clipped into
    that window; -inf when the window holds no grid field.
    """
    size = tables.u_in.shape[1]
    idx = _combos(size, nbrs.shape[1])
    c_max = _fold(tables.c_in, nbrs, idx, np.maximum, -np.inf)[:, None, :]
    c_min = _fold(tables.c_in, nbrs, idx, np.minimum, np.inf)[:, None, :]
    nf = tables.nu_out[dirs][:, :, None]
    u_t = tables.u_in[dirs][:, :, None]
    xlo = np.maximum(nf, c_max - u_t) - tol
    xhi = np.minimum(nf, c_min - u_t) + tol
    sum_u = _fold(tables.u_in, nbrs, idx)[:, None, :]
    lyp = tables.lyp_in[dirs][:, :, None] + _fold(tables.lyp_in, nbrs, idx)[:, None, :]
    lym = tables.lym_in[dirs][:, :, None] + _fold(tables.lym_in, nbrs, idx)[:, None, :]
    db = cfg.delta_b
    ilo = np.maximum(np.ceil((xlo - sum_u) / (2.0 * db) - 1e-9), -cfg.half_b)
    ihi = np.minimum(np.floor((xhi - sum_u) / (2.0 * db) + 1e-9), cfg.half_b)
    feasible = ilo <= ihi
    b_star = (lym - lyp) / 4.0
    b_idx = np.where(feasible, np.clip(np.rint(b_star / db), ilo, ihi), 0.0)
    value = _site_term(h_sites[:, None, None], b_idx * db, lyp, lym)
    return np.where(feasible, value, -np.inf)


def batched_exhaustive_dense(value, messages, nbrs):
    """Inner max over the whole (G, S, C) table of window values plus the
    summed incoming messages of each combination."""
    idx = _combos(messages.shape[1], nbrs.shape[1])
    return np.max(value + _fold(messages, nbrs ^ 1, idx)[:, None, :], axis=2)


def conv_field_max_dense(h_site, cfg, tol, sums, val, t_u, t_nu, t_lyp, t_lym):
    """Final stage of the convolution inner max, every entry against every
    grid field: per target state t, the max of the site term plus val over
    the (b, entry) pairs with |x_plus - (nu_t - 2b)| <= tol and
    |x_rem - (2b + u_t)| <= delta_nu / 2."""
    b_vals = cfg.b_grid().values
    xp, xr, lyp, lym = sums.T
    out = np.full(t_u.size, -np.inf)
    for t in range(t_u.size):
        bi, ei = np.nonzero(
            (np.abs(xp - (t_nu[t] - 2.0 * b_vals)[:, None]) <= tol + 1e-12)
            & (np.abs(xr - (2.0 * b_vals + t_u[t])[:, None])
               <= 0.5 * cfg.delta_nu + 1e-12))
        if bi.size:
            out[t] = np.max(_site_term(h_site, b_vals[bi], lyp[ei] + t_lyp[t],
                                       lym[ei] + t_lym[t]) + val[ei])
    return out


def site_maxes_dense(inst, tables, messages, tol, cfg):
    """Joint max at every site over the whole (sites, S**degree) table.

    For each combination of incident edge states (dir_order order, last
    edge fastest) the local field may take the grid values b with
    2b + sum(u_in) inside [max(c_in) - tol, min(c_in) + tol]; the best is
    the site term at the unconstrained optimum b* = (sum(lym) -
    sum(lyp)) / 4 rounded to the grid and clipped into that window, plus
    the incoming messages, or -inf without a window.  Each site takes its
    first maximum (combination 0 if all are -inf) and that combination's
    field (0 without a window); an isolated site has one empty
    combination and an unconstrained field.  Returns (value (n,), b (n,),
    pick (2m,)).
    """
    graph = inst.graph
    size = tables.u_in.shape[1]
    value, b = np.empty(graph.n), np.empty(graph.n)
    pick = np.empty(2 * graph.m, dtype=np.int64)
    for deg, (sites, rows) in graph.site_groups.items():
        idx = _combos(size, deg)
        c_max = _fold(tables.c_in, rows, idx, np.maximum, -np.inf)
        c_min = _fold(tables.c_in, rows, idx, np.minimum, np.inf)
        sum_u = _fold(tables.u_in, rows, idx)
        lyp = _fold(tables.lyp_in, rows, idx)
        lym = _fold(tables.lym_in, rows, idx)
        db = cfg.delta_b
        ilo = np.maximum(np.ceil((c_max - tol - sum_u) / (2.0 * db) - 1e-9), -cfg.half_b)
        ihi = np.minimum(np.floor((c_min + tol - sum_u) / (2.0 * db) + 1e-9), cfg.half_b)
        feasible = ilo <= ihi
        b_idx = np.where(feasible, np.clip(np.rint((lym - lyp) / 4.0 / db), ilo, ihi), 0.0)
        val = np.where(feasible, _site_term(inst.fields[sites][:, None], b_idx * db,
                                            lyp, lym), -np.inf)
        val = val + _fold(messages, rows ^ 1, idx)
        at = np.argmax(val, axis=1)
        g = np.arange(sites.size)
        value[sites] = val[g, at]
        b[sites] = b_idx[g, at].astype(np.int64) * db
        pick[rows] = idx[:, at].T
    return value, b, pick


def site_shift_max_loop(inst, tables, messages, tol, cfg, site):
    """Joint max at one site, one incident edge at a time.

    Seen from the site's first out-edge d, as the MaxSum sweep sees it:
    over every combination of incident edge states (dir_order order, last
    edge fastest; d's own state s first) the local field may take the
    grid values b with 2b + sum(u_in of the other edges) inside
    [max(nu_out_d(s), max(c_in) - u_d(s)) - tol, min(nu_out_d(s),
    min(c_in) - u_d(s)) + tol], the max and min running over the other
    edges; the best is the site term at b* = (sum(lym) - sum(lyp)) / 4
    rounded to the grid and clipped into that window.  The value is that
    term plus the other edges' incoming messages, then plus d's.  An
    isolated site takes b = 0.  Returns (value, b_value, {dir: state}).
    """
    h = inst.fields[site]
    dirs = [int(x) for x in testutil.out_dirs_of(inst.graph)[site]]
    size = tables.u_in.shape[1]
    if not dirs:
        return float(_site_term(h, 0.0, 0.0, 0.0)), 0.0, {}
    idx = np.stack(
        np.meshgrid(*([np.arange(size)] * len(dirs)), indexing="ij")
    ).reshape(len(dirs), -1)
    sum_u = np.zeros(idx.shape[1])
    lyp = np.zeros(idx.shape[1])
    lym = np.zeros(idx.shape[1])
    sum_m = np.zeros(idx.shape[1])
    c_max = np.full(idx.shape[1], -np.inf)
    c_min = np.full(idx.shape[1], np.inf)
    for pos, d in enumerate(dirs[1:], start=1):
        sel = idx[pos]
        sum_u += tables.u_in[d][sel]
        lyp += tables.lyp_in[d][sel]
        lym += tables.lym_in[d][sel]
        sum_m += messages[d ^ 1][sel]
        c = tables.c_in[d][sel]
        c_max = np.maximum(c_max, c)
        c_min = np.minimum(c_min, c)
    d, s = dirs[0], idx[0]
    u_d, nu_d = tables.u_in[d][s], tables.nu_out[d][s]
    lyp = tables.lyp_in[d][s] + lyp
    lym = tables.lym_in[d][s] + lym
    db = cfg.delta_b
    ilo = np.ceil((np.maximum(nu_d, c_max - u_d) - tol - sum_u) / (2.0 * db) - 1e-9)
    ihi = np.floor((np.minimum(nu_d, c_min - u_d) + tol - sum_u) / (2.0 * db) + 1e-9)
    ilo = np.maximum(ilo, -cfg.half_b)
    ihi = np.minimum(ihi, cfg.half_b)
    feasible = ilo <= ihi
    b_star = (lym - lyp) / 4.0
    b_idx = np.where(feasible, np.clip(np.rint(b_star / db), ilo, ihi), 0.0)
    value = np.where(feasible, _site_term(h, b_idx * db, lyp, lym), -np.inf)
    value = value + sum_m + messages[d ^ 1][s]
    best = int(np.argmax(value))
    choice = {d: int(idx[pos, best]) for pos, d in enumerate(dirs)}
    return float(value[best]), float(b_idx.astype(np.int64)[best] * db), choice


def extract_loop(inst, spaces, messages, tol, cfg, tables, weights):
    """Extraction site by site with site_shift_max_loop.

    Each edge takes its best state by weight; each site its field from the
    joint site max.  maxsum_energy is minus the sum of the site maxima (in
    site order) plus the sum of the finite edge maxima; disagreements
    counts edges whose state at the site max, read at the first site that
    sees the edge, differs from the per-edge pick.  Returns (b, k, nu,
    maxsum_energy, disagreements).
    """
    graph = inst.graph
    edge_pick = np.argmax(weights, axis=1)
    k = spaces.k[np.arange(graph.m), edge_pick]
    nu = np.empty(2 * graph.m)
    nu[0::2] = spaces.nu_fwd[np.arange(graph.m), edge_pick]
    nu[1::2] = spaces.nu_rev[np.arange(graph.m), edge_pick]
    b = np.zeros(graph.n)
    shift_total = 0.0
    disagreements = 0
    seen = set()
    for site in range(graph.n):
        val, b[site], choice = site_shift_max_loop(inst, tables, messages, tol,
                                                   cfg, site)
        shift_total += val
        for d, s_idx in choice.items():
            if d // 2 not in seen:
                seen.add(d // 2)
                disagreements += s_idx != int(edge_pick[d // 2])
    edge_shift = np.max(weights, axis=1)
    finite = np.isfinite(edge_shift)
    maxsum_energy = -(shift_total - float(edge_shift[finite].sum()))
    return b, k, nu, maxsum_energy, disagreements


def init_spaces_loop(graph, cfg, rng, seed_states=None):
    """gs initial spaces one edge and one uniform grid draw at a time.

    Per edge the seed states come first (duplicates dropped, at most
    space_size of them), then uniform draws of k, nu_fwd and nu_rev in
    that order fill the rest; a duplicate is redrawn, and kept from the
    200th try on.  Returns (k, nu_fwd, nu_rev).
    """
    k_vals, nu_vals = cfg.k_grid().values, cfg.nu_grid().values
    s = cfg.space_size
    out = np.zeros((3, graph.m, s))
    for e in range(graph.m):
        states = []
        for st in (seed_states or {}).get(e, []):
            if st not in states and len(states) < s:
                states.append(st)
        guard = 0
        while len(states) < s:
            st = (float(rng.choice(k_vals)), float(rng.choice(nu_vals)),
                  float(rng.choice(nu_vals)))
            guard += 1
            if st in states and guard < 200:
                continue
            states.append(st)
        out[:, e] = np.array(states).T
    return out[0], out[1], out[2]


def gs_resample_loop(spaces, weights, cfg, rng, centers=None, radius_bins=None,
                     dead_edges=()):
    """gs resampling one proposal and one grid snap at a time.

    Per edge the best (1 - _RESAMPLE_FRACTION) states by weight are kept
    (stable order, duplicates dropped; none for a dead edge), then up to
    60 proposals are drawn around the centre (per edge from centers, else
    the best kept state): three normals, k then nu_fwd then nu_rev, each
    scaled by radius times its grid step and snapped to its grid.  A
    duplicate is redrawn; after the 60 proposals, or with no centre, states
    are uniform grid draws, duplicates allowed from the 400th try on.
    Returns (k, nu_fwd, nu_rev, kept).
    """
    m, s = spaces.k.shape
    from isingbp import general

    radius = general._PROPOSAL_RADIUS_BINS if radius_bins is None else radius_bins
    n_new = int(round(general._RESAMPLE_FRACTION * s))
    k_grid, nu_grid = cfg.k_grid(), cfg.nu_grid()
    out = np.empty((3, m, s))
    kept = np.full((m, s), -1, dtype=np.int64)
    for e in range(m):
        order = [] if e in dead_edges else list(
            np.argsort(-weights[e], kind="stable")[: s - n_new])
        states = []
        for old in order:
            st = (float(spaces.k[e, old]), float(spaces.nu_fwd[e, old]),
                  float(spaces.nu_rev[e, old]))
            if st not in states:
                kept[e, len(states)] = old
                states.append(st)
        center = None if centers is None else centers.get(e)
        if center is None and order:
            center = (float(spaces.k[e, order[0]]),
                      float(spaces.nu_fwd[e, order[0]]),
                      float(spaces.nu_rev[e, order[0]]))
        guard = 0
        while len(states) < s:
            guard += 1
            if center is not None and guard <= 60:
                st = (
                    float(k_grid.snap(center[0] + rng.standard_normal() * radius * cfg.delta_k)),
                    float(nu_grid.snap(center[1] + rng.standard_normal() * radius * cfg.delta_nu)),
                    float(nu_grid.snap(center[2] + rng.standard_normal() * radius * cfg.delta_nu)),
                )
            else:
                st = (float(rng.choice(k_grid.values)),
                      float(rng.choice(nu_grid.values)),
                      float(rng.choice(nu_grid.values)))
            if st in states and guard < 400:
                continue
            states.append(st)
        out[:, e] = np.array(states).T
    return out[0], out[1], out[2], kept


def gs_resample_per_edge(spaces, weights, cfg, rng, centers=None, radius_bins=None,
                         dead_edges=()):
    """gs resampling edge by edge, with numpy calls on each edge's arrays.

    The same rule as gs_resample_loop, but each batch of proposals (one per
    free slot, up to the 60th) is drawn as one (batch, 3) normal array and
    snapped by Grid.snap, and uniform draws go through general._fill_uniform.
    Returns (SearchSpace, kept).
    """
    from isingbp import general

    m, s = spaces.k.shape
    radius = general._PROPOSAL_RADIUS_BINS if radius_bins is None else radius_bins
    n_new = int(round(general._RESAMPLE_FRACTION * s))
    k_grid, nu_grid = cfg.k_grid(), cfg.nu_grid()
    k_vals, nu_vals = k_grid.values, nu_grid.values
    new_k = np.empty_like(spaces.k)
    new_nf = np.empty_like(spaces.nu_fwd)
    new_nr = np.empty_like(spaces.nu_rev)
    kept = np.full((m, s), -1, dtype=np.int64)
    for e in range(m):
        if e in dead_edges:
            order = []
        else:
            order = list(np.argsort(-weights[e], kind="stable")[: s - n_new])
        states = []
        have = set()
        for old in order:
            st = spaces.state(e, old)
            if st in have:
                continue
            have.add(st)
            kept[e, len(states)] = old
            states.append(st)
        center = None if centers is None else centers.get(e)
        if center is None and order:
            center = spaces.state(e, order[0])
        guard = 0
        while center is not None and guard < 60 and len(states) < s:
            z = rng.standard_normal((min(s - len(states), 60 - guard), 3))
            for st in zip(
                k_grid.snap(center[0] + z[:, 0] * radius * cfg.delta_k).tolist(),
                nu_grid.snap(center[1] + z[:, 1] * radius * cfg.delta_nu).tolist(),
                nu_grid.snap(center[2] + z[:, 2] * radius * cfg.delta_nu).tolist(),
            ):
                guard += 1
                if st not in have:
                    have.add(st)
                    states.append(st)
        general._fill_uniform(states, have, rng, k_vals, nu_vals, s, guard, 400)
        new_k[e], new_nf[e], new_nr[e] = map(np.array, zip(*states))
    return general.SearchSpace(new_k, new_nf, new_nr), kept


def track_best_loop(spaces, weights, best_weight, best_states):
    """gs best-state bookkeeping one edge at a time: an edge whose finite
    max weight beats best_weight[e] records it and its state at the first
    argmax.  Returns the row maxima."""
    for e in range(weights.shape[0]):
        w = float(np.max(weights[e]))
        if np.isfinite(w) and w > best_weight[e]:
            best_weight[e] = w
            best_states[e] = spaces.state(e, np.argmax(weights[e]))
    return np.max(weights, axis=1)


def refit_eager(inst, candidates, rng):
    """gs refit in one batch, evaluating observables at every start.

    The same starts, draws and bp_fixed_points call as general._refit and
    the same selection rule as refit_one, but each start's observables are
    computed before it is known to be kept.  Returns one (obs, nu, report,
    fallback, reports) per candidate.
    """
    from isingbp import general
    from isingbp.classical_bp import ParameterSet, bp_fixed_points, observables

    graph = inst.graph
    params = [ParameterSet(b, k) for _, b, k, _ in candidates]
    starts = 2 + general._BP_RESTARTS
    inits = []
    for _, _, _, nu_init in candidates:
        inits += [np.asarray(nu_init), np.zeros(2 * graph.m)]
        inits += [rng.uniform(-2.0, 2.0, size=2 * graph.m)
                  for _ in range(general._BP_RESTARTS)]
    nus, reports = bp_fixed_points(
        graph,
        np.repeat(np.stack([p.b for p in params]), starts, axis=0),
        np.repeat(np.stack([p.k for p in params]), starts, axis=0),
        np.stack(inits),
        eps=general._BP_EPS, max_iters=general._BP_MAX_ITERS,
        patience=general._BP_PATIENCE,
    )
    out = []
    for c, p in enumerate(params):
        rows = slice(c * starts, (c + 1) * starts)
        fixed, backup = [], None
        for nu, rep in zip(nus[rows], reports[rows]):
            obs = observables(inst, p, nu)
            if rep.converged:
                if not any(np.max(np.abs(nu - f[1])) < 1e-7 for f in fixed):
                    fixed.append((obs, nu, rep))
            elif backup is None or rep.residual < backup[2].residual:
                backup = (obs, nu, rep)
        if not fixed:
            out.append((*backup, False, reports[rows]))
            continue
        passing = [f for f in fixed
                   if float(np.mean(np.abs(f[0].sigma_z))) >= general._DELTA_M]
        obs, nu, rep = min(passing or fixed, key=lambda f: f[0].energy)
        out.append((obs, nu, rep, not passing, reports[rows]))
    return out


def envelope_loop(p, q):
    """Upper envelope of the lines c -> p*c + q on c >= 0.

    Sort by slope (ties: highest intercept first) and keep one line per
    slope; drop lines whose intercept some steeper line matches or beats;
    then a convex-hull scan on numpy scalars pops the last hull line while
    the new one reaches the line before it no later than the last did.
    Returns (p, q) arrays.
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
    hull_p, hull_q = [], []
    for x, y in zip(p, q):
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


def compose_loop(front_a, front_b):
    """Upper envelope of all a*b product lines (pa_i * pb_j, qa_i + qb_j).

    The whole product in row-major order goes to envelope_loop, with no
    pruning before the sort.  Returns (p, q) arrays.
    """
    pa, qa = front_a
    pb, qb = front_b
    p = (pa[:, None] * pb[None, :]).ravel()
    q = (qa[:, None] + qb[None, :]).ravel()
    return envelope_loop(p, q)


def eval_front_loop(front, c):
    """max over the front's lines of p*c + q at every c, in blocks of c."""
    p, q = front
    out = np.full(c.shape, -np.inf)
    step = max(1, (1 << 22) // max(1, p.size))
    for start in range(0, c.size, step):
        block = c[start:start + step, None]
        out[start:start + step] = np.max(block * p[None, :] + q[None, :], axis=1)
    return out


def ss_sweep_loop(inst, grid, messages):
    """One zero-field MaxSum sweep, one directed edge at a time.

    Each message M is enveloped as the lines (sech(2K), M(K)); the new
    message on d = (i -> j) is -J tanh(2K) plus the maximum, at
    c = h_i sech(2K), of the composition of the fronts of the other
    messages into i, in dir_order order (the first as it is, a leaf the
    identity front).
    """
    graph = inst.graph
    vals = grid.values
    sech = 1.0 / np.cosh(2.0 * vals)
    bond_gain = inst.couplings[:, None] * np.tanh(2.0 * vals)[None, :]
    fronts = [envelope_loop(sech, messages[d]) for d in range(2 * graph.m)]
    new = np.empty_like(messages)
    out_dirs = testutil.out_dirs_of(graph)
    for d in range(2 * graph.m):
        site = int(graph.src[d])
        others = [fronts[int(d_out) ^ 1] for d_out in out_dirs[site]
                  if int(d_out) != d]
        front = others[0] if others else (np.ones(1), np.zeros(1))
        for other in others[1:]:
            front = compose_loop(front, other)
        c = inst.fields[site] * sech
        new[d] = bond_gain[graph.edge_of_dir[d]] + eval_front_loop(front, c)
    return new
