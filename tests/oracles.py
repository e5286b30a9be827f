"""Independent reference computations used to pin solver outputs.

Everything here is deliberately naive: transfer-matrix style dynamic
programs over grid assignments on chains, and plain enumeration wrappers.
These are written once against the definitions and never against the
solvers they check.
"""

import numpy as np


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


def bp_fixed_point_loop(graph, b, k, init, damping, eps, max_iters):
    """Damped synchronous BP on one parameter set, one update at a time.

    nu'_{i->j} = 2 b_i + sum_{l in di \\ j} field_shift(nu_{l->i}, k_il),
    clamped to +-NU_CAP, then nu <- (1 - damping) nu' + damping nu, until
    the largest change of an update is <= eps.  Returns (nu, BPReport).
    """
    from isingbp.classical_bp import NU_CAP, BPReport, field_shift

    rev = np.arange(2 * graph.m) ^ 1
    nu = np.array(init, dtype=np.float64)
    residual = 0.0
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
    return nu, BPReport(converged=False, iterations=max_iters, residual=residual)


def refit_one(inst, graph, b, k, nu_init, cfg, rng):
    """Refit of one gs candidate, start by start.

    Starts are nu_init, zeros and cfg.bp_restarts uniform draws in [-2, 2]
    from rng.  Converged fixed points are deduplicated (max change < 1e-7),
    those with mean |<s^z>| below delta_m rejected unless none passes
    (then flagged), and the lowest energy kept; with no converged start
    the least-residual run is returned unflagged.  Returns (obs, nu,
    report, fallback).
    """
    from isingbp.classical_bp import ParameterSet, observables

    params = ParameterSet(b, k)
    damping = 0.0 if graph.is_forest else 0.5
    inits = [np.asarray(nu_init), np.zeros(2 * graph.m)]
    for _ in range(cfg.bp_restarts):
        inits.append(rng.uniform(-2.0, 2.0, size=2 * graph.m))
    fixed, backup = [], None
    for init in inits:
        nu, rep = bp_fixed_point_loop(graph, params.b, params.k, init, damping,
                                      cfg.bp_eps, cfg.bp_max_iters)
        obs = observables(inst, graph, params, nu)
        if rep.converged:
            if not any(np.max(np.abs(nu - f[1])) < 1e-7 for f in fixed):
                fixed.append((obs, nu, rep))
        elif backup is None or rep.residual < backup[2].residual:
            backup = (obs, nu, rep)
    if not fixed:
        return (*backup, False)
    passing = [f for f in fixed if cfg.delta_m == 0.0
               or float(np.mean(np.abs(f[0].sigma_z))) >= cfg.delta_m]
    obs, nu, rep = min(passing or fixed, key=lambda f: f[0].energy)
    return obs, nu, rep, not passing


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
