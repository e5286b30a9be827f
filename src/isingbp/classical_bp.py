"""Belief propagation for the Ising trial measure and its energy estimate.

The trial state has amplitudes proportional to exp(sum_i B_i s_i +
sum_(ij) K_ij s_i s_j), so |amplitude|^2 is a classical Gibbs measure with
fields 2B and couplings 2K.  Cavity marginals are parametrized by a single
field per directed edge, mu_{i->j}(s_i) ~ exp(nu_{i->j} s_i), and all
energies below are averages over that measure in the Bethe approximation
(exact on trees).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .instance import ClassicalGraph, QuantumInstance

NU_CAP = 30.0  # cavity fields are clamped here; tanh is saturated far earlier

LOG2 = np.log(2.0)


def logcosh(x):
    """log(cosh(x)), safe for large |x|."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - LOG2


def field_shift(nu, k):
    """Field a neighbor with cavity field nu and coupling k passes on.

    Equals (1/2) log[cosh(nu + 2k) / cosh(nu - 2k)]; odd in nu for k = 0,
    bounded by 2|k|.
    """
    return _shift(nu, 2.0 * k)


def _shift(nu, k2):
    """field_shift given the doubled coupling k2 = 2k."""
    return 0.5 * (logcosh(nu + k2) - logcosh(nu - k2))


def bond_energy(j, k, nu1, nu2):
    """Coupling energy of one bond under the pair-level Bethe marginal.

    nu1, nu2 are the two cavity fields meeting on the bond.  Evaluated in
    log space the ratio of cosh terms collapses to a tanh, which also pins
    the value inside [-|j|, |j|].
    """
    t = 2.0 * k + 0.5 * (logcosh(nu1 + nu2) - logcosh(nu1 - nu2))
    return -j * np.tanh(t)


def _log_y(nu, k):
    """Per-neighbor log factors of the flipped-spin weight, (plus, minus)."""
    base = logcosh(nu)
    return logcosh(nu + 2.0 * k) - base, logcosh(nu - 2.0 * k) - base


def site_energy(h, b, ks, nus):
    """Transverse-field energy of one site given its incident (k, nu) pairs.

    ks and nus are arrays over the neighbors of the site (empty for an
    isolated spin).  Always in [-h, 0].
    """
    ks = np.asarray(ks, dtype=np.float64)
    nus = np.asarray(nus, dtype=np.float64)
    lyp, lym = _log_y(nus, ks)
    return site_energy_from_logs(h, b, lyp.sum(), lym.sum())


def site_energy_from_logs(h, b, lyp, lym):
    """Site energy from accumulated log y factors (vectorizes over arrays)."""
    return -h * _sigma_x_from_logs(b, lyp, lym)


def _sigma_x_from_logs(b, lyp, lym):
    # 2 / (e^{2b} y_+ + e^{-2b} y_-), evaluated via a shifted exponential sum
    a1 = 2.0 * b + lyp
    a2 = -2.0 * b + lym
    m = np.maximum(a1, a2)
    return 2.0 * np.exp(-m) / (np.exp(a1 - m) + np.exp(a2 - m))


@dataclass
class ParameterSet:
    """Trial-measure parameters: per-spin field b and per-edge coupling k."""

    b: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        self.k = np.asarray(self.k, dtype=np.float64).reshape(-1)
        if not (np.all(np.isfinite(self.b)) and np.all(np.isfinite(self.k))):
            raise ValueError("parameters must be finite")


@dataclass
class BPReport:
    converged: bool
    iterations: int
    residual: float


@dataclass
class Observables:
    energy: float
    bond_energies: np.ndarray
    site_energies: np.ndarray
    sigma_z: np.ndarray
    sigma_x: np.ndarray
    m_x: float | None
    q_z: float


def _check_sizes(graph: ClassicalGraph, params: ParameterSet, nu) -> np.ndarray:
    nu = np.asarray(nu, dtype=np.float64).reshape(-1)
    if params.b.shape != (graph.n,) or params.k.shape != (graph.m,):
        raise ValueError("parameter shapes do not match the graph")
    if nu.shape != (2 * graph.m,):
        raise ValueError("need one cavity field per directed edge")
    return nu


def _incoming_shift(graph: ClassicalGraph, params: ParameterSet, nu):
    """shift[d] = field the head of directed edge d sends into its tail."""
    return field_shift(nu[np.arange(2 * graph.m) ^ 1], params.k[graph.edge_of_dir])


def _bp_step(graph: ClassicalGraph, nu, b2_src, k2_dir, rev, sites):
    """One synchronous sweep of R rows of cavity fields, nu of shape (R, 2m).

    b2_src = 2 b[:, src] and k2_dir = 2 k[:, edge_of_dir] per row, rev the
    reverse of each directed edge, sites = src + r * n flattened over the R
    rows, so one bincount sums every row's incoming shifts per site.
    """
    rows = nu.shape[0]
    shift_in = _shift(nu[:, rev], k2_dir)
    total = np.bincount(sites, weights=shift_in.reshape(-1), minlength=rows * graph.n)
    new = b2_src + total[sites].reshape(nu.shape) - shift_in
    return np.clip(new, -NU_CAP, NU_CAP)


def bp_update(graph: ClassicalGraph, params: ParameterSet, nu) -> np.ndarray:
    """One synchronous cavity-field sweep.

    nu'_{i->j} = 2 B_i + sum_{k in di \\ j} field_shift(nu_{k->i}, K_ik),
    clamped to +-NU_CAP.
    """
    nu = _check_sizes(graph, params, nu)
    if graph.m == 0:
        return nu.copy()
    return _bp_step(
        graph, nu[None], 2.0 * params.b[None, graph.src],
        2.0 * params.k[None, graph.edge_of_dir], np.arange(2 * graph.m) ^ 1,
        graph.src,
    )[0]


def bp_fixed_points(graph: ClassicalGraph, b, k, inits, damping: float | None = None,
                    eps: float = 1e-9, max_iters: int = 10000):
    """Iterate R independent BP problems on one graph as one batch.

    Row r has fields b[r] (n), couplings k[r] (m) and start inits[r] (2m).
    Every row damps and stops as bp_fixed_point does; a row that converges
    is frozen with its fields, iteration count and residual and leaves the
    batch, so only the others keep iterating, up to max_iters.  Returns
    (nu of shape (R, 2m), one BPReport per row).
    """
    b = np.asarray(b, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    nu = np.array(inits, dtype=np.float64)
    rows = nu.shape[0] if nu.ndim == 2 else -1
    if b.shape != (rows, graph.n) or k.shape != (rows, graph.m):
        raise ValueError("parameter shapes do not match the graph")
    if nu.shape != (rows, 2 * graph.m):
        raise ValueError("need one cavity field per directed edge")
    if damping is None:
        damping = 0.0 if graph.is_forest else 0.5
    rev = np.arange(2 * graph.m) ^ 1
    b2_src = 2.0 * b[:, graph.src]
    k2_dir = 2.0 * k[:, graph.edge_of_dir]
    sites = (graph.src + graph.n * np.arange(rows)[:, None]).reshape(-1)
    reports: list = [None] * rows
    active = np.arange(rows)
    act = nu
    residual = np.zeros(rows)
    for it in range(1, max_iters + 1):
        new = _bp_step(graph, act, b2_src, k2_dir, rev, sites[:act.size])
        residual = np.max(np.abs(new - act), axis=1, initial=0.0)
        act = (1.0 - damping) * new + damping * act
        done = residual <= eps
        if done.any():
            nu[active[done]] = act[done]
            for r, res in zip(active[done], residual[done]):
                reports[r] = BPReport(converged=True, iterations=it, residual=float(res))
            keep = ~done
            active, act, residual = active[keep], act[keep], residual[keep]
            b2_src, k2_dir = b2_src[keep], k2_dir[keep]
            if not active.size:
                break
    nu[active] = act
    for r, res in zip(active, residual):
        reports[r] = BPReport(converged=False, iterations=max_iters, residual=float(res))
    return nu, reports


def bp_fixed_point(graph: ClassicalGraph, params: ParameterSet, init=None,
                   damping: float | None = None, eps: float = 1e-9,
                   max_iters: int = 10000, rng=None):
    """Iterate bp_update to a fixed point (bp_fixed_points with one row).

    init may be None (zeros), "random" (uniform in [-1, 1] from rng), or an
    explicit field vector.  Damping defaults to 0 on forests and 0.5 on
    loopy graphs.  Returns (nu, BPReport).
    """
    if init is None:
        nu = np.zeros(2 * graph.m)
    elif isinstance(init, str) and init == "random":
        rng = np.random.default_rng(0) if rng is None else rng
        nu = rng.uniform(-1.0, 1.0, size=2 * graph.m)
    else:
        nu = np.asarray(init, dtype=np.float64).reshape(-1)
    nu = _check_sizes(graph, params, nu)
    nus, reports = bp_fixed_points(graph, params.b[None], params.k[None], nu[None],
                                   damping=damping, eps=eps, max_iters=max_iters)
    return nus[0], reports[0]


def observables(inst: QuantumInstance, graph: ClassicalGraph,
                params: ParameterSet, nu) -> Observables:
    """Bethe energy and one-spin observables at the given cavity fields."""
    nu = _check_sizes(graph, params, nu)
    if inst.n != graph.n or not np.array_equal(inst.edge_index, graph.edge_index):
        raise ValueError("instance and graph disagree")
    k_e = params.k
    nu_fwd = nu[0::2]
    nu_rev = nu[1::2]
    bonds = bond_energy(inst.couplings, k_e, nu_fwd, nu_rev)

    if graph.m:
        shift_in = _incoming_shift(graph, params, nu)
        total_shift = np.bincount(graph.src, weights=shift_in, minlength=graph.n)
        k_dir = params.k[graph.edge_of_dir]
        lyp_d, lym_d = _log_y(nu[np.arange(2 * graph.m) ^ 1], k_dir)
        lyp = np.bincount(graph.src, weights=lyp_d, minlength=graph.n)
        lym = np.bincount(graph.src, weights=lym_d, minlength=graph.n)
    else:
        total_shift = np.zeros(graph.n)
        lyp = np.zeros(graph.n)
        lym = np.zeros(graph.n)

    sites = site_energy_from_logs(inst.fields, params.b, lyp, lym)
    sigma_z = np.tanh(2.0 * params.b + total_shift)
    sigma_x = _sigma_x_from_logs(params.b, lyp, lym)
    m_x = None if np.all(inst.fields == 0.0) else float(np.mean(sigma_x))
    return Observables(
        energy=float(bonds.sum() + sites.sum()),
        bond_energies=bonds,
        site_energies=sites,
        sigma_z=sigma_z,
        sigma_x=sigma_x,
        m_x=m_x,
        q_z=float(np.mean(sigma_z ** 2)),
    )
