"""Homogeneous trial states on degree-regular ferromagnets.

All sites share one field B and all edges one coupling K, so the cavity
field reduces to a scalar fixed point nu = 2B + (d-1) u(nu, K), and the
energy per spin is the Bethe energy of classical_bp at d identical
neighbors.  A grid scan over (B, K) with a damped, Newton-polished fixed
point at every grid node gives the variational optimum; restricting to
K = 0 recovers the mean-field case.  The transition field is located by
bisection on the scan magnetization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_bp import (Solution, _log_y, _sigma_x_from_logs, bond_energy,
                           energy_kind_of, field_shift)
from .grids import check_positive

MZ_THRESHOLD = 1e-3

_B_MAX = 1.2  # the scan runs B and K from 0 to these
_K_MAX = 1.2
_DAMPING = 0.5  # of the fixed-point iteration, which stops
_MAX_ITERS = 3000  # after this many steps
_FP_TOL = 1e-13  # or once every step is smaller;
_NEWTON_STEPS = 12  # then Newton steps polish the root
_RESIDUAL_TOL = 1e-10  # largest residual of a converged node


@dataclass
class HomogConfig:
    """Scan resolution delta of the (B, K) grid; mf_only fixes K = 0."""

    delta: float = 0.01
    mf_only: bool = False

    def __post_init__(self):
        check_positive("delta", self.delta)
        if not isinstance(self.mf_only, (bool, np.bool_)):
            raise ValueError(f"mf_only must be true or false, got {self.mf_only!r}")


@dataclass
class HomogeneousPoint:
    """One evaluated (B, K) trial state on the d-regular ferromagnet."""

    h: float
    degree: int
    b: float
    k: float
    nu: float
    energy: float
    m_z: float
    m_x: float | None
    converged: bool


def _u_prime(nu, k):
    return 0.5 * (np.tanh(nu + 2.0 * k) - np.tanh(nu - 2.0 * k))


def homog_fixed_point(b, k, degree):
    """Solve nu = 2b + (degree-1) u(nu, k) elementwise over broadcast grids.

    Three starts (saturated positive, saturated negative, zero) catch the
    coexisting branches.  Returns (nu, converged) with shape
    (3,) + broadcast(b, k); nonconverged entries keep their last iterate.
    """
    b, k = np.broadcast_arrays(np.asarray(b, float), np.asarray(k, float))
    sat = 2.0 * (degree - 1) * np.abs(k)
    nu = np.stack([2.0 * b + sat, 2.0 * b - sat, np.zeros_like(b)])
    shape = nu.shape
    nu = nu.ravel()
    bb = np.broadcast_to(b, shape).ravel()
    kk = np.broadcast_to(k, shape).ravel()
    gamma = _DAMPING
    # iterate only the entries that have not settled yet
    active = np.arange(nu.size)
    for _ in range(_MAX_ITERS):
        na, ba, ka = nu[active], bb[active], kk[active]
        step = 2.0 * ba + (degree - 1) * field_shift(na, ka) - na
        nu[active] = na + (1.0 - gamma) * step
        live = np.abs(step) >= _FP_TOL
        active = active[live]
        if active.size == 0:
            break
    for _ in range(_NEWTON_STEPS):
        g = 2.0 * bb + (degree - 1) * field_shift(nu, kk) - nu
        gp = (degree - 1) * _u_prime(nu, kk) - 1.0
        safe = np.abs(gp) > 1e-12
        nu = np.where(safe, nu - g / np.where(safe, gp, 1.0), nu)
    residual = np.abs(2.0 * bb + (degree - 1) * field_shift(nu, kk) - nu)
    return nu.reshape(shape), (residual <= _RESIDUAL_TOL).reshape(shape)


def homog_energy(h, degree, b, k, nu):
    """Energy per spin and magnetizations at a solved cavity field.

    Broadcasts elementwise; returns (energy, m_z, sigma_x)."""
    b, k, nu = (np.asarray(x, float) for x in (b, k, nu))
    # every site sees degree identical neighbors, every bond nu on both ends
    lyp, lym = _log_y(nu, k)
    sigma_x = _sigma_x_from_logs(b, degree * lyp, degree * lym)
    energy = 0.5 * degree * bond_energy(1.0, k, nu, nu) - h * sigma_x
    m_z = np.tanh(2.0 * b + degree * field_shift(nu, k))
    return energy, m_z, sigma_x


def homog_scan(h: float, degree: int, cfg: HomogConfig | None = None):
    """Minimize the energy per spin over the (B, K) grid.

    Returns (best point, energy table over the grid).  mf_only restricts
    the scan to K = 0.  At each node the lowest-energy converged branch
    wins, the saturated-positive start first on ties, so the ordered
    solution reports a positive magnetization.
    """
    cfg = cfg or HomogConfig()
    if h < 0:
        raise ValueError("field must be nonnegative")
    nb = int(round(_B_MAX / cfg.delta)) + 1
    b_vals = np.arange(nb) * cfg.delta
    if cfg.mf_only:
        k_vals = np.zeros(1)
    else:
        nk = int(round(_K_MAX / cfg.delta)) + 1
        k_vals = np.arange(nk) * cfg.delta
    bg = b_vals[:, None]
    kg = k_vals[None, :]
    nu, ok = homog_fixed_point(bg, kg, degree)
    energy, m_z, sigma_x = homog_energy(h, degree, bg[None], kg[None], nu)
    energy = np.where(ok, energy, np.inf)
    branch = np.argmin(energy, axis=0)
    ix = np.indices(branch.shape)
    table = energy[branch, ix[0], ix[1]]
    flat = int(np.argmin(table))
    i, j = np.unravel_index(flat, table.shape)
    br = branch[i, j]
    point = HomogeneousPoint(
        h=float(h), degree=int(degree),
        b=float(b_vals[i]), k=float(k_vals[j]), nu=float(nu[br, i, j]),
        energy=float(table[i, j]),
        m_z=float(m_z[br, i, j]),
        m_x=None if h == 0 else float(sigma_x[br, i, j]),
        converged=bool(ok[br, i, j]),
    )
    return point, table


def critical_field(degree: int, h_lo: float, h_hi: float,
                   cfg: HomogConfig | None = None, dh: float = 1e-3) -> float:
    """Bisection for the field where the scan magnetization vanishes.

    Ordered means m_z above a small threshold at the scan optimum; h_lo
    must be ordered and h_hi disordered."""
    cfg = cfg or HomogConfig()

    def ordered(h):
        point, _ = homog_scan(h, degree, cfg)
        return point.m_z > MZ_THRESHOLD

    if not ordered(h_lo):
        raise ValueError(f"h_lo={h_lo} is not in the ordered phase")
    if ordered(h_hi):
        raise ValueError(f"h_hi={h_hi} is not in the disordered phase")
    lo, hi = float(h_lo), float(h_hi)
    while hi - lo > dh:
        mid = 0.5 * (lo + hi)
        if ordered(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def homog_from_instance(inst, cfg: HomogConfig | None = None) -> Solution:
    """Run the scan for an instance that is actually homogeneous.

    Requires a degree-regular graph with unit ferromagnetic couplings and
    a uniform transverse field.  The scan's optimum is returned with its
    total energy, its (B, K, nu) on every site, edge and directed edge,
    q_z = m_z^2 and iterations = 1."""
    degs = np.unique(inst.graph.degrees)
    if degs.size != 1 or degs[0] < 1:
        raise ValueError("homogeneous solver needs a degree-regular graph")
    if not np.allclose(inst.couplings, 1.0):
        raise ValueError("homogeneous solver needs all couplings equal to 1")
    if not np.allclose(inst.fields, inst.fields[0]):
        raise ValueError("homogeneous solver needs a uniform field")
    point, _ = homog_scan(float(inst.fields[0]), int(degs[0]), cfg)
    k = np.full(inst.m, point.k)
    return Solution(energy=point.energy * inst.n, m_x=point.m_x,
                    q_z=point.m_z ** 2, converged=point.converged, iterations=1,
                    energy_kind=energy_kind_of(inst.graph, k),
                    b=np.full(inst.n, point.b), k=k, nu=np.full(2 * inst.m, point.nu))
