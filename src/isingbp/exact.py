"""Exact ground states by matrix-free diagonalization.

The Hamiltonian is applied without ever forming the matrix: the coupling
part is diagonal in the z basis and the transverse part maps a state
vector to a sum of single-bit-flipped copies of itself.

Ground states come from an explicitly restarted Lanczos iteration with
full reorthogonalisation, run in the sector that is even under the global
spin flip Pi = prod_i sigma^x_i.  Pi flips every bit of a basis index,
which reverses the state vector, so an even state is [u, u[::-1]] / sqrt(2)
and only its first half u (2^(n-1) amplitudes) is stored.  The even sector
always holds a ground state: every transverse field is >= 0
(`QuantumInstance` guarantees it), so H has no positive off-diagonal entry
in the z basis, Perron-Frobenius gives it a non-negative ground vector psi,
and psi + Pi psi is a Pi-even ground vector.  This holds on any graph and
with any field zero.  In the ordered phase it also removes the parity-odd
partner that is nearly degenerate with the ground state (4.4e-4 above it
on a 12-spin chain at h = 0.3, against 0.065 for the next even state),
which is what makes the iteration converge in tens of steps.

Memory: the Krylov basis holds KRYLOV half vectors, KRYLOV * 2^(n-1) * 8
bytes, about 1.3 GB at n = 24.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical_bp import Solution
from .grids import check_count, check_positive
from .instance import QuantumInstance

APPLY_LIMIT = 24
DENSE_LIMIT = 12
# Lanczos basis size per restart cycle.  On a 20-spin Gaussian chain at
# h = 0.3 and tol 1e-4 (2-core Xeon) 8 vectors took 18.7 s (494
# applications of H), 12 took 11.5 s (355), 20 took 5.2 s (148) and
# 30 took 6.4 s (162), all from a signed random start; from the
# non-negative start of ground_state, 20 vectors take 162 applications
KRYLOV = 20
# a new Lanczos direction this short, relative to max(1, |Ritz value|),
# is rounding noise: the Krylov space is invariant under H
INVARIANT = 1e-12


class SizeError(ValueError):
    """System too large for the requested exact routine."""


def _check_size(inst: QuantumInstance, limit: int):
    if inst.n > limit:
        raise SizeError(f"n={inst.n} exceeds the limit of {limit} spins")


def _diagonal(inst: QuantumInstance, size: int) -> np.ndarray:
    """-sum_ij J_ij s_i s_j for the first `size` basis states."""
    idx = np.arange(size, dtype=np.int64)
    diag = np.zeros(size)
    for (i, j), coupling in zip(inst.edge_index, inst.couplings):
        differ = ((idx >> int(i)) ^ (idx >> int(j))) & 1
        diag -= coupling * (1.0 - 2.0 * differ)
    return diag


def diagonal_energies(inst: QuantumInstance) -> np.ndarray:
    """<s|H_coupling|s> for every basis state, -sum_ij J_ij s_i s_j."""
    _check_size(inst, APPLY_LIMIT)
    return _diagonal(inst, 1 << inst.n)


def _flip(v: np.ndarray, site: int, n: int) -> np.ndarray:
    """State vector with bit `site` of the basis index flipped."""
    block = 1 << site
    return v.reshape(-1, 2, block)[:, ::-1, :].reshape(-1)


def _subtract_flips(w: np.ndarray, v: np.ndarray, fields) -> np.ndarray:
    """w -= fields[i] * (v with bit i flipped), for every site i < len(fields)."""
    for site, h in enumerate(fields):
        if h != 0.0:
            block = 1 << site
            vr = v.reshape(-1, 2, block)
            wr = w.reshape(-1, 2, block)
            wr -= h * vr[:, ::-1, :]
    return w


def apply_h(inst: QuantumInstance, v: np.ndarray,
            diag: np.ndarray | None = None) -> np.ndarray:
    """H v for a 2^n state vector, never materializing H."""
    _check_size(inst, APPLY_LIMIT)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if v.shape[0] != 1 << inst.n:
        raise ValueError("state vector length must be 2^n")
    if diag is None:
        diag = diagonal_energies(inst)
    return _subtract_flips(diag * v, v, inst.fields)


def _apply_even(fields: np.ndarray, diag: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """First half of H [u, u[::-1]]: H restricted to the Pi-even sector.

    Sites 0..n-2 flip within the half; flipping the top site maps index k
    to k + 2^(n-1), whose amplitude in the even state is u[::-1][k]."""
    w = _subtract_flips(diag * u, u, fields[:-1])
    if fields[-1] != 0.0:
        w -= fields[-1] * u[::-1]
    return w


def dense_hamiltonian(inst: QuantumInstance) -> np.ndarray:
    """Full 2^n x 2^n matrix, for small-system cross checks only."""
    _check_size(inst, DENSE_LIMIT)
    size = 1 << inst.n
    ham = np.diag(diagonal_energies(inst))
    idx = np.arange(size)
    for site in range(inst.n):
        ham[idx, idx ^ (1 << site)] -= inst.fields[site]
    return ham


@dataclass(kw_only=True)
class GroundState(Solution):
    vector: np.ndarray
    sigma_x: np.ndarray


def sigma_x_expectations(inst: QuantumInstance, v: np.ndarray) -> np.ndarray:
    """<sigma_i^x> for a real normalized state vector."""
    return np.array([float(v @ _flip(v, i, inst.n)) for i in range(inst.n)])


def ground_state(inst: QuantumInstance, seed: int = 0, tol: float = 1e-8,
                 max_iters: int = 200000) -> GroundState:
    """Ground state by restarted Lanczos in the Pi-even sector.

    Each cycle builds an orthonormal Krylov basis of up to KRYLOV half
    vectors, starting from the absolute values of a seeded normal draw
    (the ground vector is non-negative, and a residual test alone cannot
    tell it from an excited eigenvector) and then from the lowest
    Ritz vector of the previous cycle, and reorthogonalises every new
    direction against the whole basis after the three-term recurrence.  It
    stops when the Ritz residual |H x - theta x| = |beta * y_last| drops to
    tol * max(1, |theta|) or the Krylov space is invariant, and then
    reports converged=True; otherwise it stops after `max_iters`
    applications of H with converged=False.  Either way the energy is the
    lowest Ritz value, which lies above the ground energy, by at most the
    residual and generically by the residual squared over the even-sector
    gap, so the default tol gives energies good to ~1e-12.

    `iterations` counts applications of H and `residual` is the last Ritz
    residual.  `vector` is the full 2^n state, Pi-even (equal to its
    reverse) and normalized.  Memory is KRYLOV * 2^(n-1) * 8 bytes for the
    basis.
    """
    _check_size(inst, APPLY_LIMIT)
    check_positive("tol", tol)
    check_count("max_iters", max_iters, 1)
    half = 1 << (inst.n - 1)
    diag = _diagonal(inst, half)
    # the ground vector is non-negative (module docstring), so a start
    # with no negative entry has a large positive overlap with it
    u = np.abs(np.random.default_rng(seed).standard_normal(half))
    u /= np.linalg.norm(u)
    basis = np.empty((min(KRYLOV, half), half))
    applications = 0
    while True:
        basis[0] = u
        alpha, beta = [], []
        for j in range(basis.shape[0]):
            w = _apply_even(inst.fields, diag, basis[j])
            applications += 1
            a = float(basis[j] @ w)
            w -= a * basis[j]
            if beta:
                w -= beta[-1] * basis[j - 1]
            # full reorthogonalisation: one Gram-Schmidt pass against the
            # whole basis removes what the three-term recurrence lost
            c = basis[:j + 1] @ w
            w -= c @ basis[:j + 1]
            alpha.append(a + float(c[j]))
            b = float(np.linalg.norm(w))
            ritz, vecs = np.linalg.eigh(
                np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
            theta, y = float(ritz[0]), vecs[:, 0]
            scale = max(1.0, abs(theta))
            converged = (abs(b * float(y[-1])) <= tol * scale
                         or b <= INVARIANT * scale)
            if converged or applications >= max_iters:
                break
            if j + 1 < basis.shape[0]:
                basis[j + 1] = w / b
                beta.append(b)
        u = y @ basis[:len(alpha)]
        u /= np.linalg.norm(u)
        if converged or applications >= max_iters:
            break
    vector = np.concatenate([u, u[::-1]]) / np.sqrt(2.0)
    sigma_x = sigma_x_expectations(inst, vector)
    # the state is parity-even, so every <sigma_i^z> is 0; a Ritz value
    # lies above E0
    return GroundState(energy=theta, vector=vector, sigma_x=sigma_x,
                       m_x=float(np.mean(sigma_x)) if np.any(inst.fields) else None,
                       q_z=0.0, iterations=applications, converged=converged,
                       energy_kind="bound", residual=abs(b * float(y[-1])))
