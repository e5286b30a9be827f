"""Brute-force references over all 2^n spin configurations.

Used as oracles for belief propagation and the variational energy: every
quantity here is an explicit sum over the full configuration space, so it
is exact (and exponentially slow).  Spin i of basis state `s` is +1 when
bit i of s is set.
"""

from __future__ import annotations

import numpy as np

from .classical_bp import ParameterSet
from .instance import ClassicalGraph, QuantumInstance

ENUM_LIMIT = 20


def spin_table(n: int) -> np.ndarray:
    """(2^n, n) array of spins, sigma_i = +-1 from bit i of the row index."""
    if n > ENUM_LIMIT:
        raise ValueError(f"enumeration limited to n <= {ENUM_LIMIT}")
    idx = np.arange(1 << n, dtype=np.int64)
    return np.where((idx[:, None] >> np.arange(n)) & 1 == 1, 1.0, -1.0)


def _log_weights(graph: ClassicalGraph, params: ParameterSet, spins) -> np.ndarray:
    """Log squared trial amplitude 2 b.s + 2 sum_(ij) k_ij s_i s_j per
    state, shifted to a maximum of 0."""
    pair = spins[:, graph.edge_index[:, 0]] * spins[:, graph.edge_index[:, 1]]
    log_w = 2.0 * spins @ params.b + 2.0 * pair @ params.k
    return log_w - log_w.max()


def gibbs_measure(graph: ClassicalGraph, params: ParameterSet) -> np.ndarray:
    """Normalized weights of the squared trial amplitudes over all states."""
    w = np.exp(_log_weights(graph, params, spin_table(graph.n)))
    return w / w.sum()


def cavity_field(graph: ClassicalGraph, params: ParameterSet, edge: int,
                 toward_hi: bool) -> float:
    """Exact cavity field nu_{i->j}: marginal of spin i with edge (i,j) removed.

    toward_hi selects the direction lo -> hi of the stored edge.
    """
    keep = np.ones(graph.m, dtype=bool)
    keep[edge] = False
    sub = ClassicalGraph(graph.n, graph.edge_index[keep])
    sub_params = ParameterSet(params.b, params.k[keep])
    mu = gibbs_measure(sub, sub_params)
    spins = spin_table(graph.n)
    lo, hi = graph.edge_index[edge]
    site = int(lo) if toward_hi else int(hi)
    up = mu[spins[:, site] > 0].sum()
    return 0.5 * float(np.log(up) - np.log(1.0 - up))


def classical_expectations(inst: QuantumInstance, params: ParameterSet):
    """Exact Gibbs-measure energy pieces and magnetizations.

    Returns a dict with total energy, per-bond and per-site energies, and
    per-spin z and x expectations, all computed by full enumeration using
    the flipped-amplitude ratio, in log space, for the transverse term.
    """
    spins = spin_table(inst.n)
    log_w = _log_weights(inst.graph, params, spins)
    w = np.exp(log_w)
    z = w.sum()
    mu = w / z
    pair = spins[:, inst.edge_index[:, 0]] * spins[:, inst.edge_index[:, 1]]
    bond = -inst.couplings * (mu @ pair)
    # log a(s with spin i flipped) / a(s) = -2 b_i s_i - coupling_field[s, i]
    coupling_field = np.zeros((spins.shape[0], inst.n))
    for (i, j), k in zip(inst.edge_index, params.k):
        coupling_field[:, i] += 2.0 * k * spins[:, i] * spins[:, j]
        coupling_field[:, j] += 2.0 * k * spins[:, i] * spins[:, j]
    # log w(s) + log ratio is the mean of log w at s and at its flip, so it
    # is at most 0 and the exponential cannot overflow
    log_ratio = -2.0 * params.b * spins - coupling_field
    sigma_x = np.exp(log_w[:, None] + log_ratio).sum(axis=0) / z
    site = -inst.fields * sigma_x
    sigma_z = mu @ spins
    return {
        "energy": float(bond.sum() + site.sum()),
        "bond_energies": bond,
        "site_energies": site,
        "sigma_z": sigma_z,
        "sigma_x": sigma_x,
    }


def trial_vector(graph: ClassicalGraph, params: ParameterSet) -> np.ndarray:
    """Normalized trial wave function as a 2^n state vector."""
    return np.sqrt(gibbs_measure(graph, params))


def quantum_expectation(inst: QuantumInstance, params: ParameterSet) -> float:
    """<psi|H|psi> from the explicit trial vector (independent route)."""
    from .exact import apply_h

    psi = trial_vector(inst.graph, params)
    return float(psi @ apply_h(inst, psi))
