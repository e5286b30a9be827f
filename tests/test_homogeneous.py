"""Homogeneous scan: fixed points, ring cross-checks, instance validation."""

import numpy as np
import pytest

import testutil
from isingbp import ParameterSet, bp_fixed_point, observables
from isingbp.classical_bp import field_shift
from isingbp.homogeneous import (
    HomogConfig,
    critical_field,
    homog_energy,
    homog_fixed_point,
    homog_from_instance,
    homog_scan,
)
from isingbp import generate_chain, generate_rrg


def test_fixed_point_solves_the_equation():
    b = np.linspace(0.0, 1.0, 6)[:, None]
    k = np.linspace(0.0, 1.0, 5)[None, :]
    nu, ok = homog_fixed_point(b, k, degree=3)
    assert nu.shape == (3, 6, 5)
    res = np.abs(2.0 * b + 2.0 * field_shift(nu, k) - nu)
    assert np.all(res[ok] <= 1e-9)
    assert np.all(ok)


def test_branches_bracket_the_symmetric_one():
    # b = 0, strong coupling: saturated starts find the broken pair, the
    # zero start stays on the symmetric solution
    nu, ok = homog_fixed_point(0.0, 0.8, degree=3)
    assert np.all(ok)
    assert nu[0] > 0.1
    assert np.isclose(nu[1], -nu[0], atol=1e-9)
    assert abs(nu[2]) <= 1e-9


def test_ring_matches_uniform_bp():
    # uniform parameters on a degree-regular ferromagnet keep every cavity
    # field equal, so BP gives the same per-spin energy as the scalar
    # cavity treatment; degree 2 is an ordinary ring, and degrees 3 and 4
    # check the degree-fold log sums of homog_energy
    h, b, k = 0.9, 0.3, 0.25
    cases = [(testutil.ring_instance(40, j=1.0, h=h), 2),
             (generate_rrg(40, 3, "ferro", h=h, seed=1), 3),
             (generate_rrg(40, 4, "ferro", h=h, seed=2), 4)]
    for inst, degree in cases:
        graph = inst.graph
        assert np.all(graph.degrees == degree)
        params = ParameterSet(np.full(inst.n, b), np.full(inst.m, k))
        nu_bp, rep = bp_fixed_point(graph, params)
        assert rep.converged
        assert np.allclose(nu_bp, nu_bp[0], atol=1e-12)

        nu, ok = homog_fixed_point(b, k, degree=degree)
        match = np.argmin(np.abs(nu - nu_bp[0]))
        assert ok[match]
        assert np.isclose(nu[match], nu_bp[0], atol=1e-8)

        energy, m_z, sigma_x = homog_energy(h, degree, b, k, nu[match])
        obs = observables(inst, params, nu_bp)
        assert np.isclose(energy, obs.energy / inst.n, atol=1e-9)
        assert np.isclose(m_z, obs.sigma_z[0], atol=1e-8)
        assert np.isclose(sigma_x, obs.sigma_x[0], atol=1e-8)


def test_scan_returns_table_minimum():
    cfg = HomogConfig(delta=0.05)
    point, table = homog_scan(1.0, 3, cfg)
    assert table.shape == (25, 25)
    assert np.isclose(point.energy, float(np.min(table)), atol=1e-12)
    assert point.converged
    assert 0.0 <= point.m_z <= 1.0
    assert point.m_x is not None


def test_scan_zero_field():
    cfg = HomogConfig(delta=0.05)
    point, _ = homog_scan(0.0, 3, cfg)
    assert point.m_x is None
    # fully ordered: the bond term saturates toward -d/2
    assert point.energy <= -1.45
    assert point.m_z >= 0.99


def test_mf_only_restricts_couplings():
    cfg = HomogConfig(delta=0.05, mf_only=True)
    point, table = homog_scan(1.0, 3, cfg)
    assert table.shape == (25, 1)
    assert point.k == 0.0


def test_from_instance_matches_scan():
    inst = generate_rrg(12, 3, law="ferro", h=1.0, seed=1)
    cfg = HomogConfig(delta=0.05)
    sol = homog_from_instance(inst, cfg)
    ref, _ = homog_scan(1.0, 3, cfg)
    assert sol.energy == ref.energy * inst.n
    assert (sol.m_x, sol.q_z, sol.converged) == (ref.m_x, ref.m_z ** 2, ref.converged)
    assert np.all(sol.b == ref.b) and sol.b.shape == (inst.n,)
    assert np.all(sol.k == ref.k) and sol.k.shape == (inst.m,)
    assert np.all(sol.nu == ref.nu) and sol.nu.shape == (2 * inst.m,)
    assert sol.energy_kind == "bethe"  # a loopy graph and K > 0


@pytest.mark.parametrize("build", [
    lambda: generate_chain(6, law="ferro", h=1.0, seed=0),
    lambda: generate_rrg(8, 3, law="gaussian", h=1.0, seed=0),
    lambda: generate_rrg(8, 3, law="ferro", h=1.0, seed=0).__class__(
        n=8,
        edge_index=generate_rrg(8, 3, law="ferro", h=1.0, seed=0).edge_index,
        couplings=generate_rrg(8, 3, law="ferro", h=1.0, seed=0).couplings,
        fields=np.linspace(0.1, 1.0, 8),
    ),
])
def test_from_instance_rejects_inhomogeneous(build):
    with pytest.raises(ValueError):
        homog_from_instance(build())


@pytest.mark.parametrize("h_lo,h_hi,phase", [
    (5.0, 6.0, "h_lo=5.0 is not in the ordered"),
    (0.5, 1.0, "h_hi=1.0 is not in the disordered"),
], ids=["disordered-h_lo", "ordered-h_hi"])
def test_critical_field_needs_a_bracket(h_lo, h_hi, phase):
    with pytest.raises(ValueError, match=phase):
        critical_field(3, h_lo, h_hi, HomogConfig(delta=0.1))


def test_negative_field_rejected():
    with pytest.raises(ValueError):
        homog_scan(-0.5, 3)
