"""Belief propagation against brute-force enumeration and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import testutil
from isingbp import ClassicalGraph, ParameterSet, bp_fixed_point, observables
from isingbp.classical_bp import (
    NU_CAP,
    bond_energy,
    bp_fixed_points,
    bp_update,
    field_shift,
    logcosh,
    site_energy,
)
from isingbp.enumeration import (
    cavity_field,
    classical_expectations,
    quantum_expectation,
)
from isingbp.instance import generate_rrg
from oracles import bp_fixed_point_loop

finite = st.floats(-50, 50, allow_nan=False)


def test_logcosh_matches_reference():
    x = np.linspace(-5, 5, 41)
    assert np.allclose(logcosh(x), np.log(np.cosh(x)), atol=1e-14)
    # no overflow far out, and the asymptote |x| - log 2 is exact there
    big = np.array([50.0, 300.0, -700.0])
    assert np.allclose(logcosh(big), np.abs(big) - np.log(2.0))


@settings(max_examples=80, deadline=None)
@given(nu=finite, k=st.floats(-10, 10, allow_nan=False))
def test_field_shift_bounded_and_odd(nu, k):
    u = field_shift(nu, k)
    assert abs(u) <= 2.0 * abs(k) + 1e-12
    assert np.isclose(field_shift(-nu, k), -u, atol=1e-12)
    assert np.isclose(field_shift(nu, -k), -u, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(j=st.floats(-10, 10, allow_nan=False), k=st.floats(-10, 10, allow_nan=False),
       nu1=finite, nu2=finite)
def test_bond_energy_bounded(j, k, nu1, nu2):
    e = bond_energy(j, k, nu1, nu2)
    assert -abs(j) - 1e-12 <= e <= abs(j) + 1e-12


@settings(max_examples=50, deadline=None)
@given(h=st.floats(0, 10, allow_nan=False), b=st.floats(-5, 5, allow_nan=False),
       data=st.data())
def test_site_energy_range(h, b, data):
    deg = data.draw(st.integers(0, 4))
    ks = data.draw(st.lists(st.floats(-3, 3, allow_nan=False),
                            min_size=deg, max_size=deg))
    nus = data.draw(st.lists(st.floats(-20, 20, allow_nan=False),
                             min_size=deg, max_size=deg))
    e = site_energy(h, b, ks, nus)
    assert -h - 1e-12 <= e <= 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_tree_bp_is_exact(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 11))
    inst = testutil.random_tree(n, rng)
    graph = ClassicalGraph.from_instance(inst)
    params = testutil.random_params(inst, rng)

    nu, rep = bp_fixed_point(graph, params)
    assert rep.converged

    for e in range(graph.m):
        assert np.isclose(nu[2 * e], cavity_field(graph, params, e, True),
                          atol=1e-7)
        assert np.isclose(nu[2 * e + 1], cavity_field(graph, params, e, False),
                          atol=1e-7)

    obs = observables(inst, graph, params, nu)
    ref = classical_expectations(inst, graph, params)
    np.testing.assert_allclose(obs.energy, ref["energy"], atol=1e-8)
    np.testing.assert_allclose(obs.bond_energies, ref["bond_energies"], atol=1e-8)
    np.testing.assert_allclose(obs.site_energies, ref["site_energies"], atol=1e-8)
    np.testing.assert_allclose(obs.sigma_z, ref["sigma_z"], atol=1e-8)
    np.testing.assert_allclose(obs.sigma_x, ref["sigma_x"], atol=1e-8)

    # the Bethe energy on a tree is the true quantum expectation value
    assert np.isclose(obs.energy, quantum_expectation(inst, graph, params),
                      atol=1e-8)


def test_field_gauge_symmetry():
    rng = np.random.default_rng(5)
    inst = testutil.random_tree(7, rng)
    graph = ClassicalGraph.from_instance(inst)
    params = testutil.random_params(inst, rng)
    flipped = ParameterSet(-params.b, params.k)

    nu, _ = bp_fixed_point(graph, params)
    nu_f, _ = bp_fixed_point(graph, flipped)
    np.testing.assert_allclose(nu_f, -nu, atol=1e-8)

    obs = observables(inst, graph, params, nu)
    obs_f = observables(inst, graph, flipped, nu_f)
    assert np.isclose(obs.energy, obs_f.energy, atol=1e-9)
    np.testing.assert_allclose(obs_f.sigma_z, -obs.sigma_z, atol=1e-8)
    np.testing.assert_allclose(obs_f.sigma_x, obs.sigma_x, atol=1e-8)


def test_update_clamps_fields():
    inst = testutil.random_tree(4, np.random.default_rng(0))
    graph = ClassicalGraph.from_instance(inst)
    params = ParameterSet(np.full(4, 40.0), np.full(3, 5.0))
    nu = bp_update(graph, params, np.zeros(6))
    assert np.max(np.abs(nu)) <= NU_CAP


def test_loopy_graph_converges():
    inst = testutil.ring_instance(6, j=1.0, h=0.5)
    graph = ClassicalGraph.from_instance(inst)
    params = ParameterSet(0.2 * np.ones(6), 0.3 * np.ones(6))
    nu, rep = bp_fixed_point(graph, params)
    assert rep.converged
    res = np.max(np.abs(bp_update(graph, params, nu) - nu))
    assert res <= 1e-6


def test_m_x_is_none_only_without_fields():
    rng = np.random.default_rng(3)
    inst = testutil.random_tree(5, rng)
    graph = ClassicalGraph.from_instance(inst)
    params = testutil.random_params(inst, rng)
    nu, _ = bp_fixed_point(graph, params)
    assert observables(inst, graph, params, nu).m_x is not None

    bare = QuantumInstanceNoField(inst)
    obs = observables(bare, graph, params, nu)
    assert obs.m_x is None
    assert np.all(obs.site_energies == 0.0)


def QuantumInstanceNoField(inst):
    from isingbp import QuantumInstance
    return QuantumInstance(n=inst.n, edge_index=inst.edge_index,
                           couplings=inst.couplings,
                           fields=np.zeros(inst.n), seed=inst.seed)


def test_shape_validation():
    inst = testutil.random_tree(4, np.random.default_rng(0))
    graph = ClassicalGraph.from_instance(inst)
    good = testutil.random_params(inst, np.random.default_rng(1))
    with pytest.raises(ValueError):
        bp_update(graph, good, np.zeros(5))
    with pytest.raises(ValueError):
        bp_update(graph, ParameterSet(np.zeros(3), np.zeros(3)), np.zeros(6))


def _assert_rows_match_loop(graph, b, k, inits, damping, eps, max_iters,
                            explicit_damping=False):
    """The kernel (default damping unless explicit) against the loop per row."""
    nus, reports = bp_fixed_points(graph, b, k, inits,
                                   damping=damping if explicit_damping else None,
                                   eps=eps, max_iters=max_iters)
    assert nus.shape == (len(inits), 2 * graph.m)
    assert len(reports) == len(inits)
    for r in range(len(inits)):
        nu, rep = bp_fixed_point_loop(graph, b[r], k[r], inits[r], damping,
                                      eps, max_iters)
        assert np.array_equal(nus[r], nu)
        assert reports[r] == rep
    return reports


def test_batched_fixed_points_match_loop_on_loopy_graph():
    inst = generate_rrg(12, 3, law="pm_one", h=1.0, seed=3)
    graph = ClassicalGraph.from_instance(inst)
    rng = np.random.default_rng(11)
    scales = np.array([0.2, 0.5, 1.0, 1.5, 2.0, 0.3, 1.2, 1.8])[:, None]
    b = 0.8 * rng.standard_normal((8, graph.n))
    k = scales * rng.standard_normal((8, graph.m))
    inits = rng.uniform(-2.0, 2.0, (8, 2 * graph.m))
    reports = _assert_rows_match_loop(graph, b, k, inits, 0.5, 1e-9, 150)
    done = {r.iterations for r in reports if r.converged}
    assert len(done) >= 2
    assert any(not r.converged and r.iterations == 150 for r in reports)
    # an explicit damping reaches every row as well
    _assert_rows_match_loop(graph, b, k, inits, 0.3, 1e-9, 150,
                            explicit_damping=True)


def test_batched_fixed_points_match_loop_on_forest():
    rng = np.random.default_rng(4)
    inst = testutil.random_tree(9, rng)
    graph = ClassicalGraph.from_instance(inst)
    assert graph.is_forest
    b = 0.6 * rng.standard_normal((4, graph.n))
    k = 0.5 * rng.standard_normal((4, graph.m))
    inits = np.zeros((4, 2 * graph.m))
    reports = _assert_rows_match_loop(graph, b, k, inits, 0.0, 1e-9, 10000)
    assert all(r.converged for r in reports)


def test_batched_fixed_points_on_edgeless_graph():
    graph = ClassicalGraph(4, np.zeros((0, 2)))
    b = np.random.default_rng(0).standard_normal((3, 4))
    reports = _assert_rows_match_loop(graph, b, np.zeros((3, 0)),
                                      np.zeros((3, 0)), 0.0, 1e-9, 10)
    assert all(r.converged and r.iterations == 1 for r in reports)


def test_single_row_is_bp_fixed_point():
    inst = generate_rrg(12, 3, law="pm_one", h=1.0, seed=5)
    graph = ClassicalGraph.from_instance(inst)
    rng = np.random.default_rng(2)
    params = ParameterSet(0.5 * rng.standard_normal(graph.n),
                          0.7 * rng.standard_normal(graph.m))
    init = rng.uniform(-1.0, 1.0, 2 * graph.m)
    _assert_rows_match_loop(graph, params.b[None], params.k[None], init[None],
                            0.5, 1e-9, 10000)
    for start, ref_init in ((None, np.zeros(2 * graph.m)), (init, init),
                            ("random", np.random.default_rng(9).uniform(
                                -1.0, 1.0, 2 * graph.m))):
        nu, rep = bp_fixed_point(graph, params, init=start,
                                 rng=np.random.default_rng(9))
        ref_nu, ref_rep = bp_fixed_point_loop(graph, params.b, params.k,
                                              ref_init, 0.5, 1e-9, 10000)
        assert np.array_equal(nu, ref_nu)
        assert rep == ref_rep


def test_batched_shape_validation():
    graph = ClassicalGraph.from_instance(testutil.random_tree(4, np.random.default_rng(0)))
    with pytest.raises(ValueError):
        bp_fixed_points(graph, np.zeros((2, 4)), np.zeros((2, 3)), np.zeros((2, 5)))
    with pytest.raises(ValueError):
        bp_fixed_points(graph, np.zeros((2, 4)), np.zeros((1, 3)), np.zeros((2, 6)))
    with pytest.raises(ValueError):
        bp_fixed_points(graph, np.zeros(4), np.zeros(3), np.zeros(6))
