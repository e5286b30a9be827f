"""Belief propagation against brute-force enumeration and its invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import testutil
from isingbp import ClassicalGraph, ParameterSet, bp_fixed_point, classical_bp, observables
from isingbp.classical_bp import (
    NU_CAP,
    BPReport,
    bond_energy,
    bp_fixed_points,
    bp_update,
    field_shift,
    iterate_rows,
    logcosh,
    site_energy,
)
from isingbp.enumeration import (
    cavity_field,
    classical_expectations,
    quantum_expectation,
)
from isingbp.instance import generate_chain, generate_rrg
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
    graph = inst.graph
    params = testutil.random_params(inst, rng)

    nu, rep = bp_fixed_point(graph, params)
    assert rep.converged

    for e in range(graph.m):
        assert np.isclose(nu[2 * e], cavity_field(graph, params, e, True),
                          atol=1e-7)
        assert np.isclose(nu[2 * e + 1], cavity_field(graph, params, e, False),
                          atol=1e-7)

    obs = observables(inst, params, nu)
    ref = classical_expectations(inst, params)
    np.testing.assert_allclose(obs.energy, ref["energy"], atol=1e-8)
    np.testing.assert_allclose(obs.bond_energies, ref["bond_energies"], atol=1e-8)
    np.testing.assert_allclose(obs.site_energies, ref["site_energies"], atol=1e-8)
    np.testing.assert_allclose(obs.sigma_z, ref["sigma_z"], atol=1e-8)
    np.testing.assert_allclose(obs.sigma_x, ref["sigma_x"], atol=1e-8)

    # the Bethe energy on a tree is the true quantum expectation value
    assert np.isclose(obs.energy, quantum_expectation(inst, params),
                      atol=1e-8)


@pytest.mark.parametrize("inst, params", [
    (generate_chain(8, "gaussian", 1.0, 1), ParameterSet(np.full(8, 0.3), np.full(7, 200.0))),
    (testutil.random_tree(10, np.random.default_rng(9)),
     ParameterSet(np.linspace(-1.2, 1.2, 10), 400.0 * np.sin(np.arange(1.0, 10.0)))),
], ids=["chain-k200", "tree-mixed"])
def test_enumeration_at_large_parameters_matches_bp(inst, params):
    # the flip ratio exp(-2 b s - 2 sum k s s) alone overflows here; the
    # enumeration must stay finite and equal BP, which is exact on a tree
    # while its cavity fields stay below NU_CAP, as they do here
    nu, rep = bp_fixed_point(inst.graph, params)
    assert rep.converged
    obs = observables(inst, params, nu)
    ref = classical_expectations(inst, params)
    assert abs(obs.energy - ref["energy"]) <= 1e-9
    for key in ("bond_energies", "site_energies", "sigma_z", "sigma_x"):
        np.testing.assert_allclose(getattr(obs, key), ref[key], rtol=0, atol=1e-9)


def test_field_gauge_symmetry():
    rng = np.random.default_rng(5)
    inst = testutil.random_tree(7, rng)
    graph = inst.graph
    params = testutil.random_params(inst, rng)
    flipped = ParameterSet(-params.b, params.k)

    nu, _ = bp_fixed_point(graph, params)
    nu_f, _ = bp_fixed_point(graph, flipped)
    np.testing.assert_allclose(nu_f, -nu, atol=1e-8)

    obs = observables(inst, params, nu)
    obs_f = observables(inst, flipped, nu_f)
    assert np.isclose(obs.energy, obs_f.energy, atol=1e-9)
    np.testing.assert_allclose(obs_f.sigma_z, -obs.sigma_z, atol=1e-8)
    np.testing.assert_allclose(obs_f.sigma_x, obs.sigma_x, atol=1e-8)


def test_update_clamps_fields():
    inst = testutil.random_tree(4, np.random.default_rng(0))
    graph = inst.graph
    params = ParameterSet(np.full(4, 40.0), np.full(3, 5.0))
    nu = bp_update(graph, params, np.zeros(6))
    assert np.max(np.abs(nu)) <= NU_CAP


def test_loopy_graph_converges():
    inst = testutil.ring_instance(6, j=1.0, h=0.5)
    graph = inst.graph
    params = ParameterSet(0.2 * np.ones(6), 0.3 * np.ones(6))
    nu, rep = bp_fixed_point(graph, params)
    assert rep.converged
    res = np.max(np.abs(bp_update(graph, params, nu) - nu))
    assert res <= 1e-6


def test_m_x_is_none_only_without_fields():
    rng = np.random.default_rng(3)
    inst = testutil.random_tree(5, rng)
    graph = inst.graph
    params = testutil.random_params(inst, rng)
    nu, _ = bp_fixed_point(graph, params)
    assert observables(inst, params, nu).m_x is not None

    bare = QuantumInstanceNoField(inst)
    obs = observables(bare, params, nu)
    assert obs.m_x is None
    assert np.all(obs.site_energies == 0.0)


def QuantumInstanceNoField(inst):
    from isingbp import QuantumInstance
    return QuantumInstance(n=inst.n, edge_index=inst.edge_index,
                           couplings=inst.couplings,
                           fields=np.zeros(inst.n), seed=inst.seed)


def test_shape_validation():
    inst = testutil.random_tree(4, np.random.default_rng(0))
    graph = inst.graph
    good = testutil.random_params(inst, np.random.default_rng(1))
    with pytest.raises(ValueError):
        bp_update(graph, good, np.zeros(5))
    with pytest.raises(ValueError):
        bp_update(graph, ParameterSet(np.zeros(3), np.zeros(3)), np.zeros(6))


@pytest.mark.parametrize("b,k", [([0.0, np.nan], [0.0]), ([0.0, 0.0], [np.inf])])
def test_parameters_must_be_finite(b, k):
    with pytest.raises(ValueError, match="finite"):
        ParameterSet(b, k)


def _assert_rows_match_loop(graph, b, k, inits, damping, eps, max_iters,
                            explicit_damping=False, patience=None):
    """The kernel (default damping unless explicit) against the loop per row."""
    nus, reports = bp_fixed_points(graph, b, k, inits,
                                   damping=damping if explicit_damping else None,
                                   eps=eps, max_iters=max_iters, patience=patience)
    assert nus.shape == (len(inits), 2 * graph.m)
    assert len(reports) == len(inits)
    for r in range(len(inits)):
        nu, rep = bp_fixed_point_loop(graph, b[r], k[r], inits[r], damping,
                                      eps, max_iters, patience)
        assert np.array_equal(nus[r], nu)
        assert reports[r] == rep
    return reports


def test_batched_fixed_points_match_loop_on_loopy_graph():
    inst = generate_rrg(12, 3, law="pm_one", h=1.0, seed=3)
    graph = inst.graph
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
    # a patience of 10 stops three rows early, each on its least residual
    stalled = _assert_rows_match_loop(graph, b, k, inits, 0.5, 1e-9, 150,
                                      patience=10)
    assert [r.converged for r in stalled] == [r.converged for r in reports]
    assert sum(not r.converged and r.iterations < 60 for r in stalled) == 3


def test_batched_fixed_points_without_rows_return_at_once(monkeypatch):
    graph = generate_rrg(12, 3, law="pm_one", h=1.0, seed=3).graph

    def no_sweep(*args):
        raise AssertionError("a batch without rows must not sweep")

    monkeypatch.setattr(classical_bp, "_bp_step", no_sweep)
    nus, reports = bp_fixed_points(graph, np.zeros((0, graph.n)), np.zeros((0, graph.m)),
                                   np.zeros((0, 2 * graph.m)), max_iters=10000)
    assert nus.shape == (0, 2 * graph.m)
    assert reports == []


def test_batched_fixed_points_match_loop_on_forest():
    rng = np.random.default_rng(4)
    inst = testutil.random_tree(9, rng)
    graph = inst.graph
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
    graph = inst.graph
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
    graph = testutil.random_tree(4, np.random.default_rng(0)).graph
    with pytest.raises(ValueError):
        bp_fixed_points(graph, np.zeros((2, 4)), np.zeros((2, 3)), np.zeros((2, 5)))
    with pytest.raises(ValueError):
        bp_fixed_points(graph, np.zeros((2, 4)), np.zeros((1, 3)), np.zeros((2, 6)))
    with pytest.raises(ValueError):
        bp_fixed_points(graph, np.zeros(4), np.zeros(3), np.zeros(6))
    ok = (np.zeros((2, 4)), np.zeros((2, 3)), np.zeros((2, 6)))
    for bad in ({"max_iters": 0}, {"patience": 0}, {"patience": 2.5}):
        with pytest.raises(ValueError):
            bp_fixed_points(graph, *ok, **bad)


# residuals each row's update makes, iteration by iteration: row 0
# converges at 2, row 1 stalls after its least residual at 2 and stops on
# a patience of 3 at 5, row 2 falls to 0.25 at 4 and stops at the cap of
# 6 with that residual (binary fractions, so the sums below are exact)
_SCRIPT = np.array([[3.0, 2.0 ** -40, 5.0, 5.0, 5.0, 5.0],
                    [3.0, 2.0, 2.5, 2.5, 2.5, 2.5],
                    [3.0, 0.5, 1.0, 0.25, 0.375, 0.625]])


def test_iterate_rows_stops_each_row_on_its_own_rule():
    seen = []

    def step(x, ids):
        # x = (row id, running sum of its residuals); ids is the per-row data
        assert np.array_equal(x[:, 0], ids[:, 0])
        seen.append(ids[:, 0].tolist())
        new = x.copy()
        new[:, 1] += _SCRIPT[ids[:, 0].astype(int), len(seen) - 1]
        return new, new

    ids = np.arange(3.0)[:, None]
    start = np.hstack([ids, np.zeros((3, 1))])
    out, reports = iterate_rows(step, start, (ids,), eps=1e-9, max_iters=6,
                                patience=3)
    # a stopped row leaves the batch: the step sees only the active rows
    assert seen == [[0, 1, 2]] * 2 + [[1, 2]] * 3 + [[2]]
    assert reports == [
        BPReport(converged=True, iterations=2, residual=2.0 ** -40),
        BPReport(converged=False, iterations=5, residual=2.0),
        BPReport(converged=False, iterations=6, residual=0.25),
    ]
    # each row ends at its least-residual iterate, in its own place
    assert out.tolist() == [[0.0, 3.0 + 2.0 ** -40], [1.0, 5.0], [2.0, 4.75]]


def test_iterate_rows_damped_step_and_empty_batch():
    def step(x):
        new = x + 1.0
        return new, 0.5 * new + 0.5 * x

    # the residual is the undamped change, 1 every time, and the iterate
    # the damped one; of equal residuals the first iterate is kept
    out, (report,) = iterate_rows(step, np.zeros((1, 2)), (), eps=1e-9, max_iters=3)
    assert out.tolist() == [[0.5, 0.5]]
    assert report == BPReport(converged=False, iterations=3, residual=1.0)

    def no_step(*args):
        raise AssertionError("a batch without rows must not step")

    out, reports = iterate_rows(no_step, np.zeros((0, 4)), (), eps=1e-9, max_iters=10)
    assert out.shape == (0, 4) and reports == []


@pytest.mark.parametrize("bad", [{"max_iters": 0}, {"max_iters": 2.5},
                                 {"max_iters": True}, {"patience": 0},
                                 {"patience": 1.5}])
def test_iterate_rows_rejects_bad_counts(bad):
    def no_step(*args):
        raise AssertionError("a rejected call must not step")

    options = {"max_iters": 10, **bad}
    with pytest.raises(ValueError):
        iterate_rows(no_step, np.zeros((2, 3)), (), eps=1e-9, **options)
