"""Zero-field solver: oracle equality, closed forms, envelope pruning."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import testutil
from isingbp import (
    ParameterSet,
    QuantumInstance,
    generate_chain,
    ss_maxsum_solve,
)
from isingbp.enumeration import quantum_expectation
from isingbp.exact import dense_hamiltonian
from isingbp.grids import Grid
from isingbp.symmetric import _compose, _envelope, ss_energy
from oracles import compose_loop, envelope_loop, ss_chain_minimum

COARSE = Grid(step=0.05, half_count=16)


def test_energy_formula():
    inst = generate_chain(4, law="gaussian", h=0.7, seed=1)
    k = np.array([0.3, -0.1, 0.6])
    expected = -np.sum(inst.couplings * np.tanh(2 * k))
    sech = 1.0 / np.cosh(2 * k)
    prod = [sech[0], sech[0] * sech[1], sech[1] * sech[2], sech[2]]
    expected -= np.sum(inst.fields * prod)
    assert np.isclose(ss_energy(inst, k), expected, atol=1e-12)
    with pytest.raises(ValueError):
        ss_energy(inst, k[:1])


@pytest.mark.parametrize("law,h,seed", [
    ("gaussian", 0.2, 0), ("gaussian", 1.0, 1), ("gaussian", 3.0, 2),
    ("pm_one", 1.0, 3), ("ferro", 0.5, 4),
])
def test_chain_grid_optimum(law, h, seed):
    inst = generate_chain(6, law=law, h=h, seed=seed)
    sol = ss_maxsum_solve(inst, grid=COARSE)
    assert sol.converged
    assert np.isclose(sol.energy, ss_chain_minimum(inst, COARSE), atol=1e-10)
    assert np.isclose(sol.energy, ss_energy(inst, sol.k), atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_star_grid_optimum(seed):
    # the centre composes the fronts of three of its four edges per message
    inst = testutil.star_instance(4, h=0.9, seed=seed)
    grid = Grid(step=0.1, half_count=8)
    sech = 1.0 / np.cosh(2.0 * grid.values)
    k = np.stack(np.meshgrid(*([grid.values] * 4), indexing="ij")).reshape(4, -1)
    s = np.stack(np.meshgrid(*([sech] * 4), indexing="ij")).reshape(4, -1)
    energy = (-np.sum(inst.couplings[:, None] * np.tanh(2.0 * k), axis=0)
              - inst.fields[0] * np.prod(s, axis=0)
              - np.sum(inst.fields[1:, None] * s, axis=0))
    sol = ss_maxsum_solve(inst, grid=grid)
    assert sol.converged
    assert np.isclose(sol.energy, energy.min(), atol=1e-10)


def test_chain_default_grid_optimum():
    inst = generate_chain(7, law="gaussian", h=0.8, seed=6)
    from isingbp.symmetric import DEFAULT_COUPLING_GRID
    sol = ss_maxsum_solve(inst)
    assert np.isclose(sol.energy, ss_chain_minimum(inst, DEFAULT_COUPLING_GRID),
                      atol=1e-10)


def test_single_bond_closed_form():
    # J = 1, h = 1/2: optimum at sinh(2K) = 1, energy -sqrt(2)
    inst = QuantumInstance(n=2, edge_index=[[0, 1]], couplings=[1.0],
                           fields=[0.5, 0.5])
    sol = ss_maxsum_solve(inst)
    assert abs(sol.energy + np.sqrt(2.0)) <= 1e-3
    assert abs(sol.k[0] - 0.5 * np.arcsinh(1.0)) <= 0.01


@pytest.mark.parametrize("seed", range(3))
def test_tree_energies_are_quantum_expectations(seed):
    rng = np.random.default_rng(60 + seed)
    inst = testutil.random_tree(int(rng.integers(2, 9)), rng)
    graph = inst.graph
    sol = ss_maxsum_solve(inst)
    params = ParameterSet(np.zeros(inst.n), sol.k)
    assert np.isclose(sol.energy, quantum_expectation(inst, params),
                      atol=1e-9)
    e0 = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    assert sol.energy >= e0 - 1e-9


def test_zero_field_saturates_couplings():
    inst = generate_chain(6, law="gaussian", h=0.0, seed=3)
    sol = ss_maxsum_solve(inst)
    total = np.sum(np.abs(inst.couplings))
    assert sol.energy <= -total * (1.0 - 1e-3)


@pytest.mark.parametrize("seed", range(5))
def test_envelope_preserves_maxima(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0.0, 2.0, size=40)
    q = rng.standard_normal(40)
    ep, eq = _envelope(p.copy(), q.copy())
    assert ep.size <= p.size
    for c in rng.uniform(0.0, 3.0, size=20):
        full = np.max(c * p + q)
        kept = np.max(c * ep + eq)
        assert np.isclose(kept, full, atol=1e-12)


def test_compose_matches_pairwise_maximum():
    rng = np.random.default_rng(7)
    pa, qa = rng.uniform(0, 1.5, 12), rng.standard_normal(12)
    pb, qb = rng.uniform(0, 1.5, 9), rng.standard_normal(9)
    front = _compose(_envelope(pa.copy(), qa.copy()),
                     _envelope(pb.copy(), qb.copy()))
    for c in rng.uniform(0.0, 2.5, size=15):
        full = np.max(c * (pa[:, None] * pb[None, :]) + qa[:, None] + qb[None, :])
        kept = np.max(c * front[0] + front[1])
        assert np.isclose(kept, full, atol=1e-12)


# quarter steps make tied slopes and (p, q) points on one line common
_QUARTERS = st.integers(-12, 12).map(lambda i: i / 4)
_LINES = st.lists(
    st.tuples(st.one_of(_QUARTERS.map(abs), st.floats(0.0, 2.0)),
              st.one_of(_QUARTERS, st.floats(-5.0, 5.0))),
    max_size=40,
)


def _grid_lines(width, centre):
    # the lines ss_maxsum_solve envelopes: slope sech(2K) on a grid of K,
    # each slope twice, with a peaked message as the intercept
    vals = COARSE.values
    q = -width * (vals - centre) ** 2
    return list(zip((1.0 / np.cosh(2.0 * vals)).tolist(), q.tolist()))


_GRID_LINES = st.builds(_grid_lines, st.integers(1, 40).map(lambda i: i / 4),
                        st.integers(-8, 8).map(lambda i: i / 8))
_FRONTS = st.one_of(_LINES, _GRID_LINES)


def _arrays(lines):
    p = np.array([x for x, _ in lines], dtype=np.float64)
    q = np.array([y for _, y in lines], dtype=np.float64)
    return p, q


@settings(max_examples=300, deadline=None)
@given(_LINES)
@example([(1.0, 0.0), (1.0, 1.0), (1.0, -1.0), (0.5, 2.0)])  # tied slopes
@example([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0), (3.0, -1.0)])  # collinear
def test_envelope_matches_numpy_scalar_scan(lines):
    p, q = _arrays(lines)
    got = _envelope(p.copy(), q.copy())
    want = envelope_loop(p.copy(), q.copy())
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(_LINES)
@example([(0.0, 2.0), (1.0, 1.0), (2.0, 0.0), (3.0, -1.0)])
def test_envelope_is_idempotent(lines):
    # ss_maxsum_solve starts a site's composition from its first front
    # instead of composing it with the identity front (1, 0): both give the
    # front's own envelope, which must be the front itself
    front = _envelope(*_arrays(lines))
    again = _envelope(front[0].copy(), front[1].copy())
    via_identity = _compose((np.ones(1), np.zeros(1)), front)
    for a, b, c in zip(front, again, via_identity):
        assert a.tobytes() == b.tobytes()
        # adding the identity's zero intercept can only turn -0.0 into 0.0
        assert np.array_equal(a, c)


_IDENTITY = [(1.0, 0.0)]


@settings(max_examples=300, deadline=None)
@given(_FRONTS, _FRONTS, st.booleans())
@example([(0.5, 1.0)], [(2.0, -1.0)], False)  # one line each
@example(_IDENTITY, [(0.0, 2.0), (1.0, 1.0), (2.0, -0.0)], True)
@example([(0.25, -0.0), (0.5, -0.0), (1.0, -1.0)], _IDENTITY, False)
@example([(1.0, 1.0), (2.0, 0.0)], [(1.0, 1.0), (2.0, 0.0)], True)  # tied (p, q)
@example([(0.5, 2.0), (1.0, 1.0), (2.0, 0.0)],
         [(0.5, 0.0), (1.0, -0.5), (0.5, 0.5)], False)
def test_compose_matches_envelope_of_full_product(lines_a, lines_b, hulls):
    # the prefilter must be exact for any NaN-free input, not only for the
    # hulls ss_maxsum_solve composes
    front_a, front_b = _arrays(lines_a), _arrays(lines_b)
    if hulls:
        front_a, front_b = _envelope(*front_a), _envelope(*front_b)
    got = _compose(front_a, front_b)
    want = compose_loop(front_a, front_b)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()
