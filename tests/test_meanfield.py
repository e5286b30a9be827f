"""Product-state solver against transfer-matrix oracles and exact bounds."""

import tracemalloc

import numpy as np
import pytest

import testutil
from isingbp import (QuantumInstance, generate_chain, generate_rrg, meanfield,
                     mf_maxsum_solve, ss_maxsum_solve)
from isingbp.exact import dense_hamiltonian
from isingbp.grids import Grid, _normalized
from isingbp.meanfield import DEFAULT_FIELD_GRID, _hop_tables, mf_energy
from isingbp.symmetric import _sweeper
from oracles import hop_tables_dense, mf_chain_minimum, mf_descent_dense

COARSE = Grid(step=0.1, half_count=12)


def test_energy_formula():
    inst = generate_chain(4, law="gaussian", h=0.7, seed=1)
    b = np.array([0.3, -0.2, 0.0, 1.1])
    t = np.tanh(2 * b)
    expected = 0.0
    for (i, j), c in zip(inst.edge_index, inst.couplings):
        expected -= c * t[i] * t[j]
    expected -= np.sum(inst.fields / np.cosh(2 * b))
    assert np.isclose(mf_energy(inst, b), expected, atol=1e-12)
    with pytest.raises(ValueError):
        mf_energy(inst, b[:2])


@pytest.mark.parametrize("law,h,seed", [
    ("gaussian", 0.2, 0), ("gaussian", 1.0, 1), ("gaussian", 3.0, 2),
    ("pm_one", 1.0, 3), ("pm_one", 0.2, 4), ("ferro", 1.0, 5),
])
def test_chain_grid_optimum(law, h, seed):
    inst = generate_chain(6, law=law, h=h, seed=seed)
    sol = mf_maxsum_solve(inst, grid=COARSE)
    assert sol.converged
    assert np.isclose(sol.energy, mf_chain_minimum(inst, COARSE), atol=1e-10)
    # the reported energy is the energy of the reported fields
    assert np.isclose(sol.energy, mf_energy(inst, sol.b), atol=1e-12)


def test_chain_default_grid_optimum():
    inst = generate_chain(8, law="gaussian", h=0.8, seed=6)
    sol = mf_maxsum_solve(inst)
    assert np.isclose(sol.energy, mf_chain_minimum(inst, DEFAULT_FIELD_GRID),
                      atol=1e-10)


@pytest.mark.parametrize("seed", range(3))
def test_upper_bound_on_loopy_graphs(seed):
    inst = generate_rrg(8, 3, law="gaussian", h=1.0, seed=seed)
    e0 = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    sol = mf_maxsum_solve(inst)
    assert sol.energy >= e0 - 1e-9


def test_single_spin():
    inst = QuantumInstance(n=1, edge_index=np.zeros((0, 2)), couplings=[],
                           fields=[1.3])
    sol = mf_maxsum_solve(inst)
    assert sol.b[0] == 0.0
    assert np.isclose(sol.energy, -1.3, atol=1e-12)


def test_zero_field_aligns_with_couplings():
    inst = generate_chain(7, law="gaussian", h=0.0, seed=11)
    sol = mf_maxsum_solve(inst)
    total = np.sum(np.abs(inst.couplings))
    assert sol.energy <= -total * (1.0 - 1e-3)
    # neighboring fields agree with the coupling sign
    for (i, j), c in zip(inst.edge_index, inst.couplings):
        assert sol.b[i] * sol.b[j] * c > 0


def test_best_messages_survive_early_stop():
    # MaxSum on a forest is one collect/distribute pass, exact whatever
    # max_iters says
    tree = testutil.random_tree(10, np.random.default_rng(4))
    sol = mf_maxsum_solve(tree, grid=COARSE, max_iters=1)
    assert sol.converged and sol.iterations == 1
    e0 = float(np.linalg.eigvalsh(dense_hamiltonian(tree))[0])
    assert sol.energy >= e0 - 1e-9
    # loopy ss sweeps stopped by max_iters extract from the best message
    # set seen
    loopy = generate_rrg(8, 3, law="pm_one", h=1.0, seed=2)
    sweep = _sweeper(loopy, COARSE)
    messages, residuals = np.zeros((2 * loopy.m, COARSE.size)), []
    for _ in range(3):
        new = _normalized(sweep(messages))
        residuals.append(float(np.max(np.abs(new - messages))))
        messages = new
    sol = ss_maxsum_solve(loopy, grid=COARSE, max_iters=3)
    assert not sol.converged and sol.iterations == 3
    assert sol.residual == min(residuals) > 1e-9
    assert np.isfinite(sol.energy)
    # the loopy descent stopped after one pass, before its winning start
    # reached a fixed point
    loopy = generate_rrg(8, 3, law="pm_one", h=1.0, seed=2)
    sol = mf_maxsum_solve(loopy, grid=COARSE, max_iters=1)
    assert not sol.converged and sol.iterations == 1
    assert np.isfinite(sol.energy)
    e0 = float(np.linalg.eigvalsh(dense_hamiltonian(loopy))[0])
    assert sol.energy >= e0 - 1e-9


@pytest.mark.parametrize("grid", [DEFAULT_FIELD_GRID, COARSE,
                                  Grid(step=0.05, half_count=40, cap=1.1)],
                         ids=["default", "coarse", "capped"])
@pytest.mark.parametrize("inst", [
    generate_rrg(12, 3, law="pm_one", h=0.5, seed=7),
    generate_rrg(12, 3, law="pm_one", h=0.0, seed=7),
    generate_rrg(30, 3, law="gaussian", h=1.5, seed=77),
    generate_rrg(20, 4, law="pm_one", h=3.0, seed=5),
    testutil.ring_instance(9, j=-1.0, h=0.8),
], ids=["glass-h0.5", "glass-h0", "gauss-h1.5", "deg4-h3", "odd-ring"])
@pytest.mark.parametrize("max_iters", [2, 1000])
def test_descent_matches_whole_grid_oracle(inst, grid, max_iters):
    """The three-value arg-max of the descent picks what the whole grid
    picks, so every start moves as in the site-by-site oracle."""
    got = meanfield._descent(inst, grid, max_iters, seed=11)
    want = mf_descent_dense(inst, grid, max_iters, seed=11)
    assert np.array_equal(got[0], want[0])
    assert got[1:] == want[1:]
    sol = mf_maxsum_solve(inst, grid=grid, max_iters=max_iters, seed=11)
    assert np.array_equal(sol.b, got[0])
    assert (sol.converged, sol.iterations, sol.residual) == got[1:]
    assert sol.converged == (sol.residual == 0.0)


# Distance from lambda_max at which the descent must find the right phase.
# Measured with the default grid (step 0.02) on ten +-J 3-RRGs with n=200
# (seeds 0-9): at lambda_max - 0.08 the descent still ends at b = 0 on 7
# of 10, at lambda_max - 0.1 it orders on all 10 (q_z 0.018-0.030), at
# lambda_max - 0.15 with q_z 0.030-0.049.  A lone site cannot leave b = 0
# (its local field is 0 there), and just below lambda_max the ordered
# minimum is shallow and its fields smaller than the grid resolves, so
# the descent from the other starts falls back to b = 0.  Above
# lambda_max b = 0 is the global minimum for any margin.
_LAMBDA_MARGIN = 0.15


@pytest.mark.parametrize("seed", range(4))
def test_paramagnet_exactly_above_top_coupling_eigenvalue(seed):
    """For uniform h the b = 0 state is the product-state minimum iff
    h >= lambda_max(J): with t = tanh(2b), sech = sqrt(1 - t^2) <= 1 - t^2/2
    gives E(b) >= -n h + (h - lambda_max) |t|^2 / 2."""
    inst = generate_rrg(200, 3, law="pm_one", h=1.0, seed=seed)
    coupling = np.zeros((inst.n, inst.n))
    i, j = inst.edge_index.T
    coupling[i, j] = coupling[j, i] = inst.couplings
    lam = float(np.linalg.eigvalsh(coupling)[-1])

    above = inst.with_uniform_field(lam + _LAMBDA_MARGIN)
    sol = mf_maxsum_solve(above)
    assert sol.q_z == 0.0
    assert sol.energy == -np.sum(above.fields)

    below = inst.with_uniform_field(lam - _LAMBDA_MARGIN)
    sol = mf_maxsum_solve(below)
    assert sol.q_z > 0.0
    assert sol.energy < -np.sum(below.fields)


def _dense_hop_reference(couplings, tanh_vals, messages):
    rows = [np.max(c * tanh_vals[:, None] * tanh_vals[None, :] + m[None, :],
                   axis=1)
            for c, m in zip(couplings, messages)]
    return np.array(rows).reshape(messages.shape)


def _messages(kind, rng, shape):
    """uniform on [-3, 0]; constant; tenths (uniform rounded to 0.1, so
    columns tie exactly); deep (uniform on [-50, 0])."""
    if kind == "constant":
        return np.full(shape, -0.7)
    draw = rng.uniform(-50.0 if kind == "deep" else -3.0, 0.0, size=shape)
    return np.round(draw, 1) if kind == "tenths" else draw


_HOP_GRIDS = {
    "grid0": COARSE,
    "grid1": Grid(step=0.02, half_count=150),
    "grid2": Grid(step=0.05, half_count=40, cap=1.1),
    # fewer values than the kernel has row groups
    "nb1": Grid(step=0.1, half_count=0),
    "nb3": Grid(step=0.1, half_count=1),
}


def _hop_cases():
    """(ndir, grid, law, messages) with ids ndir-grid-law[-messages]."""
    return [
        pytest.param(ndir, grid, law, kind,
                     id="-".join([str(ndir), name, law]
                                 + ([kind] if kind != "uniform" else [])))
        for name, grid in _HOP_GRIDS.items()
        for ndir in (0, 1, 5, 12, 90)
        for law in ("gaussian", "pm_one", "zero")
        for kind in ("uniform", "constant", "tenths", "deep")
    ]


@pytest.mark.parametrize("ndir,grid,law,messages", _hop_cases())
def test_hop_tables_bit_identical_to_dense(ndir, grid, law, messages):
    rng = np.random.default_rng(ndir)
    couplings = {
        "gaussian": rng.standard_normal(ndir),
        "pm_one": rng.choice([-1.0, 1.0], size=ndir),
        "zero": np.zeros(ndir),
    }[law]
    tanh_vals = np.tanh(2.0 * grid.values)
    msgs = _messages(messages, rng, (ndir, tanh_vals.size))
    j_tanh = couplings[:, None] * tanh_vals[None, :]
    want = _dense_hop_reference(couplings, tanh_vals, msgs)
    assert np.array_equal(_hop_tables(j_tanh, tanh_vals, msgs), want)


_TREE = testutil.random_tree(30, np.random.default_rng(77))


@pytest.mark.parametrize("inst", [
    _TREE.with_uniform_field(1.5),
    _TREE.with_uniform_field(2.5),
    generate_chain(14, law="gaussian", h=1.0, seed=42),
], ids=["tree-h1.5", "tree-h2.5", "chain"])
def test_solve_identical_with_dense_hop_tables(inst, monkeypatch):
    got = mf_maxsum_solve(inst, seed=3)
    monkeypatch.setattr(meanfield, "_hop_tables", hop_tables_dense)
    want = mf_maxsum_solve(inst, seed=3)
    assert np.array_equal(got.b, want.b)
    assert (got.energy, got.iterations, got.residual, got.converged) == (
        want.energy, want.iterations, want.residual, want.converged)


@pytest.mark.parametrize("messages", ["constant", "uniform"])
@pytest.mark.parametrize("law", ["zero", "pm_one"])
def test_hop_tables_peak_memory(law, messages):
    # constant messages give the widest windows (with zero couplings every
    # column of every group survives), uniform ones the most windows per block
    ndir = 90
    rng = np.random.default_rng(0)
    tanh_vals = np.tanh(2.0 * DEFAULT_FIELD_GRID.values)
    nb = tanh_vals.size
    couplings = {"zero": np.zeros(ndir),
                 "pm_one": rng.choice([-1.0, 1.0], size=ndir)}[law]
    j_tanh = couplings[:, None] * tanh_vals[None, :]
    msgs = _messages(messages, rng, (ndir, nb))
    tracemalloc.start()
    try:
        _hop_tables(j_tanh, tanh_vals, msgs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * nb * nb * 8
