"""Product-state solver against transfer-matrix oracles and exact bounds."""

import numpy as np
import pytest

import testutil
from isingbp import QuantumInstance, generate_chain, generate_rrg, mf_maxsum_solve
from isingbp.exact import dense_hamiltonian
from isingbp.grids import Grid
from isingbp.meanfield import _hop_tables, mf_energy
from oracles import mf_chain_minimum

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
    from isingbp.meanfield import DEFAULT_FIELD_GRID
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
    inst = generate_rrg(8, 3, law="pm_one", h=1.0, seed=2)
    sol = mf_maxsum_solve(inst, grid=COARSE, max_iters=3)
    assert not sol.converged
    assert np.isfinite(sol.energy)
    e0 = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    assert sol.energy >= e0 - 1e-9


def _dense_hop_reference(couplings, tanh_vals, messages):
    return np.max(couplings[:, None, None] * tanh_vals[None, :, None]
                  * tanh_vals[None, None, :] + messages[:, None, :], axis=2)


@pytest.mark.parametrize("law", ["gaussian", "pm_one", "zero"])
@pytest.mark.parametrize("grid", [COARSE, Grid(step=0.02, half_count=150),
                                  Grid(step=0.05, half_count=40, cap=1.1)])
@pytest.mark.parametrize("ndir", [1, 5, 12])
def test_hop_tables_bit_identical_to_dense(law, grid, ndir):
    rng = np.random.default_rng(ndir)
    couplings = {
        "gaussian": rng.standard_normal(ndir),
        "pm_one": rng.choice([-1.0, 1.0], size=ndir),
        "zero": np.zeros(ndir),
    }[law]
    tanh_vals = np.tanh(2.0 * grid.values)
    messages = rng.uniform(-3.0, 0.0, size=(ndir, tanh_vals.size))
    j_tanh = couplings[:, None] * tanh_vals[None, :]
    want = _dense_hop_reference(couplings, tanh_vals, messages)
    assert np.array_equal(_hop_tables(j_tanh, tanh_vals, messages), want)
