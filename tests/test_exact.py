"""Matrix-free diagonalization against dense linear algebra."""

import numpy as np
import pytest

import testutil
from isingbp import ClassicalGraph, QuantumInstance, generate_chain, ground_state
from isingbp.enumeration import (
    classical_expectations,
    quantum_expectation,
    trial_vector,
)
from isingbp.exact import (
    SizeError,
    apply_h,
    dense_hamiltonian,
    diagonal_energies,
    sigma_x_expectations,
)
from oracles import classical_ground_energy, free_fermion_chain_energy


def _random_instance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    inst = testutil.random_tree(n, rng)
    if n >= 4 and rng.random() < 0.5:
        # add one chord so loopy cases are covered too
        extra = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
        pairs = {tuple(p) for p in inst.edge_index.tolist()}
        if extra not in pairs:
            pairs.add(extra)
            edges = testutil.canonical_pairs(sorted(pairs))
            inst = QuantumInstance(n=n, edge_index=edges,
                                   couplings=rng.standard_normal(len(edges)),
                                   fields=inst.fields, seed=0)
    return inst


@pytest.mark.parametrize("seed", range(8))
def test_ground_state_matches_dense(seed):
    inst = _random_instance(seed)
    e_dense = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    gs = ground_state(inst)
    assert gs.converged
    assert abs(gs.energy - e_dense) <= 1e-9
    # Ritz values never undershoot the true ground energy
    assert gs.energy >= e_dense - 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_apply_h_matches_dense(seed):
    inst = _random_instance(10 + seed)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(1 << inst.n)
    ham = dense_hamiltonian(inst)
    np.testing.assert_allclose(apply_h(inst, v), ham @ v, atol=1e-10)


def test_diagonal_energies_signs():
    inst = QuantumInstance(n=2, edge_index=[[0, 1]], couplings=[1.0],
                           fields=[0.0, 0.0])
    # basis order 00, 01, 10, 11; aligned spins have energy -J
    np.testing.assert_allclose(diagonal_energies(inst), [-1.0, 1.0, 1.0, -1.0])


def test_sigma_x_matches_enumeration():
    rng = np.random.default_rng(42)
    inst = testutil.random_tree(6, rng)
    graph = ClassicalGraph.from_instance(inst)
    params = testutil.random_params(inst, rng)
    psi = trial_vector(graph, params)
    ref = classical_expectations(inst, graph, params)
    np.testing.assert_allclose(sigma_x_expectations(inst, psi),
                               ref["sigma_x"], atol=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_trial_states_are_upper_bounds(seed):
    rng = np.random.default_rng(20 + seed)
    inst = testutil.random_tree(int(rng.integers(2, 7)), rng)
    graph = ClassicalGraph.from_instance(inst)
    e0 = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    for _ in range(3):
        params = testutil.random_params(inst, rng)
        assert quantum_expectation(inst, graph, params) >= e0 - 1e-10


def test_identity_like_hamiltonian():
    inst = QuantumInstance(n=1, edge_index=np.zeros((0, 2)), couplings=[],
                           fields=[0.0])
    gs = ground_state(inst)
    assert gs.converged
    assert abs(gs.energy) <= 1e-12

    single = QuantumInstance(n=1, edge_index=np.zeros((0, 2)), couplings=[],
                             fields=[0.8])
    gs = ground_state(single)
    assert gs.converged
    assert abs(gs.energy + 0.8) <= 1e-10
    assert abs(gs.sigma_x[0] - 1.0) <= 1e-8


def test_zero_field_matches_classical_minimum():
    inst = testutil.random_tree(8, np.random.default_rng(9))
    inst = QuantumInstance(n=inst.n, edge_index=inst.edge_index,
                           couplings=inst.couplings,
                           fields=np.zeros(inst.n), seed=0)
    gs = ground_state(inst)
    assert abs(gs.energy - classical_ground_energy(inst)) <= 1e-10


def test_size_limits():
    big = QuantumInstance(n=25, edge_index=np.zeros((0, 2)), couplings=[],
                          fields=np.zeros(25))
    with pytest.raises(SizeError):
        apply_h(big, np.zeros(4))
    mid = QuantumInstance(n=13, edge_index=np.zeros((0, 2)), couplings=[],
                          fields=np.zeros(13))
    with pytest.raises(SizeError):
        dense_hamiltonian(mid)


def test_ground_state_deterministic():
    inst = _random_instance(3)
    a = ground_state(inst, seed=11)
    b = ground_state(inst, seed=11)
    assert a.energy == b.energy
    assert a.iterations == b.iterations


def test_free_fermion_oracle_matches_dense():
    inst = generate_chain(8, law="gaussian", h=0.7, seed=3)
    e_dense = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    assert abs(free_fermion_chain_energy(inst) - e_dense) <= 1e-12


@pytest.mark.parametrize("h", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("n", [6, 10, 14])
def test_ground_state_matches_free_fermions(n, h):
    inst = generate_chain(n, law="gaussian", h=h, seed=42)
    gs = ground_state(inst, tol=1e-8)
    assert gs.converged
    assert abs(gs.energy - free_fermion_chain_energy(inst)) <= 1e-9


@pytest.mark.parametrize("seed", range(6))
def test_even_sector_holds_ground_state_with_zero_fields(seed):
    # loopy graphs with some h_i = 0: Perron-Frobenius still puts a ground
    # state in the parity-even sector
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 9))
    pairs = {tuple(p) for p in testutil.random_tree(n, rng).edge_index.tolist()}
    while len(pairs) < n + 1:
        pairs.add(tuple(sorted(rng.choice(n, size=2, replace=False).tolist())))
    edges = testutil.canonical_pairs(sorted(pairs))
    fields = rng.uniform(0.0, 2.0, n)
    fields[rng.choice(n, size=2, replace=False)] = 0.0
    inst = QuantumInstance(n=n, edge_index=edges,
                           couplings=rng.standard_normal(len(edges)),
                           fields=fields, seed=0)
    e_dense = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    gs = ground_state(inst)
    assert gs.converged
    assert abs(gs.energy - e_dense) <= 1e-9


def test_vector_is_parity_even_and_normalized():
    inst = generate_chain(9, law="gaussian", h=0.6, seed=4)
    gs = ground_state(inst)
    assert gs.vector.shape == (1 << inst.n,)
    assert np.array_equal(gs.vector, gs.vector[::-1])
    assert abs(np.linalg.norm(gs.vector) - 1.0) <= 1e-12
    np.testing.assert_allclose(gs.sigma_x,
                               sigma_x_expectations(inst, gs.vector))


def test_unconverged_run_is_reported():
    inst = generate_chain(10, law="gaussian", h=0.3, seed=42)
    e_dense = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
    gs = ground_state(inst, max_iters=5)
    assert not gs.converged
    assert gs.iterations == 5
    assert gs.energy >= e_dense
    with pytest.raises(ValueError):
        ground_state(inst, max_iters=0)
