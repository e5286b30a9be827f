"""One collect/distribute MaxSum pass on forests against synchronous sweeps.

On a forest graph.forest_schedule orders the directed edges so that each
message is computed once, from final inputs.  The one-pass messages of
mf and ss must be fixed points of the synchronous sweeps (the loopy ss
sweep, and the mean-field sweep of tests/oracles.py), and must extract
the fields and couplings that those sweeps extract once iterated to
convergence.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import testutil
from isingbp import (QuantumInstance, generate_rrg, meanfield, mf_maxsum_solve,
                     ss_maxsum_solve, symmetric)
from isingbp.grids import Grid, _normalized
from isingbp.meanfield import DEFAULT_FIELD_GRID, _hop_tables
from isingbp.symmetric import DEFAULT_COUPLING_GRID, _sweeper
from oracles import maxsum_loop, mf_maxsum_loop, mf_sweep

GRIDS = st.sampled_from([Grid(step=0.1, half_count=12),
                         Grid(step=0.25, half_count=3),
                         Grid(step=0.05, half_count=16, cap=0.5),
                         Grid(step=0.1, half_count=0)])


@st.composite
def forests(draw, max_n=14):
    """Chains, stars, random trees, and forests of several trees with
    isolated sites, under a random site labelling; Gaussian or +-J
    couplings; fields all zero, uniform or random."""
    kind = draw(st.sampled_from(["chain", "star", "tree", "forest"]))
    n = draw(st.integers(1, max_n))
    law = draw(st.sampled_from(["gaussian", "pm_one"]))
    field = draw(st.sampled_from(["zero", "uniform", "random"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "chain":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)
                 if kind == "tree" or rng.random() < 0.6]
    perm = rng.permutation(n)
    edges = (testutil.canonical_pairs([(perm[a], perm[b]) for a, b in pairs])
             if pairs else np.zeros((0, 2), dtype=np.int64))
    couplings = (rng.standard_normal(len(pairs)) if law == "gaussian"
                 else rng.choice([-1.0, 1.0], size=len(pairs)))
    fields = {"zero": np.zeros(n), "uniform": np.full(n, rng.uniform(0.0, 3.0)),
              "random": rng.uniform(0.0, 3.0, n)}[field]
    return QuantumInstance(n=n, edge_index=edges, couplings=couplings,
                           fields=fields)


def _radius(graph):
    """The largest over components of the eccentricity of a centre."""
    dist = np.full((graph.n, graph.n), np.inf)
    np.fill_diagonal(dist, 0.0)
    dist[graph.src, graph.dst] = 1.0
    for k in range(graph.n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    ecc = np.where(np.isfinite(dist), dist, 0.0).max(axis=1)
    comp = np.isfinite(dist)
    return int(max((ecc[row].min() for row in comp), default=0))


@settings(max_examples=200, deadline=None)
@given(inst=forests())
@example(inst=QuantumInstance(n=1, edge_index=np.zeros((0, 2)), couplings=[],
                              fields=[1.0]))
def test_schedule_reads_only_earlier_batches(inst):
    # every directed edge once, after every edge it reads, in as few
    # batches as rooting each tree at a centre gives
    graph = inst.graph
    schedule = graph.forest_schedule()
    out_dirs = testutil.out_dirs_of(graph)
    batch_of = np.full(2 * graph.m, -1)
    for b, (dirs, groups) in enumerate(schedule):
        assert dirs.size and np.all(batch_of[dirs] == -1)
        batch_of[dirs] = b
        assert np.array_equal(np.concatenate(
            [sub for sub, _ in groups.values()]), dirs)
        for ln, (sub, nbrs) in groups.items():
            assert np.all(graph.degrees[graph.src[sub]] == ln + 1)
            assert nbrs.shape == (sub.size, ln)
            for d, others in zip(sub, nbrs):
                out = out_dirs[graph.src[d]]
                assert others.tolist() == out[out != d].tolist()
                assert np.all(batch_of[others ^ 1] < b)
    assert np.all(batch_of >= 0)
    assert len(schedule) == 2 * _radius(graph)


def test_schedule_needs_a_forest():
    with pytest.raises(ValueError, match="forest"):
        testutil.ring_instance(5).graph.forest_schedule()


@settings(max_examples=150, deadline=None)
@given(inst=forests(), grid=GRIDS | st.just(DEFAULT_FIELD_GRID))
@example(inst=testutil.random_tree(12, np.random.default_rng(4)),
         grid=DEFAULT_FIELD_GRID)
def test_mf_one_pass_is_the_sweep_fixed_point(inst, grid):
    messages, hop = meanfield._forest_messages(inst, grid.values)
    moved = _normalized(mf_sweep(inst, grid)(messages)) - messages
    scale = np.abs(messages).max(initial=0.0)
    assert np.abs(moved).max(initial=0.0) <= 1e-12 * scale
    tanh_vals = np.tanh(2.0 * grid.values)
    j_tanh = inst.couplings[inst.graph.edge_of_dir][:, None] * tanh_vals
    assert np.array_equal(hop, _hop_tables(j_tanh, tanh_vals, messages))

    b, converged, _, _ = mf_maxsum_loop(inst, grid)
    sol = mf_maxsum_solve(inst, grid=grid)
    assert converged
    assert np.array_equal(sol.b, b)
    assert (sol.converged, sol.iterations, sol.residual) == (True, 1, 0.0)


@settings(max_examples=150, deadline=None)
@given(inst=forests(), grid=GRIDS | st.just(DEFAULT_COUPLING_GRID))
@example(inst=testutil.random_tree(12, np.random.default_rng(4)),
         grid=DEFAULT_COUPLING_GRID)
def test_ss_one_pass_is_the_sweep_fixed_point(inst, grid):
    # the batched stages compute each row on its own, so one sweep from
    # the one-pass messages gives them back byte for byte
    sweep = _sweeper(inst, grid)
    messages = symmetric._forest_messages(inst, grid)
    assert _normalized(sweep(messages)).tobytes() == messages.tobytes()

    sol = ss_maxsum_solve(inst, grid=grid)
    assert (sol.converged, sol.iterations, sol.residual) == (True, 1, 0.0)
    loop = maxsum_loop(sweep, messages.shape, 1000)
    assert loop[1]
    with mock.patch.object(symmetric, "_forest_messages", lambda *_: loop[0]):
        want = ss_maxsum_solve(inst, grid=grid)
    assert np.array_equal(sol.k, want.k)
    assert sol.energy == want.energy


def test_max_iters_does_not_limit_a_forest():
    tree = testutil.random_tree(20, np.random.default_rng(5))
    for solve in (mf_maxsum_solve, ss_maxsum_solve):
        short, full = solve(tree, max_iters=1), solve(tree)
        assert short.energy == full.energy
        assert (short.converged, short.iterations) == (True, 1)
        with pytest.raises(ValueError, match="max_iters"):
            solve(tree, max_iters=0)
    loopy = generate_rrg(8, 3, law="pm_one", h=1.0, seed=2)
    assert not ss_maxsum_solve(loopy, max_iters=1).converged
