"""Joint-parameter solver: degenerations, inner maximizations, search loop."""

import copy
import tracemalloc

import numpy as np
import pytest

import testutil
from isingbp import (
    ClassicalGraph,
    GSConfig,
    QuantumInstance,
    SearchSpace,
    convolution_inner_max,
    exhaustive_inner_max,
    generate_chain,
    generate_rrg,
    gs_maxsum_sweep,
    gs_resample,
    gs_solve,
    gs_weights,
    init_spaces,
    mf_maxsum_solve,
    ss_maxsum_solve,
)
from isingbp.classical_bp import bond_energy, field_shift, logcosh
from isingbp import general
from isingbp.general import (
    SearchSpaceError,
    _combo_index,
    _extract,
    _site_shift_max,
    _sweep_tables,
    candidates_order,
)
from isingbp.grids import Grid
from isingbp.meanfield import mf_energy
from isingbp.symmetric import ss_energy
from oracles import (
    mf_chain_minimum,
    refit_one,
    site_shift_max_loop,
    ss_chain_minimum,
)


def test_config_validation():
    with pytest.raises(ValueError):
        GSConfig(inner="bogus")
    with pytest.raises(ValueError):
        GSConfig(inner="coordinate")
    with pytest.raises(ValueError):
        GSConfig(delta_b=-0.1)
    with pytest.raises(ValueError):
        GSConfig(space_size=0)
    cfg = GSConfig(delta_nu=0.1)
    assert cfg.tol_floor_value() == pytest.approx(0.2)


def test_init_spaces_deterministic_with_seeds():
    inst = generate_chain(4, law="ferro", h=1.0, seed=0)
    g = ClassicalGraph.from_instance(inst)
    cfg = GSConfig(space_size=8)
    seed_states = {0: [(0.0, 0.1, -0.2)], 2: [(0.5, 0.0, 0.0)]}
    a = init_spaces(g, cfg, np.random.default_rng(3), seed_states)
    b = init_spaces(g, cfg, np.random.default_rng(3), seed_states)
    assert a.k.shape == (3, 8)
    np.testing.assert_array_equal(a.k, b.k)
    np.testing.assert_array_equal(a.nu_fwd, b.nu_fwd)
    np.testing.assert_array_equal(a.nu_rev, b.nu_rev)
    assert (a.k[0, 0], a.nu_fwd[0, 0], a.nu_rev[0, 0]) == (0.0, 0.1, -0.2)
    assert (a.k[2, 0], a.nu_fwd[2, 0], a.nu_rev[2, 0]) == (0.5, 0.0, 0.0)


def _converge_sweep(inst, g, spaces, cfg, tol, sweeps=60):
    tables = _sweep_tables(inst, spaces)
    messages = np.zeros((2 * g.m, spaces.size))
    residual = np.inf
    for _ in range(sweeps):
        new, dead = gs_maxsum_sweep(inst, g, spaces, messages, tol, cfg,
                                    tables=tables)
        finite = np.isfinite(new) & np.isfinite(messages)
        residual = float(np.max(np.abs(new[finite] - messages[finite])))
        messages = new
        if residual <= 1e-12:
            break
    assert residual <= 1e-12
    assert not dead
    return messages


def test_sweep_tables_match_per_edge_formulas():
    inst = generate_rrg(8, 3, law="gaussian", h=1.0, seed=3)
    g = ClassicalGraph.from_instance(inst)
    spaces = init_spaces(g, GSConfig(space_size=7), np.random.default_rng(4))
    tables = _sweep_tables(inst, spaces)
    for d in range(2 * g.m):
        e = d // 2
        k = spaces.k[e]
        nu_in = spaces.nu_rev[e] if d % 2 == 0 else spaces.nu_fwd[e]
        nu_out = spaces.nu_fwd[e] if d % 2 == 0 else spaces.nu_rev[e]
        base = logcosh(nu_in)
        u = field_shift(nu_in, k)
        np.testing.assert_array_equal(tables.u_in[d], u)
        np.testing.assert_array_equal(tables.lyp_in[d], logcosh(nu_in + 2.0 * k) - base)
        np.testing.assert_array_equal(tables.lym_in[d], logcosh(nu_in - 2.0 * k) - base)
        np.testing.assert_array_equal(tables.c_in[d], u + nu_out)
        np.testing.assert_array_equal(tables.nu_out[d], nu_out)
    np.testing.assert_array_equal(tables.neg_bond, -bond_energy(
        inst.couplings[:, None], spaces.k, spaces.nu_fwd, spaces.nu_rev))


@pytest.mark.parametrize("inner,inst", [
    ("exhaustive", generate_rrg(8, 3, law="pm_one", h=1.2, seed=1)),
    ("exhaustive", testutil.random_tree(9, np.random.default_rng(5))),
    ("convolution", testutil.star_instance(3, h=0.8, seed=3)),
])
def test_sweep_with_reused_tables_is_bit_identical(inner, inst):
    # tables carry cached window values per tol; sweeping one set of tables
    # at two tolerances must give what fresh tables give at each
    g = ClassicalGraph.from_instance(inst)
    cfg = GSConfig(delta_b=0.1, half_b=10, delta_k=0.2, half_k=4,
                   delta_nu=0.2, half_nu=10, space_size=5, inner=inner)
    spaces = init_spaces(g, cfg, np.random.default_rng(2))
    tables = _sweep_tables(inst, spaces)
    messages = np.zeros((2 * g.m, cfg.space_size))
    for tol in (0.6, 0.25, 0.6, 0.25):
        reused, dead_reused = gs_maxsum_sweep(inst, g, spaces, messages, tol,
                                              cfg, tables=tables)
        fresh, dead_fresh = gs_maxsum_sweep(inst, g, spaces, messages, tol, cfg)
        assert reused.tobytes() == fresh.tobytes()
        assert dead_reused == dead_fresh
        messages = np.where(np.isfinite(reused), reused, -50.0)
    assert np.any(np.isfinite(reused))


def test_zero_coupling_spaces_reduce_to_product_states():
    # spaces restricted to k = 0 and nu = 2b make the sweep solve the
    # product-state problem on the same field grid exactly
    inst = generate_chain(4, law="gaussian", h=0.8, seed=5)
    g = ClassicalGraph.from_instance(inst)
    b_grid = Grid(step=0.2, half_count=5)
    b_vals = b_grid.values
    pairs = np.array([(x, y) for x in b_vals for y in b_vals])
    s = len(pairs)
    spaces = SearchSpace(
        k=np.zeros((g.m, s)),
        nu_fwd=np.tile(2.0 * pairs[:, 0], (g.m, 1)),
        nu_rev=np.tile(2.0 * pairs[:, 1], (g.m, 1)),
    )
    cfg = GSConfig(delta_b=0.2, half_b=5, delta_nu=0.4, half_nu=5,
                   space_size=s)
    messages = _converge_sweep(inst, g, spaces, cfg, tol=1e-9)
    b, k, _, maxsum_energy, _ = _extract(inst, g, spaces, messages, 1e-9, cfg)
    oracle = mf_chain_minimum(inst, b_grid)
    assert np.isclose(maxsum_energy, oracle, atol=1e-9)
    assert np.all(k == 0.0)
    # the extracted configuration bounds the optimum; under the global
    # sign flip degeneracy the per-site argmaxes may mix branches, which
    # the refit candidates absorb, so only the direction is guaranteed
    assert mf_energy(inst, b) >= oracle - 1e-9


def test_zero_field_spaces_reduce_to_coupling_states():
    inst = generate_chain(4, law="gaussian", h=0.8, seed=5)
    g = ClassicalGraph.from_instance(inst)
    k_grid = Grid(step=0.1, half_count=8)
    k_vals = k_grid.values
    s = k_vals.size
    spaces = SearchSpace(
        k=np.tile(k_vals, (g.m, 1)),
        nu_fwd=np.zeros((g.m, s)),
        nu_rev=np.zeros((g.m, s)),
    )
    cfg = GSConfig(delta_k=0.1, half_k=8, space_size=s)
    messages = _converge_sweep(inst, g, spaces, cfg, tol=1e-9)
    b, k, _, maxsum_energy, _ = _extract(inst, g, spaces, messages, 1e-9, cfg)
    oracle = ss_chain_minimum(inst, k_grid)
    assert np.isclose(maxsum_energy, oracle, atol=1e-9)
    assert np.all(b == 0.0)
    assert np.isclose(ss_energy(inst, k), oracle, atol=1e-9)


def test_single_bond_ground_energy():
    inst = QuantumInstance(n=2, edge_index=[[0, 1]], couplings=[1.0],
                           fields=[0.5, 0.5])
    res = gs_solve(inst, GSConfig(space_size=10, outer_rounds=6, seed=0))
    assert abs(res.energy + np.sqrt(2.0)) <= 1e-3
    assert res.converged


def test_solver_dominates_its_seeds():
    inst = generate_chain(6, law="gaussian", h=0.6, seed=8)
    res = gs_solve(inst, GSConfig(space_size=8, outer_rounds=4, seed=1))
    assert res.energy <= mf_maxsum_solve(inst, seed=1).energy + 1e-9
    assert res.energy <= ss_maxsum_solve(inst, seed=1).energy + 1e-9

    loopy = generate_rrg(8, 3, law="gaussian", h=1.0, seed=2)
    res = gs_solve(loopy, GSConfig(space_size=8, outer_rounds=4, seed=1))
    assert res.energy <= mf_maxsum_solve(loopy, seed=1).energy + 1e-9


def test_batched_refit_matches_per_candidate_loop(monkeypatch):
    inst = generate_rrg(12, 3, law="pm_one", h=0.5, seed=7)
    # bp_max_iters only caps the refit; the runs that never converge stop sooner
    cfg = GSConfig(k_cap=2.0, outer_rounds=4, bp_max_iters=2000)
    seen = {}
    batched = general._refit

    def capture(inst_, graph, candidates, cfg_, rng):
        seen.update(graph=graph, candidates=list(candidates),
                    state=copy.deepcopy(rng.bit_generator.state))
        return batched(inst_, graph, candidates, cfg_, rng)

    monkeypatch.setattr(general, "_refit", capture)
    res = gs_solve(inst, cfg)
    graph, candidates = seen["graph"], seen["candidates"]
    rng_batch, rng_loop = np.random.default_rng(), np.random.default_rng()
    rng_batch.bit_generator.state = copy.deepcopy(seen["state"])
    rng_loop.bit_generator.state = copy.deepcopy(seen["state"])

    fits = batched(inst, graph, candidates, cfg, rng_batch)
    assert len(fits) == len(candidates)
    for (label, b, k, nu0), (obs, nu, rep, fallback, starts) in zip(candidates, fits):
        ref_obs, ref_nu, ref_rep, ref_fallback = refit_one(inst, graph, b, k, nu0,
                                                           cfg, rng_loop)
        assert obs.energy == ref_obs.energy, label
        assert np.array_equal(nu, ref_nu), label
        assert rep == ref_rep, label
        assert fallback == ref_fallback, label
        assert len(starts) == 2 + cfg.bp_restarts
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state

    log = res.diagnostics["refits"]
    assert log["winner"] == res.chosen
    assert [c["label"] for c in log["candidates"]] == [c[0] for c in candidates]
    for entry, fit in zip(log["candidates"], fits):
        assert entry["energy"] == fit[0].energy
        assert entry["delta_m_fallback"] == fit[3]
        assert entry["starts"] == [{"converged": r.converged, "iterations": r.iterations}
                                   for r in fit[4]]
    # this instance has refit starts that never converge; they must show
    flags = [s["converged"] for c in log["candidates"] for s in c["starts"]]
    assert not all(flags)
    assert all(s["iterations"] == cfg.bp_max_iters
               for c in log["candidates"] for s in c["starts"] if not s["converged"])


def test_solver_deterministic():
    inst = generate_chain(5, law="gaussian", h=0.9, seed=4)
    cfg = GSConfig(space_size=8, outer_rounds=3, seed=7)
    a = gs_solve(inst, cfg)
    b = gs_solve(inst, cfg)
    assert a.energy == b.energy
    assert a.chosen == b.chosen
    assert a.iterations == b.iterations
    np.testing.assert_array_equal(a.k, b.k)


@pytest.mark.parametrize("inner", ["convolution"])
def test_alternate_inner_strategies_run(inner):
    inst = testutil.star_instance(3, h=0.8, seed=3)
    cfg = GSConfig(space_size=6, outer_rounds=3, seed=2, inner=inner)
    res = gs_solve(inst, cfg)
    assert np.isfinite(res.energy)
    # candidate pool still contains the seeds regardless of inner method
    assert res.energy <= mf_maxsum_solve(inst, seed=2).energy + 1e-9


def test_convolution_brackets_exhaustive():
    rng = np.random.default_rng(0)
    violations = 0
    for trial in range(10):
        inst = testutil.star_instance(3, h=float(rng.uniform(0.2, 2.0)),
                                      seed=100 + trial)
        g = ClassicalGraph.from_instance(inst)
        cfg = GSConfig(delta_b=0.1, half_b=8, delta_k=0.2, half_k=3,
                       delta_nu=0.2, half_nu=10, space_size=6,
                       conv_x_step=0.2, seed=trial)
        spaces = init_spaces(g, cfg, np.random.default_rng(trial))
        messages = rng.standard_normal((2 * g.m, cfg.space_size))
        messages -= messages.max(axis=1, keepdims=True)
        tol = 0.4
        target_dir = int(g.out_dirs[0][0])
        steps = len(g.out_dirs[0]) - 1
        dx = (steps + 1) * cfg.conv_x_step

        tables = _sweep_tables(inst, spaces)
        others = [int(d) for d in g.out_dirs[0] if int(d) != target_dir]
        y_span = max(sum(
            max(float(np.max(np.abs(tables.lyp_in[d]))),
                float(np.max(np.abs(tables.lym_in[d]))))
            for d in others), 1e-6)
        y_step = 2.0 * y_span / (cfg.conv_y_bins - 1)
        eps = 2.0 * inst.fields[0] * (steps + 1) * y_step

        conv = convolution_inner_max(inst, g, spaces, messages, 0, target_dir,
                                     tol, cfg)
        lo = exhaustive_inner_max(inst, g, spaces, messages, 0, target_dir,
                                  tol - dx, cfg)
        hi = exhaustive_inner_max(inst, g, spaces, messages, 0, target_dir,
                                  tol + dx, cfg)
        both = np.isfinite(conv) | np.isfinite(lo) | np.isfinite(hi)
        ok_low = np.where(np.isfinite(lo), conv >= lo - eps - 1e-9, True)
        ok_high = np.where(np.isfinite(conv), conv <= hi + eps + 1e-9, True)
        violations += int(np.sum(~(ok_low & ok_high)[both]))
    assert violations == 0


def _isolated_site_instance():
    # a triangle with a tail, and site 5 coupled to nothing
    return QuantumInstance(
        n=6, edge_index=[[0, 1], [0, 2], [1, 2], [2, 4], [3, 4]],
        couplings=[1.0, 0.7, -0.5, 1.2, -0.9],
        fields=[0.5, 1.0, 1.5, 0.3, 0.8, 1.1], seed=0,
    )


@pytest.mark.parametrize("inst", [
    generate_rrg(12, 3, law="pm_one", h=1.0, seed=2),
    testutil.random_tree(10, np.random.default_rng(3)),
    testutil.star_instance(4, h=0.7, seed=1),
    generate_rrg(10, 4, law="gaussian", h=0.9, seed=6),
    _isolated_site_instance(),
], ids=["pm_one-3rrg", "tree", "star", "gaussian-4rrg", "isolated-site"])
def test_site_shift_max_matches_per_site_loop(inst):
    g = ClassicalGraph.from_instance(inst)
    cfg = GSConfig(space_size=6, k_cap=1.0)
    spaces = init_spaces(g, cfg, np.random.default_rng(11))
    tables = _sweep_tables(inst, spaces)
    rng = np.random.default_rng(12)
    messages = rng.standard_normal((2 * g.m, cfg.space_size))
    messages[rng.random(messages.shape) < 0.1] = -np.inf
    infeasible = 0
    # the small tolerances leave some sites without any admissible combination
    for tol in (0.05, 0.2, 1.0):
        for site in range(g.n):
            value, b, choice = _site_shift_max(inst, g, tables, messages, tol,
                                               cfg, site)
            ref_value, ref_b, ref_choice = site_shift_max_loop(
                inst, g, tables, messages, tol, cfg, site)
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert np.float64(b).tobytes() == np.float64(ref_b).tobytes()
            assert choice == ref_choice
            infeasible += value == -np.inf
    assert infeasible > 0


def test_combination_limit_raises_before_allocating():
    cfg = GSConfig(space_size=20)
    for leaves, call in ((7, "inner"), (6, "site")):
        inst = testutil.star_instance(leaves, h=0.8, seed=1)
        g = ClassicalGraph.from_instance(inst)
        spaces = init_spaces(g, cfg, np.random.default_rng(0))
        tables = _sweep_tables(inst, spaces)
        messages = np.zeros((2 * g.m, cfg.space_size))
        tracemalloc.start()
        try:
            # 20**6 combinations of the centre's other edges, or of all of them
            with pytest.raises(SearchSpaceError, match="64000000.*space_size"):
                if call == "inner":
                    exhaustive_inner_max(inst, g, spaces, messages, 0,
                                         int(g.out_dirs[0][0]), 0.2, cfg)
                else:
                    _site_shift_max(inst, g, tables, messages, 0.2, cfg, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, call


def test_combo_index_is_cached_read_only_and_limit_checked():
    idx = _combo_index(4, 3)
    assert _combo_index(4, 3) is idx
    assert not idx.flags.writeable
    # last position fastest: column c is c written in base 4
    np.testing.assert_array_equal(
        idx.T, [[c // 16, c // 4 % 4, c % 4] for c in range(64)])
    np.testing.assert_array_equal(_combo_index(4, 0), np.zeros((0, 1)))
    for _ in range(2):
        with pytest.raises(SearchSpaceError, match="space_size"):
            _combo_index(20, 6)


def test_resample_keeps_best_states():
    inst = generate_chain(3, law="ferro", h=1.0, seed=0)
    g = ClassicalGraph.from_instance(inst)
    cfg = GSConfig(space_size=6, resample_fraction=0.5)
    spaces = init_spaces(g, cfg, np.random.default_rng(1))
    weights = np.random.default_rng(2).standard_normal((g.m, 6))
    new, kept = gs_resample(spaces, weights, cfg, np.random.default_rng(3))
    assert new.k.shape == spaces.k.shape
    for e in range(g.m):
        best = int(np.argmax(weights[e]))
        assert kept[e, 0] == best
        assert new.k[e, 0] == spaces.k[e, best]
        assert new.nu_fwd[e, 0] == spaces.nu_fwd[e, best]

    dead, kept_dead = gs_resample(spaces, weights, cfg,
                                  np.random.default_rng(3), dead_edges={1})
    assert np.all(kept_dead[1] == -1)
    assert kept_dead[0, 0] == np.argmax(weights[0])


def test_weights_are_bond_scores():
    inst = generate_chain(3, law="gaussian", h=0.5, seed=2)
    g = ClassicalGraph.from_instance(inst)
    cfg = GSConfig(space_size=5)
    spaces = init_spaces(g, cfg, np.random.default_rng(0))
    messages = np.zeros((2 * g.m, 5))
    w = gs_weights(inst, g, spaces, messages)
    assert w.shape == (g.m, 5)
    assert np.all(np.isfinite(w))


def test_candidate_ordering():
    assert candidates_order("meanfield-seed") == 0
    assert candidates_order("symmetric-seed") == 1
    assert candidates_order("round-0") == 2
    assert candidates_order("round-17") == 2
