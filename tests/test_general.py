"""Joint-parameter solver: degenerations, inner maximizations, search loop."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import testutil
from isingbp import (
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
    ground_state,
    init_spaces,
    mf_maxsum_solve,
    ss_maxsum_solve,
)
from isingbp.classical_bp import (
    ParameterSet,
    bond_energy,
    bp_fixed_point,
    bp_update,
    field_shift,
    logcosh,
)
from isingbp import general
from isingbp.general import (
    _BLOCK_ELEMS,
    _CONV_Y_BINS,
    SearchSpaceError,
    _combo_index,
    _extract,
    _site_picks,
    _snap_one,
    _sweep_tables,
    _window_sweep,
    _window_table,
    candidates_order,
)
from isingbp.grids import Grid
from isingbp.meanfield import mf_energy
from isingbp.runner import cell_seed
from isingbp.symmetric import ss_energy
from oracles import (
    batched_exhaustive_dense,
    conv_field_max_dense,
    extract_loop,
    gs_resample_loop,
    gs_resample_per_edge,
    init_spaces_loop,
    mf_chain_minimum,
    refit_eager,
    refit_one,
    site_maxes_dense,
    site_shift_max_loop,
    ss_chain_minimum,
    track_best_loop,
    window_values_dense,
)


BAD_CONFIGS = [
    dict(inner="bogus"), dict(inner="coordinate"), dict(delta_b=-0.1),
    dict(space_size=0), dict(delta_b=float("nan")), dict(delta_nu=float("inf")),
    dict(space_size=2.5), dict(outer_rounds=1.5), dict(half_nu=2.5),
    dict(k_cap=float("nan")), dict(delta_nu=float("nan")), dict(delta_b="abc"),
    dict(k_cap="abc"), dict(space_size=True),
]


def test_config_validation():
    for bad in BAD_CONFIGS:
        with pytest.raises(ValueError):
            GSConfig(**bad)


@pytest.mark.parametrize("shapes", [[(2, 3), (2, 4), (2, 3)],
                                    [(2, 3), (2, 3), (3, 3)]])
def test_search_space_arrays_share_one_shape(shapes):
    with pytest.raises(ValueError, match="shape"):
        SearchSpace(*(np.zeros(s) for s in shapes))


def test_init_spaces_deterministic_with_seeds():
    inst = generate_chain(4, law="ferro", h=1.0, seed=0)
    g = inst.graph
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


@pytest.mark.parametrize("options", [
    dict(space_size=12, k_cap=1.5), dict(space_size=2),
    dict(space_size=4, k_cap=0.1, delta_k=0.1, half_nu=1),
    dict(space_size=10, k_cap=0.1, delta_k=0.1, half_nu=0),
], ids=["c10", "seeds-only", "coarse", "too-few-states"])
def test_init_spaces_match_edge_by_edge_draws(options):
    # the coarse grids make edges draw states they hold already: 27 states
    # for 4 slots, and 3 for 10 slots, which keeps duplicates in the end
    g = generate_rrg(30, 3, "pm_one", 1.0, 77).graph
    cfg = GSConfig(**options)
    seeds = {e: [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.1, 0.05, -0.05)]
             for e in range(0, g.m, 3)}
    for seed_states in (None, seeds):
        rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
        spaces = init_spaces(g, cfg, rng_new, seed_states)
        k, nf, nr = init_spaces_loop(g, cfg, rng_old, seed_states)
        assert spaces.k.tobytes() == k.tobytes()
        assert spaces.nu_fwd.tobytes() == nf.tobytes()
        assert spaces.nu_rev.tobytes() == nr.tobytes()
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


def _converge_sweep(inst, g, spaces, cfg, tol, sweeps=60):
    tables = _sweep_tables(inst, spaces)
    messages = np.zeros((2 * g.m, spaces.size))
    residual = np.inf
    for _ in range(sweeps):
        new, dead = gs_maxsum_sweep(inst, spaces, messages, tol, cfg,
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
    g = inst.graph
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
    g = inst.graph
    cfg = GSConfig(delta_b=0.1, half_b=10, delta_k=0.2, half_k=4,
                   delta_nu=0.2, half_nu=10, space_size=5, inner=inner)
    spaces = init_spaces(g, cfg, np.random.default_rng(2))
    tables = _sweep_tables(inst, spaces)
    messages = np.zeros((2 * g.m, cfg.space_size))
    for tol in (0.6, 0.25, 0.6, 0.25):
        reused, dead_reused = gs_maxsum_sweep(inst, spaces, messages, tol,
                                              cfg, tables=tables)
        fresh, dead_fresh = gs_maxsum_sweep(inst, spaces, messages, tol, cfg)
        assert reused.tobytes() == fresh.tobytes()
        assert dead_reused == dead_fresh
        messages = np.where(np.isfinite(reused), reused, -50.0)
    assert np.any(np.isfinite(reused))


def test_zero_coupling_spaces_reduce_to_product_states():
    # spaces restricted to k = 0 and nu = 2b make the sweep solve the
    # product-state problem on the same field grid exactly
    inst = generate_chain(4, law="gaussian", h=0.8, seed=5)
    g = inst.graph
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
    b, k, _, maxsum_energy, _ = _extract(inst, spaces, messages, 1e-9, cfg)
    oracle = mf_chain_minimum(inst, b_grid)
    assert np.isclose(maxsum_energy, oracle, atol=1e-9)
    assert np.all(k == 0.0)
    # the extracted configuration bounds the optimum; under the global
    # sign flip degeneracy the per-site argmaxes may mix branches, which
    # the refit candidates absorb, so only the direction is guaranteed
    assert mf_energy(inst, b) >= oracle - 1e-9


def test_zero_field_spaces_reduce_to_coupling_states():
    inst = generate_chain(4, law="gaussian", h=0.8, seed=5)
    g = inst.graph
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
    b, k, _, maxsum_energy, _ = _extract(inst, spaces, messages, 1e-9, cfg)
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
    assert res.energy <= ss_maxsum_solve(inst).energy + 1e-9

    loopy = generate_rrg(8, 3, law="gaussian", h=1.0, seed=2)
    res = gs_solve(loopy, GSConfig(space_size=8, outer_rounds=4, seed=1))
    assert res.energy <= mf_maxsum_solve(loopy, seed=1).energy + 1e-9


@pytest.mark.parametrize("inst", [
    generate_chain(10, law="gaussian", h=1.0, seed=3),
    generate_rrg(12, 3, law="pm_one", h=1.5, seed=7),
], ids=["chain", "rrg"])
def test_seed_refits_equal_the_seed_energies(inst):
    # K = 0 and B = 0 are exact BP fixed points, so the refit of each seed
    # stops on its own start and evaluates the same observables call as
    # the seed solver: gs <= min(mf, ss) with no slack
    cfg = GSConfig(space_size=4, outer_rounds=1, seed=0)
    res = gs_solve(inst, cfg)
    refits = {c["label"]: c["energy"] for c in res.diagnostics["refits"]["candidates"]}
    e_mf = mf_maxsum_solve(inst, seed=cfg.seed).energy
    e_ss = ss_maxsum_solve(inst).energy
    assert refits["meanfield-seed"] == e_mf
    assert refits["symmetric-seed"] == e_ss
    assert res.energy <= min(e_mf, e_ss)


def test_batched_refit_matches_per_candidate_loop(monkeypatch):
    inst = generate_rrg(12, 3, law="pm_one", h=0.5, seed=7)
    cfg = GSConfig(k_cap=2.0, outer_rounds=4)
    seen = {}
    batched = general._refit

    def capture(inst_, candidates, rng):
        seen.update(candidates=list(candidates),
                    state=copy.deepcopy(rng.bit_generator.state))
        return batched(inst_, candidates, rng)

    monkeypatch.setattr(general, "_refit", capture)
    res = gs_solve(inst, cfg)
    candidates = seen["candidates"]
    rng_batch, rng_loop = np.random.default_rng(), np.random.default_rng()
    rng_batch.bit_generator.state = copy.deepcopy(seen["state"])
    rng_loop.bit_generator.state = copy.deepcopy(seen["state"])

    fits = batched(inst, candidates, rng_batch)
    assert len(fits) == len(candidates)
    for (label, b, k, nu0), (obs, nu, rep, fallback, starts) in zip(candidates, fits):
        ref_obs, ref_nu, ref_rep, ref_fallback, ref_starts = refit_one(
            inst, b, k, nu0, rng_loop)
        assert obs.energy == ref_obs.energy, label
        assert np.array_equal(nu, ref_nu), label
        assert rep == ref_rep, label
        assert fallback == ref_fallback, label
        assert starts == ref_starts, label
        assert len(starts) == 2 + general._BP_RESTARTS
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state

    log = res.diagnostics["refits"]
    assert log["winner"] == res.chosen
    assert [c["label"] for c in log["candidates"]] == [c[0] for c in candidates]
    for entry, fit in zip(log["candidates"], fits):
        assert entry["energy"] == fit[0].energy
        assert entry["delta_m_fallback"] == fit[3]
        assert entry["starts"] == [{"converged": r.converged, "iterations": r.iterations}
                                   for r in fit[4]]
    # this instance has refit starts that never converge; they must show,
    # stopped within the cap with the least residual of their own run
    stalled = [r for fit in fits for r in fit[4] if not r.converged]
    assert stalled
    assert all(r.iterations <= general._BP_MAX_ITERS for r in stalled)
    for (_, b, k, nu0), fit in zip(candidates, fits):
        for init, r in zip([nu0, np.zeros(2 * inst.graph.m)], fit[4]):
            if not r.converged:
                assert r.residual == _least_residual(inst.graph, b, k, init, r.iterations)


def test_refit_keeps_starts_that_converge_late():
    # the rrg_glass instance as the benchmark presents it at run seed 12,
    # unit 1: all five starts of one candidate converge only after about
    # 1300 iterations of a chaotic stretch, and a patience of 50 froze two
    inst = testutil.relabel(generate_rrg(12, 3, "pm_one", 0.5, 7), [12, 1])
    cfg = GSConfig(k_cap=2.0, outer_rounds=4, seed=cell_seed(12, "gs", 0.5))
    starts = {c["label"]: c["starts"]
              for c in gs_solve(inst, cfg).diagnostics["refits"]["candidates"]}
    assert all(s["converged"] and s["iterations"] > 1000 for s in starts["round-3"])
    # the patience rule did stop the starts that stall
    assert any(not s["converged"] and s["iterations"] < general._BP_MAX_ITERS
               for s in starts["round-1"])


def test_a_stalled_refit_does_not_outrank_a_fixed_point():
    # here round-1 refits from no start to a fixed point; its least-residual
    # iterate sits 1e-6 per spin below the symmetric seed's fixed point
    inst = generate_rrg(12, 3, "pm_one", 0.5, 7)
    res = gs_solve(inst, GSConfig(k_cap=2.0, outer_rounds=4,
                                  seed=cell_seed(0, "gs", 0.5)))
    stalled = [c["energy"] for c in res.diagnostics["refits"]["candidates"]
               if not any(s["converged"] for s in c["starts"])]
    assert res.converged
    assert min(stalled) < res.energy


def test_rounds_stop_once_only_runaway_entries_move(monkeypatch):
    # the rrg_glass gs cell at h=1.5: in round 0 some message entries fall
    # without bound and held the residual at 1e13 through all 60 sweeps
    inst = generate_rrg(12, 3, "pm_one", 1.5, 7)
    cfg = GSConfig(k_cap=2.0, outer_rounds=1, seed=cell_seed(0, "gs", 1.5))
    res = gs_solve(inst, cfg)
    (rnd,) = res.diagnostics["rounds"]
    assert rnd["stop"] == "converged" and rnd["sweeps"] < general._MAX_SWEEPS
    assert rnd["runaway"] > 0 and rnd["residual"] <= general._SWEEP_TOL
    # without the floor the round runs to the cap, for the same candidate
    monkeypatch.setattr(general, "_RUNAWAY_SCALE", np.inf)
    capped = gs_solve(inst, cfg)
    (rnd,) = capped.diagnostics["rounds"]
    assert rnd["stop"] == "cap" and rnd["sweeps"] == general._MAX_SWEEPS
    assert rnd["runaway"] == 0 and rnd["residual"] > 1e6
    assert capped.diagnostics["refits"] == res.diagnostics["refits"]
    assert capped.iterations == general._MAX_SWEEPS > res.iterations


def test_rounds_whose_live_entries_move_run_to_the_cap():
    # rrg_glass at h=0.5: rounds 2 and 3 oscillate above the floor
    inst = generate_rrg(12, 3, "pm_one", 0.5, 7)
    res = gs_solve(inst, GSConfig(k_cap=2.0, outer_rounds=4,
                                  seed=cell_seed(0, "gs", 0.5)))
    rounds = res.diagnostics["rounds"]
    assert [r["stop"] for r in rounds] == ["converged"] * 2 + ["cap"] * 2
    for r in rounds[2:]:
        assert r["sweeps"] == general._MAX_SWEEPS and r["runaway"] == 0
        assert r["residual"] > 1e-5
    assert res.iterations == sum(r["sweeps"] for r in rounds)


@pytest.mark.parametrize("inst,h", [
    (generate_rrg(12, 4, "gaussian", 0.5, 8), 0.5),
    (generate_rrg(10, 5, "pm_one", 0.5, 8), 0.5),
    (generate_rrg(10, 5, "pm_one", 1.5, 8), 1.5),
], ids=["gauss-d4-h0.5", "pm-d5-h0.5", "pm-d5-h1.5"])
def test_random_refit_starts_keep_gs_above_the_ground_energy(inst, h):
    # the meanfield seed wins here, above E0; without the random refit
    # starts no candidate reaches a fixed point with mean |<s^z>| above
    # _DELTA_M, and the symmetric seed's Bethe estimate wins instead,
    # 0.09-0.76 per spin below E0
    res = gs_solve(inst, GSConfig(k_cap=2.0, outer_rounds=3, space_size=8,
                                  seed=cell_seed(0, "gs", h)))
    assert res.energy >= ground_state(inst).energy - 1e-9


def _least_residual(graph, b, k, init, iterations):
    """Least update size of plain damped BP from init over its first updates."""
    nu = np.array(init, dtype=np.float64)
    params = ParameterSet(b, k)
    least = np.inf
    for _ in range(iterations):
        new = bp_update(graph, params, nu)
        least = min(least, float(np.max(np.abs(new - nu))))
        nu = 0.5 * new + 0.5 * nu
    return least


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


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_convolution_brackets_exhaustive(degree):
    rng = np.random.default_rng(0)
    violations = 0
    for trial in range(10):
        inst = testutil.star_instance(degree, h=float(rng.uniform(0.2, 2.0)),
                                      seed=100 + trial)
        g = inst.graph
        cfg = GSConfig(delta_b=0.1, half_b=8, delta_k=0.2, half_k=3,
                       delta_nu=0.2, half_nu=10, space_size=6, seed=trial)
        spaces = init_spaces(g, cfg, np.random.default_rng(trial))
        messages = rng.standard_normal((2 * g.m, cfg.space_size))
        messages -= messages.max(axis=1, keepdims=True)
        tol = 0.4
        out0 = testutil.out_dirs_of(g)[0]
        target_dir = int(out0[0])
        steps = len(out0) - 1
        dx = (steps + 1) * cfg.delta_nu

        tables = _sweep_tables(inst, spaces)
        others = [int(d) for d in out0 if int(d) != target_dir]
        y_span = max(sum(
            max(float(np.max(np.abs(tables.lyp_in[d]))),
                float(np.max(np.abs(tables.lym_in[d]))))
            for d in others), 1e-6)
        y_step = 2.0 * y_span / (_CONV_Y_BINS - 1)
        eps = 2.0 * inst.fields[0] * (steps + 1) * y_step

        conv = convolution_inner_max(inst, spaces, messages, 0, target_dir,
                                     tol, cfg)
        lo = exhaustive_inner_max(inst, spaces, messages, 0, target_dir,
                                  tol - dx, cfg)
        hi = exhaustive_inner_max(inst, spaces, messages, 0, target_dir,
                                  tol + dx, cfg)
        both = np.isfinite(conv) | np.isfinite(lo) | np.isfinite(hi)
        ok_low = np.where(np.isfinite(lo), conv >= lo - eps - 1e-9, True)
        ok_high = np.where(np.isfinite(conv), conv <= hi + eps + 1e-9, True)
        violations += int(np.sum(~(ok_low & ok_high)[both]))
    assert violations == 0


def test_convolution_field_max_matches_dense_oracle(monkeypatch):
    # every final-stage call of the convolution, on stars of degree 3 to 5
    # and in a short solve on a loopy graph, against the whole-grid scan
    calls = []
    real = general._conv_field_max

    def both(*args):
        got = real(*args)
        assert got.tobytes() == conv_field_max_dense(*args).tobytes()
        calls.append(int(np.isfinite(got).sum()))
        return got

    monkeypatch.setattr(general, "_conv_field_max", both)
    rng = np.random.default_rng(1)
    for degree in (3, 4, 5):
        inst = testutil.star_instance(degree, h=0.9, seed=degree)
        g = inst.graph
        # delta_b below, at and above delta_nu / 2 change the candidate count
        for delta_b in (0.02, 0.1, 0.3):
            cfg = GSConfig(delta_b=delta_b, half_b=8, delta_k=0.2, half_k=3,
                           delta_nu=0.2, half_nu=10, space_size=6)
            spaces = init_spaces(g, cfg, rng)
            messages = rng.standard_normal((2 * g.m, cfg.space_size))
            for tol in (0.2, 0.6):
                for target in testutil.out_dirs_of(g)[0]:
                    convolution_inner_max(inst, spaces, messages, 0, int(target),
                                          tol, cfg)
    gs_solve(generate_rrg(8, 3, law="pm_one", h=1.5, seed=7),
             GSConfig(inner="convolution", space_size=4, outer_rounds=2,
                      k_cap=1.0, seed=1))
    assert len(calls) > 100 and sum(calls) > 0


def _isolated_site_instance():
    # a triangle with a tail, and site 5 coupled to nothing
    return QuantumInstance(
        n=6, edge_index=[[0, 1], [0, 2], [1, 2], [2, 4], [3, 4]],
        couplings=[1.0, 0.7, -0.5, 1.2, -0.9],
        fields=[0.5, 1.0, 1.5, 0.3, 0.8, 1.1], seed=0,
    )


def _infeasible_spaces(g, size):
    # k = 0 makes every field shift 0, so BP consistency asks for
    # nu_out = 2b; with every nu at 2 and b on a grid holding only 0, no
    # window within a tol below 2 holds a field
    return SearchSpace(k=np.zeros((g.m, size)), nu_fwd=np.full((g.m, size), 2.0),
                       nu_rev=np.full((g.m, size), 2.0))


KERNEL_CASES = [
    generate_rrg(12, 3, law="pm_one", h=1.0, seed=2),
    testutil.random_tree(10, np.random.default_rng(3)),
    testutil.star_instance(4, h=0.7, seed=1),
    generate_rrg(10, 4, law="gaussian", h=0.9, seed=6),
    _isolated_site_instance(),
]
KERNEL_IDS = ["pm_one-3rrg", "tree", "star", "gaussian-4rrg", "isolated-site"]


def _kernel_inputs(inst, infeasible):
    g = inst.graph
    cfg = GSConfig(space_size=6, k_cap=1.0, half_b=0 if infeasible else 60)
    if infeasible:
        spaces = _infeasible_spaces(g, cfg.space_size)
    else:
        spaces = init_spaces(g, cfg, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    messages = rng.standard_normal((2 * g.m, cfg.space_size))
    messages[rng.random(messages.shape) < 0.1] = -np.inf
    return g, cfg, spaces, _sweep_tables(inst, spaces), messages


def _expand(pieces, shape):
    """The (G, S, C) window table that a compressed one stands for."""
    g_total, size, c = shape
    dense = np.full(g_total * size * c, -np.inf)
    for values, cols, starts, rows in pieces:
        row = np.repeat(rows, np.diff(starts, append=values.size))
        dense[row * c + cols.astype(np.int64) - row // size * c] = values
    return dense.reshape(shape)


def _check_window_kernels(inst, cfg, tol, tables, messages, dirs, nbrs):
    """Compressed table and sweep against the dense oracles, byte for byte.

    Returns the number of admissible (finite) entries.
    """
    h = inst.fields[inst.graph.src[dirs]]
    pieces = _window_table(h, cfg, tol, tables, dirs, nbrs)
    want = window_values_dense(h, cfg, tol, tables, dirs, nbrs)
    assert _expand(pieces, want.shape).tobytes() == want.tobytes()
    finite = int(np.isfinite(want).sum())
    assert sum(p[0].size for p in pieces) == finite
    for values, cols, starts, rows in pieces:
        assert values.size and starts[0] == 0 and np.all(np.diff(starts) > 0)
        assert values.size <= max(general._BLOCK_ELEMS, want.shape[1])
    inner = _window_sweep(pieces, messages, nbrs)
    assert inner.shape == (dirs.size, messages.shape[1])
    assert inner.tobytes() == batched_exhaustive_dense(want, messages, nbrs).tobytes()
    return finite


@pytest.mark.parametrize("infeasible", [False, True], ids=["random", "infeasible"])
@pytest.mark.parametrize("inst", KERNEL_CASES, ids=KERNEL_IDS)
def test_window_kernels_match_dense_oracles(inst, infeasible):
    # sources of degree 1 to 4 (ln 0 to 3 other edges)
    g, cfg, spaces, tables, messages = _kernel_inputs(inst, infeasible)
    finite = 0
    for tol in (0.05, 0.5, 1.0):
        for ln, (dirs, nbrs) in g.sweep_groups.items():
            finite += _check_window_kernels(inst, cfg, tol, tables, messages,
                                            dirs, nbrs)
    assert (finite == 0) == infeasible


def _converged_spaces(inst, cfg, rng):
    # states scattered around a BP fixed point, by one coupling bin and by
    # up to 24 cavity-field bins: the spaces of a late round
    g = inst.graph
    k = cfg.k_grid().snap(0.2 * inst.couplings)
    nu, rep = bp_fixed_point(g, ParameterSet(np.full(g.n, 0.3), k))
    assert rep.converged
    size, nu_grid = cfg.space_size, cfg.nu_grid()
    return SearchSpace(
        k=k[:, None] + cfg.delta_k * rng.integers(-1, 2, (g.m, size)),
        nu_fwd=nu_grid.snap(nu[0::2, None] + cfg.delta_nu
                            * rng.integers(-24, 25, (g.m, size))),
        nu_rev=nu_grid.snap(nu[1::2, None] + cfg.delta_nu
                            * rng.integers(-24, 25, (g.m, size))),
    )


@pytest.mark.parametrize("inst", [KERNEL_CASES[0], KERNEL_CASES[3]],
                         ids=["pm_one-3rrg", "gaussian-4rrg"])
def test_window_kernels_match_dense_oracles_when_mostly_admissible(inst, monkeypatch):
    # late rounds at C10 admit about 64% of the entries; here 76-84%, with
    # tables of several pieces
    g, cfg, _, _, messages = _kernel_inputs(inst, False)
    spaces = _converged_spaces(inst, cfg, np.random.default_rng(4))
    tables = _sweep_tables(inst, spaces)
    flat = inst.with_uniform_field(0.0)
    for elems in (_BLOCK_ELEMS, 500):
        monkeypatch.setattr(general, "_BLOCK_ELEMS", elems)
        for ln, (dirs, nbrs) in g.sweep_groups.items():
            finite = _check_window_kernels(inst, cfg, 1.0, tables, messages,
                                           dirs, nbrs)
            assert finite > 0.5 * dirs.size * 6 ** (ln + 1)
        # at h = 0 every site term is 0, so with zero or whole-number
        # messages a site's best entries tie, in several pieces at 500
        for case, msgs in ((inst, messages), (flat, np.zeros_like(messages)),
                           (flat, np.rint(messages))):
            _check_site_picks_on_swept_tables(case, spaces, msgs, 1.0, cfg)


def test_window_kernels_split_blocks_match_dense(monkeypatch):
    # blocks smaller than one (S, C) row split the combinations as well
    inst = generate_rrg(10, 4, law="gaussian", h=0.9, seed=6)
    g, cfg, spaces, tables, messages = _kernel_inputs(inst, False)
    flat = inst.with_uniform_field(0.0)
    dirs, nbrs = g.sweep_groups[3]
    for elems in (12, 100, 6 * 216 - 1, 6 * 216 + 1, 3 * 6 * 216):
        monkeypatch.setattr(general, "_BLOCK_ELEMS", elems)
        assert _check_window_kernels(inst, cfg, 0.5, tables, messages, dirs, nbrs)
        # the extraction on a table of its own and on the sweep's, whose
        # pieces split each site's entries between blocks; at h = 0 every
        # site term is 0, so with zero messages all of a site's entries
        # tie, and at 12 entries a block the pieces run 2 c at a time
        _check_site_picks_on_swept_tables(inst, spaces, messages, 0.5, cfg)
        _check_site_picks_on_swept_tables(flat, spaces, np.zeros_like(messages),
                                          1.0, cfg)


def test_window_table_peak_memory():
    # G = 36 directed edges, S = 20, C = 400: the dense table is 2.3 MB,
    # while building it in one piece held about 17 temporaries of that size
    inst = generate_rrg(12, 3, law="pm_one", h=1.0, seed=2)
    g = inst.graph
    cfg = GSConfig(space_size=20, k_cap=1.0)
    spaces = init_spaces(g, cfg, np.random.default_rng(0))
    tables = _sweep_tables(inst, spaces)
    dirs, nbrs = g.sweep_groups[2]
    h = inst.fields[g.src[dirs]]
    _combo_index(20, 2)
    tracemalloc.start()
    try:
        pieces = _window_table(h, cfg, 0.5, tables, dirs, nbrs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dirs.size == 36 and pieces
    assert peak < 36 * 20 * 400 * 8 + 24 * _BLOCK_ELEMS * 8


def _check_site_picks(inst, tables, messages, tol, cfg):
    """_site_picks against the per-site loop, which sums in the sweep's
    order, byte for byte, and against the dense site table: the same
    fields and picks, values to rounding.  Returns the site values."""
    g = inst.graph
    value, b, pick = _site_picks(inst, tables, messages, tol, cfg)
    assert value.shape == b.shape == (g.n,) and pick.shape == (2 * g.m,)
    for site in range(g.n):
        ref_value, ref_b, ref_choice = site_shift_max_loop(
            inst, tables, messages, tol, cfg, site)
        assert np.float64(value[site]).tobytes() == np.float64(ref_value).tobytes()
        assert np.float64(b[site]).tobytes() == np.float64(ref_b).tobytes()
        assert {d: int(pick[d]) for d in ref_choice} == ref_choice
    d_value, d_b, d_pick = site_maxes_dense(inst, tables, messages, tol, cfg)
    assert b.tobytes() == d_b.tobytes() and np.array_equal(pick, d_pick)
    np.testing.assert_allclose(value, d_value, rtol=0, atol=1e-12)
    return value


def _check_site_picks_on_swept_tables(inst, spaces, messages, tol, cfg):
    swept = _sweep_tables(inst, spaces)
    gs_maxsum_sweep(inst, spaces, messages, tol, cfg, tables=swept)
    assert swept.window
    for tables in (_sweep_tables(inst, spaces), swept):
        _check_site_picks(inst, tables, messages, tol, cfg)


def _check_site_maxes(inst, infeasible):
    g, cfg, spaces, tables, messages = _kernel_inputs(inst, infeasible)
    infeasible_sites = 0
    # the small tolerances leave some sites without any admissible combination
    for tol in (0.05, 0.2, 1.0):
        value = _check_site_picks(inst, tables, messages, tol, cfg)
        infeasible_sites += int(np.count_nonzero(value == -np.inf))
        # the round's cached tables, of every directed edge
        _check_site_picks_on_swept_tables(inst, spaces, messages, tol, cfg)
    if infeasible:
        # only the isolated site, whose field is unconstrained, is feasible
        assert infeasible_sites == 3 * int(np.count_nonzero(g.degrees))
    else:
        assert infeasible_sites > 0
    # with every message into a site -inf its maximum is -inf, and its
    # field and states are those of combination 0, feasible or not
    out_dirs = testutil.out_dirs_of(g)
    for site in np.flatnonzero(g.degrees):
        cut = messages.copy()
        cut[out_dirs[site] ^ 1] = -np.inf
        value = _check_site_picks(inst, tables, cut, 1.0, cfg)
        assert value[site] == -np.inf


@pytest.mark.parametrize("inst", KERNEL_CASES, ids=KERNEL_IDS)
def test_site_shift_max_matches_per_site_loop(inst):
    _check_site_maxes(inst, infeasible=False)


@pytest.mark.parametrize("inst", KERNEL_CASES, ids=KERNEL_IDS)
def test_site_maxes_on_infeasible_windows_match_per_site_loop(inst):
    _check_site_maxes(inst, infeasible=True)


@pytest.mark.parametrize("inst", KERNEL_CASES, ids=KERNEL_IDS)
def test_site_picks_after_convolution_sweeps(inst):
    # the convolution sweep caches the window tables of leaves only; the
    # extraction builds the rest for the first out-edges
    g, cfg, spaces, _, messages = _kernel_inputs(inst, False)
    cfg = GSConfig(space_size=6, k_cap=1.0, inner="convolution")
    tables = _sweep_tables(inst, spaces)
    gs_maxsum_sweep(inst, spaces, messages, 0.5, cfg, tables=tables)
    assert all(key[0] == 0 for key in tables.window)
    _check_site_picks(inst, tables, messages, 0.5, cfg)


def test_convolution_extraction_keeps_no_window_table():
    # 12 sites of degree 4 at S = 20, around a fixed point: 1.4M of the
    # 1.9M entries of the first out-edges' window table are admissible,
    # 17 MB at 12 bytes each, and the extraction holds one block at a time
    inst = generate_rrg(12, 4, law="gaussian", h=0.9, seed=6)
    cfg = GSConfig(space_size=20, k_cap=1.0, inner="convolution")
    tables = _sweep_tables(inst, _converged_spaces(inst, cfg, np.random.default_rng(4)))
    messages = np.random.default_rng(12).standard_normal((2 * inst.m, 20))
    sites, rows = inst.graph.site_groups[4]
    blocks = general._window_blocks(inst.fields[sites], cfg, 1.0, tables,
                                    rows[:, 0], rows[:, 1:])
    assert sum(block[0].size for block in blocks) > 1_400_000
    _combo_index(20, 3)
    tracemalloc.start()
    try:
        _site_picks(inst, tables, messages, 1.0, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not tables.window
    assert peak < 40 * _BLOCK_ELEMS * 8


@pytest.mark.parametrize("inst", KERNEL_CASES, ids=KERNEL_IDS)
def test_grouped_extract_matches_per_site_loop(inst):
    g, cfg, spaces, tables, messages = _kernel_inputs(inst, False)
    # finite edge weights, as gs_solve extracts only then
    messages = np.where(np.isfinite(messages), messages, -3.0)
    weights = gs_weights(inst, spaces, messages)
    for tol in (0.05, 0.2, 1.0):
        got = _extract(inst, spaces, messages, tol, cfg)
        want = extract_loop(inst, spaces, messages, tol, cfg, tables, weights)
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        assert np.float64(got[3]).tobytes() == np.float64(want[3]).tobytes()
        assert got[4] == want[4]


def test_combination_limit_raises_before_allocating():
    cfg = GSConfig(space_size=20)
    for leaves, call in ((7, "inner"), (6, "extract")):
        inst = testutil.star_instance(leaves, h=0.8, seed=1)
        g = inst.graph
        spaces = init_spaces(g, cfg, np.random.default_rng(0))
        messages = np.zeros((2 * g.m, cfg.space_size))
        tracemalloc.start()
        try:
            # 20**6 combinations of the centre's other edges, or of all of them
            with pytest.raises(SearchSpaceError, match="64000000.*space_size"):
                if call == "inner":
                    exhaustive_inner_max(inst, spaces, messages, 0,
                                         int(testutil.out_dirs_of(g)[0][0]), 0.2, cfg)
                else:
                    _extract(inst, spaces, messages, 0.2, cfg)
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
    g = inst.graph
    cfg = GSConfig(space_size=6)
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


@pytest.mark.parametrize("centers,dead", [
    (None, ()), ("best", ()), ("best", (0, 3)), ("far", (1,)),
], ids=["own-best", "centers", "dead-edges", "far-centers"])
def test_resample_matches_scalar_loop(centers, dead):
    inst = generate_rrg(12, 3, law="pm_one", h=1.0, seed=2)
    g = inst.graph
    # a coarse capped k grid makes duplicate proposals; the far case has
    # 3 states in all (k in -0.1, 0, 0.1 and nu 0) for 10 slots, so its
    # 60 proposals run out, uniform draws follow and, from the 400th try
    # on, duplicates are kept
    far = centers == "far"
    cfg = GSConfig(space_size=10, k_cap=0.1 if far else 0.3, delta_k=0.1,
                   half_nu=0 if far else 120)
    rng = np.random.default_rng(4)
    spaces = init_spaces(g, cfg, rng)
    weights = rng.standard_normal((g.m, cfg.space_size))
    cmap = None if centers is None else {
        e: (float(spaces.k[e, 0]), float(spaces.nu_fwd[e, 0]),
            float(spaces.nu_rev[e, 0])) for e in range(0, g.m, 2)}
    for radius in (60.0 if far else None, 1.0):
        rng_new, rng_old = np.random.default_rng(9), np.random.default_rng(9)
        new, kept = gs_resample(spaces, weights, cfg, rng_new, centers=cmap,
                                radius_bins=radius, dead_edges=set(dead))
        k, nf, nr, kept_old = gs_resample_loop(spaces, weights, cfg, rng_old,
                                               centers=cmap, radius_bins=radius,
                                               dead_edges=set(dead))
        assert new.k.tobytes() == k.tobytes()
        assert new.nu_fwd.tobytes() == nf.tobytes()
        assert new.nu_rev.tobytes() == nr.tobytes()
        assert np.array_equal(kept, kept_old)
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


RESAMPLE_CASES = {
    # name: (config options, centers, dead edges, radius_bins)
    "own-best": (dict(space_size=8), None, (), None),
    "centers-dead": (dict(space_size=8), "best", (0, 3), None),
    "capped-k": (dict(space_size=8, delta_k=0.1, k_cap=0.3), "best", (), None),
    "radius-1": (dict(space_size=8), "best", (5,), 1.0),
    # 3 states in all (k in -0.1, 0, 0.1 and nu 0) for 10 slots: the 60
    # proposals run out, uniform draws follow and from the 400th try on a
    # duplicate is kept
    "tiny-grid": (dict(space_size=10, delta_k=0.1, k_cap=0.1, half_nu=0), "best", (2,), 60.0),
}


@pytest.mark.parametrize("case", list(RESAMPLE_CASES))
def test_resample_matches_per_edge_batches(case):
    options, centers, dead, radius = RESAMPLE_CASES[case]
    cfg = GSConfig(**options)
    rng = np.random.default_rng(list(RESAMPLE_CASES).index(case))
    m, s = 14, cfg.space_size
    k_vals, nu_vals = cfg.k_grid().values, cfg.nu_grid().values
    # few distinct values per edge, so kept states repeat; tied and -inf weights
    spaces = SearchSpace(rng.choice(k_vals[:3], size=(m, s)),
                         rng.choice(nu_vals[-2:], size=(m, s)),
                         rng.choice(nu_vals, size=(m, s)))
    weights = rng.integers(0, 3, size=(m, s)).astype(float)
    weights[rng.random((m, s)) < 0.2] = -np.inf
    cmap = None if centers is None else {
        e: spaces.state(e, 1) for e in range(0, m, 2)}
    rng_new, rng_old = np.random.default_rng(9), np.random.default_rng(9)
    new, kept = gs_resample(spaces, weights, cfg, rng_new, centers=cmap,
                            radius_bins=radius, dead_edges=set(dead))
    old, kept_old = gs_resample_per_edge(spaces, weights, cfg, rng_old, centers=cmap,
                                         radius_bins=radius, dead_edges=set(dead))
    for a, b in ((new.k, old.k), (new.nu_fwd, old.nu_fwd), (new.nu_rev, old.nu_rev)):
        assert a.tobytes() == b.tobytes()
    assert np.array_equal(kept, kept_old)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert np.all(kept[list(dead)] == -1)
    if case == "tiny-grid":
        assert all(len({new.state(e, j) for j in range(s)}) < s for e in range(m))


@settings(max_examples=400, deadline=None)
@given(step=st.sampled_from([0.05, 0.1, 0.3, 1.0]), half=st.integers(0, 40),
       cap=st.one_of(st.none(), st.floats(0.0, 3.0)),
       at=st.integers(-90, 90), frac=st.one_of(
           st.sampled_from([0.5, -0.5, 0.0]), st.floats(-1.0, 1.0)))
@example(step=1.0, half=3, cap=None, at=3, frac=0.5)  # 3.5 rounds to 4
@example(step=1.0, half=3, cap=None, at=2, frac=0.5)  # 2.5 rounds to 2
@example(step=0.05, half=2, cap=None, at=-90, frac=0.0)
@example(step=0.05, half=2, cap=None, at=90, frac=0.0)
def test_scalar_snap_equals_grid_snap(step, half, cap, at, frac):
    # half-way points between grid values, and points far beyond both ends
    grid = Grid(step, half, cap=cap)
    v = grid.values
    for x in (float(v[0] + (at + frac) * step), (at + frac) * 1e6):
        assert _snap_one(v.tolist(), step, x) == float(grid.snap(x))


SOLVE_CASES = {
    "rrg_scan": (generate_rrg(30, 3, "pm_one", 2.0, 77),
                 dict(space_size=12, outer_rounds=8, k_cap=1.5)),
    "chain_compare": (generate_chain(14, "gaussian", 0.3, 42), dict(outer_rounds=12)),
    "rrg4": (generate_rrg(10, 4, "pm_one", 1.0, 7),
             dict(space_size=4, outer_rounds=4, k_cap=1.5)),
}


@pytest.mark.parametrize("case", list(SOLVE_CASES))
def test_solve_identical_with_per_edge_bookkeeping(case, monkeypatch):
    # the per-edge resampler, best-state loop and eager refit as a whole
    # solve: the CSV rows print 10 digits of the energy, this sees every bit
    inst, options = SOLVE_CASES[case]
    cfg = GSConfig(**options, seed=cell_seed(0, "gs", float(inst.fields[0])))
    got = gs_solve(inst, cfg)
    monkeypatch.setattr(general, "gs_resample", gs_resample_per_edge)
    monkeypatch.setattr(general, "_track_best", track_best_loop)
    monkeypatch.setattr(general, "_refit", refit_eager)
    want = gs_solve(inst, cfg)
    for name in ("b", "k", "nu", "sigma_z", "sigma_x"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("energy", "m_x", "q_z", "maxsum_energy", "converged", "iterations",
                 "chosen", "delta_m_fallback", "disagreements", "diagnostics"):
        assert getattr(got, name) == getattr(want, name), name


def test_weights_are_bond_scores():
    inst = generate_chain(3, law="gaussian", h=0.5, seed=2)
    g = inst.graph
    cfg = GSConfig(space_size=5)
    spaces = init_spaces(g, cfg, np.random.default_rng(0))
    messages = np.zeros((2 * g.m, 5))
    w = gs_weights(inst, spaces, messages)
    assert w.shape == (g.m, 5)
    assert np.all(np.isfinite(w))


def test_candidate_ordering():
    assert candidates_order("meanfield-seed") == 0
    assert candidates_order("symmetric-seed") == 1
    assert candidates_order("round-0") == 2
    assert candidates_order("round-17") == 2
