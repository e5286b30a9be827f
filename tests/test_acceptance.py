"""Package-level acceptance checks, one numbered test per guarantee.

Each test prints one "ACCEPTANCE C<n> PASS/FAIL" line (repeated in the
terminal summary by conftest).  The last check is a long optional
phase-diagram run, enabled with ISINGBP_LONG_TESTS=1.
"""

import os
import time

import numpy as np
import pytest

import acceptance_log
import oracles
import testutil
from isingbp import (
    GSConfig,
    Grid,
    HomogConfig,
    QuantumInstance,
    SearchSpace,
    bp_fixed_point,
    convolution_inner_max,
    critical_field,
    dense_hamiltonian,
    exhaustive_inner_max,
    generate_chain,
    generate_rrg,
    gs_maxsum_sweep,
    gs_solve,
    ground_state,
    init_spaces,
    mf_maxsum_solve,
    observables,
    run_cell,
    ss_maxsum_solve,
)
from isingbp.classical_bp import (
    bond_energy,
    field_shift,
    logcosh,
    site_energy_from_logs,
)
from isingbp.enumeration import classical_expectations
from isingbp.general import _CONV_Y_BINS, _extract, _sweep_tables
from isingbp.meanfield import DEFAULT_FIELD_GRID
from isingbp.symmetric import DEFAULT_COUPLING_GRID


def _record(n, ok):
    verdict = "PASS" if bool(ok) else "FAIL"
    acceptance_log.ACCEPTANCE[n] = verdict
    print(f"ACCEPTANCE C{n} {verdict}")
    assert ok, f"acceptance check {n} failed"


def _begin(n):
    # a crash before _record still leaves a FAIL line in the summary
    acceptance_log.ACCEPTANCE[n] = "FAIL"


def test_criterion_1_single_bond():
    _begin(1)
    inst = QuantumInstance(n=2, edge_index=[[0, 1]], couplings=[1.0],
                           fields=[0.5, 0.5], seed=0)
    target = -np.sqrt(2.0)
    t0 = time.perf_counter()
    e_ss = ss_maxsum_solve(inst).energy
    e_gs = gs_solve(inst, GSConfig(space_size=8, outer_rounds=4, seed=0)).energy
    e_exact = ground_state(inst).energy
    elapsed = time.perf_counter() - t0
    ok = (abs(e_ss - target) <= 1e-3
          and abs(e_gs - target) <= 1e-3
          and abs(e_exact - target) <= 1e-10
          and elapsed < 1.0)
    _record(1, ok)


def test_criterion_2_product_state_upper_bound():
    _begin(2)
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    ok = True
    for count in range(50):
        h = (0.2, 1.0, 3.0)[count % 3]
        law = ("gaussian", "pm_one")[count % 2]
        if count % 2 == 0:
            n = int(rng.choice([4, 6, 8, 10]))
            inst = generate_chain(n, law=law, h=h, seed=3000 + count)
        else:
            n = int(rng.choice([6, 8, 10]))
            inst = generate_rrg(n, 3, law=law, h=h, seed=3000 + count)
        e0 = float(np.linalg.eigvalsh(dense_hamiltonian(inst))[0])
        e_mf = mf_maxsum_solve(inst, max_iters=300).energy
        ok = ok and (e_mf >= e0 - 1e-8)
    elapsed = time.perf_counter() - t0
    _record(2, ok and elapsed < 60.0)


def test_criterion_3_bp_matches_enumeration():
    _begin(3)
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 13))
        inst = testutil.random_tree(n, rng)
        g = inst.graph
        params = testutil.random_params(inst, rng)
        nu, rep = bp_fixed_point(g, params, eps=1e-13)
        obs = observables(inst, params, nu)
        ref = classical_expectations(inst, params)
        ok = ok and rep.converged
        ok = ok and abs(obs.energy - ref["energy"]) <= 1e-10
        ok = ok and float(np.max(np.abs(obs.sigma_z - ref["sigma_z"]))) <= 1e-10
        ok = ok and float(np.max(np.abs(obs.sigma_x - ref["sigma_x"]))) <= 1e-10
        ok = ok and float(np.max(np.abs(obs.site_energies - ref["site_energies"]))) <= 1e-10
        if inst.m:
            ok = ok and float(np.max(np.abs(obs.bond_energies - ref["bond_energies"]))) <= 1e-10
    elapsed = time.perf_counter() - t0
    _record(3, ok and elapsed < 60.0)


def _edge_state_grid(cfg):
    """All (k, nu_fwd, nu_rev) combinations of the config's grids."""
    kv = cfg.k_grid().values
    nv = cfg.nu_grid().values
    ks, nf, nr = np.meshgrid(kv, nv, nv, indexing="ij")
    return ks.ravel(), nf.ravel(), nr.ravel()


def _chain_reference_minimum(inst, cfg, tol):
    """Exhaustive minimum of the discrete joint objective on a chain.

    Left-to-right dynamic program over full per-edge state grids: state =
    the (k, nu_fwd, nu_rev) of the current edge, transitions scan the
    site field grid and enforce the per-direction consistency windows.
    Written against the energy definitions only, independent of the
    solver's message passing.
    """
    ks, nf, nr = _edge_state_grid(cfg)
    bvals = cfg.b_grid().values[None, :]
    slack = tol + 1e-9
    # per-state pieces; the lo end of an edge receives nu_rev, the hi end
    # nu_fwd, and passes the matching shifted-cosh log factors to its site
    u_into_lo = field_shift(nr, ks)
    u_into_hi = field_shift(nf, ks)
    lyp_lo = (logcosh(nr + 2.0 * ks) - logcosh(nr))[:, None]
    lym_lo = (logcosh(nr - 2.0 * ks) - logcosh(nr))[:, None]
    lyp_hi = (logcosh(nf + 2.0 * ks) - logcosh(nf))[:, None]
    lym_hi = (logcosh(nf - 2.0 * ks) - logcosh(nf))[:, None]
    bonds = [bond_energy(float(inst.couplings[e]), ks, nf, nr)
             for e in range(inst.m)]
    big = np.inf

    # site 0: only edge 0, outgoing field must match nu_fwd
    h0 = float(inst.fields[0])
    feas = np.abs(2.0 * bvals - nf[:, None]) <= slack
    cost = site_energy_from_logs(h0, bvals, lyp_lo, lym_lo)
    f = np.min(np.where(feas, cost, big), axis=1)

    for i in range(1, inst.n - 1):
        h_i = float(inst.fields[i])
        left, right = i - 1, i
        new = np.full(ks.size, big)
        base = f + bonds[left]
        for s in range(ks.size):
            feas = (np.abs(2.0 * bvals + u_into_lo[s] - nr[:, None]) <= slack) \
                & (np.abs(2.0 * bvals + u_into_hi[:, None] - nf[s]) <= slack)
            if not feas.any():
                continue
            cost = site_energy_from_logs(
                h_i, bvals, lyp_hi + lyp_lo[s], lym_hi + lym_lo[s]
            )
            total = base[:, None] + np.where(feas, cost, big)
            new[s] = float(np.min(total))
        f = new

    h_last = float(inst.fields[inst.n - 1])
    feas = np.abs(2.0 * bvals - nr[:, None]) <= slack
    cost = site_energy_from_logs(h_last, bvals, lyp_hi, lym_hi)
    f = f + bonds[-1] + np.min(np.where(feas, cost, big), axis=1)
    return float(np.min(f))


def _full_space_optimum(inst, cfg, tol, sweeps=200):
    """Run the sweep to a fixed point on complete per-edge state grids and
    return the extracted optimum value."""
    g = inst.graph
    ks, nf, nr = _edge_state_grid(cfg)
    spaces = SearchSpace(
        np.tile(ks, (g.m, 1)), np.tile(nf, (g.m, 1)), np.tile(nr, (g.m, 1))
    )
    tables = _sweep_tables(inst, spaces)
    messages = np.zeros((2 * g.m, ks.size))
    for _ in range(sweeps):
        new, dead = gs_maxsum_sweep(inst, spaces, messages, tol, cfg,
                                    tables=tables)
        assert not dead
        finite = np.isfinite(new) & np.isfinite(messages)
        moved = bool(np.any(np.isfinite(new) != np.isfinite(messages)))
        resid = float(np.max(np.abs(new - messages)[finite])) if finite.any() else 0.0
        messages = new
        if not moved and resid <= 1e-12:
            break
    _, _, _, maxsum_energy, _ = _extract(inst, spaces, messages, tol, cfg)
    return maxsum_energy


def test_criterion_4_discrete_optima():
    _begin(4)
    t0 = time.perf_counter()
    ok = True
    # field-only and coupling-only solvers against chain dynamic programs
    for n, law, h, seed in [(4, "gaussian", 0.7, 1), (6, "pm_one", 1.2, 2),
                            (8, "gaussian", 0.4, 3), (8, "pm_one", 2.0, 4)]:
        inst = generate_chain(n, law=law, h=h, seed=seed)
        d_mf = mf_maxsum_solve(inst).energy - oracles.mf_chain_minimum(
            inst, DEFAULT_FIELD_GRID)
        d_ss = ss_maxsum_solve(inst).energy - oracles.ss_chain_minimum(
            inst, DEFAULT_COUPLING_GRID)
        # same grid optimum; values may differ by summation-order rounding,
        # orders of magnitude below any gap between distinct grid points
        ok = ok and abs(d_mf) <= 1e-12 and abs(d_ss) <= 1e-12
    # joint solver on complete tiny grids against brute-force minimization
    cfg = GSConfig(delta_b=0.25, half_b=2, delta_k=0.5, half_k=1,
                   delta_nu=0.25, half_nu=3)
    tol = 0.25
    for n, law, h, seed in [(4, "gaussian", 0.8, 5), (5, "pm_one", 1.5, 6),
                            (6, "gaussian", 1.2, 9)]:
        inst = generate_chain(n, law=law, h=h, seed=seed)
        got = _full_space_optimum(inst, cfg, tol)
        ref = _chain_reference_minimum(inst, cfg, tol)
        ok = ok and abs(got - ref) <= 1e-9
    elapsed = time.perf_counter() - t0
    _record(4, ok and elapsed < 300.0)


def test_criterion_5_restrictions_and_seeding():
    _begin(5)
    t0 = time.perf_counter()
    ok = True

    # zero-coupling state spaces reproduce the field-only optimum
    inst = generate_chain(6, law="gaussian", h=0.9, seed=11)
    g = inst.graph
    fg = Grid(0.1, 10)
    pairs = [(b1, b2) for b1 in fg.values for b2 in fg.values]
    k = np.zeros((g.m, len(pairs)))
    nfw = np.tile([2.0 * b1 for b1, _ in pairs], (g.m, 1))
    nrv = np.tile([2.0 * b2 for _, b2 in pairs], (g.m, 1))
    cfg = GSConfig(delta_b=0.1, half_b=10, delta_k=0.5, half_k=1,
                   delta_nu=0.2, half_nu=10)
    spaces = SearchSpace(k, nfw, nrv)
    messages = np.zeros((2 * g.m, len(pairs)))
    tables = _sweep_tables(inst, spaces)
    for _ in range(100):
        new, dead = gs_maxsum_sweep(inst, spaces, messages, 1e-9, cfg,
                                    tables=tables)
        assert not dead
        finite = np.isfinite(new) & np.isfinite(messages)
        moved = bool(np.any(np.isfinite(new) != np.isfinite(messages)))
        resid = float(np.max(np.abs(new - messages)[finite])) if finite.any() else 0.0
        messages = new
        if not moved and resid <= 1e-12:
            break
    _, kx, _, e_restricted, _ = _extract(inst, spaces, messages, 1e-9, cfg)
    e_mf = mf_maxsum_solve(inst, grid=fg).energy
    ok = ok and abs(e_restricted - e_mf) <= 1e-8 and np.all(kx == 0.0)

    # zero-field, zero-cavity spaces reproduce the coupling-only optimum
    kg = Grid(0.05, 20)
    k = np.tile(kg.values, (g.m, 1))
    zeros = np.zeros_like(k)
    cfg = GSConfig(delta_b=0.1, half_b=10, delta_k=0.05, half_k=20,
                   delta_nu=0.2, half_nu=10)
    spaces = SearchSpace(k, zeros, zeros)
    messages = np.zeros((2 * g.m, kg.values.size))
    tables = _sweep_tables(inst, spaces)
    for _ in range(100):
        new, dead = gs_maxsum_sweep(inst, spaces, messages, 1e-9, cfg,
                                    tables=tables)
        assert not dead
        finite = np.isfinite(new) & np.isfinite(messages)
        moved = bool(np.any(np.isfinite(new) != np.isfinite(messages)))
        resid = float(np.max(np.abs(new - messages)[finite])) if finite.any() else 0.0
        messages = new
        if not moved and resid <= 1e-12:
            break
    bx, _, _, e_restricted, _ = _extract(inst, spaces, messages, 1e-9, cfg)
    e_ss = ss_maxsum_solve(inst, grid=kg).energy
    ok = ok and abs(e_restricted - e_ss) <= 1e-8 and np.all(bx == 0.0)

    # the product-state seed keeps the joint solver at or below that bound
    for n, seed, h in [(20, 42, 0.3), (20, 42, 0.8), (20, 42, 1.5),
                       (20, 42, 2.5), (14, 7, 0.5), (14, 7, 2.0)]:
        inst = generate_chain(n, law="gaussian", h=h, seed=seed)
        e_mf = mf_maxsum_solve(inst).energy
        e_gs = gs_solve(inst, GSConfig(outer_rounds=8, seed=1)).energy
        ok = ok and e_gs <= e_mf + 1e-6
    elapsed = time.perf_counter() - t0
    _record(5, ok and elapsed < 600.0)


def test_criterion_6_homogeneous_critical_fields():
    _begin(6)
    t0 = time.perf_counter()
    hc = critical_field(3, 2.0, 2.6)
    hc_mf = critical_field(3, 2.5, 3.5, HomogConfig(mf_only=True))
    elapsed = time.perf_counter() - t0
    ok = 2.24 <= hc <= 2.34 and abs(hc_mf - 3.0) <= 0.01 and elapsed < 60.0
    _record(6, ok)


def test_criterion_7_convolution_brackets_exhaustive():
    _begin(7)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    violations = 0
    for trial in range(100):
        inst = testutil.star_instance(3, h=float(rng.uniform(0.2, 2.0)),
                                      seed=500 + trial)
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
        any_finite = np.isfinite(conv) | np.isfinite(lo) | np.isfinite(hi)
        ok_low = np.where(np.isfinite(lo), conv >= lo - eps - 1e-9, True)
        ok_high = np.where(np.isfinite(conv), conv <= hi + eps + 1e-9, True)
        violations += int(np.sum(~(ok_low & ok_high)[any_finite]))
    elapsed = time.perf_counter() - t0
    _record(7, violations == 0 and elapsed < 300.0)


def test_criterion_8_classical_and_paramagnetic_limits():
    _begin(8)
    t0 = time.perf_counter()
    ok = True
    # zero transverse field: every method hits the classical bond sum
    for law, seed in [("gaussian", 2), ("pm_one", 3)]:
        inst = generate_chain(12, law=law, h=0.0, seed=seed)
        jsum = float(np.sum(np.abs(inst.couplings)))
        for method, overrides in [("mf", None), ("ss", None),
                                  ("gs", {"outer_rounds": 6}),
                                  ("exact", None)]:
            rec = run_cell(inst, "c8", method, None, 1, overrides)
            ok = ok and abs(rec.E_per_spin * inst.n + jsum) <= 1e-3 * jsum
    # strong transverse field: energy within 1% of the field sum, aligned x
    inst = generate_chain(20, law="gaussian", h=10.0, seed=5)
    hsum = float(np.sum(inst.fields))
    for method, overrides in [("mf", None), ("ss", None),
                              ("gs", {"outer_rounds": 6}),
                              ("exact", {"tol": 1e-6})]:
        rec = run_cell(inst, "c8", method, None, 1, overrides)
        ok = ok and abs(rec.E_per_spin * inst.n + hsum) <= 0.01 * hsum
        ok = ok and rec.m_x is not None and rec.m_x > 0.99
    elapsed = time.perf_counter() - t0
    _record(8, ok and elapsed < 120.0)


def test_criterion_9_beats_single_family_baselines():
    _begin(9)
    t0 = time.perf_counter()
    cfg = GSConfig(outer_rounds=12, seed=1)
    inst_hi = generate_chain(20, law="gaussian", h=2.5, seed=42)
    inst_lo = generate_chain(20, law="gaussian", h=0.3, seed=42)
    e_mf = mf_maxsum_solve(inst_hi).energy
    e_ss = ss_maxsum_solve(inst_lo).energy
    e_gs_hi = gs_solve(inst_hi, cfg).energy
    e_gs_lo = gs_solve(inst_lo, cfg).energy
    ex_hi = ground_state(inst_hi, tol=1e-6).energy
    ex_lo = ground_state(inst_lo, tol=1e-4).energy
    ok = (abs(e_gs_hi - ex_hi) <= abs(e_mf - ex_hi)
          and abs(e_gs_lo - ex_lo) <= abs(e_ss - ex_lo))
    elapsed = time.perf_counter() - t0
    _record(9, ok and elapsed < 600.0)


def test_criterion_10_large_graph_transition():
    if os.environ.get("ISINGBP_LONG_TESTS") != "1":
        acceptance_log.ACCEPTANCE[10] = "SKIP (optional)"
        print("ACCEPTANCE C10 SKIP (optional)")
        pytest.skip("set ISINGBP_LONG_TESTS=1 for the large scan")
    _begin(10)
    t0 = time.perf_counter()
    inst = generate_rrg(1000, 3, law="pm_one", h=1.0, seed=77)
    qz = {}
    for h in (1.6, 1.8, 2.0, 2.2, 2.4):
        res = gs_solve(inst.with_uniform_field(h),
                       GSConfig(space_size=12, outer_rounds=8, k_cap=1.5,
                                seed=3))
        qz[h] = res.q_z
    thresh = 0.05
    vanished = [h for h in sorted(qz) if qz[h] < thresh]
    ok = bool(vanished) and 1.8 <= min(vanished) <= 2.2
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if (ok and elapsed < 3600.0) else "FAIL"
    acceptance_log.ACCEPTANCE[10] = verdict
    print(f"ACCEPTANCE C10 {verdict} (q_z by field: "
          + ", ".join(f"{h}:{qz[h]:.3f}" for h in sorted(qz)) + ")")
    if verdict == "FAIL":
        pytest.xfail("optional transition-location check missed its window")
