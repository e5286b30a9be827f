"""Zero-field solver: oracle equality, closed forms, envelope pruning."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import testutil
from isingbp import (
    ParameterSet,
    QuantumInstance,
    generate_chain,
    generate_rrg,
    ss_maxsum_solve,
    symmetric,
)
from isingbp.enumeration import quantum_expectation
from isingbp.exact import dense_hamiltonian
from isingbp.grids import Grid, _normalized, tiebreak_order
from isingbp.symmetric import DEFAULT_COUPLING_GRID, _compose, _fronts, _slope_groups, _sweeper, ss_energy
from oracles import (compose_loop, envelope_loop, eval_front_loop, maxsum_loop,
                     ss_chain_minimum, ss_sweep_loop)

COARSE = Grid(step=0.05, half_count=16)


def _envelope(p, q):
    # one message row whose grid slopes are p: the sweep's front code
    fp, fq, _ = _fronts(q[None, :], _slope_groups(p))
    return fp, fq


def _compose_pair(front_a, front_b):
    # one row of the sweep's batched composition
    def batch(front):
        p, q = front
        return (p, q, np.array([0, p.size])), np.zeros(1, dtype=np.int64)

    (p, q, _), _ = _compose(batch(front_a), batch(front_b))
    return p, q


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
    sol = ss_maxsum_solve(inst)
    assert np.isclose(sol.energy, ss_chain_minimum(inst, DEFAULT_COUPLING_GRID),
                      atol=1e-10)


@pytest.mark.parametrize("seed,h", [(77, 0.5), (77, 2.0), (77, 3.0),
                                    (5, 2.0), (5, 3.0)])
def test_pm_one_regular_graph_closed_form_at_n1000(seed, h):
    # with zero fields and K_ij = sign(J_ij) kappa, a +-J 3-regular graph
    # has the Bethe energy e(kappa) = -(3/2) tanh(2 kappa) - h sech(2 kappa)^3
    # per spin, so ss is the grid minimiser of e, ties in tiebreak_order.
    # h = 0.5 has the largest fronts (kappa at the grid edge) and takes
    # about 2 s, the other fields under 1 s.
    inst = generate_rrg(1000, 3, "pm_one", h, seed)
    vals = DEFAULT_COUPLING_GRID.values
    e = -1.5 * np.tanh(2.0 * vals) - h / np.cosh(2.0 * vals) ** 3
    order = tiebreak_order(vals)
    best = order[np.argmin(e[order])]
    sol = ss_maxsum_solve(inst)
    assert np.array_equal(sol.k, np.sign(inst.couplings) * vals[best])
    assert abs(sol.energy / inst.n - e[best]) <= 1e-12


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
    front = _compose_pair(_envelope(pa.copy(), qa.copy()),
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
    via_identity = _compose_pair((np.ones(1), np.zeros(1)), front)
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
    got = _compose_pair(front_a, front_b)
    want = compose_loop(front_a, front_b)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == np.float64
        assert a.tobytes() == b.tobytes()


_SECH4 = float(1.0 / np.cosh(4.0))  # the slope at the default grid's edge


def _ulp_run(slope, drops):
    # slopes one ulp apart from slope on, intercepts falling by drops
    p = [slope]
    for _ in drops[1:]:
        p.append(float(np.nextafter(p[-1], np.inf)))
    return list(zip(p, (-np.cumsum(drops)).tolist()))


def _quarter_run(steps):
    # rising slopes and falling intercepts on the quarter lattice: equal
    # steps put consecutive lines through one point
    p = np.cumsum([a / 4 for a, _ in steps])
    q = -np.cumsum([b / 4 for _, b in steps])
    return list(zip(p.tolist(), q.tolist()))


# products of up to four grid slopes reach sech(4)^4, as at degree 5
_GRID_SLOPES = st.builds(lambda i, m: float(1.0 / np.cosh(0.02 * i)) ** m,
                         st.integers(0, 200), st.integers(1, 4))
_HULLS = st.one_of(
    st.lists(st.tuples(st.integers(1, 3), st.integers(0, 3)),
             min_size=1, max_size=12).map(_quarter_run),
    st.builds(_ulp_run, st.floats(_SECH4 ** 4, 2.0),
              st.lists(st.one_of(_QUARTERS.map(abs), st.floats(0.0, 1e-12),
                                 st.sampled_from([4e-16, 1e-300])),
                       min_size=1, max_size=8)),
    st.lists(st.tuples(_GRID_SLOPES, st.one_of(_QUARTERS, st.floats(-5.0, 5.0))),
             min_size=1, max_size=30),
    st.tuples(_GRID_SLOPES, _QUARTERS).map(lambda line: [line]),
    st.just(_IDENTITY),
)


@settings(max_examples=400, deadline=None)
@given(_HULLS, _HULLS, st.booleans())
@example([(1.0, 0.0), (2.0, -1.0), (3.0, -2.0)], _IDENTITY, True)  # collinear
@example([(0.5, 0.0), (float(np.nextafter(0.5, 1.0)), -1e-13)],
         [(0.5, 1.0), (float(np.nextafter(0.5, 1.0)), 0.0)], False)  # one ulp
@example([(_SECH4 ** 4, 0.0), (_SECH4 ** 2, -0.5), (1.0, -2.0)], _IDENTITY, True)
# qa_0 + qb_1 rounds to qa_0 + qb_0, so the steeper (0, 1) wins although
# its window in the second front starts far beyond the first's window
@example([(_SECH4 ** 4, 5.0), (1.0, 0.0)], [(0.5, 0.0), (0.5 + 5e-15, -4e-16)], False)
# subnormal product slopes: their rounding is not relative
@example([(0.2008286382914463, 5.51722530228778), (0.22474959776862363, 1.0030848933709096)],
         [(1.236499489594864e-308, 1.0), (1.3267039918889044e-308, 4e-16)], False)
# a slope step of 1e-12 widens the last window below the one before it
@example([(0.25, 2.0), (0.5, 1.0), (0.5 + 1e-12, 1.0 - 5e-12)], _IDENTITY, True)
def test_compose_windows_keep_every_hull_line(lines_a, lines_b, same):
    # the scaled windows must keep every product line the float envelope of
    # the full product keeps; composing a hull with itself ties (p, q) at
    # (i, j) and (j, i)
    front_a = _envelope(*_arrays(lines_a))
    front_b = front_a if same else _envelope(*_arrays(lines_b))
    got = _compose_pair(front_a, front_b)
    want = compose_loop(front_a, front_b)
    for a, b in zip(got, want):
        assert a.tobytes() == b.tobytes()
    # the merge searches the keys, so they must be sorted
    for p, q in (front_a, front_b):
        delta = symmetric._ROUNDING * 2.0 * np.abs(q).max(initial=0.0)
        for keys in symmetric._window_keys((p, q, np.array([0, p.size])), delta):
            assert np.all(np.diff(keys) >= 0)


_COARSE_SECH = 1.0 / np.cosh(2.0 * COARSE.values)
_COARSE_SLOPES = _slope_groups(_COARSE_SECH)
# slopes at and next to the ends of the range where windows are computed
_EDGE_SLOPES = [float(np.nextafter(x, y)) for x in (2.0 ** -511, 2.0 ** 511)
                for y in (0.0, x, np.inf)]


def _through(c0, v0, slopes, ulps):
    # lines of rising slopes through (c0, v0), each intercept moved by a few
    # ulps: consecutive lines cross within a few ulps of c0
    q = v0 - np.asarray(slopes) * c0
    for k, steps in enumerate(ulps):
        for _ in range(abs(steps)):
            q[k] = np.nextafter(q[k], np.copysign(np.inf, steps))
    return list(zip(slopes, q.tolist()))


@st.composite
def _evaluate_rows(draw):
    # (lines, envelope them?, h) of one row of _evaluate
    h = draw(st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.5]),
                       st.floats(0.0, 4.0)))
    kind = draw(st.sampled_from(["hull", "degenerate", "edge", "raw", "identity"]))
    if kind == "hull":
        return draw(_HULLS), True, h
    if kind == "degenerate":
        if draw(st.booleans()):
            slopes = sorted(set(draw(st.lists(_GRID_SLOPES, min_size=2, max_size=12))))
        else:  # a relative 1e-6 to 1e-12 apart: rounding moves their
            # crossings by more than the window keys resolve
            steps = np.arange(draw(st.integers(2, 12))) * 10.0 ** -draw(st.integers(6, 12))
            slopes = sorted(set((draw(_GRID_SLOPES) * (1.0 + steps)).tolist()))
        c0 = h *draw(st.sampled_from(_COARSE_SLOPES[0].tolist()))
        ulps = draw(st.lists(st.integers(-3, 3), min_size=len(slopes),
                             max_size=len(slopes)))
        v0 = draw(st.sampled_from([0.0, 1.0, 1e8, -1e8]))
        return _through(c0, v0, slopes, ulps), draw(st.booleans()), h
    if kind == "edge":
        lines = draw(st.lists(st.tuples(st.sampled_from(_EDGE_SLOPES),
                                        st.floats(-5.0, 5.0)), min_size=1, max_size=6))
        return lines, draw(st.booleans()), h
    if kind == "raw":  # not a hull: unsorted, tied, collinear
        return draw(_LINES.filter(len)), False, h
    return draw(st.sampled_from([_IDENTITY, [(0.5, -1.0)]])), True, h


@settings(max_examples=400, deadline=None)
@given(st.lists(_evaluate_rows(), min_size=1, max_size=5),
       st.randoms(use_true_random=False),
       st.sampled_from([1, 40, symmetric._BLOCK_ELEMS]))
@example([([(1.0, 0.0), (2.0, -1.0), (3.0, -2.0)], False, 1.0)],  # collinear
         random.Random(0), symmetric._BLOCK_ELEMS)
# slopes 1e-10 apart: without the widening, a query rounding puts above
# the other line falls outside its window
@example([([(1.0, -0.16230498102245425), (1.0000000001, -0.16230498113868477)], False, 2.5)],
         random.Random(0), symmetric._BLOCK_ELEMS)
def test_evaluate_matches_per_line_maximum(rows, rnd, block):
    # the window search must give every row the bytes of the maximum over
    # all of its front's lines, for any finite front: rows in any order,
    # fronts shared between rows, blocks of any size
    fronts = []
    for lines, envelope, _ in rows:
        p, q = _arrays(lines)
        fronts.append(_envelope(p, q) if envelope else (p, q))
    pick = [rnd.randrange(len(rows)) for _ in range(rnd.randint(1, 2 * len(rows)))]
    start = np.concatenate([[0], np.cumsum([p.size for p, _ in fronts])])
    flat = (np.concatenate([p for p, _ in fronts]),
            np.concatenate([q for _, q in fronts]), start)
    h = np.array([rows[r][2] for r in pick])
    got = np.full((len(pick), COARSE.size), np.nan)
    with mock.patch.object(symmetric, "_BLOCK_ELEMS", block):
        for b, top in symmetric._evaluate((flat, np.array(pick)), h, _COARSE_SLOPES):
            got[b] = top
    for g, r in enumerate(pick):
        want = eval_front_loop(fronts[r], h[g] * _COARSE_SECH)
        assert got[g].tobytes() == want.tobytes()


# degrees 4, 2, 2, 3, 1, 1, 1: a degree-4 site (two compositions per
# message), a degree-3 site (one), degree-2 sites and leaves
_MIXED_EDGES = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [3, 5], [3, 6]]


def _sweep_case(topology, seed, grid):
    rng = np.random.default_rng(seed)
    if topology == "mixed":
        n, edges = 7, _MIXED_EDGES
    elif topology == "chain":
        n, edges = 5, [[i, i + 1] for i in range(4)]
    else:  # a 4-star: one degree-4 centre, four leaves
        n, edges = 5, [[0, i] for i in range(1, 5)]
    couplings = rng.choice([-1.0, 1.0, rng.standard_normal()], size=len(edges))
    fields = np.abs(rng.choice([0.0, 0.5, 1.0, rng.uniform(0.0, 3.0)], size=n))
    return QuantumInstance(n=n, edge_index=edges, couplings=couplings,
                           fields=fields)


def _messages(inst, grid, kind, seed, sweeps):
    rng = np.random.default_rng(seed)
    shape = (2 * inst.m, grid.size)
    if kind == "quarters":  # many equal intercepts
        table = rng.integers(-12, 1, size=shape) / 4
    elif kind == "normal":
        table = rng.standard_normal(shape)
    else:  # messages as the solver makes them, from zero
        table = np.zeros(shape)
        sweep = _sweeper(inst, grid)
        for _ in range(sweeps):
            table = sweep(table)
            table -= table.max(axis=1, keepdims=True)
    return table


@settings(max_examples=120, deadline=None)
@given(topology=st.sampled_from(["mixed", "chain", "star"]),
       grid=st.sampled_from([COARSE, Grid(step=0.25, half_count=3),
                             Grid(step=0.05, half_count=16, cap=0.5)]),
       kind=st.sampled_from(["quarters", "normal", "sweeps"]),
       sweeps=st.integers(0, 3),
       mirrored=st.booleans(),
       seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 40, 700, symmetric._BLOCK_ELEMS]))
@example(topology="mixed", grid=COARSE, kind="sweeps", sweeps=3, mirrored=False,
         seed=1, block=symmetric._BLOCK_ELEMS)
def test_sweep_matches_per_edge_oracle(topology, grid, kind, sweeps, mirrored,
                                       seed, block):
    # the batched sweep against the per-edge one, bytes, no tolerance:
    # mirrored messages tie M(K) = M(-K) on every slope; small blocks split
    # the rows of every stage
    inst = _sweep_case(topology, seed, grid)
    messages = _messages(inst, grid, kind, seed, sweeps)
    if mirrored:
        messages = np.minimum(messages, messages[:, ::-1])
    with mock.patch.object(symmetric, "_BLOCK_ELEMS", block):
        got = _sweeper(inst, grid)(messages.copy())
        want = ss_sweep_loop(inst, grid, messages.copy())
    assert got.dtype == want.dtype == np.float64
    assert got.tobytes() == want.tobytes()


def _solver_messages(inst, sweeps):
    # the messages of ss_maxsum_solve after the given number of sweeps
    sweep = _sweeper(inst, DEFAULT_COUPLING_GRID)
    messages = np.zeros((2 * inst.m, DEFAULT_COUPLING_GRID.size))
    for _ in range(sweeps):
        messages = _normalized(sweep(messages))
    return sweep, messages


@pytest.mark.parametrize("degree,law,n", [(4, "gaussian", 12), (5, "pm_one", 10)])
def test_sweep_matches_per_edge_oracle_at_degree_4_and_5(degree, law, n):
    # two and three compositions per message, with composed fronts of
    # hundreds of lines composed again
    inst = generate_rrg(n, degree, law, 1.0, 7)
    sweep, messages = _solver_messages(inst, 3)
    got = sweep(messages)
    want = ss_sweep_loop(inst, DEFAULT_COUPLING_GRID, messages)
    assert got.tobytes() == want.tobytes()


def test_compositions_make_few_of_the_products():
    # the rrg_glass instance at h=0.5, where fronts hold about 200 lines:
    # a fall back to the dense a x b products would fail here
    inst = generate_rrg(12, 3, "pm_one", 0.5, 7)
    sweep, messages = _solver_messages(inst, 4)
    compose, sizes = symmetric._compose, symmetric._sizes
    products, made = [], []

    def counting_compose(batch_a, batch_b):
        (fa, ra), (fb, rb) = batch_a, batch_b
        products.append(int(np.sum(np.diff(fa[2])[ra] * np.diff(fb[2])[rb])))
        return compose(batch_a, batch_b)

    def counting_sizes(*args):
        size = sizes(*args)
        made.append(int(size.sum()))
        return size

    with mock.patch.object(symmetric, "_compose", counting_compose), \
            mock.patch.object(symmetric, "_sizes", counting_sizes):
        sweep(messages)
    assert len(made) == len(products) == 1
    assert products[0] > 36 * 150 ** 2
    assert made[0] < 0.05 * products[0]


# steps between consecutive lines: rising slope, falling intercept; on
# a quarter lattice equal steps make collinear triples common
_STEPS = st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)),
                  min_size=1, max_size=12)


@settings(max_examples=300, deadline=None)
@given(st.lists(_STEPS, min_size=2, max_size=5))
@example([[(1, 1)] * 4, [(1, 1)]])  # collinear: each line goes at the next
@example([[(1, 1), (1, 2), (1, 3), (1, 1)], [(1, 1), (2, 1)]])  # the last pops two
def test_single_pops_matches_the_hull_scan(rows_of_steps):
    # every row the guess accepts pops exactly what the scan pops
    p = [np.cumsum([a / 4 for a, _ in steps]) for steps in rows_of_steps]
    q = [-np.cumsum([b / 4 for _, b in steps]) for steps in rows_of_steps]
    count = [x.size for x in p]
    rows = np.repeat(np.arange(len(count)), count)
    p, q = np.concatenate(p), np.concatenate(q)
    popped, redo = symmetric._single_pops(rows, p, q)
    start = np.concatenate([[0], np.cumsum(count)])
    for r in set(range(len(count))) - set(redo.tolist()):
        lo, hi = int(start[r]), int(start[r + 1])
        kept = symmetric._hull_scan(p.tolist(), q.tolist(), lo, hi)
        assert (lo + np.flatnonzero(~popped[lo:hi])).tolist() == kept


def _front_rows(fronts):
    p, q, start = fronts
    return [(p[a:b], q[a:b]) for a, b in zip(start[:-1], start[1:])]


def _same_fronts(got, want):
    assert len(got) == len(want)
    for (gp, gq), (wp, wq) in zip(got, want):
        assert gp.dtype == gq.dtype == np.float64
        assert gp.tobytes() == wp.tobytes() and gq.tobytes() == wq.tobytes()


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["quarters", "normal", "zeros"]),
       rows=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from([1, 40, 700, symmetric._BLOCK_ELEMS]))
def test_fronts_and_compositions_match_per_row_oracle(kind, rows, seed, block):
    # the batched fronts of a message table and batched compositions of
    # pairs of them, row by row against envelope_loop and compose_loop;
    # small blocks split the rows, and "zeros" ties +0.0 with -0.0
    rng = np.random.default_rng(seed)
    sech = 1.0 / np.cosh(2.0 * COARSE.values)
    if kind == "zeros":
        messages = rng.choice([-0.5, -0.25, -0.0, 0.0], size=(rows, COARSE.size))
    elif kind == "quarters":
        messages = rng.integers(-12, 1, size=(rows, COARSE.size)) / 4
    else:
        messages = rng.standard_normal((rows, COARSE.size))
    pairs = rng.integers(0, rows, size=(2, int(rng.integers(1, 2 * rows + 1))))
    with mock.patch.object(symmetric, "_BLOCK_ELEMS", block):
        fronts = _fronts(messages, _slope_groups(sech))
        want = [envelope_loop(sech, row) for row in messages]
        composed, order = _compose((fronts, pairs[0]), (fronts, pairs[1]))
        want_composed = [compose_loop(want[a], want[b]) for a, b in pairs.T]
    _same_fronts(_front_rows(fronts), want)
    _same_fronts([_front_rows(composed)[g] for g in order], want_composed)


def test_large_front_matches_envelope_loop():
    # 4501 distinct slopes, every line above all steeper ones: the hull
    # scan drops most of them, and a front alone in its block takes the
    # same _single_pops path as a batch of rows
    grid = Grid(step=1e-3, half_count=4500)
    sech = 1.0 / np.cosh(2.0 * grid.values)
    messages = np.abs(grid.values)[None, :]
    fronts = _front_rows(_fronts(messages, _slope_groups(sech)))
    _same_fronts(fronts, [envelope_loop(sech, messages[0])])


@pytest.mark.parametrize("law", ["pm_one", "gaussian"])
@pytest.mark.parametrize("h", [0.5, 1.5])
@pytest.mark.parametrize("max_iters", [1000, 2])
def test_loopy_solve_matches_the_oracle_loop(law, h, max_iters):
    # the loopy sweeps run through classical_bp.iterate_rows; the oracle
    # iterates the same sweep on its own, and at max_iters=2 both fall
    # back to the least-residual message set
    inst = generate_rrg(12, 3, law=law, h=h, seed=5)
    grid = DEFAULT_COUPLING_GRID
    messages, converged, iterations, residual = maxsum_loop(
        _sweeper(inst, grid), (2 * inst.m, grid.size), max_iters)
    vals = grid.values
    order = tiebreak_order(vals)
    weight = (-inst.couplings[:, None] * np.tanh(2.0 * vals)
              + messages[0::2] + messages[1::2])
    k = vals[order[np.argmax(weight[:, order], axis=1)]]

    sol = ss_maxsum_solve(inst, grid=grid, max_iters=max_iters)
    assert sol.k.tobytes() == k.tobytes()
    assert (sol.converged, sol.iterations, sol.residual) == (
        converged, iterations, residual)
    assert converged == (max_iters == 1000)
