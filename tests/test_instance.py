"""Instance validation, serialization, generators, and graph bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import testutil
from isingbp import (
    ClassicalGraph,
    InstanceError,
    QuantumInstance,
    generate_chain,
    generate_rrg,
    load_instance,
    save_instance,
)
from oracles import forest_check


def test_minimal_instance():
    inst = QuantumInstance(n=2, edge_index=[[0, 1]], couplings=[1.5],
                           fields=[0.0, 0.3])
    assert inst.m == 1
    assert inst.edge_list() == [(0, 1, 1.5)]


def test_single_spin_no_edges():
    inst = QuantumInstance(n=1, edge_index=np.zeros((0, 2)), couplings=[],
                           fields=[0.7])
    assert inst.m == 0


@pytest.mark.parametrize("kwargs", [
    dict(n=0, edge_index=np.zeros((0, 2)), couplings=[], fields=[]),
    dict(n=2, edge_index=[[0, 1]], couplings=[1.0], fields=[0.0]),
    dict(n=2, edge_index=[[0, 1]], couplings=[1.0], fields=[-0.1, 0.0]),
    dict(n=2, edge_index=[[0, 0]], couplings=[1.0], fields=[0.0, 0.0]),
    dict(n=2, edge_index=[[0, 2]], couplings=[1.0], fields=[0.0, 0.0]),
    dict(n=2, edge_index=[[1, 0]], couplings=[1.0], fields=[0.0, 0.0]),
    dict(n=3, edge_index=[[0, 1], [0, 1]], couplings=[1.0, 2.0],
         fields=[0.0] * 3),
    dict(n=2, edge_index=[[0, 1]], couplings=[np.inf], fields=[0.0, 0.0]),
    dict(n=2, edge_index=[[0, 1]], couplings=[1.0, 2.0], fields=[0.0, 0.0]),
    # rows out of order: edge e of the instance must be edge e of its graph
    dict(n=3, edge_index=[[1, 2], [0, 1]], couplings=[1.0, 2.0], fields=[0.0] * 3),
])
def test_invalid_instances(kwargs):
    with pytest.raises(InstanceError):
        QuantumInstance(**kwargs)


def test_with_uniform_field():
    inst = generate_chain(4, law="gaussian", h=0.5, seed=1)
    out = inst.with_uniform_field(2.0)
    assert np.all(out.fields == 2.0)
    assert np.array_equal(out.edge_index, inst.edge_index)
    with pytest.raises(InstanceError):
        inst.with_uniform_field(-1.0)
    # one read-only graph per instance, shared by its field variants
    assert out.graph is inst.graph and inst.graph is inst.graph
    assert out.edge_index is inst.edge_index and out.couplings is inst.couplings
    assert np.array_equal(inst.graph.edge_index, inst.edge_index)
    for values in (inst.edge_index, inst.couplings, inst.fields, out.fields):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0
    with pytest.raises(AttributeError):
        inst.fields = out.fields


def test_save_load_round_trip():
    inst = generate_chain(6, law="gaussian", h=0.8, seed=3)
    back = load_instance(save_instance(inst))
    assert back == inst
    assert back.flipped_sites == ()


def test_load_normalizes_negative_fields():
    doc = '{"n": 3, "edges": [[0, 1, 1.0], [1, 2, -2.0]], "h": [-1.0, 0.5, -0.25]}'
    inst = load_instance(doc)
    assert np.allclose(inst.fields, [1.0, 0.5, 0.25])
    assert inst.flipped_sites == (0, 2)
    assert inst.seed == 0


def test_load_canonicalizes_edges():
    doc = '{"n": 3, "edges": [[2, 0, 1.0], [1, 0, 2.0]], "h": [0, 0, 0]}'
    inst = load_instance(doc)
    assert np.array_equal(inst.edge_index, [[0, 1], [0, 2]])
    assert np.allclose(inst.couplings, [2.0, 1.0])


@pytest.mark.parametrize("text", [
    "not json",
    "[1, 2]",
    '{"n": 3, "edges": []}',
    '{"n": 3.0, "edges": [], "h": [0, 0, 0]}',
    '{"n": 2, "edges": [[0, 1]], "h": [0, 0]}',
    '{"n": 3, "edges": 5, "h": [0, 0, 0]}',
    '{"n": true, "edges": [], "h": [0]}',
    '{"n": 2, "edges": [[0.7, 1, 1.0]], "h": [0, 0]}',
    '{"n": 2, "edges": [[0, 1, true]], "h": [0, 0]}',
    '{"n": 2, "edges": [], "h": ["1", 0]}',
    '{"n": 1, "edges": [], "h": [0], "seed": 1.5}',
])
def test_load_rejects_bad_documents(text):
    with pytest.raises(InstanceError):
        load_instance(text)


def test_chain_generation():
    inst = generate_chain(5, law="ferro", h=0.3, seed=0)
    assert inst.m == 4
    assert np.array_equal(inst.edge_index,
                          np.column_stack([np.arange(4), np.arange(1, 5)]))
    assert np.all(inst.couplings == 1.0)
    assert np.all(inst.fields == 0.3)

    pm = generate_chain(20, law="pm_one", h=0.0, seed=2)
    assert set(np.unique(pm.couplings)) <= {-1.0, 1.0}

    g1 = generate_chain(10, law="gaussian", h=1.0, seed=7)
    g2 = generate_chain(10, law="gaussian", h=1.0, seed=7)
    assert g1 == g2
    assert g1 != generate_chain(10, law="gaussian", h=1.0, seed=8)


@pytest.mark.parametrize("call", [
    lambda: generate_chain(1, law="ferro", h=0.0, seed=0),
    lambda: generate_chain(4, law="ferro", h=-1.0, seed=0),
    lambda: generate_chain(4, law="bogus", h=0.0, seed=0),
    lambda: generate_rrg(5, 3, law="ferro", h=0.0, seed=0),
    lambda: generate_rrg(4, 4, law="ferro", h=0.0, seed=0),
])
def test_generator_input_errors(call):
    with pytest.raises(InstanceError):
        call()


def test_rrg_generation():
    inst = generate_rrg(12, 3, law="pm_one", h=0.5, seed=4)
    degrees = np.bincount(inst.edge_index.ravel(), minlength=12)
    assert np.all(degrees == 3)
    assert np.all(inst.edge_index[:, 0] < inst.edge_index[:, 1])
    assert generate_rrg(12, 3, law="pm_one", h=0.5, seed=4) == inst

    # the only simple 3-regular graph on 4 vertices is the complete one
    k4 = generate_rrg(4, 3, law="ferro", h=0.0, seed=0)
    assert sorted(map(tuple, k4.edge_index.tolist())) == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_directed_edge_convention():
    inst = generate_chain(4, law="ferro", h=0.0, seed=0)
    g = inst.graph
    for e in range(g.m):
        lo, hi = g.edge_index[e]
        assert g.src[2 * e] == lo and g.dst[2 * e] == hi
        assert g.src[2 * e + 1] == hi and g.dst[2 * e + 1] == lo
        assert (2 * e) ^ 1 == 2 * e + 1
    assert np.array_equal(g.degrees, [1, 2, 2, 1])
    assert g.edge_of_dir[5] == 2


@pytest.mark.parametrize("edges, message", [
    ([[1, 1]], "self-loops"),
    ([[0, 3]], "out of range"),
    ([[-1, 2]], "out of range"),
    ([[0, 1], [1, 2], [0, 1]], "duplicate"),
])
def test_graph_and_instance_reject_the_same_edges(edges, message):
    with pytest.raises(InstanceError, match=message):
        ClassicalGraph(3, edges)
    with pytest.raises(InstanceError, match=message):
        QuantumInstance(n=3, edge_index=edges, couplings=[1.0] * len(edges),
                        fields=[0.0] * 3)


def test_graph_canonicalizes_unsorted_edges():
    g = ClassicalGraph(4, [[3, 2], [1, 0], [2, 0]])
    assert g.edge_index.tolist() == [[0, 1], [0, 2], [2, 3]]
    assert g.dst[0::2].tolist() == [1, 2, 3]
    with pytest.raises(InstanceError, match="i < j"):
        QuantumInstance(n=4, edge_index=[[3, 2]], couplings=[1.0],
                        fields=[0.0] * 4)
    with pytest.raises(InstanceError, match="duplicate"):
        ClassicalGraph(4, [[0, 1], [1, 0]])


def test_forest_detection():
    chain = ClassicalGraph(4, [[0, 1], [1, 2], [2, 3]])
    assert chain.is_forest
    triangle = ClassicalGraph(3, [[0, 1], [0, 2], [1, 2]])
    assert not triangle.is_forest


def test_bfs_order_covers_components():
    g = ClassicalGraph(5, [[0, 1], [3, 4]])
    order = g.bfs_order()
    assert sorted(order.tolist()) == [0, 1, 2, 3, 4]
    assert order[0] == 0 and order[1] == 1


@pytest.mark.parametrize("root", [-1, 4, True])
def test_bfs_order_rejects_roots_outside_the_graph(root):
    g = ClassicalGraph(4, [[0, 1], [1, 2], [2, 3]])
    with pytest.raises(ValueError, match="root"):
        g.bfs_order(root)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_round_trip_random_instances(data):
    n = data.draw(st.integers(1, 7))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(range(len(all_pairs))))
                       if all_pairs else st.just(set()))
    edges = np.array(sorted(all_pairs[i] for i in chosen),
                     dtype=np.int64).reshape(-1, 2)
    couplings = data.draw(st.lists(
        st.floats(-3, 3, allow_nan=False), min_size=len(chosen),
        max_size=len(chosen)))
    fields = data.draw(st.lists(
        st.floats(0, 4, allow_nan=False), min_size=n, max_size=n))
    inst = QuantumInstance(n=n, edge_index=edges, couplings=couplings,
                           fields=fields, seed=data.draw(st.integers(0, 99)))
    assert load_instance(save_instance(inst)) == inst


def _quadratic_graph_reference(g, root=0):
    """out_dirs, BFS order and sweep groups built by per-site scans."""
    out_dirs = [np.flatnonzero(g.src == s) for s in range(g.n)]
    seen = np.zeros(g.n, dtype=bool)
    order = []
    for start in [root] + [s for s in range(g.n) if s != root]:
        if seen[start]:
            continue
        queue = [start]
        seen[start] = True
        while queue:
            s = queue.pop(0)
            order.append(s)
            for d in out_dirs[s]:
                t = int(g.dst[d])
                if not seen[t]:
                    seen[t] = True
                    queue.append(t)
    groups = {}
    for d in range(2 * g.m):
        row = [int(x) for x in out_dirs[int(g.src[d])] if int(x) != d]
        groups.setdefault(len(row), []).append((d, row))
    groups = {
        ln: (np.array([d for d, _ in items], dtype=np.int64),
             np.array([r for _, r in items], dtype=np.int64).reshape(len(items), ln))
        for ln, items in groups.items()
    }
    return out_dirs, np.array(order, dtype=np.int64), groups


def _random_graph_edges(kind, n, rng):
    if kind == "gnp":
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.3]
    elif kind == "forest":
        # random recursive trees over shuffled sites, some sites left isolated
        perm = rng.permutation(n)
        pairs = [(int(perm[i]), int(perm[rng.integers(0, i)]))
                 for i in range(1, n) if rng.random() < 0.8]
    else:
        return generate_rrg(n, 3, law="ferro", h=0.0, seed=int(rng.integers(99))).edge_index
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("kind", ["gnp", "forest", "rrg"])
@pytest.mark.parametrize("seed", range(4))
def test_csr_adjacency_matches_quadratic_scan(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9)) * 2 + (kind == "gnp")
    g = ClassicalGraph(n, _random_graph_edges(kind, n, rng))
    root = int(rng.integers(n))
    out_dirs, order, groups = _quadratic_graph_reference(g, root)
    got_dirs = testutil.out_dirs_of(g)
    assert len(got_dirs) == n
    for got, want in zip(got_dirs, out_dirs):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(g.degrees, [len(d) for d in out_dirs])
    assert np.array_equal(g.bfs_order(root), order)
    assert list(g.sweep_groups) == list(groups)
    for ln, (dirs, nbrs) in groups.items():
        assert np.array_equal(g.sweep_groups[ln][0], dirs)
        assert np.array_equal(g.sweep_groups[ln][1], nbrs)
        assert g.sweep_groups[ln][1].shape == nbrs.shape
    degrees = sorted({len(d) for d in out_dirs})
    assert list(g.site_groups) == degrees
    for deg, (sites, dirs) in g.site_groups.items():
        want = [s for s in range(n) if len(out_dirs[s]) == deg]
        assert np.array_equal(sites, want)
        assert dirs.shape == (len(want), deg)
        for s, row in zip(want, dirs):
            assert np.array_equal(row, out_dirs[s])


@pytest.mark.parametrize("kind", ["gnp", "forest", "rrg"])
@pytest.mark.parametrize("seed", range(8))
def test_is_forest_matches_union_find(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9)) * 2 + (kind == "gnp")
    g = ClassicalGraph(n, _random_graph_edges(kind, n, rng))
    assert g.is_forest == forest_check(g)
    # one edge more joins two trees of a forest or closes a cycle
    i, j = sorted(rng.choice(n, size=2, replace=False).tolist())
    if [i, j] not in g.edge_index.tolist():
        g = ClassicalGraph(n, np.vstack([g.edge_index, [[i, j]]]))
        assert g.is_forest == forest_check(g)


@pytest.mark.parametrize("n, edges", [
    (1, np.zeros((0, 2), dtype=np.int64)),
    (4, np.zeros((0, 2), dtype=np.int64)),
    # fewer edges than sites, yet a cycle
    (5, [[0, 1], [0, 2], [1, 2]]),
])
def test_is_forest_matches_union_find_on_sparse_graphs(n, edges):
    g = ClassicalGraph(n, edges)
    assert g.is_forest == forest_check(g)


def test_csr_adjacency_without_edges():
    g = ClassicalGraph(3, np.zeros((0, 2), dtype=np.int64))
    assert [d.size for d in testutil.out_dirs_of(g)] == [0, 0, 0]
    assert np.array_equal(g.degrees, [0, 0, 0])
    assert np.array_equal(g.bfs_order(1), [1, 0, 2])
    assert g.sweep_groups == {}
    sites, dirs = g.site_groups[0]
    assert list(g.site_groups) == [0]
    assert np.array_equal(sites, [0, 1, 2]) and dirs.shape == (3, 0)


@pytest.mark.parametrize("kind", ["gnp", "forest", "rrg"])
@pytest.mark.parametrize("seed", range(4))
def test_colour_classes_are_a_greedy_proper_colouring(kind, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9)) * 2 + (kind == "gnp")
    g = ClassicalGraph(n, _random_graph_edges(kind, n, rng))
    classes = g.colour_classes
    assert np.array_equal(np.sort(np.concatenate(classes)), np.arange(n))
    colour = np.empty(n, dtype=np.int64)
    for c, sites in enumerate(classes):
        assert sites.size and np.array_equal(sites, np.sort(sites))
        colour[sites] = c
    i, j = g.edge_index.T
    assert np.all(colour[i] != colour[j])
    # greedy in site order: each site has a lower-indexed neighbour of
    # every smaller colour
    for s, out in enumerate(testutil.out_dirs_of(g)):
        nbrs = g.dst[out]
        assert set(range(colour[s])) <= set(colour[nbrs[nbrs < s]].tolist())
    assert len(classes) <= int(g.degrees.max(initial=0)) + 1


def test_colour_classes_without_sites_or_edges():
    assert ClassicalGraph(0, np.zeros((0, 2), dtype=np.int64)).colour_classes == []
    (sites,) = ClassicalGraph(3, np.zeros((0, 2), dtype=np.int64)).colour_classes
    assert np.array_equal(sites, [0, 1, 2])
