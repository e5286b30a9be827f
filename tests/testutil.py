"""Shared builders for randomized test instances."""

import numpy as np

from isingbp import ParameterSet, QuantumInstance


def out_dirs_of(graph):
    """The directed edges leaving each site, in increasing index order."""
    return [graph.dir_order[graph.dir_start[s]:graph.dir_start[s + 1]]
            for s in range(graph.n)]


def canonical_pairs(pairs):
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    order = np.lexsort((hi, lo))
    return np.column_stack([lo, hi])[order]


def random_tree(n, rng, h_max=2.0):
    """Uniform random recursive tree with gaussian couplings, random fields."""
    pairs = [(int(rng.integers(0, i)), i) for i in range(1, n)]
    edges = canonical_pairs(pairs) if pairs else np.zeros((0, 2), dtype=np.int64)
    return QuantumInstance(
        n=n,
        edge_index=edges,
        couplings=rng.standard_normal(len(pairs)),
        fields=rng.uniform(0.0, h_max, n),
        seed=0,
    )


def random_params(inst, rng, b_scale=0.6, k_scale=0.5):
    return ParameterSet(
        b=b_scale * rng.standard_normal(inst.n),
        k=k_scale * rng.standard_normal(inst.m),
    )


def ring_instance(n, j=1.0, h=1.0):
    pairs = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    edges = canonical_pairs(pairs)
    return QuantumInstance(
        n=n,
        edge_index=edges,
        couplings=np.full(n, float(j)),
        fields=np.full(n, float(h)),
        seed=0,
    )


def star_instance(leaves, j_scale=1.0, h=1.0, seed=0):
    """Center spin 0 coupled to `leaves` outer spins."""
    rng = np.random.default_rng(seed)
    pairs = [(0, i) for i in range(1, leaves + 1)]
    return QuantumInstance(
        n=leaves + 1,
        edge_index=canonical_pairs(pairs),
        couplings=j_scale * rng.standard_normal(leaves),
        fields=np.full(leaves + 1, float(h)),
        seed=seed,
    )


def relabel(inst, seed):
    """Same physics under a seeded site permutation and gauge.

    Site i becomes perm[i], and each bond's coupling changes sign once for
    each of its ends whose spin is flipped (sign -1).  The spectrum and
    every variational optimum stay the same.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(inst.n)
    sign = rng.choice([-1.0, 1.0], size=inst.n)
    i, j = inst.edge_index.T
    lo, hi = np.minimum(perm[i], perm[j]), np.maximum(perm[i], perm[j])
    order = np.lexsort((hi, lo))
    fields = np.empty(inst.n)
    fields[perm] = inst.fields
    return QuantumInstance(
        n=inst.n,
        edge_index=np.column_stack([lo, hi])[order],
        couplings=(inst.couplings * sign[i] * sign[j])[order],
        fields=fields,
        seed=seed,
    )
