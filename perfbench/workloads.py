"""Benchmark workloads: one fixed physical instance each, seen through the run seed.

Every workload fixes one instance (topology, coupling law, size and
generator seed) and a list of (method, field) cells.  The run seed picks
a random relabelling of the sites and a random gauge (a sign flip of
every coupling at a flipped site, which leaves the spectrum and every
variational optimum unchanged), and it is the base seed of the cells.
Different seeds thus hand the program different files and different
solver randomness, while the amount of work stays that of one physical
instance: the Lanczos iteration count of a disordered chain depends on
its gap, which varies tenfold from one draw of the couplings to the next.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from isingbp.instance import generate_chain, generate_rrg, load_instance, save_instance


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str  # "chain" or "rrg"
    n: int
    law: str
    instance_seed: int
    methods: tuple
    fields: tuple
    overrides: dict = field(default_factory=dict)
    # on a tree every energy is a bound: E0 <= gs <= min(mf, ss)
    tree_ordering: bool = False

    def cells(self):
        """(method, h) pairs in run_grid order."""
        return [(m, h) for m in self.methods for h in self.fields]


EXACT = {"tol": 1e-4}

# Sizes are scaled down from the experiments they stand for (C9's chain
# from n=20, the C10 scan from n=100 and up) so that one run of a
# workload, its checks included, takes well under a minute on two cores.

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="chain_compare",
            topology="chain", n=14, law="gaussian", instance_seed=42,
            methods=("mf", "ss", "gs", "exact"), fields=(0.3, 1.0, 2.5),
            overrides={"gs": {"outer_rounds": 12}, "exact": EXACT},
            tree_ordering=True,
        ),
        Workload(
            name="rrg_glass",
            topology="rrg", n=12, law="pm_one", instance_seed=7,
            methods=("mf", "ss", "gs", "exact"), fields=(0.5, 1.5, 3.0),
            overrides={"gs": {"k_cap": 2.0, "outer_rounds": 4}, "exact": EXACT},
        ),
        Workload(
            name="rrg_scan",
            topology="rrg", n=30, law="pm_one", instance_seed=77,
            methods=("gs",), fields=(1.5, 2.0, 2.5),
            overrides={"gs": {"space_size": 12, "outer_rounds": 8, "k_cap": 1.5}},
        ),
    )
}


def base_document(w: Workload) -> dict:
    """The workload's instance as the flat JSON document of save_instance."""
    if w.topology == "chain":
        inst = generate_chain(w.n, law=w.law, h=1.0, seed=w.instance_seed)
    else:
        inst = generate_rrg(w.n, 3, law=w.law, h=1.0, seed=w.instance_seed)
    return json.loads(save_instance(inst))


def relabel(doc: dict, seed: int, unit: int) -> dict:
    """Same physics under a site permutation and gauge drawn from (seed, unit)."""
    rng = np.random.default_rng([seed, unit])
    perm = rng.permutation(doc["n"])
    sign = rng.choice([-1.0, 1.0], size=doc["n"])
    edges = [[int(perm[i]), int(perm[j]), float(c * sign[i] * sign[j])]
             for i, j, c in doc["edges"]]
    return {**doc, "edges": edges, "seed": seed}


def build_instance(w: Workload, seed: int, unit: int = 0):
    """Generate, save, relabel and load the instance, as a CLI run would."""
    return load_instance(json.dumps(relabel(base_document(w), seed, unit)))
