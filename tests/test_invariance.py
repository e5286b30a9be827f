"""Same physics, same answer: mf and ss on relabelled and gauged copies.

A site permutation and a gauge flip (testutil.relabel) change neither the
spectrum of an instance nor the optimum of any trial family.  Each
instance of tests/test_regression.py is solved on six such copies
(seeds 1000-1005, each also the mf seed; ss takes none) at its fields,
and the spread of the per-spin energies over the copies is bounded.
"""

import numpy as np
import pytest

import testutil
from isingbp import mf_maxsum_solve, ss_maxsum_solve
from test_regression import CASES

COPIES = range(1000, 1006)

# MaxSum on a forest (mf) and the ss solver agree on every copy up to the
# rounding of a per-spin energy of order one: at most 4.4e-16 measured.
ROUNDING = 1e-15

# The loopy mf descent is a heuristic whose starts and colouring follow
# the labels.  Its spread was first measured with the descent in place:
# 0 on rrg_glass at every field and 0, 1.6e-5 and 8.1e-5 per spin on
# rrg_scan at h = 1.5, 2.0 and 2.5 (MaxSum before it: 0.46 per spin on
# rrg_glass at h = 0.5).  The bound is that measurement, rounded up once,
# and stays fixed.
LOOPY_MF_SPREAD = 1e-4

SOLVERS = {"mf": mf_maxsum_solve,
           "ss": lambda inst, seed: ss_maxsum_solve(inst)}  # ss takes no seed


def _cells():
    # each (instance, field) once: a case may rerun an earlier instance
    seen = set()
    for name, build, _, fields, _ in CASES:
        inst = build()
        for h in fields:
            key = (inst.edge_index.tobytes(), inst.couplings.tobytes(), h)
            if key not in seen:
                seen.add(key)
                yield pytest.param(name, build, h, id=f"{name}-h{h}")


@pytest.mark.parametrize("method", SOLVERS)
@pytest.mark.parametrize("name,build,h", list(_cells()))
def test_energy_spread_over_relabelled_copies(name, build, h, method):
    inst = build()
    energies = []
    for seed in COPIES:
        copy = testutil.relabel(inst, seed).with_uniform_field(h)
        energies.append(SOLVERS[method](copy, seed=seed).energy / inst.n)
    loopy_mf = method == "mf" and not inst.graph.is_forest
    assert np.ptp(energies) <= (LOOPY_MF_SPREAD if loopy_mf else ROUNDING)


def test_relabel_keeps_the_spectrum():
    from isingbp import QuantumInstance, generate_rrg
    from isingbp.exact import dense_hamiltonian

    rrg = generate_rrg(8, 3, law="gaussian", h=1.0, seed=3)
    inst = QuantumInstance(n=rrg.n, edge_index=rrg.edge_index,
                           couplings=rrg.couplings,
                           fields=np.random.default_rng(3).uniform(0, 2, rrg.n))
    copy = testutil.relabel(inst, 1000)
    assert not np.array_equal(copy.edge_index, inst.edge_index)
    assert np.allclose(np.linalg.eigvalsh(dense_hamiltonian(copy)),
                       np.linalg.eigvalsh(dense_hamiltonian(inst)), atol=1e-10)
