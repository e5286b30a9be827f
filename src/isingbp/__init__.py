"""Variational cavity methods for transverse-field Ising ground states.

Trial wavefunctions with pairwise log-amplitudes are evaluated with belief
propagation and optimized by MaxSum message passing, at three levels:
fields only (mean field), couplings only (symmetric), and joint
field-plus-coupling states over restricted search spaces (general).  A
scalar scan handles homogeneous degree-regular models, and a matrix-free
Lanczos supplies exact baselines on small instances.
"""

from .classical_bp import (
    BPReport,
    Observables,
    ParameterSet,
    Solution,
    bond_energy,
    bp_fixed_point,
    field_shift,
    logcosh,
    observables,
    site_energy,
)
from .exact import GroundState, apply_h, dense_hamiltonian, ground_state
from .general import (
    GSConfig,
    GSResult,
    SearchSpace,
    convolution_inner_max,
    exhaustive_inner_max,
    gs_maxsum_sweep,
    gs_resample,
    gs_solve,
    gs_weights,
    init_spaces,
)
from .grids import Grid
from .homogeneous import (
    HomogConfig,
    HomogeneousPoint,
    critical_field,
    homog_energy,
    homog_fixed_point,
    homog_from_instance,
    homog_scan,
)
from .instance import (
    ClassicalGraph,
    GenerationError,
    InstanceError,
    QuantumInstance,
    generate_chain,
    generate_rrg,
    load_instance,
    save_instance,
)
from .meanfield import mf_energy, mf_maxsum_solve
from .records import ResultRecord, write_csv, write_jsonl
from .runner import run_cell, run_grid
from .symmetric import ss_energy, ss_maxsum_solve

__version__ = "0.1.0"

__all__ = [
    "BPReport", "Observables", "ParameterSet", "Solution", "bond_energy",
    "bp_fixed_point", "field_shift", "logcosh", "observables", "site_energy",
    "GroundState", "apply_h", "dense_hamiltonian", "ground_state",
    "GSConfig", "GSResult", "SearchSpace", "convolution_inner_max",
    "exhaustive_inner_max", "gs_maxsum_sweep", "gs_resample", "gs_solve",
    "gs_weights", "init_spaces",
    "Grid",
    "HomogConfig", "HomogeneousPoint", "critical_field", "homog_energy",
    "homog_fixed_point", "homog_from_instance", "homog_scan",
    "ClassicalGraph", "GenerationError", "InstanceError", "QuantumInstance",
    "generate_chain", "generate_rrg", "load_instance", "save_instance",
    "mf_energy", "mf_maxsum_solve",
    "ResultRecord", "write_csv", "write_jsonl",
    "run_cell", "run_grid",
    "ss_energy", "ss_maxsum_solve",
]
