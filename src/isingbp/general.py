"""Joint field-and-coupling trial states optimized by MaxSum over edge states.

Each edge of the trial measure carries a state (K, nu_fwd, nu_rev): its
coupling and the pair of cavity fields along it.  MaxSum messages rank
these states, subject to the constraint that the cavity fields around a
site are actually reproduced by a belief-propagation update at that site,
up to a tolerance that tightens over the outer rounds.  Search spaces are
small per-edge state lists, resampled around the best states seen.

The inner maximization at a site (over the local field and the states of
the surrounding edges) is exhaustive by default.  Closed-form pieces keep
it cheap: for a fixed combination of edge states the admissible local
fields form an interval, and the site energy is unimodal in the field, so
the best grid field is the clipped rounding of the unconstrained optimum.
The sweep, the reference inner max and the site maximization of the
extraction all sum the per-edge quantities over neighbour-state
combinations with one accumulator (_accumulate).  The inner strategy
"convolution" instead folds neighbours in one at a time into binned
partial sums: approximate, but its memory does not grow as S**degree.

Extraction reads the best state per edge from the edge weights, the field
per site from the site shift maximizer, and then refits the cavity fields
exactly by running belief propagation on the extracted parameters before
reporting energy and observables.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .classical_bp import (
    ParameterSet,
    bond_energy,
    bp_fixed_point,  # noqa: F401  (perfbench/tracing.py wraps general.bp_fixed_point)
    bp_fixed_points,
    field_shift,
    logcosh,
    observables,
)
from .grids import Grid
from .instance import ClassicalGraph, QuantumInstance

COMBO_LIMIT = 5_000_000


class SearchSpaceError(RuntimeError):
    """No admissible state combination anywhere; search cannot proceed."""


@dataclass
class GSConfig:
    """Settings for the general solver.

    Grid steps/halves define the discretization of fields (b), couplings
    (k) and cavity fields (nu).  tol_* controls the BP-consistency
    tolerance schedule; space_size is the number of states kept per edge.
    k_cap bounds |K| (set it on loopy graphs); delta_m filters refit BP
    fixed points by mean |<s^z>|, falling back (flagged) to the symmetric
    one when nothing passes.
    """

    delta_b: float = 0.05
    half_b: int = 60
    delta_k: float = 0.05
    half_k: int = 40
    delta_nu: float = 0.05
    half_nu: int = 120
    k_cap: float | None = None
    space_size: int = 20
    tol_init: float = 0.2
    tol_decay: float = 0.7
    tol_floor: float | None = None  # defaults to 2 * delta_nu
    outer_rounds: int = 30
    resample_fraction: float = 0.5
    proposal_radius_bins: float = 5.0
    max_sweeps: int = 60
    sweep_tol: float = 1e-10
    inner: str = "exhaustive"
    delta_m: float = 0.05
    mf_seed: bool = True
    ss_seed: bool = True
    bp_eps: float = 1e-9
    bp_max_iters: int = 10000
    bp_restarts: int = 3
    seed: int = 0
    conv_x_step: float | None = None  # defaults to delta_nu
    conv_y_bins: int = 64

    def __post_init__(self):
        if self.inner not in ("exhaustive", "convolution"):
            raise ValueError(f"unknown inner strategy {self.inner!r}")
        if not (0.0 <= self.resample_fraction <= 1.0):
            raise ValueError("resample_fraction must be in [0, 1]")
        if not (0.0 <= self.delta_m < 1.0):
            raise ValueError("delta_m must be in [0, 1)")
        if self.space_size < 1 or self.outer_rounds < 1:
            raise ValueError("space_size and outer_rounds must be >= 1")
        for name in ("delta_b", "delta_k", "delta_nu", "tol_init", "tol_decay"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")

    def b_grid(self) -> Grid:
        return Grid(self.delta_b, self.half_b)

    def k_grid(self) -> Grid:
        return Grid(self.delta_k, self.half_k, cap=self.k_cap)

    def nu_grid(self) -> Grid:
        return Grid(self.delta_nu, self.half_nu)

    def tol_floor_value(self) -> float:
        return 2.0 * self.delta_nu if self.tol_floor is None else self.tol_floor


@dataclass
class SearchSpace:
    """Per-edge lists of candidate states (k, nu_fwd, nu_rev), each (m, S).

    nu_fwd is the cavity field lo -> hi of the stored edge, nu_rev the
    reverse one.
    """

    k: np.ndarray
    nu_fwd: np.ndarray
    nu_rev: np.ndarray

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=np.float64)
        self.nu_fwd = np.asarray(self.nu_fwd, dtype=np.float64)
        self.nu_rev = np.asarray(self.nu_rev, dtype=np.float64)
        if self.k.shape != self.nu_fwd.shape or self.k.shape != self.nu_rev.shape:
            raise ValueError("state arrays must share one (m, S) shape")

    @property
    def size(self) -> int:
        return self.k.shape[1]


@dataclass
class _SweepTables:
    """Per-directed-edge state quantities, fixed while the spaces are.

    window caches the message-independent part of the exhaustive inner
    max (see _window_values), keyed by (neighbour count, tol, b grid).
    """

    u_in: np.ndarray    # (2m, S) field shift into src
    lyp_in: np.ndarray  # (2m, S) log y_+ factor into src
    lym_in: np.ndarray  # (2m, S)
    c_in: np.ndarray    # (2m, S) u_in + outgoing field (BP constraint offset)
    nu_out: np.ndarray  # (2m, S) outgoing field along each directed edge
    neg_bond: np.ndarray  # (m, S) minus the bond energy of each state
    window: dict = dc_field(default_factory=dict)


def _sweep_tables(inst: QuantumInstance, spaces: SearchSpace) -> _SweepTables:
    # row d describes directed edge d: 2e runs lo -> hi, 2e + 1 hi -> lo
    k = np.repeat(spaces.k, 2, axis=0)
    nu_in = np.empty_like(k)
    nu_in[0::2], nu_in[1::2] = spaces.nu_rev, spaces.nu_fwd
    nu_out = np.empty_like(k)
    nu_out[0::2], nu_out[1::2] = spaces.nu_fwd, spaces.nu_rev
    base = logcosh(nu_in)
    u_in = field_shift(nu_in, k)
    lyp_in = logcosh(nu_in + 2.0 * k) - base
    lym_in = logcosh(nu_in - 2.0 * k) - base
    neg_bond = -bond_energy(
        inst.couplings[:, None], spaces.k, spaces.nu_fwd, spaces.nu_rev
    )
    return _SweepTables(u_in, lyp_in, lym_in, u_in + nu_out, nu_out, neg_bond)


def _site_term(h, b, lyp, lym):
    a1 = 2.0 * b + lyp
    a2 = -2.0 * b + lym
    mx = np.maximum(a1, a2)
    return 2.0 * h * np.exp(-mx) / (np.exp(a1 - mx) + np.exp(a2 - mx))


def _window_max(h_site, cfg: GSConfig, xlo, xhi, sum_u, lyp_tot, lym_tot):
    """Best site term over grid fields b with 2b + sum_u inside [xlo, xhi].

    Returns (value, b_index) arrays; infeasible windows give -inf.  The
    site term is unimodal in b, so the best grid point is the rounded
    unconstrained optimum clipped into the window.
    """
    db = cfg.delta_b
    ilo = np.ceil((xlo - sum_u) / (2.0 * db) - 1e-9)
    ihi = np.floor((xhi - sum_u) / (2.0 * db) + 1e-9)
    ilo = np.maximum(ilo, -cfg.half_b)
    ihi = np.minimum(ihi, cfg.half_b)
    feasible = ilo <= ihi
    b_star = (lym_tot - lyp_tot) / 4.0
    idx = np.clip(np.rint(b_star / db), ilo, ihi)
    idx = np.where(feasible, idx, 0.0)
    value = _site_term(h_site, idx * db, lyp_tot, lym_tot)
    return np.where(feasible, value, -np.inf), idx.astype(np.int64)


_CHUNK_ELEMS = 4_000_000


@functools.lru_cache(maxsize=16)
def _combo_index(size: int, ln: int) -> np.ndarray:
    """(ln, size**ln) state index per neighbour position, last one fastest.

    Read-only and shared between calls with the same (size, ln); the
    cache keeps 16 tables, each at most ln * COMBO_LIMIT * 8 bytes.  A
    call over the limit raises every time: lru_cache stores no exception."""
    if ln and size ** ln > COMBO_LIMIT:
        raise SearchSpaceError(
            f"{size} states on each of {ln} edges give {size ** ln} state "
            f"combinations, above the limit of {COMBO_LIMIT}; use a smaller "
            "space_size"
        )
    if not ln:
        idx = np.zeros((0, 1), dtype=np.int64)
    else:
        idx = np.stack(
            np.meshgrid(*([np.arange(size)] * ln), indexing="ij")
        ).reshape(ln, -1)
    idx.flags.writeable = False
    return idx


def _accumulate(table, rows, idx, op=np.add, start=0.0):
    """Fold a (2m, S) table over neighbour-state combinations, shape (G, C).

    Entry [g, c] folds table[rows[g, pos], idx[pos, c]] over the neighbour
    positions pos with the ufunc op, starting from start: sums of the
    per-edge quantities, and with np.maximum / np.minimum the bounds that
    BP consistency puts on the local field.
    """
    out = np.full((rows.shape[0], idx.shape[1]), start)
    for pos in range(rows.shape[1]):
        op(out, table[rows[:, pos]][:, idx[pos]], out=out)
    return out


def _window_values(h_sites, cfg, tol, tables, dirs, nbrs):
    """Message-independent part of the exhaustive inner max, shape (G, S, C).

    Entry [g, s, c] is the best site term at src[dirs[g]] for target state
    s and neighbour-state combination c (-inf when no grid field keeps BP
    consistency within tol).  This is G*S*C floats, kept for as long as the
    tables are: 1.2 MB for the 90 directed edges of a 30-spin 3-regular
    graph at S = 12 (C = 144), 41 MB for a 1000-spin one.  It is built
    _CHUNK_ELEMS entries at a time, so the temporaries stay below that.
    """
    size = tables.u_in.shape[1]
    idx = _combo_index(size, nbrs.shape[1])
    c = idx.shape[1]
    g_total = dirs.size
    value = np.empty((g_total, size, c))
    chunk = max(1, _CHUNK_ELEMS // (size * c))
    for lo_g in range(0, g_total, chunk):
        sl = slice(lo_g, min(lo_g + chunk, g_total))
        dd, nn = dirs[sl], nbrs[sl]
        c_max = _accumulate(tables.c_in, nn, idx, np.maximum, -np.inf)
        c_min = _accumulate(tables.c_in, nn, idx, np.minimum, np.inf)
        nf = tables.nu_out[dd][:, :, None]
        u_t = tables.u_in[dd][:, :, None]
        xlo = np.maximum(nf, c_max[:, None, :] - u_t) - tol
        xhi = np.minimum(nf, c_min[:, None, :] - u_t) + tol
        lyp_tot = (tables.lyp_in[dd][:, :, None]
                   + _accumulate(tables.lyp_in, nn, idx)[:, None, :])
        lym_tot = (tables.lym_in[dd][:, :, None]
                   + _accumulate(tables.lym_in, nn, idx)[:, None, :])
        value[sl], _ = _window_max(
            h_sites[sl][:, None, None], cfg, xlo, xhi,
            _accumulate(tables.u_in, nn, idx)[:, None, :], lyp_tot, lym_tot,
        )
    return value


def _batched_exhaustive(value, messages, nbrs):
    """Exhaustive inner max for a batch of directed edges of equal degree.

    value is the (G, S, C) output of _window_values for the batch and nbrs
    (G, ln) its neighbour directed edges; returns (G, S) inner values.
    Only this part depends on the messages: it gathers the neighbour
    messages per combination, adds them and takes the max, allocating one
    more (G, S, C) array for the sum.
    """
    idx = _combo_index(messages.shape[1], nbrs.shape[1])
    sum_m = _accumulate(messages, nbrs ^ 1, idx)
    return np.max(value + sum_m[:, None, :], axis=2)


def gs_maxsum_sweep(inst: QuantumInstance, graph: ClassicalGraph,
                    spaces: SearchSpace, messages: np.ndarray, tol: float,
                    cfg: GSConfig, tables: _SweepTables | None = None):
    """One synchronous MaxSum sweep over all directed edges.

    messages is (2m, S); returns (new_messages, dead_edges) where
    dead_edges lists edges whose states are all inadmissible in both
    directions.  Each finite table is normalized to max zero.  tables may
    be passed in when the spaces have not changed since the last sweep;
    they then also keep the window values of every tol swept with them.
    """
    if tables is None:
        tables = _sweep_tables(inst, spaces)
    new = np.full_like(messages, -np.inf)
    for ln, (dirs, nbrs) in graph.sweep_groups.items():
        if cfg.inner == "convolution" and ln > 0:
            for d, nbr_dirs in zip(dirs, nbrs):
                new[d] = tables.neg_bond[d // 2] + _inner_convolution(
                    inst.fields[graph.src[d]], cfg, tol, tables, messages,
                    d, nbr_dirs,
                )
            continue
        key = (ln, tol, cfg.delta_b, cfg.half_b)
        if key not in tables.window:
            tables.window[key] = _window_values(
                inst.fields[graph.src[dirs]], cfg, tol, tables, dirs, nbrs
            )
        inner = _batched_exhaustive(tables.window[key], messages, nbrs)
        new[dirs] = tables.neg_bond[dirs // 2] + inner
    mx = new.max(axis=1)
    finite = np.isfinite(mx)
    new[finite] -= mx[finite, None]
    # an edge is dead when neither direction has a finite entry
    dead = np.flatnonzero(~(finite[0::2] | finite[1::2])).tolist()
    return new, dead


def gs_weights(inst: QuantumInstance, graph: ClassicalGraph,
               spaces: SearchSpace, messages: np.ndarray) -> np.ndarray:
    """Edge-state weights <e_ij> + M_fwd + M_rev, shape (m, S).

    The bond energy enters with a plus sign: both incoming messages carry
    a minus-bond term, so the sum double-counts it and the weight repairs
    that.  Adding any constant to both message tables shifts every weight
    alike and changes nothing downstream.
    """
    bond = bond_energy(
        inst.couplings[:, None], spaces.k, spaces.nu_fwd, spaces.nu_rev
    )
    return bond + messages[0::2] + messages[1::2]


def _site_shift_max(inst, graph, tables, messages, tol, cfg, site):
    """Joint max at one site over its field and all incident edge states.

    Returns (value, b_value, {dir: state index}).  This is the site
    counterpart of the message update: BP consistency must hold for every
    outgoing direction at once.  An isolated site has one (empty)
    combination and an unconstrained field.
    """
    rows = graph.out_dirs[site][None, :]
    idx = _combo_index(tables.u_in.shape[1], rows.shape[1])
    value, b_idx = _window_max(
        inst.fields[site], cfg,
        _accumulate(tables.c_in, rows, idx, np.maximum, -np.inf) - tol,
        _accumulate(tables.c_in, rows, idx, np.minimum, np.inf) + tol,
        _accumulate(tables.u_in, rows, idx),
        _accumulate(tables.lyp_in, rows, idx),
        _accumulate(tables.lym_in, rows, idx),
    )
    value = (value + _accumulate(messages, rows ^ 1, idx))[0]
    best = int(np.argmax(value))
    choice = {int(d): int(idx[pos, best]) for pos, d in enumerate(rows[0])}
    return float(value[best]), float(b_idx[0, best] * cfg.delta_b), choice


def _inner_convolution(h_site, cfg, tol, tables, messages, target, nbr_dirs):
    """Sequential inner max: fold neighbor edges one at a time into a table.

    The table is indexed by the accumulated field shift x_plus, a running
    guess slot x_rem (seeded free, decremented by each shift, finally
    pinned to 2b plus the target's own shift so the per-step consistency
    checks used the right total), and the two accumulated log flip-weight
    factors, binned logarithmically.  Values are max-merged per bin, so
    each fold costs (table entries) x (states) instead of the full product.
    target is the directed edge the message goes out along and nbr_dirs
    the other edges leaving its source; returns the value per target state.
    """
    x_step = cfg.conv_x_step if cfg.conv_x_step is not None else cfg.delta_nu
    k_scale = max(
        float(np.max(np.abs(tables.u_in[d]))) for d in nbr_dirs
    ) if len(nbr_dirs) else 0.0
    y_span = 0.0
    for d in nbr_dirs:
        y_span += max(
            float(np.max(np.abs(tables.lyp_in[d]))),
            float(np.max(np.abs(tables.lym_in[d]))),
        )
    y_span = max(y_span, 1e-6)
    y_step = 2.0 * y_span / max(cfg.conv_y_bins - 1, 1)

    b_max = cfg.half_b * cfg.delta_b
    t_u, t_nu = tables.u_in[target], tables.nu_out[target]
    t_lyp, t_lym = tables.lyp_in[target], tables.lym_in[target]
    n_t = t_u.size
    u_t_max = float(np.max(np.abs(t_u))) if n_t else 0.0
    nu_max = cfg.half_nu * cfg.delta_nu
    x_plus_span = k_scale * len(nbr_dirs) + x_step
    x_rem_span = 2.0 * b_max + u_t_max + x_plus_span + nu_max + tol + x_step

    def xbin(v):
        return np.rint(np.asarray(v) / x_step).astype(np.int64)

    def ybin(v):
        return np.rint(np.asarray(v) / y_step).astype(np.int64)

    rem0 = np.arange(-math.ceil(x_rem_span / x_step),
                     math.ceil(x_rem_span / x_step) + 1, dtype=np.int64)
    entries = {
        "xp": np.zeros(rem0.size, dtype=np.int64),
        "xr": rem0,
        "yp": np.zeros(rem0.size, dtype=np.int64),
        "ym": np.zeros(rem0.size, dtype=np.int64),
        "val": np.zeros(rem0.size),
    }

    for d in nbr_dirs:
        u = tables.u_in[d]
        nu_out = tables.nu_out[d]
        xp = entries["xp"][:, None] * x_step + u[None, :]
        xr = entries["xr"][:, None] * x_step - u[None, :]
        pred = (entries["xp"] + entries["xr"])[:, None] * x_step - u[None, :]
        ok = np.abs(nu_out[None, :] - pred) <= tol + 1e-12
        if not np.any(ok):
            return np.full(n_t, -np.inf)
        yp = entries["yp"][:, None] * y_step + tables.lyp_in[d][None, :]
        ym = entries["ym"][:, None] * y_step + tables.lym_in[d][None, :]
        val = entries["val"][:, None] + messages[d ^ 1][None, :]
        flat_ok = ok.ravel()
        cols = {
            "xp": xbin(xp).ravel()[flat_ok],
            "xr": xbin(xr).ravel()[flat_ok],
            "yp": ybin(yp).ravel()[flat_ok],
            "ym": ybin(ym).ravel()[flat_ok],
        }
        vals = val.ravel()[flat_ok]
        key = np.stack([cols["xp"], cols["xr"], cols["yp"], cols["ym"]])
        order = np.lexsort(np.vstack([vals, key[::-1]]))
        key_sorted = key[:, order]
        new_group = np.ones(order.size, dtype=bool)
        if order.size > 1:
            new_group[1:] = np.any(key_sorted[:, 1:] != key_sorted[:, :-1], axis=0)
        # lexsort put the max value last within each key group
        last = np.flatnonzero(new_group)
        last = np.append(last[1:] - 1, order.size - 1)
        take = order[last]
        entries = {name: col[take] for name, col in cols.items()}
        entries["val"] = vals[take]

    b_vals = cfg.b_grid().values
    out = np.full(n_t, -np.inf)
    xp_c = entries["xp"] * x_step
    xr_c = entries["xr"] * x_step
    lyp_c = entries["yp"] * y_step
    lym_c = entries["ym"] * y_step
    for t in range(n_t):
        want_rem = 2.0 * b_vals + t_u[t]
        need_xp = t_nu[t] - 2.0 * b_vals
        for bi, b in enumerate(b_vals):
            mask = (np.abs(xp_c - need_xp[bi]) <= tol + 1e-12) & (
                np.abs(xr_c - want_rem[bi]) <= 0.5 * x_step + 1e-12
            )
            if not np.any(mask):
                continue
            site = _site_term(
                h_site, b, lyp_c[mask] + t_lyp[t],
                lym_c[mask] + t_lym[t],
            )
            cand = float(np.max(site + entries["val"][mask]))
            if cand > out[t]:
                out[t] = cand
    return out


def convolution_inner_max(inst: QuantumInstance, graph: ClassicalGraph,
                          spaces: SearchSpace, messages: np.ndarray,
                          site: int, target_dir: int, tol: float,
                          cfg: GSConfig):
    """Inner maximization at `site` toward directed edge target_dir via the
    sequential convolution.  Returns per-target-state values (without the
    bond term), matching exhaustive_inner_max up to binning error.
    """
    dirs = graph.out_dirs[site]
    return _inner_convolution(
        inst.fields[site], cfg, tol, _sweep_tables(inst, spaces), messages,
        target_dir, dirs[dirs != target_dir],
    )


def exhaustive_inner_max(inst: QuantumInstance, graph: ClassicalGraph,
                         spaces: SearchSpace, messages: np.ndarray,
                         site: int, target_dir: int, tol: float,
                         cfg: GSConfig):
    """Reference inner maximization (full enumeration), same contract as
    convolution_inner_max: the batched sweep kernel for one directed edge."""
    tables = _sweep_tables(inst, spaces)
    dirs = np.array([target_dir], dtype=np.int64)
    nbrs = np.array(
        [[int(x) for x in graph.out_dirs[site] if int(x) != target_dir]],
        dtype=np.int64,
    ).reshape(1, -1)
    value = _window_values(inst.fields[[site]], cfg, tol, tables, dirs, nbrs)
    return _batched_exhaustive(value, messages, nbrs)[0]


def _random_state(rng, k_vals, nu_vals):
    return (
        float(rng.choice(k_vals)),
        float(rng.choice(nu_vals)),
        float(rng.choice(nu_vals)),
    )


def init_spaces(graph: ClassicalGraph, cfg: GSConfig, rng,
                seed_states=None) -> SearchSpace:
    """Random initial spaces; seed_states maps edge -> list of states that
    must be present (deduplicated, truncated to the space size)."""
    k_vals = cfg.k_grid().values
    nu_vals = cfg.nu_grid().values
    s = cfg.space_size
    k = np.zeros((graph.m, s))
    nf = np.zeros((graph.m, s))
    nr = np.zeros((graph.m, s))
    for e in range(graph.m):
        states = []
        have = set()
        for st in (seed_states or {}).get(e, []):
            if st not in have and len(states) < s:
                have.add(st)
                states.append(st)
        guard = 0
        while len(states) < s:
            st = _random_state(rng, k_vals, nu_vals)
            guard += 1
            if st in have and guard < 200:
                continue
            have.add(st)
            states.append(st)
        k[e], nf[e], nr[e] = map(np.array, zip(*states))
    return SearchSpace(k, nf, nr)


def gs_resample(spaces: SearchSpace, weights: np.ndarray, cfg: GSConfig,
                rng, centers=None, radius_bins: float | None = None,
                dead_edges=()):
    """Replace the worst resample_fraction of each edge's states.

    Proposals are grid-snapped Gaussian moves around `centers` (per-edge
    (k, nu_fwd, nu_rev), typically the best state observed); edges whose
    states were all inadmissible are redrawn from scratch.  Returns
    (new_spaces, kept) where kept maps (e, new slot) -> old slot or -1.
    """
    m, s = spaces.k.shape
    radius = cfg.proposal_radius_bins if radius_bins is None else radius_bins
    n_new = int(round(cfg.resample_fraction * s))
    k_grid, nu_grid = cfg.k_grid(), cfg.nu_grid()
    k_vals, nu_vals = k_grid.values, nu_grid.values
    new_k = np.empty_like(spaces.k)
    new_nf = np.empty_like(spaces.nu_fwd)
    new_nr = np.empty_like(spaces.nu_rev)
    kept = np.full((m, s), -1, dtype=np.int64)
    for e in range(m):
        if e in dead_edges:
            order = []
        else:
            order = list(np.argsort(-weights[e], kind="stable")[: s - n_new])
        states = []
        have = set()
        for pos, old in enumerate(order):
            st = (
                float(spaces.k[e, old]),
                float(spaces.nu_fwd[e, old]),
                float(spaces.nu_rev[e, old]),
            )
            if st in have:
                continue
            have.add(st)
            kept[e, len(states)] = old
            states.append(st)
        center = None if centers is None else centers.get(e)
        if center is None and order:
            best = int(order[0])
            center = (
                float(spaces.k[e, best]),
                float(spaces.nu_fwd[e, best]),
                float(spaces.nu_rev[e, best]),
            )
        guard = 0
        while len(states) < s:
            guard += 1
            if center is not None and guard <= 60:
                st = (
                    float(k_grid.snap(center[0] + rng.standard_normal() * radius * cfg.delta_k)),
                    float(nu_grid.snap(center[1] + rng.standard_normal() * radius * cfg.delta_nu)),
                    float(nu_grid.snap(center[2] + rng.standard_normal() * radius * cfg.delta_nu)),
                )
            else:
                st = _random_state(rng, k_vals, nu_vals)
            if st in have and guard < 400:
                continue
            have.add(st)
            states.append(st)
        new_k[e], new_nf[e], new_nr[e] = map(np.array, zip(*states))
    return SearchSpace(new_k, new_nf, new_nr), kept


@dataclass
class GSResult:
    energy: float
    b: np.ndarray
    k: np.ndarray
    nu: np.ndarray
    sigma_z: np.ndarray
    sigma_x: np.ndarray
    m_x: float | None
    q_z: float
    maxsum_energy: float
    converged: bool
    iterations: int
    chosen: str
    delta_m_fallback: bool
    disagreements: int
    diagnostics: dict = dc_field(default_factory=dict)


def _extract(inst, graph, spaces, messages, tol, cfg):
    """Best state per edge by weight, field per site via the site shift.

    Returns (b, k, nu_init, maxsum_energy, disagreements).
    """
    tables = _sweep_tables(inst, spaces)
    weights = gs_weights(inst, graph, spaces, messages)
    edge_pick = np.argmax(weights, axis=1)
    k = spaces.k[np.arange(graph.m), edge_pick]
    nu = np.empty(2 * graph.m)
    nu[0::2] = spaces.nu_fwd[np.arange(graph.m), edge_pick]
    nu[1::2] = spaces.nu_rev[np.arange(graph.m), edge_pick]

    b = np.zeros(graph.n)
    shift_total = 0.0
    disagreements = 0
    seen_edges = set()
    for site in range(graph.n):
        val, b_val, choice = _site_shift_max(
            inst, graph, tables, messages, tol, cfg, site
        )
        shift_total += val
        b[site] = b_val
        for d, s_idx in choice.items():
            e = d // 2
            if e not in seen_edges:
                seen_edges.add(e)
                if s_idx != int(edge_pick[e]):
                    disagreements += 1
    edge_shift = np.max(weights, axis=1)
    finite = np.isfinite(edge_shift)
    maxsum_energy = -(shift_total - float(edge_shift[finite].sum()))
    return b, k, nu, maxsum_energy, disagreements


def _refit(inst, graph, candidates, cfg, rng):
    """BP refit of every candidate's extracted parameters in one batch.

    candidates are (label, b, k, nu_init).  Each candidate gets the starts
    nu_init, zeros and bp_restarts uniform draws from rng, drawn candidate
    by candidate, and all (candidate, start) rows run as one
    bp_fixed_points call.  Returns one (obs, nu, report, fallback, reports)
    per candidate, reports holding every start's BPReport.  Fixed points
    with mean |<s^z>| below delta_m are rejected; if none passes, the
    lowest-energy one is used anyway and flagged.
    """
    params = [ParameterSet(b, k) for _, b, k, _ in candidates]
    starts = 2 + cfg.bp_restarts
    inits = []
    for _, _, _, nu_init in candidates:
        inits += [np.asarray(nu_init), np.zeros(2 * graph.m)]
        inits += [rng.uniform(-2.0, 2.0, size=2 * graph.m)
                  for _ in range(cfg.bp_restarts)]
    nus, reports = bp_fixed_points(
        graph,
        np.repeat(np.stack([p.b for p in params]), starts, axis=0),
        np.repeat(np.stack([p.k for p in params]), starts, axis=0),
        np.stack(inits),
        eps=cfg.bp_eps, max_iters=cfg.bp_max_iters,
    )
    out = []
    for c, p in enumerate(params):
        rows = slice(c * starts, (c + 1) * starts)
        fixed = []
        backup = None
        for nu, rep in zip(nus[rows], reports[rows]):
            obs = observables(inst, graph, p, nu)
            if rep.converged:
                if not any(np.max(np.abs(nu - f[1])) < 1e-7 for f in fixed):
                    fixed.append((obs, nu, rep))
            elif backup is None or rep.residual < backup[2].residual:
                backup = (obs, nu, rep)
        if not fixed:
            out.append((*backup, False, reports[rows]))
            continue
        passing = [f for f in fixed if cfg.delta_m == 0.0
                   or float(np.mean(np.abs(f[0].sigma_z))) >= cfg.delta_m]
        pool = passing if passing else fixed
        out.append((*min(pool, key=lambda f: f[0].energy), not passing, reports[rows]))
    return out


def gs_solve(inst: QuantumInstance, cfg: GSConfig | None = None) -> GSResult:
    """Outer loop: sweep to convergence, extract, refit, resample, tighten.

    Every round's extraction is refit by BP and kept as a candidate, as
    are the mean-field and symmetric solutions when seeding is enabled
    (their states also enter the initial search spaces, grid-snapped).
    The returned solution is the candidate with the lowest refit energy,
    which makes the solver dominate its seeds by construction.
    """
    from .meanfield import mf_maxsum_solve
    from .symmetric import ss_maxsum_solve

    cfg = cfg or GSConfig()
    graph = ClassicalGraph.from_instance(inst)
    rng = np.random.default_rng(cfg.seed)
    k_grid, nu_grid = cfg.k_grid(), cfg.nu_grid()

    candidates = []  # (label, b, k, nu_init)
    seed_states: dict = {e: [] for e in range(graph.m)}
    if cfg.mf_seed:
        mf = mf_maxsum_solve(inst, seed=cfg.seed)
        nu_mf = np.empty(2 * graph.m)
        nu_mf[0::2] = 2.0 * mf.b[graph.edge_index[:, 0]]
        nu_mf[1::2] = 2.0 * mf.b[graph.edge_index[:, 1]]
        candidates.append(("meanfield-seed", mf.b.copy(), np.zeros(graph.m), nu_mf))
        for e in range(graph.m):
            i, j = graph.edge_index[e]
            seed_states[e].append((
                float(k_grid.snap(0.0)),
                float(nu_grid.snap(2.0 * mf.b[i])),
                float(nu_grid.snap(2.0 * mf.b[j])),
            ))
    if cfg.ss_seed:
        ss = ss_maxsum_solve(inst, seed=cfg.seed)
        candidates.append((
            "symmetric-seed", np.zeros(graph.n), ss.k.copy(), np.zeros(2 * graph.m)
        ))
        for e in range(graph.m):
            seed_states[e].append((float(k_grid.snap(ss.k[e])), 0.0, 0.0))

    spaces = init_spaces(graph, cfg, rng, seed_states)
    messages = np.zeros((2 * graph.m, cfg.space_size))
    tol = cfg.tol_init
    radius = cfg.proposal_radius_bins
    best_states: dict = {}
    best_weight = np.full(graph.m, -np.inf)

    rounds_log = []
    total_sweeps = 0
    for rnd in range(cfg.outer_rounds):
        residual = np.inf
        sweeps = 0
        dead = []
        tables = _sweep_tables(inst, spaces)
        for _ in range(cfg.max_sweeps):
            new, dead = gs_maxsum_sweep(inst, graph, spaces, messages, tol, cfg,
                                        tables=tables)
            finite = np.isfinite(new) & np.isfinite(messages)
            if np.any(finite):
                residual = float(np.max(np.abs(new[finite] - messages[finite])))
            else:
                residual = 0.0
            changed_shape = np.any(np.isfinite(new) != np.isfinite(messages))
            messages = new
            sweeps += 1
            if not changed_shape and residual <= cfg.sweep_tol:
                break
        total_sweeps += sweeps

        weights = gs_weights(inst, graph, spaces, messages)
        for e in range(graph.m):
            w = float(np.max(weights[e]))
            if np.isfinite(w) and w > best_weight[e]:
                best_weight[e] = w
                s_idx = int(np.argmax(weights[e]))
                best_states[e] = (
                    float(spaces.k[e, s_idx]),
                    float(spaces.nu_fwd[e, s_idx]),
                    float(spaces.nu_rev[e, s_idx]),
                )
        if np.all(np.isfinite(np.max(weights, axis=1))) or graph.m == 0:
            b, k, nu0, e_ms, disagree = _extract(inst, graph, spaces, messages, tol, cfg)
            candidates.append((f"round-{rnd}", b, k, nu0))
            rounds_log.append({
                "round": rnd, "tol": tol, "sweeps": sweeps,
                "residual": residual, "maxsum_energy": e_ms,
                "disagreements": disagree, "dead_edges": len(dead),
            })
        else:
            rounds_log.append({
                "round": rnd, "tol": tol, "sweeps": sweeps,
                "residual": residual, "maxsum_energy": None,
                "disagreements": None, "dead_edges": len(dead),
            })
        if rnd < cfg.outer_rounds - 1:
            spaces, kept = gs_resample(
                spaces, weights, cfg, rng, centers=best_states,
                radius_bins=radius, dead_edges=set(dead),
            )
            realigned = np.zeros_like(messages)
            for d in range(2 * graph.m):
                old = messages[d]
                sel = kept[d // 2]
                realigned[d] = np.where(sel >= 0, old[np.clip(sel, 0, None)], 0.0)
            messages = realigned
            tol = max(tol * cfg.tol_decay, cfg.tol_floor_value())
            radius = max(radius * cfg.tol_decay, 1.0)

    if not candidates:
        raise SearchSpaceError("no admissible extraction and no seeds enabled")

    refits = []
    refit_log = []
    fits = _refit(inst, graph, candidates, cfg, rng)
    for (label, b, k, _), (obs, nu, rep, fallback, starts) in zip(candidates, fits):
        refits.append((obs.energy, label, b, k, nu, obs, rep, fallback))
        refit_log.append({
            "label": label, "energy": obs.energy,
            "starts": [{"converged": r.converged, "iterations": r.iterations}
                       for r in starts],
            "delta_m_fallback": fallback,
        })
    refits.sort(key=lambda r: (r[0], candidates_order(r[1])))
    energy, label, b, k, nu, obs, rep, fallback = refits[0]

    last = next((r for r in reversed(rounds_log) if r["maxsum_energy"] is not None), None)
    return GSResult(
        energy=float(energy),
        b=b, k=k, nu=nu,
        sigma_z=obs.sigma_z, sigma_x=obs.sigma_x,
        m_x=obs.m_x, q_z=obs.q_z,
        maxsum_energy=float(last["maxsum_energy"]) if last else float("nan"),
        converged=rep.converged,
        iterations=total_sweeps,
        chosen=label,
        delta_m_fallback=fallback,
        disagreements=int(last["disagreements"]) if last else 0,
        diagnostics={
            "rounds": rounds_log,
            "refits": {"candidates": refit_log, "winner": label},
        },
    )


def candidates_order(label: str) -> int:
    """Stable preference for tie-breaking refit candidates by label."""
    if label.startswith("round-"):
        return 2
    return 0 if label == "meanfield-seed" else 1
