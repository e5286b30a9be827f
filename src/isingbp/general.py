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
The sweep and the reference inner max sum the per-edge quantities over
neighbour-state combinations with one accumulator (_accumulate), and
work through blocks of at most _BLOCK_ELEMS combinations (_blocks), so
their temporaries take a fixed few MB at any graph size.  The sweep
keeps the message-independent part of its inner max for the round, as
the admissible entries of the window table only (_window_table): most
combinations of edge states admit no grid field, above all in the early,
loose rounds, and every sweep reduces just the rest; the extraction
reads the same table.  The inner strategy "convolution" instead folds
neighbours in one at a time into binned partial sums: approximate, but
its memory does not grow as S**degree.

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
    Solution,
    _log_y,
    bond_energy,
    bp_fixed_point,  # noqa: F401  (perfbench/tracing.py wraps general.bp_fixed_point)
    bp_fixed_points,
    energy_kind_of,
    field_shift,
    observables,
)
from .grids import Grid, check_count
from .instance import ClassicalGraph, QuantumInstance

COMBO_LIMIT = 5_000_000

# Search schedule (see gs_solve, gs_resample and _refit for their use)
_TOL_INIT = 0.2  # BP-consistency tolerance of the first round
_TOL_DECAY = 0.7  # per round, for the tolerance and the proposal radius
_MAX_SWEEPS = 60  # per round, unless messages move by <= _SWEEP_TOL
_SWEEP_TOL = 1e-10
_RUNAWAY_SCALE = 1000.0  # residual floor: -scale * (sum |J| + sum h)
_RESAMPLE_FRACTION = 0.5  # share of each edge's states replaced per round
_PROPOSAL_RADIUS_BINS = 5.0  # first round's proposal radius, in grid steps
_BP_EPS = 1e-9  # refit BP residual
_BP_MAX_ITERS = 10000
_BP_PATIENCE = 200  # refit iterations without a new least residual before a start stops
_BP_RESTARTS = 3  # random refit starts per candidate
_DELTA_M = 0.05  # least mean |<s^z>| of a refit fixed point
_CONV_Y_BINS = 64  # bins of each log flip weight in the convolution inner max


class SearchSpaceError(RuntimeError):
    """No admissible state combination anywhere; search cannot proceed."""


@dataclass
class GSConfig:
    """Settings for the general solver.

    Grid steps/halves define the discretization of fields (b), couplings
    (k) and cavity fields (nu); k_cap bounds |K| (set it on loopy graphs).
    space_size is the number of states kept per edge and outer_rounds the
    number of sweep-extract-resample rounds.  inner picks the inner
    maximization; "convolution" bins its field sums by delta_nu.  The
    tolerance schedule, the sweep and refit limits, the resampling share
    and the flip-weight bins are module constants (_TOL_INIT and below).
    """

    delta_b: float = 0.05
    half_b: int = 60
    delta_k: float = 0.05
    half_k: int = 40
    delta_nu: float = 0.05
    half_nu: int = 120
    k_cap: float | None = None
    space_size: int = 20
    outer_rounds: int = 30
    inner: str = "exhaustive"
    seed: int = 0

    def __post_init__(self):
        if self.inner not in ("exhaustive", "convolution"):
            raise ValueError(f"unknown inner strategy {self.inner!r}")
        for name in ("space_size", "outer_rounds"):
            check_count(name, getattr(self, name), 1)
        # Grid checks the steps, the halves and the cap
        self.b_grid(), self.k_grid(), self.nu_grid()

    def b_grid(self) -> Grid:
        return Grid(self.delta_b, self.half_b)

    def k_grid(self) -> Grid:
        return Grid(self.delta_k, self.half_k, cap=self.k_cap)

    def nu_grid(self) -> Grid:
        return Grid(self.delta_nu, self.half_nu)


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

    def state(self, e: int, s: int) -> tuple:
        """State s of edge e as a (k, nu_fwd, nu_rev) tuple of floats."""
        return (float(self.k[e, s]), float(self.nu_fwd[e, s]),
                float(self.nu_rev[e, s]))


@dataclass
class _SweepTables:
    """Per-directed-edge state quantities, fixed while the spaces are.

    window caches the message-independent part of the exhaustive inner
    max, the _window_table of its admissible entries per sweep group,
    keyed by (neighbour count, tol, b grid).
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
    u_in = field_shift(nu_in, k)
    lyp_in, lym_in = _log_y(nu_in, k)
    neg_bond = -bond_energy(
        inst.couplings[:, None], spaces.k, spaces.nu_fwd, spaces.nu_rev
    )
    return _SweepTables(u_in, lyp_in, lym_in, u_in + nu_out, nu_out, neg_bond)


def _site_term(h, b, lyp, lym):
    a1 = 2.0 * b + lyp
    a2 = -2.0 * b + lym
    mx = np.maximum(a1, a2)
    return 2.0 * h * np.exp(-mx) / (np.exp(a1 - mx) + np.exp(a2 - mx))


def _best_field(h, cfg: GSConfig, ilo, ihi, lyp, lym):
    """(site term, b index) at the best grid field of each feasible window.

    The site term is unimodal in b, so the best grid point is the rounded
    unconstrained optimum clipped into the window.
    """
    idx = np.clip(np.rint((lym - lyp) / 4.0 / cfg.delta_b), ilo, ihi)
    return _site_term(h, idx * cfg.delta_b, lyp, lym), idx


# Entries per block of the site kernels: 128 KB per float64 temporary, so
# their working set stays fixed whatever the table size.
_BLOCK_ELEMS = 1 << 14


def _blocks(g_total, size, c):
    """(G slice, C slice) pairs tiling a (g_total, size, c) table.

    Each block holds at most _BLOCK_ELEMS entries, or one (1, size, 1)
    column when size alone is larger; C is split only when one (size, c)
    row does not fit.  The first block is the largest.
    """
    c_step = min(c, max(1, _BLOCK_ELEMS // size))
    g_step = max(1, _BLOCK_ELEMS // (size * c_step))
    for lo_g in range(0, g_total, g_step):
        for lo_c in range(0, c, c_step):
            yield slice(lo_g, lo_g + g_step), slice(lo_c, lo_c + c_step)


def _check_combos(size: int, ln: int) -> None:
    if ln and size ** ln > COMBO_LIMIT:
        raise SearchSpaceError(
            f"{size} states on each of {ln} edges give {size ** ln} state combinations, "
            f"above the limit of {COMBO_LIMIT}; use a smaller space_size")


@functools.lru_cache(maxsize=16)
def _combo_index(size: int, ln: int) -> np.ndarray:
    """(ln, size**ln) state index per neighbour position, last one fastest.

    Read-only and shared between calls with the same (size, ln); the
    cache keeps 16 tables, each at most ln * COMBO_LIMIT * 8 bytes.  A
    call over the limit raises every time: lru_cache stores no exception."""
    _check_combos(size, ln)
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
        op(out, table[rows[:, pos]].take(idx[pos], axis=1), out=out)
    return out


def _admissible(cfg, tol, tables, dd, nn, ii):
    """BP interval test of one _blocks block of the window table.

    dd, nn and ii are the block's directed edges, their neighbour rows and
    its combinations.  Returns (row, col, ilo, ihi) of the admissible
    entries: row = g * S + s and col = c within the block, and the grid
    index bounds of their windows.  The dense temporaries of the test end
    with the call, before the admissible entries are evaluated.
    """
    c_max = _accumulate(tables.c_in, nn, ii, np.maximum, -np.inf)[:, None, :]
    c_min = _accumulate(tables.c_in, nn, ii, np.minimum, np.inf)[:, None, :]
    nf = tables.nu_out[dd][:, :, None]
    u_t = tables.u_in[dd][:, :, None]
    sum_u = _accumulate(tables.u_in, nn, ii)[:, None, :]
    # grid indices [ilo, ihi] of the fields b with 2b + sum_u in the window
    step = 2.0 * cfg.delta_b
    ilo = np.maximum(np.ceil(
        (np.maximum(nf, c_max - u_t) - tol - sum_u) / step - 1e-9), -cfg.half_b)
    ihi = np.minimum(np.floor(
        (np.minimum(nf, c_min - u_t) + tol - sum_u) / step + 1e-9), cfg.half_b)
    at = np.flatnonzero(ilo <= ihi)
    return (*np.divmod(at, ii.shape[1]), ilo.ravel()[at], ihi.ravel()[at])


def _window_blocks(h_sites, cfg, tol, tables, dirs, nbrs):
    """_window_table's entries one _blocks block at a time: per block that
    has any, its piece and each entry's best grid field index, from the BP
    interval test (_admissible), then the log flip-weight sums and site
    term on the admissible entries.  A consumer that drops each block
    before the next holds one block's entries at a time."""
    size = tables.u_in.shape[1]
    idx, c = _combo_index(size, nbrs.shape[1]), size ** nbrs.shape[1]
    for gs, cs in _blocks(dirs.size, size, c):
        dd, nn, ii = dirs[gs], nbrs[gs], idx[:, cs]
        row, col, ilo, ihi = _admissible(cfg, tol, tables, dd, nn, ii)
        if not row.size:
            continue
        g = row // size
        flat_gc = g * ii.shape[1] + col
        lyp = (tables.lyp_in[dd].ravel()[row]
               + _accumulate(tables.lyp_in, nn, ii).ravel()[flat_gc])
        lym = (tables.lym_in[dd].ravel()[row]
               + _accumulate(tables.lym_in, nn, ii).ravel()[flat_gc])
        del flat_gc  # before the site term adds its own temporaries
        values, b_idx = _best_field(h_sites[gs][g], cfg, ilo, ihi, lyp, lym)
        del ilo, ihi, lyp, lym
        first = np.flatnonzero(np.diff(row, prepend=-1))
        block = (values, (g + gs.start) * c + (col + cs.start), first,
                 row[first] + gs.start * size, b_idx)
        del row, col, g, values, b_idx, first  # the block holds the rest
        yield block
        del block  # before the next block is evaluated


def _window_table(h_sites, cfg, tol, tables, dirs, nbrs) -> list:
    """Message-independent part of the exhaustive inner max, compressed.

    The (G, S, C) window table holds, for directed edge dirs[g], target
    state s and neighbour-state combination c, the best site term at
    src[dirs[g]], or -inf when no grid field keeps BP consistency within
    tol.  Only its admissible (finite) entries are kept, in (g, s, c)
    order, as a list of pieces of at most _BLOCK_ELEMS entries (or one
    _blocks block, if that is larger).  A piece is (values, cols, starts,
    rows): cols indexes the flattened (G, C) table of summed neighbour
    messages, and the entries from starts[i] up to the next start share
    the flattened (G, S) row rows[i].  A row appears once per _blocks
    block that holds it, so more than once only where a block splits the
    combinations.

    Packs the blocks of _window_blocks, at 12 bytes per admissible entry
    against 8 per entry for the whole table: at S = 12 on a 3-regular
    graph that is 0.6% of them in the first round and about 64% by the
    eighth.  Both arrays are reserved at the full table size; only the
    pages written become resident, and resize hands the rest back.
    """
    size = tables.u_in.shape[1]
    g_total, c = dirs.size, _combo_index(size, nbrs.shape[1]).shape[1]
    values = np.empty(g_total * size * c)
    cols = np.empty(values.size, dtype=np.int32 if g_total * c < 2 ** 31
                    else np.int64)
    starts, rows, bounds = [], [], []
    used = piece = piece_seg = n_seg = 0
    for block in _window_blocks(h_sites, cfg, tol, tables, dirs, nbrs):
        end = used + block[0].size
        if end - piece > _BLOCK_ELEMS and used > piece:
            bounds.append((piece, used, piece_seg, n_seg))
            piece, piece_seg = used, n_seg
        values[used:end], cols[used:end] = block[:2]
        starts.append(block[2] + (used - piece))
        rows.append(block[3])
        n_seg += block[2].size
        used = end
        del block
    if used > piece:
        bounds.append((piece, used, piece_seg, n_seg))
    values.resize(used, refcheck=False)
    cols.resize(used, refcheck=False)
    starts = np.concatenate(starts) if starts else np.empty(0, dtype=np.intp)
    rows = np.concatenate(rows) if rows else np.empty(0, dtype=np.intp)
    return [(values[a:b], cols[a:b], starts[sa:sb], rows[sa:sb])
            for a, b, sa, sb in bounds]


def _window_sweep(pieces, messages, nbrs):
    """Exhaustive inner max for a batch of directed edges of equal degree.

    pieces is the _window_table of the batch and nbrs (G, ln) its
    neighbour directed edges; returns (G, S) inner values.  Only this part
    depends on the messages: it sums the neighbour messages per
    combination once, then piece by piece gathers them onto the admissible
    entries, adds the window values and takes the max of each row into a
    -inf output.
    """
    g_total, size = nbrs.shape[0], messages.shape[1]
    sum_m = _accumulate(messages, nbrs ^ 1,
                        _combo_index(size, nbrs.shape[1])).ravel()
    out = np.full(g_total * size, -np.inf)
    longest = max((p[0].size for p in pieces), default=0)
    # take is fastest on intp indices and, without bounds errors, unbuffered
    at, buf = np.empty(longest, dtype=np.intp), np.empty(longest)
    for values, cols, starts, rows in pieces:
        total = buf[:values.size]
        at[:values.size] = cols
        np.take(sum_m, at[:values.size], out=total, mode="clip")
        total += values
        np.maximum.at(out, rows, np.maximum.reduceat(total, starts))
    return out.reshape(g_total, size)


def gs_maxsum_sweep(inst: QuantumInstance, spaces: SearchSpace,
                    messages: np.ndarray, tol: float, cfg: GSConfig,
                    tables: _SweepTables | None = None):
    """One synchronous MaxSum sweep over all directed edges.

    messages is (2m, S); returns (new_messages, dead_edges) where
    dead_edges lists edges whose states are all inadmissible in both
    directions.  Each finite table is normalized to max zero.  tables may
    be passed in when the spaces have not changed since the last sweep;
    they then also keep the window values of every tol swept with them.
    """
    graph = inst.graph
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
            tables.window[key] = _window_table(
                inst.fields[graph.src[dirs]], cfg, tol, tables, dirs, nbrs
            )
        inner = _window_sweep(tables.window[key], messages, nbrs)
        new[dirs] = tables.neg_bond[dirs // 2] + inner
    mx = new.max(axis=1)
    finite = np.isfinite(mx)
    new[finite] -= mx[finite, None]
    # an edge is dead when neither direction has a finite entry
    dead = np.flatnonzero(~(finite[0::2] | finite[1::2])).tolist()
    return new, dead


def gs_weights(inst: QuantumInstance, spaces: SearchSpace,
               messages: np.ndarray) -> np.ndarray:
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


def _site_picks(inst, tables, messages, tol, cfg):
    """Joint max at every site over its field and all incident edge states.

    Returns (value (n,), b (n,), pick (2m,)), pick[d] being the state of
    directed edge d at the first maximizer of its source site in
    combination order (dir_order order, last edge fastest).  The site's
    admissible combinations are the entries (s, c) of its first out-edge
    d's window table, read from the round's cache or else block by block
    and not kept; a site value is _window_sweep's total plus the message
    along d.  A site without a finite value takes combination 0 and its
    field (0 if none); an isolated site's field is unconstrained.
    """
    graph = inst.graph
    size = tables.u_in.shape[1]
    value, b = np.empty(graph.n), np.zeros(graph.n)
    pick = np.empty(2 * graph.m, dtype=np.int64)
    for deg, (sites, rows) in graph.site_groups.items():
        if not deg:
            value[sites] = _site_term(inst.fields[sites], 0.0, 0.0, 0.0)
            continue
        _check_combos(size, deg)
        first, nbrs = rows[:, 0], rows[:, 1:]
        idx, c = _combo_index(size, deg - 1), size ** (deg - 1)
        key = (deg - 1, tol, cfg.delta_b, cfg.half_b)
        if key in tables.window:
            dirs, pieces = graph.sweep_groups[deg - 1][0], tables.window[key]
        else:
            dirs, pieces = first, _window_blocks(inst.fields[sites], cfg, tol,
                                                 tables, first, nbrs)
        site_of = np.full(2 * graph.m, -1)
        site_of[first] = np.arange(sites.size)
        site_of = site_of[dirs]  # per table row block g, -1 off first out-edges
        own = messages[first ^ 1].ravel()
        best, win = np.full(sites.size, -np.inf), np.zeros(sites.size, dtype=np.int64)
        for values, cols, starts, seg_rows, *_ in pieces:
            lengths = np.diff(starts, append=values.size)
            kept = site_of[seg_rows // size] >= 0
            if not kept.any():
                continue
            at = np.flatnonzero(np.repeat(kept, lengths))
            g, s = np.divmod(np.repeat(seg_rows[kept], lengths[kept]), size)
            col = cols[at] % c
            # neighbour messages summed for the piece's sites and columns only
            span, g = site_of[g[0]:g[-1] + 1], g - g[0]
            lo, width = int(col.min()), int(col.max() - col.min()) + 1
            sum_m = _accumulate(messages, nbrs[span[span >= 0]] ^ 1,
                                idx[:, lo:lo + width]).ravel()
            p, local = span[g], (np.cumsum(span >= 0) - 1)[g]
            total = values[at] + sum_m[local * width + col - lo] + own[p * size + s]
            # pieces split a site's entries: ties go to the least s * C + c
            top = np.full(sites.size, -np.inf)
            np.maximum.at(top, p, total)
            combo = np.full(sites.size, size * c)
            hit = total == top[p]
            np.minimum.at(combo, p[hit], s[hit] * c + col[hit])
            better = (top > best) | ((top == best) & (top > -np.inf) & (combo < win))
            win = np.where(better, combo, win)
            best = np.maximum(best, top)
        s, col = np.divmod(win, c)
        value[sites] = best
        pick[first], pick[nbrs] = s, idx[:, col].T
        # the winners' fields, from their window table on one-state tables
        flat = _SweepTables(*(a.reshape(-1, 1) for a in (
            tables.u_in, tables.lyp_in, tables.lym_in, tables.c_in, tables.nu_out)), None)
        dd, nn = first * size + s, nbrs * size + idx[:, col].T
        for *_, at, b_idx in _window_blocks(inst.fields[sites], cfg, tol, flat, dd, nn):
            b[sites[at]] = b_idx.astype(np.int64) * cfg.delta_b
    return value, b, pick


def _inner_convolution(h_site, cfg, tol, tables, messages, target, nbr_dirs):
    """Sequential inner max: fold neighbour edges one at a time into a table.

    The table is an (E, 4) array of bin keys and an (E,) array of values.
    The keys are the accumulated field shift x_plus, a running guess x_rem
    (seeded free, decremented by each shift, finally pinned to 2b plus the
    target's own shift so the per-step consistency checks used the right
    total) and the two accumulated log flip-weight factors, binned
    logarithmically.  Each fold keeps the max value per key, so it costs
    (table entries) x (states) instead of the full product.  target is
    the directed edge the message goes out along and nbr_dirs the other
    edges leaving its source; returns the value per target state.
    """
    x_step = cfg.delta_nu
    k_scale = max((float(np.max(np.abs(tables.u_in[d]))) for d in nbr_dirs),
                  default=0.0)
    y_span = 0.0
    for d in nbr_dirs:
        y_span += max(float(np.max(np.abs(tables.lyp_in[d]))),
                      float(np.max(np.abs(tables.lym_in[d]))))
    y_step = 2.0 * max(y_span, 1e-6) / (_CONV_Y_BINS - 1)
    steps = np.array([x_step, x_step, y_step, y_step])
    t_u, t_nu = tables.u_in[target], tables.nu_out[target]
    u_t_max = float(np.max(np.abs(t_u))) if t_u.size else 0.0
    x_plus_span = k_scale * len(nbr_dirs) + x_step
    x_rem_span = (2.0 * (cfg.half_b * cfg.delta_b) + u_t_max + x_plus_span
                  + cfg.half_nu * cfg.delta_nu + tol + x_step)
    n_rem = math.ceil(x_rem_span / x_step)
    keys = np.zeros((2 * n_rem + 1, 4), dtype=np.int64)
    keys[:, 1] = np.arange(-n_rem, n_rem + 1)
    val = np.zeros(keys.shape[0])
    for d in nbr_dirs:
        u = tables.u_in[d]
        pred = (keys[:, 0] + keys[:, 1])[:, None] * x_step - u
        ok = np.abs(tables.nu_out[d] - pred) <= tol + 1e-12
        if not np.any(ok):
            return np.full(t_u.size, -np.inf)
        moved = np.stack([keys[:, 0, None] * x_step + u,
                          keys[:, 1, None] * x_step - u,
                          keys[:, 2, None] * y_step + tables.lyp_in[d],
                          keys[:, 3, None] * y_step + tables.lym_in[d]], axis=2)
        keys, group = np.unique(np.rint(moved[ok] / steps).astype(np.int64),
                                axis=0, return_inverse=True)
        folded = (val[:, None] + messages[d ^ 1])[ok]
        val = np.full(keys.shape[0], -np.inf)
        np.maximum.at(val, group, folded)

    return _conv_field_max(h_site, cfg, tol, keys * steps, val, t_u, t_nu,
                           tables.lyp_in[target], tables.lym_in[target])


def _conv_field_max(h_site, cfg, tol, sums, val, t_u, t_nu, t_lyp, t_lym):
    """Final stage of the convolution inner max: the best field per state.

    sums holds the (x_plus, x_rem, log y_+, log y_-) of each table entry
    and val its value; t_u, t_nu, t_lyp and t_lym describe the target
    states.  For target state t, a grid field b and an entry are admitted
    together when |x_plus - (nu_t - 2b)| <= tol and
    |x_rem - (2b + u_t)| <= delta_nu / 2.  Returns per t the max over the
    admitted pairs of the site term plus val, or -inf.  The second test
    bounds b to within delta_nu / 4 of (x_rem - u_t) / 2, so each (state,
    entry) pair is tested only against those grid fields, with one index
    of margin on each side, rather than against the whole grid.
    """
    b_vals = cfg.b_grid().values
    xp, xr, lyp, lym = sums.T
    reach = 0.25 * cfg.delta_nu / cfg.delta_b  # in b indices
    first = np.floor((xr - t_u[:, None]) / (2.0 * cfg.delta_b) - reach) - 1.0
    bi = first.astype(np.int64)[:, :, None] + (
        cfg.half_b + np.arange(math.ceil(2.0 * reach) + 4))
    on_grid = (bi >= 0) & (bi < b_vals.size)
    ti, ei, _ = np.nonzero(on_grid)
    bi = bi[on_grid]
    ok = ((np.abs(xp[ei] - (t_nu[ti] - 2.0 * b_vals[bi])) <= tol + 1e-12)
          & (np.abs(xr[ei] - (2.0 * b_vals[bi] + t_u[ti]))
             <= 0.5 * cfg.delta_nu + 1e-12))
    ti, ei, bi = ti[ok], ei[ok], bi[ok]
    out = np.full(t_u.size, -np.inf)
    np.maximum.at(out, ti, _site_term(h_site, b_vals[bi], lyp[ei] + t_lyp[ti],
                                      lym[ei] + t_lym[ti]) + val[ei])
    return out


def convolution_inner_max(inst: QuantumInstance, spaces: SearchSpace,
                          messages: np.ndarray, site: int, target_dir: int,
                          tol: float, cfg: GSConfig):
    """Inner maximization at `site` toward directed edge target_dir via the
    sequential convolution.  Returns per-target-state values (without the
    bond term), matching exhaustive_inner_max up to binning error.
    """
    dirs = inst.graph.dir_order[inst.graph.dir_start[site]:inst.graph.dir_start[site + 1]]
    return _inner_convolution(
        inst.fields[site], cfg, tol, _sweep_tables(inst, spaces), messages,
        target_dir, dirs[dirs != target_dir],
    )


def exhaustive_inner_max(inst: QuantumInstance, spaces: SearchSpace,
                         messages: np.ndarray, site: int, target_dir: int,
                         tol: float, cfg: GSConfig):
    """Reference inner maximization (full enumeration), same contract as
    convolution_inner_max: the batched sweep kernel for one directed edge."""
    tables = _sweep_tables(inst, spaces)
    around = inst.graph.dir_order[inst.graph.dir_start[site]:inst.graph.dir_start[site + 1]]
    nbrs = around[around != target_dir][None, :]
    dirs = np.array([target_dir], dtype=np.int64)
    pieces = _window_table(inst.fields[[site]], cfg, tol, tables, dirs, nbrs)
    return _window_sweep(pieces, messages, nbrs)[0]


def _fill_uniform(states, have, rng, k_vals, nu_vals, size, guard, limit):
    """Append uniform grid draws (k, nu_fwd, nu_rev) to states up to size;
    a state in have is redrawn until the guard count reaches limit."""
    while len(states) < size:
        st = (float(rng.choice(k_vals)), float(rng.choice(nu_vals)),
              float(rng.choice(nu_vals)))
        guard += 1
        if st in have and guard < limit:
            continue
        have.add(st)
        states.append(st)


def init_spaces(graph: ClassicalGraph, cfg: GSConfig, rng,
                seed_states=None) -> SearchSpace:
    """Random initial spaces; seed_states maps edge -> list of states that
    must be present (deduplicated, truncated to the space size).

    Uniform grid draws fill the rest, edge by edge, a duplicate redrawn up
    to the 200th try.  One batch of draws for all edges gives the same
    states up to the first edge that draws a state it holds; from there
    the generator is rewound and draws one at a time.
    """
    k_vals, nu_vals, s = cfg.k_grid().values, cfg.nu_grid().values, cfg.space_size
    held = [list(dict.fromkeys((seed_states or {}).get(e, [])))[:s]
            for e in range(graph.m)]
    out = np.zeros((graph.m, s, 3))
    saved = rng.bit_generator.state
    ends = np.cumsum([0] + [s - len(states) for states in held])
    highs = np.tile([k_vals.size, nu_vals.size, nu_vals.size], ends[-1])
    idx = rng.integers(0, highs).reshape(-1, 3)
    draws = np.stack([k_vals[idx[:, 0]], nu_vals[idx[:, 1]], nu_vals[idx[:, 2]]], 1)
    for e, states in enumerate(held):
        new = draws[ends[e]:ends[e + 1]]
        if len(set(states).union(map(tuple, new.tolist()))) < s:
            rng.bit_generator.state = saved  # replay the draws before edge e
            rng.integers(0, highs[:3 * ends[e]])
            for f, rest in enumerate(held[e:], start=e):
                _fill_uniform(rest, set(rest), rng, k_vals, nu_vals, s, 0, 200)
                out[f] = rest
            break
        out[e] = [*states, *new]
    return SearchSpace(*out.transpose(2, 0, 1))


def _snap_one(values: list, step: float, x: float) -> float:
    """Grid.snap of one float, values being the grid's values as a list.

    The same float expressions as Grid.snap, and round, like np.rint,
    takes half-way points to the even integer."""
    i = round((x - values[0]) / step)
    return values[i] if 0 <= i < len(values) else values[0 if i < 0 else -1]


def gs_resample(spaces: SearchSpace, weights: np.ndarray, cfg: GSConfig,
                rng, centers=None, radius_bins: float | None = None,
                dead_edges=()):
    """Replace the worst _RESAMPLE_FRACTION of each edge's states.

    Proposals are grid-snapped Gaussian moves around `centers` (per-edge
    (k, nu_fwd, nu_rev), typically the best state observed); edges whose
    states were all inadmissible are redrawn from scratch.  Returns
    (new_spaces, kept) where kept maps (e, new slot) -> old slot or -1.

    numpy runs once per round (the ranking) and once per proposal batch
    (the normals); each edge's states are Python floats, and proposals
    are snapped one at a time by _snap_one.
    """
    m, s = spaces.k.shape
    radius = _PROPOSAL_RADIUS_BINS if radius_bins is None else radius_bins
    n_new = int(round(_RESAMPLE_FRACTION * s))
    k_grid, nu_grid = cfg.k_grid(), cfg.nu_grid()
    k_vals, nu_vals = k_grid.values, nu_grid.values
    k_list, nu_list = k_vals.tolist(), nu_vals.tolist()
    old = np.stack([spaces.k, spaces.nu_fwd, spaces.nu_rev], axis=2)
    orders = np.argsort(-weights, axis=1, kind="stable")[:, : s - n_new].tolist()
    out = np.empty((m, s, 3))
    kept = np.full((m, s), -1, dtype=np.int64)
    for e in range(m):
        order = [] if e in dead_edges else orders[e]
        held = old[e].tolist()
        states, have, slots = [], set(), []
        for o in order:
            st = tuple(held[o])
            if st not in have:
                have.add(st)
                slots.append(o)
                states.append(st)
        kept[e, :len(slots)] = slots
        center = None if centers is None else centers.get(e)
        if center is None and order:
            center = held[order[0]]
        guard = 0
        while center is not None and guard < 60 and len(states) < s:
            # as many proposals as free slots: each of them would be drawn
            # one at a time too, with its three normals in this order
            c_k, c_f, c_r = map(float, center)
            for z_k, z_f, z_r in rng.standard_normal(
                    (min(s - len(states), 60 - guard), 3)).tolist():
                st = (_snap_one(k_list, k_grid.step, c_k + z_k * radius * cfg.delta_k),
                      _snap_one(nu_list, nu_grid.step, c_f + z_f * radius * cfg.delta_nu),
                      _snap_one(nu_list, nu_grid.step, c_r + z_r * radius * cfg.delta_nu))
                guard += 1
                if st not in have:
                    have.add(st)
                    states.append(st)
        _fill_uniform(states, have, rng, k_vals, nu_vals, s, guard, 400)
        out[e] = states
    return SearchSpace(*out.transpose(2, 0, 1)), kept


def _track_best(spaces, weights, best_weight, best_states):
    """Record the best state seen per edge, in place.

    An edge whose finite row max of weights beats best_weight[e] takes it
    there, and best_states[e] becomes its state at the first argmax, a
    (k, nu_fwd, nu_rev) tuple of floats.  Returns the row maxima."""
    top = weights.max(axis=1)
    better = np.flatnonzero(np.isfinite(top) & (top > best_weight))
    best_weight[better] = top[better]
    pick = weights[better].argmax(axis=1)
    best_states.update(zip(better.tolist(), zip(
        *(a[better, pick].tolist() for a in (spaces.k, spaces.nu_fwd, spaces.nu_rev)))))
    return top


@dataclass(kw_only=True)
class GSResult(Solution):
    sigma_z: np.ndarray
    sigma_x: np.ndarray
    maxsum_energy: float
    chosen: str
    delta_m_fallback: bool
    disagreements: int
    diagnostics: dict = dc_field(default_factory=dict)


def _extract(inst, spaces, messages, tol, cfg, tables=None, weights=None):
    """Best state per edge by weight, field per site via the site shift.

    tables and weights may be passed in when they were built from these
    spaces and messages already.  Returns (b, k, nu_init, maxsum_energy,
    disagreements).
    """
    if tables is None:
        tables = _sweep_tables(inst, spaces)
    if weights is None:
        weights = gs_weights(inst, spaces, messages)
    edge_pick = np.argmax(weights, axis=1)
    k = spaces.k[np.arange(inst.m), edge_pick]
    nu = np.empty(2 * inst.m)
    nu[0::2] = spaces.nu_fwd[np.arange(inst.m), edge_pick]
    nu[1::2] = spaces.nu_rev[np.arange(inst.m), edge_pick]

    value, b, pick = _site_picks(inst, tables, messages, tol, cfg)
    shift_total = 0.0
    for val in value.tolist():  # in site order
        shift_total += val
    # an edge counts once, at its first site lo, along directed edge 2e
    disagreements = int(np.count_nonzero(pick[0::2] != edge_pick))
    edge_shift = np.max(weights, axis=1)
    finite = np.isfinite(edge_shift)
    maxsum_energy = -(shift_total - float(edge_shift[finite].sum()))
    return b, k, nu, maxsum_energy, disagreements


def _refit(inst, candidates, rng):
    """BP refit of every candidate's extracted parameters in one batch.

    candidates are (label, b, k, nu_init).  Each candidate gets the starts
    nu_init, zeros and _BP_RESTARTS uniform draws from rng, drawn candidate
    by candidate, and all (candidate, start) rows run as one
    bp_fixed_points call.  A start stops when it converges, when its least
    residual has not fallen for _BP_PATIENCE iterations (damped BP on a
    frustrated loopy graph can stay chaotic and never converge) or at
    _BP_MAX_ITERS; one that does not converge keeps its least-residual
    iterate.  Returns one (obs, nu, report, fallback, reports) per
    candidate, reports holding every start's BPReport.  Fixed points with
    mean |<s^z>| below _DELTA_M are rejected; if none passes, the
    lowest-energy one is used anyway and flagged.  A candidate with no
    converged start gets its least-residual start, unflagged.  Only the
    starts kept are evaluated: each new fixed point, or else that
    least-residual start.
    """
    graph = inst.graph
    params = [ParameterSet(b, k) for _, b, k, _ in candidates]
    starts = 2 + _BP_RESTARTS
    inits = []
    for _, _, _, nu_init in candidates:
        inits += [np.asarray(nu_init), np.zeros(2 * graph.m)]
        inits += [rng.uniform(-2.0, 2.0, size=2 * graph.m)
                  for _ in range(_BP_RESTARTS)]
    nus, reports = bp_fixed_points(
        graph,
        np.repeat(np.stack([p.b for p in params]), starts, axis=0),
        np.repeat(np.stack([p.k for p in params]), starts, axis=0),
        np.stack(inits),
        eps=_BP_EPS, max_iters=_BP_MAX_ITERS, patience=_BP_PATIENCE,
    )
    out = []
    for c, p in enumerate(params):
        rows = slice(c * starts, (c + 1) * starts)
        fixed = []
        backup = None
        for nu, rep in zip(nus[rows], reports[rows]):
            if rep.converged:
                if not any(np.max(np.abs(nu - f[1])) < 1e-7 for f in fixed):
                    fixed.append((observables(inst, p, nu), nu, rep))
            elif backup is None or rep.residual < backup[1].residual:
                backup = (nu, rep)
        if not fixed:
            out.append((observables(inst, p, backup[0]), *backup, False, reports[rows]))
            continue
        passing = [f for f in fixed
                   if float(np.mean(np.abs(f[0].sigma_z))) >= _DELTA_M]
        pool = passing if passing else fixed
        out.append((*min(pool, key=lambda f: f[0].energy), not passing, reports[rows]))
    return out


def gs_solve(inst: QuantumInstance, cfg: GSConfig | None = None) -> GSResult:
    """Outer loop: sweep to convergence, extract, refit, resample, tighten.

    Every round's extraction is refit by BP and kept as a candidate, as
    are the mean-field and symmetric solutions, which always run (their
    states also enter the initial search spaces, grid-snapped).  The
    returned solution is the candidate with the lowest refit energy among
    those refit to a BP fixed point (among all if none is).  Each seed's
    first start is an exact fixed point, so the solver dominates both seeds
    by construction.  A Bethe energy away from a fixed point is no
    estimate: the least-residual iterate of a stalled refit can sit just
    below a fixed point's energy.
    """
    from .meanfield import mf_maxsum_solve
    from .symmetric import ss_maxsum_solve

    cfg = cfg or GSConfig()
    graph = inst.graph
    rng = np.random.default_rng(cfg.seed)
    k_grid, nu_grid = cfg.k_grid(), cfg.nu_grid()

    mf = mf_maxsum_solve(inst, seed=cfg.seed)
    nu_mf = 2.0 * mf.b[graph.src]
    ss = ss_maxsum_solve(inst)
    candidates = [  # (label, b, k, nu_init)
        ("meanfield-seed", mf.b.copy(), np.zeros(graph.m), nu_mf),
        ("symmetric-seed", np.zeros(graph.n), ss.k.copy(), np.zeros(2 * graph.m)),
    ]
    k_zero = float(k_grid.snap(0.0))
    seed_states = {  # edge -> [mean-field state, symmetric state]
        e: [(k_zero, float(nu_grid.snap(2.0 * mf.b[i])),
             float(nu_grid.snap(2.0 * mf.b[j]))),
            (float(k_grid.snap(ss.k[e])), 0.0, 0.0)]
        for e, (i, j) in enumerate(graph.edge_index)
    }

    spaces = init_spaces(graph, cfg, rng, seed_states)
    messages = np.zeros((2 * graph.m, cfg.space_size))
    tol = _TOL_INIT
    radius = _PROPOSAL_RADIUS_BINS
    best_states: dict = {}
    best_weight = np.full(graph.m, -np.inf)

    rounds_log = []
    total_sweeps = 0
    # entries under the floor in two successive sweeps ran away toward -inf
    floor = -_RUNAWAY_SCALE * float(np.abs(inst.couplings).sum() + inst.fields.sum())
    for rnd in range(cfg.outer_rounds):
        tables = _sweep_tables(inst, spaces)
        finite = np.isfinite(messages)
        for sweeps in range(1, _MAX_SWEEPS + 1):
            new, dead = gs_maxsum_sweep(inst, spaces, messages, tol, cfg,
                                        tables=tables)
            new_finite = np.isfinite(new)
            live = new_finite & finite
            runaway = live & (new < floor) & (messages < floor)
            diff = np.subtract(new, messages, out=np.zeros_like(new),
                               where=live & ~runaway)
            residual = float(np.max(np.abs(diff), initial=0.0))
            changed_shape = not np.array_equal(new_finite, finite)
            messages, finite = new, new_finite
            if not changed_shape and residual <= _SWEEP_TOL:
                stop = "converged"
                break
        else:
            stop = "cap"
        total_sweeps += sweeps

        weights = gs_weights(inst, spaces, messages)
        top = _track_best(spaces, weights, best_weight, best_states)
        e_ms = disagree = None  # no extraction while an edge is dead
        if np.all(np.isfinite(top)) or graph.m == 0:
            b, k, nu0, e_ms, disagree = _extract(inst, spaces, messages, tol,
                                                 cfg, tables, weights)
            candidates.append((f"round-{rnd}", b, k, nu0))
        rounds_log.append({
            "round": rnd, "tol": tol, "sweeps": sweeps, "stop": stop,
            "residual": residual, "runaway": int(np.count_nonzero(runaway)),
            "maxsum_energy": e_ms, "disagreements": disagree, "dead_edges": len(dead),
        })
        if rnd < cfg.outer_rounds - 1:
            spaces, kept = gs_resample(
                spaces, weights, cfg, rng, centers=best_states,
                radius_bins=radius, dead_edges=set(dead),
            )
            # a kept state keeps its messages, a new one starts at zero
            sel = np.repeat(kept, 2, axis=0)
            messages = np.where(sel >= 0, np.take_along_axis(
                messages, np.clip(sel, 0, None), axis=1), 0.0)
            tol = max(tol * _TOL_DECAY, 2.0 * cfg.delta_nu)
            radius = max(radius * _TOL_DECAY, 1.0)

    del tables  # the last round's window tables, before the refit batch
    refits = []
    refit_log = []
    fits = _refit(inst, candidates, rng)
    for (label, b, k, _), (obs, nu, rep, fallback, starts) in zip(candidates, fits):
        refits.append((obs.energy, label, b, k, nu, obs, rep, fallback))
        refit_log.append({
            "label": label, "energy": obs.energy,
            "starts": [{"converged": r.converged, "iterations": r.iterations}
                       for r in starts],
            "delta_m_fallback": fallback,
        })
    refits.sort(key=lambda r: (not r[6].converged, r[0], candidates_order(r[1])))
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
        energy_kind=energy_kind_of(graph, k),
        residual=rep.residual,
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
