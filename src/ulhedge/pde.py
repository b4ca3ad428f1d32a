"""Backward Cauchy problems for the hedge value functions.

Three problems are solved on tensor-product grids:

* ``solve_g``      -- 2D in (s, x): price diffusion, factor diffusion with the
  martingale-measure drift, mixed derivative, killing at the mortality rate
  and the death-benefit source.
* ``solve_gtilde`` -- 1D in s: the driftless price diffusion alone (the
  Black-Scholes-type survival-benefit price used in the uncorrelated case).
* ``solve_phi``    -- 1D in x: factor diffusion (a^2/2 times Phi_xx) with the
  physical drift, killed at the mortality rate, terminal value 1 (the pure
  survival transform).

One stencil and one march serve all three: ``_axis_stencil`` discretizes one
axis (nonuniform second differences, upwinded drift; edge rows drop the
diffusion and difference the drift one-sided into the domain), ``_operator``
sums the axis stencils into one sparse matrix, and ``_march`` steps backward
with Crank-Nicolson from a Rannacher start (two implicit half-steps reusing
the CN factor) to damp the payoff kink, integrating killing and source
exactly over each step (g <- U + (g - U) exp(-gamma dt)) so spatially
constant and affine solutions stay exact.  The 2D problem adds its mixed
derivative, lagged one level; ``_mixed_term`` forms its coefficient and
s-weights once per solve.
The march writes slice k into ``out[k % len(out)]``, so one loop serves two
storage plans: the backtest and the closed-form strategy keep every slice
(they read the solutions at each rebalancing date), while ``ulhedge solve``,
which reports only t = 0, marches all three problems through a ring of two
slices and keeps t = 0 alone (``surface=False``).
The march forms the extrema behind the max-principle gap and the finiteness
check from every slice it writes, the terminal slice included, so both plans
report the same health counters.
The march's one factorization orders the columns by minimum degree on the
pattern of A + A^T (SuperLU's ``MMD_AT_PLUS_A``; George & Liu, SIAM Review
31, 1989).  The operators are structurally symmetric stencils, and on them
this ordering fills the factor about half as much as the default COLAMD
(on the 401 x 81 spatial grid of the benchmark's ``solve-fine``: 1.36
against 2.63 million stored entries in L and U, 3.1 against 7.0 ms per
solve, 125 against 167 ms to factor, 2-core Xeon, scipy 1.17.1), and the
triangular solves are nearly all of the march.
When the survival payoff has a kink the s-grid is sinh-stretched around its
strike (cells near the kink are ~alpha/n wide) and the terminal condition is
seeded with its cell averages; the stored terminal slice remains the
pointwise payoff.

Every lookup reads one time slice, with one locate and one linear
interpolation, s first, then x: point lookups gather cell corners, and the
hedging loop interpolates per-world rows (``slice_at_s``) along x, by a
gather at each world's own factor state (``interp_rows``) and, for the
particles, by a dot product with the cloud-in-cell deposit the particle
cloud forms on the x grid with the same ``locate``.  A world's rows cover
only its window of x nodes, the one its deposit covers (the cells of its
particles and of its own state, plus the node above the highest); whole
rows are the window that starts at node 0 and spans the grid.  Only the
values are stored: a derivative dg/ds or dg/dx is formed from the one slice
a lookup reads, and never kept.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import rng
from .errors import DomainExcursionError, NumericalError
from .models import Payoff, ScenarioConfig
from .simulate import advance_market, cumulative_hazard

__all__ = ["PdeSolution", "solve_g", "solve_gtilde", "solve_phi",
           "feynman_kac_check", "ProbeResult", "interp_rows", "locate", "stretched_s_grid"]

_EDGE_TOL = 1e-9
_STRETCH_ALPHA = 0.4      # sinh cluster width as a fraction of the strike
_RANNACHER_STEPS = 2
_ORDERING = "MMD_AT_PLUS_A"   # SuperLU column ordering (see the module docstring)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def stretched_s_grid(n_s: int, s_max: float, strike: float | None) -> np.ndarray:
    """Price grid on [0, s_max]; sinh-concentrated around a strike if given."""
    if strike is None or not 0.0 < strike < s_max:
        return np.linspace(0.0, s_max, n_s + 1)
    alpha = _STRETCH_ALPHA * strike
    lo = np.arcsinh(-strike / alpha)
    hi = np.arcsinh((s_max - strike) / alpha)
    s = strike + alpha * np.sinh(np.linspace(lo, hi, n_s + 1))
    s[0], s[-1] = 0.0, s_max
    return s


def _cell_average(payoff: Payoff, grid: np.ndarray) -> np.ndarray:
    """Finite-volume projection of a kinked payoff onto the grid cells.

    A node's cell runs between the midpoints to its neighbours (half a cell
    at either end), and its value is the exact mean of the payoff over that
    cell: level + slope (cell centre) + the mean of the call part.  On a
    nonuniform grid, and at either end, the cell centre is not the node, so
    the seed differs from the pointwise payoff away from the kink too.  On the
    smoke grid it does at 134 of the 171 nodes with |s - K| > 0.5, most at
    s_max, where it is the call at the centre of the last half cell, 0.020
    below the call at s_max.  A payoff without a kink is affine and is
    seeded pointwise, which keeps affine solutions exact.
    """
    strike = payoff.strike
    if strike is None:
        return payoff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    lo = np.concatenate([[grid[0]], mid])
    hi = np.concatenate([mid, [grid[-1]]])
    a = np.maximum(lo, strike)
    num = np.where(hi > strike, (hi - strike) ** 2 - np.maximum(a - strike, 0.0) ** 2, 0.0)
    out = payoff.slope * (0.5 * (lo + hi))
    out += payoff.level
    out += num / (2.0 * (hi - lo))
    return out


# ---------------------------------------------------------------------------
# solution container with interpolating accessors
# ---------------------------------------------------------------------------

@dataclass
class PdeSolution:
    """Grid solution of one backward problem with derivative accessors.

    ``values`` has the time axis first: (n_t+1, n_s+1, n_x+1) for the 2D
    problem, (n_t+1, n+1) for the 1D ones, and it is the only surface the
    solution holds.  The hedge reads g at every step and keeps every slice;
    ``solve`` asks each solver with ``surface=False`` for a one-slice solution
    (``t_grid`` [0.0], ``values`` with one time slice).  Every
    accessor takes one integer time index k and reads that slice alone.  A
    spatial derivative ("d_s" or "d_x") is np.gradient of that slice --
    centered differences in the interior, one-sided at the edges -- formed
    per call (``_gradient``, from stencil weights kept per axis) and never
    stored, and is interpolated (bi)linearly like the values themselves.
    ``csvio.export_pde_solution`` writes the t = 0 slice.
    """

    kind: str                 # "sx", "s" or "x"
    t_grid: np.ndarray
    values: np.ndarray
    s_grid: np.ndarray | None = None
    x_grid: np.ndarray | None = None
    max_principle_gap: float = 0.0
    factor_nnz: int = 0       # entries stored for L and U by the march's factorization
    _stencils: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def health(self) -> dict:
        """The numerical-health counters a run manifest reports for this solve."""
        return {"factor_nnz": self.factor_nnz, "max_principle_gap": self.max_principle_gap}

    def time_index(self, t: float) -> int:
        """Index of the grid time t (the grid may hold t = 0 alone)."""
        k = int(np.argmin(np.abs(self.t_grid - t)))
        # written so that a NaN t (whose comparisons are all False) fails
        if not abs(self.t_grid[k] - t) <= 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"time {t} is not on the solution grid")
        return k

    def _slice(self, name: str, k: int, rows: slice = slice(None)) -> np.ndarray:
        """Time slice k of the field ``name``: the values, or their derivative
        along s ("d_s") or x ("d_x").  The derivative works along one axis,
        so the derivative of ``values[k]`` is bit-identical to slice k of
        np.gradient of the whole surface; it is formed on the first-axis
        ``rows`` alone, and the slice's other rows are left unset.  k is one
        integer: an array of steps raises TypeError rather than index (and
        differentiate) several slices."""
        k = operator.index(k)
        if name == "value":
            return self.values[k]
        grid = {"d_s": self.s_grid, "d_x": self.x_grid}[name]
        if grid is None:
            raise ValueError(f"solution has no {name[-1]} axis")
        axis = 1 if name == "d_x" and self.kind == "sx" else 0
        f = self.values[k]
        if name not in self._stencils:
            self._stencils[name] = _stencil(grid, f.shape, axis)
        return _gradient(f, self._stencils[name], rows)

    def _interp(self, name: str, k: int, s=None, x=None):
        """Field ``name`` at time index k and points s, x: the arithmetic of
        slice_at_s + interp_rows, on the one slice ``_slice`` forms."""
        if self.kind == "sx":
            if s is None or x is None:
                raise ValueError("2D solution needs both s and x")
            cells = [locate(self.s_grid, s, "s"), locate(self.x_grid, x, "x")]
        else:
            q = s if self.kind == "s" else x
            if q is None:
                raise ValueError(f"1D solution needs the {self.kind} coordinate")
            cells = [locate(self.s_grid if self.kind == "s" else self.x_grid, q, self.kind)]
        return _lerp_cells(self._slice(name, k), cells)

    def value(self, k, s=None, x=None):
        return self._interp("value", k, s, x)

    def value_ds(self, k, s=None, x=None):
        return self._interp("d_s", k, s, x)

    def value_dx(self, k, s=None, x=None):
        return self._interp("d_x", k, s, x)

    def slice_at_s(self, names, k: int, s_vals, lo, width: int) -> np.ndarray:
        """The named fields ("value", "d_s", "d_x") interpolated along s only,
        over one window of x nodes per world: shape (len(names),
        len(s_vals), width), node lo + j of the x grid in column j, with
        ``lo`` each world's first node (an array, or 0 with width n_x+1 for
        whole rows).  Each world is located once for all fields and each
        derivative formed once from the time-k slice, on the band of s rows
        the windows read; the window's lower and upper s rows are flat-index
        ``take``s, and ``_lerp``'s arithmetic is written into the output."""
        si, sw = locate(self.s_grid, s_vals, "s")
        rows = slice(si.min(), si.max() + 2) if si.size else slice(0)
        sw = sw[:, None]
        n_nodes = len(self.x_grid)
        below = (si * n_nodes + lo)[:, None] + np.arange(width)
        above = below + n_nodes
        out = np.empty((len(names), len(si), width))
        upper = np.empty(out.shape[1:])
        # mode="clip" skips numpy's buffered bounds-checked path; it never
        # clips, since a window ends at or before the last node
        for row, name in zip(out, names):
            a = self._slice(name, k, rows).ravel()
            a.take(below, out=row, mode="clip")
            row *= 1 - sw
            a.take(above, out=upper, mode="clip")
            upper *= sw
            row += upper
        return out


def _three_point(dx: np.ndarray):
    """np.gradient's nonuniform weights of the points below, at and above each
    interior point, from the spacings ``dx`` along the first axis."""
    dx1, dx2 = dx[:-1], dx[1:]
    return (-(dx2) / (dx1 * (dx1 + dx2)), (dx2 - dx1) / (dx1 * dx2),
            dx1 / (dx2 * (dx1 + dx2)))


def _stencil(grid: np.ndarray, shape: tuple, axis: int):
    """np.gradient's weights along ``axis`` of a C-ordered array of ``shape``
    with coordinates ``grid`` (first-order edges), laid out for ``_gradient``.

    Returns the axis, its stride in the flattened array, the edge spacings
    and either the spacing of an exactly uniform grid (np.gradient's
    uniform formula) or the weights of the points one stride below, at and
    above each point between the first and last stride, over the flattened
    array: np.gradient's nonuniform three-point weights where the point is
    inside the axis, 0 where it lies on an edge (``_gradient`` overwrites
    those).
    """
    stride = int(np.prod(shape[axis + 1:]))
    dx = np.diff(grid)
    edges = (dx[0], dx[-1])
    if (dx == dx[0]).all():
        return axis, stride, edges, dx[0]
    weights = _three_point(dx)
    inner = [slice(None)] * len(shape)
    inner[axis] = slice(1, -1)
    along = [1] * len(shape)
    along[axis] = -1
    laid_out = []
    for w in weights:
        full = np.zeros(shape)
        full[tuple(inner)] = w.reshape(along)
        laid_out.append(full.ravel()[stride:-stride])
    return axis, stride, edges, tuple(laid_out)


def _gradient(f: np.ndarray, stencil, rows: slice = slice(None)) -> np.ndarray:
    """np.gradient(f, grid, axis=axis) bit for bit, for the ``_stencil`` of
    that grid and axis, on the first-axis ``rows`` of f (the other rows of
    the result are left unset): the interior as whole-array passes over the
    flattened rows (a * f[below] + b * f[at] + c * f[above], or the uniform
    (f[above] - f[below]) / (2 dx)), then the edges among them one-sided."""
    axis, stride, (dx_first, dx_last), weights = stencil
    first, stop, _ = rows.indices(len(f))
    per_row = f.size // len(f)
    start = max(first * per_row, stride)
    end = max(start, min(stop * per_row, f.size - stride))
    flat = f.ravel()
    out = np.empty_like(f)
    inner = out.reshape(-1)[start:end]
    below, at, above = (flat[start - stride:end - stride], flat[start:end],
                        flat[start + stride:end + stride])
    if isinstance(weights, tuple):
        w = slice(start - stride, end - stride)
        np.multiply(weights[0][w], below, out=inner)
        inner += weights[1][w] * at
        inner += weights[2][w] * above
    else:
        np.subtract(above, below, out=inner)
        inner /= 2.0 * weights
    if axis == 0:
        if first == 0:
            out[0] = (f[1] - f[0]) / dx_first
        if stop == len(f):
            out[-1] = (f[-1] - f[-2]) / dx_last
    else:
        f, edge = np.moveaxis(f[rows], axis, 0), np.moveaxis(out[rows], axis, 0)
        edge[0] = (f[1] - f[0]) / dx_first
        edge[-1] = (f[-1] - f[-2]) / dx_last
    return out


def locate(grid: np.ndarray, q, label: str):
    """Cell index and in-cell weight of every query point on axis ``label``.

    The x axes are uniform (index arithmetic), the s axes may be stretched
    (binary search).  A point beyond the edges, or NaN, raises a
    DomainExcursionError carrying the position of the first such point in
    ``q``; every returned cell index therefore lies in [0, len(grid) - 2].
    """
    q = np.asarray(q, dtype=float)
    lo, hi = grid[0], grid[-1]
    lo_tol, hi_tol = lo - _EDGE_TOL * (1 + abs(lo)), hi + _EDGE_TOL * (1 + abs(hi))
    # written so that a NaN (whose comparisons are all False) fails the check
    if q.size and not (q.min() >= lo_tol and q.max() <= hi_tol):
        index = np.unravel_index(int(np.argmax(~((q >= lo_tol) & (q <= hi_tol)))), q.shape)
        raise DomainExcursionError(
            f"{label}-coordinate {float(q[index]):.6g} outside PDE domain"
            f" [{lo:.6g}, {hi:.6g}]", index)
    span = len(grid) - 1
    if label == "x":
        # the cell is formed as a float (floor = truncation for u >= 0), so
        # every pass runs on one type
        u = q - lo
        u /= grid[1] - lo
        np.clip(u, 0.0, span, out=u)
        cell = np.floor(u)
        np.minimum(cell, span - 1, out=cell)
        u -= cell
        return cell.astype(np.intp), u
    idx = np.clip(np.searchsorted(grid, q, side="right") - 1, 0, span - 1)
    w = (q - grid[idx]) / (grid[idx + 1] - grid[idx])
    return idx, np.clip(w, 0.0, 1.0)


def _lerp(lo, hi, w):
    """(1 - w) lo + w hi, computed in place: lo and hi are fresh gathers."""
    lo *= 1 - w
    hi *= w
    lo += hi
    return lo


def _lerp_cells(a: np.ndarray, cells):
    """Interpolation of one time slice ``a`` over located cells: linear for
    one axis, bilinear (s first, then x) for two."""
    if len(cells) == 1:
        (qi, qw), = cells
        return _lerp(a[qi], a[qi + 1], qw)
    (si, sw), (xi, xw) = cells
    lo = _lerp(a[si, xi], a[si + 1, xi], sw)
    hi = _lerp(a[si, xi + 1], a[si + 1, xi + 1], sw)
    return _lerp(lo, hi, xw)


def interp_rows(rows: np.ndarray, grid: np.ndarray, q: np.ndarray, lo) -> np.ndarray:
    """Linear interpolation of rows (n_fields, n_rows, W) at q (n_rows,
    n_points), q[r] in row r of every field, where row r holds the grid
    nodes lo[r], ..., lo[r] + W - 1 (``slice_at_s``'s windows; lo = 0 for
    whole rows) and every q[r] lies in its window's cells: one locate, then
    flat-index ``take`` at row offset + cell - lo, one field at a time into
    preallocated buffers to bound memory; the arithmetic of ``_lerp``.  One
    buffer holds 1 - w while the lower corners are weighted, then each
    upper gather."""
    cell, w = locate(grid, q, "x")
    cell += (np.arange(q.shape[0]) * rows.shape[-1] - lo)[:, None]
    fields = rows.reshape(len(rows), -1)
    out = np.empty(rows.shape[:1] + q.shape)
    buffer = 1 - w
    # mode="clip" skips numpy's buffered bounds-checked path; it never clips,
    # since locate keeps every cell in [0, n_x - 1] and rejects NaN, and the
    # windows hold the cells of q
    for f, field in enumerate(fields):
        field.take(cell, out=out[f], mode="clip")
        out[f] *= buffer
    for f, field in enumerate(fields):
        upper = field[1:].take(cell, out=buffer, mode="clip")
        upper *= w
        out[f] += upper
    return out


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------

def _axis_stencil(grid: np.ndarray, diff, drift, axis: int):
    """Lower, centre and upper weights of diff q_qq + drift q_q along ``axis``.

    ``diff`` and ``drift`` are coefficient arrays over the whole grid (the
    drift may be a scalar).  Second differences use the three-point weights
    of the possibly nonuniform ``grid``, exact on linear functions for any
    spacing (the affine-contract tests rely on this); the drift is upwinded.
    On the edge rows the diffusion is dropped (vanishing second derivative)
    and the drift is differenced one-sided into the domain, so the first
    node has no lower and the last no upper neighbour.
    """
    h = np.diff(grid)
    hm = np.append(h[0], h)      # spacing to the lower neighbour
    hp = np.append(h, h[-1])     # spacing to the upper neighbour
    weights = [2.0 / (hm * (hm + hp)), -2.0 / (hm * hp), 2.0 / (hp * (hm + hp))]
    for w in weights:
        w[[0, -1]] = 0.0
    along = (-1,) + (1,) * (np.ndim(diff) - axis - 1)
    wl, wc, wr = (w.reshape(along) for w in weights)
    drift = np.broadcast_to(drift, np.shape(diff))
    up, down = np.maximum(drift, 0.0), np.maximum(-drift, 0.0)
    first, last = (slice(None),) * axis + (0,), (slice(None),) * axis + (-1,)
    up[first], down[first] = drift[first], 0.0
    up[last], down[last] = 0.0, -drift[last]
    up /= hp.reshape(along)
    down /= hm.reshape(along)
    return diff * wl + down, diff * wc - up - down, diff * wr + up


def _operator(*stencils) -> sp.csc_matrix:
    """Sparse operator of the summed axis stencils on the C-ordered grid.

    Axis k couples nodes at stride prod(shape[k+1:]) as flattened diagonals;
    no wrap from the end of one row to the start of the next appears,
    because an edge node's outward weight is zero.  Zero weights are not
    stored.
    """
    shape = stencils[0][1].shape
    diagonals, offsets = [sum(c for _, c, _ in stencils).ravel()], [0]
    for axis, (lower, _, upper) in enumerate(stencils):
        stride = int(np.prod(shape[axis + 1:]))
        diagonals += [lower.ravel()[stride:], upper.ravel()[:-stride]]
        offsets += [-stride, stride]
    A = sp.diags(diagonals, offsets, format="csc")
    A.eliminate_zeros()
    return A


def _assemble_2d(s_grid, x_grid, sig: float, aa, drift) -> sp.csc_matrix:
    """Spatial operator (diffusions + upwinded x-drift), no reaction, no mixed.

    ``sig`` is the constant price volatility; ``aa`` and ``drift`` are the
    factor's volatility and martingale-measure drift over the whole grid."""
    half_s = np.broadcast_to(0.5 * (sig * sig) * s_grid[:, None] ** 2, aa.shape)
    return _operator(_axis_stencil(s_grid, half_s, 0.0, axis=0),
                     _axis_stencil(x_grid, 0.5 * aa**2, drift, axis=1))


def _mixed_term(sig, aa, SS, rho, s_grid, x_grid):
    """The map w -> rho a sigma s w_sx, centered, zero on the boundary ring.

    The coefficient and the three-point s-weights (np.gradient's formulas
    for a nonuniform grid) are formed once; each call forms the interior
    s-derivative rows and their centered x-difference, in np.gradient's
    order of operations.  (On an s grid with exactly equal spacings
    np.gradient takes its uniform formula, which differs only by rounding.)
    """
    coef = (rho * aa * sig * SS)[1:-1, 1:-1]
    two_hx = 2.0 * (x_grid[1] - x_grid[0])
    lower, centre, upper = _three_point(np.diff(s_grid)[:, None])

    def term(values):
        ds = lower * values[:-2] + centre * values[1:-1] + upper * values[2:]
        out = np.zeros_like(values)
        out[1:-1, 1:-1] = coef * (ds[:, 2:] - ds[:, :-2]) / two_hx
        return out

    return term


def _march(out, n_t: int, A, seed, dt: float, gamma, source, explicit=None):
    """Fill the time slices n_t - 1, ..., 0 backward from the terminal ``seed``.

    Slice k goes to ``out[k % len(out)]``: ``out`` holds either every slice
    (length n_t + 1) or a ring of two, where slice k overwrites slice k + 2
    once step k + 1 has read it.  On entry ``out[n_t % len(out)]`` holds the
    stored terminal slice.  Returns the factor's fill (the entries SuperLU
    stores for L and U) and the smallest and largest value over the terminal
    slice and every slice written; a non-finite value raises NumericalError
    naming its time step.

    Each step solves dw/dt + A w + explicit(w) = gamma (w - source):
    Crank-Nicolson in A, except for a Rannacher start of two implicit
    half-steps that reuse the CN factor; the lagged ``explicit`` term enters
    the right-hand side; killing and source are integrated exactly over the
    step (w <- source + (w - source) exp(-gamma dt)), so spatially constant
    and affine solutions stay exact.  The one factorization orders the
    columns by minimum degree on the pattern of A + A^T (``_ORDERING``).
    """
    try:
        lu = splu(sp.identity(A.shape[0], format="csc") - 0.5 * dt * A,
                  permc_spec=_ORDERING)
    except RuntimeError as exc:
        raise NumericalError(f"PDE linear solve failed: {exc}") from exc
    decay = np.exp(-gamma * dt)
    lo, hi = _extrema(out[n_t % len(out)], n_t)
    work = seed
    for step in range(n_t - 1, -1, -1):
        rhs = work.ravel()
        if explicit is not None:
            rhs = explicit(work).ravel()
            rhs *= dt
            rhs += work.ravel()
        if step >= n_t - _RANNACHER_STEPS:
            solved = lu.solve(lu.solve(rhs))
        else:
            cn = A.dot(work.ravel())
            cn *= 0.5 * dt
            cn += rhs
            solved = lu.solve(cn)
        work = out[step % len(out)]
        np.subtract(solved.reshape(work.shape), source, out=work)
        work *= decay
        work += source
        step_lo, step_hi = _extrema(work, step)
        lo, hi = min(lo, step_lo), max(hi, step_hi)
    # lu.nnz counts the factor in place; lu.L and lu.U would copy it
    return lu.nnz, lo, hi


def _extrema(values, step: int) -> tuple[float, float]:
    """Smallest and largest entry of one time slice, which must be finite
    (a NaN or an infinity makes one of the two non-finite)."""
    lo, hi = float(values.min()), float(values.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError(f"PDE solution contains non-finite values at time step {step}")
    return lo, hi


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def solve_g(config: ScenarioConfig, surface: bool = True) -> PdeSolution:
    """Solve the 2D value problem for the endowment contract.

    Returns g with g(T, s, x) = G(s); the interior equation balances the
    (s, x) generator under the martingale measure against killing at the
    mortality rate plus the death-benefit source U gamma.  With
    ``surface=False`` the march keeps two time slices and the solution holds
    the t = 0 slice alone, bit-identical to slice 0 of the full surface, with
    the same health counters.
    """
    grid = config.pde_grid
    contract = config.contract
    c = config.coefficients
    T = contract.maturity
    n_t = config.n_steps
    s_grid = stretched_s_grid(grid.n_s, grid.s_max, contract.survival_payoff.strike)
    x_grid = np.linspace(grid.x_min, grid.x_max, grid.n_x + 1)
    SS, XX = np.meshgrid(s_grid, x_grid, indexing="ij")

    values = np.empty((n_t + 1 if surface else 2, grid.n_s + 1, grid.n_x + 1))
    values[n_t % len(values)] = contract.G(s_grid)[:, None]
    seed = np.broadcast_to(_cell_average(contract.survival_payoff, s_grid)[:, None],
                           SS.shape)
    # the coefficient, mortality and payoff families take no t: one operator,
    # one factorization and one killing factor serve every step
    aa = c.factor.a(XX)
    drift = c.martingale_factor_drift(XX, aa, c.market_price_of_risk(XX))
    mixed = None if c.rho == 0.0 else _mixed_term(c.sigma0, aa, SS, c.rho, s_grid, x_grid)
    nnz, lo, hi = _march(values, n_t, _assemble_2d(s_grid, x_grid, c.sigma0, aa, drift),
                         seed, T / n_t, c.gamma(XX), contract.U(SS), mixed)

    t_grid = np.linspace(0.0, T, n_t + 1)
    if not surface:
        values, t_grid = values[:1], t_grid[:1]
    # overshoot beyond [0, max(sup G, sup U)]; meaningful for bounded payoffs
    bound = max(float(np.max(contract.G(s_grid))), float(np.max(contract.U(s_grid))))
    gap = max(0.0, -lo) + max(0.0, hi - bound)
    return PdeSolution(kind="sx", t_grid=t_grid, values=values, s_grid=s_grid,
                       x_grid=x_grid, max_principle_gap=gap, factor_nnz=nnz)


def _solve_1d(config: ScenarioConfig, grid, terminal_payoff, terminal_seed,
              diff_coef, drift, gamma, source, surface: bool):
    """Shared backward march for the 1D problems: the 2D problem's stencil
    and march on one axis.  The coefficients are arrays over the grid or
    scalars: no family takes t.  Returns the values (every slice, or with
    ``surface=False`` the t = 0 slice alone from a two-slice ring) and the
    factor's fill."""
    n_t = config.n_steps
    values = np.empty((n_t + 1 if surface else 2, len(grid)))
    values[n_t % len(values)] = terminal_payoff
    nnz, _, _ = _march(values, n_t, _operator(_axis_stencil(grid, diff_coef, drift, axis=0)),
                       terminal_seed, config.contract.maturity / n_t, gamma, source)
    return (values if surface else values[:1]), nnz


def solve_gtilde(config: ScenarioConfig, surface: bool = True) -> PdeSolution:
    """Solve the 1D survival-benefit price: dg/dt + s^2 sigma^2 g_ss / 2 = 0.

    ``surface=False`` keeps the t = 0 slice alone, as in ``solve_g``."""
    grid = config.pde_grid
    c = config.coefficients
    payoff = config.contract.survival_payoff
    s_grid = stretched_s_grid(grid.n_s, grid.s_max, payoff.strike)
    values, nnz = _solve_1d(
        config, s_grid,
        terminal_payoff=payoff(s_grid),
        terminal_seed=_cell_average(payoff, s_grid),
        diff_coef=0.5 * (c.sigma0 * c.sigma0) * s_grid**2,
        drift=0.0,
        gamma=0.0,
        source=0.0,
        surface=surface,
    )
    return PdeSolution(kind="s", t_grid=config.t_grid()[:len(values)], values=values,
                       s_grid=s_grid, factor_nnz=nnz)


def solve_phi(config: ScenarioConfig, surface: bool = True) -> PdeSolution:
    """Solve the survival transform: dPhi/dt + b Phi_x + a^2 Phi_xx / 2 = gamma Phi.

    Phi(t, X_t) is the conditional expectation of exp(-int_t^T gamma) given
    the factor filtration; the factor keeps its physical drift (the solve is
    used in the uncorrelated setting where the measure change leaves the
    factor dynamics unchanged).  ``surface=False`` keeps the t = 0 slice
    alone, as in ``solve_g``.
    """
    grid = config.pde_grid
    c = config.coefficients
    x_grid = np.linspace(grid.x_min, grid.x_max, grid.n_x + 1)
    ones = np.ones_like(x_grid)
    values, nnz = _solve_1d(
        config, x_grid,
        terminal_payoff=ones,
        terminal_seed=ones,
        diff_coef=0.5 * c.factor.a(x_grid) ** 2,
        drift=c.factor.b(x_grid),
        gamma=c.gamma(x_grid),
        source=0.0,
        surface=surface,
    )
    return PdeSolution(kind="x", t_grid=config.t_grid()[:len(values)], values=values,
                       x_grid=x_grid, factor_nnz=nnz)


# ---------------------------------------------------------------------------
# Feynman-Kac cross-check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProbeResult:
    t: float
    s: float
    x: float
    pde_value: float
    mc_value: float
    mc_se: float
    z: float


def feynman_kac_check(config: ScenarioConfig, solution: PdeSolution, probes,
                      n_mc: int = 20000) -> list[ProbeResult]:
    """Compare PDE values against the stochastic representation at probe points.

    Each probe (t, s, x) starts a martingale-measure Monte Carlo on the
    remaining grid and accumulates the survival-discounted terminal benefit
    plus the death-benefit stream; the report carries a z-score per probe.
    """
    contract = config.contract
    c = config.coefficients
    out = []
    for probe_id, (t0, s0, x0) in enumerate(probes):
        k0 = solution.time_index(t0)
        n_rem = config.n_steps - k0
        pde_val = float(solution.value(k0, s=np.array([s0]), x=np.array([x0]))[0])
        if n_rem == 0:
            mc, se = float(contract.G(np.array([s0]))[0]), 0.0
        else:
            gen = rng.stream(config.seed, rng.PROBE, probe_id)
            root_dt = np.sqrt(config.dt)
            dW = root_dt * gen.standard_normal((n_mc, n_rem))
            dB = root_dt * gen.standard_normal((n_mc, n_rem))
            S, X = advance_market(config, dW, dB, "P_hat", s_init=s0, x_init=x0)
            gam = c.gamma(X)
            disc = np.exp(-cumulative_hazard(gam.copy(), config.dt))
            payoff = disc[:, -1] * contract.G(S[:, -1])
            integrand = disc * contract.U(S) * gam
            payoff = payoff + np.trapezoid(integrand, dx=config.dt, axis=1)
            mc = float(payoff.mean())
            se = float(payoff.std(ddof=1) / np.sqrt(n_mc))
        z = (mc - pde_val) / se if se > 0 else 0.0
        out.append(ProbeResult(t=t0, s=s0, x=x0, pde_value=pde_val,
                               mc_value=mc, mc_se=se, z=z))
    return out
