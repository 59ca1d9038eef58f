"""Finite-difference solvers for linear and indifference prices under
liquidity shocks.

The buyer's per-contract indifference price pair (p, q) solves, in log-price
z = ln S with L = (sigma0^2/2)(d_zz - d_z),

    p_t + L p + (nu01/g) (F1/F0)(t) (1 - e^{-g (q - p)}) = 0,
    q_t +       (nu10/g) (F0/F1)(t) (1 - e^{-g (p - q)}) = 0,
    p(T,.) = q(T,.) = h,

with g = n * gamma for n contracts (utility scaling folds quantity into risk
aversion, so the march always works per contract with the unit payoff).  The
writer's system is the same under g -> -g.  Constants solve both systems
exactly, and the discrete scheme below preserves that.

Scheme: backward Euler in time on a uniform grid, implicit and linearized in
p (one tridiagonal solve per step, exponential linearized at the known
level), followed by an exact integrating-factor update for q written in the
difference variable v = q - p so that all exponentials act on bounded
differences.  Space steps are tied to time steps by
dz^2 = sigma^2 dt + (sigma^2 dt / 2)^2, and the payoff kink is kept midway
between nodes so that digital terminal data carry no placement bias.
Boundaries impose linearity in S (p_SS = 0) by folding the ghost node into
the end rows, exact for the far fields of every supported payoff.

Every step of every march is one call of LAPACK ``dgtsv`` on a stack of
B right-hand sides: one block per contract for the indifference and
single-shock marches, two for the linear pass that marches the MMM price
next to the expansion's MEMM zeroth order, and one otherwise.  The
stack is a single tridiagonal system of B*M unknowns whose couplings
between neighbouring blocks are exactly zero.  At a zero coupling
``dgtsv``'s partial pivoting never swaps rows across the block boundary,
its elimination factor into the next block is 0, and its back-substitution
subtracts 0 * x; so each block goes through the same floating-point
operations as a solve of that block alone and its result is bit-identical
to it.

The small-gamma limit of the indifference price is the linear price
under the minimal entropy martingale measure (MEMM), whose switch
intensities are the market ones tilted by the valuation-factor ratio; the
minimal martingale measure (MMM) leaves them unchanged.  ``linear_price``
marches one measure; ``mmm_and_expansion`` marches the MMM price beside
the MEMM expansion, whose zeroth order is the MEMM price, so one pass
gives both prices and their spread.

One backward march, ``_march``, owns the time loop and the surfaces for
every march: the indifference system, the linear prices, the first-order
expansion in gamma, and the single-shock variant, whose source integral is
a cumulative Simpson rule over Black-Scholes rows, each block of rows
computed once and integrated as the march reaches it, so no march of
``price`` holds an (N + 1) x M table.  Each solve hands it only its
per-step update; the expansion step reuses the linear one for its zeroth
order, and every march with switch intensities (linear, expansion and
indifference) takes them from ``model.intensity_curve``.  A march stores
only the time rows it is asked to ``keep`` (all of them by default), so a
quote at t = 0 holds one row per surface instead of N + 1; every surface
names its stored rows, as the tuple ``PriceSurface.keep``.
The two semi-linear marches, indifference and single-shock, take their
linearized source step through one helper, ``_source_step``; each
assembles its own slope kappa of the source.
The single-shock march solves its first step, the one that leaves the
kinked terminal payoff, to convergence by repeating the linearization
(Newton): a single linearized step there overstates the source next to the
strike and lifts the buyer price above its gamma -> 0 limit.

Every march keeps its rows flat: the B blocks of a stack are one
contiguous row of B*M nodes, the layout ``dgtsv`` solves, and the march
stores each kept row into its (B, rows, M) surface through a reshape.
``_march`` owns the rows a step writes: two flat buffers per surface,
allocated once per march and handed to steps i and i + 1 in turn.  Each
march allocates its own scratch rows once, and its step writes into them
and into its output rows with in-place ufuncs (``out=``), in the operand
order of the plain expressions each step spells out in its comments, so
every surface is bit-identical to an allocating step.  At grid sizes
like the default a numpy call costs about as much in dispatch as in
arithmetic, and a broadcast column costs more to dispatch than a flat
row.  So every operand a step takes is a full row or a scalar:
gamma_eff and the end-row folds as full rows built once per march, dt
and the diagonal's base value as 0-d arrays, a per-step per-block factor
as a full row spread from its table a chunk of steps at a time
(``_block_rows``), and a per-step scalar as the Python float it is.
Only the exponent guard and the single-shock source rows take (B, M)
views, persistent ones of the flat scratch.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv

from . import bs as _bs
from .errors import (NumericalError, check_count, check_integer,
                     check_regime, check_scalar)
from .model import ModelParams, Payoff, intensity_curve, single_shock_factors
# Unused here; stays bound because perfbench/spans.py patches it by name.
from .model import merton_factors  # noqa: F401

__all__ = [
    "GridSpec",
    "PriceSurface",
    "LinearPriceResult",
    "AsymptoticBundle",
    "HedgeReport",
    "linear_price",
    "mmm_and_expansion",
    "solve_indifference",
    "solve_buyer",
    "solve_writer",
    "solve_single_shock",
    "single_shock_zero_order",
    "hedge_report",
]

# Hard cap on any exponent fed to exp(); beyond this the computation aborts
# rather than clamp (a clamped exponential silently changes the equation).
_EXP_CAP = 700.0

# Newton on an exponential source lowers an overshooting exponent by about
# one per iteration, and exponents never exceed _EXP_CAP, so the first
# single-shock step converges well within this many iterations; the update
# counts as converged at a few ulps of the price scale.
_FIRST_STEP_MAX_ITER = 1000
_ROUNDING = 4.0 * np.finfo(float).eps

# Time rows of the single-shock source tables integrated at a time (even),
# and about as many Black-Scholes rows computed at a time: large enough
# that the per-block calls cost little against the march, small enough
# that the tables stay O(B * M).
_SOURCE_CHUNK = 32

# Time rows of a per-block factor spread to full rows at a time.
_ROW_CHUNK = 32

_DEFAULT_N_TIME = 2000
_DEFAULT_WIDTH = 6.0

# Smallest |gamma_eff| a semi-linear march accepts.  Each step subtracts two
# 1/gamma_eff terms that cancel, leaving about 1e-17 / |gamma_eff| of
# rounding: on the default grid 2e-12 at 1e-6, 2.4e-8 at 1e-10 and 3.9e-5
# at 1e-12 against p0 + gamma_eff * p1.
_GAMMA_EFF_FLOOR = 1e-6


def _check_exponent(x: np.ndarray, what: str,
                    gamma_eff: np.ndarray) -> None:
    """Refuse an exponent beyond _EXP_CAP in a stack of blocks, one entry
    of ``gamma_eff`` per block; the message names the first offending
    block's gamma_eff."""
    ms = np.max(np.abs(x).reshape(len(gamma_eff), -1), axis=1)
    bad = np.flatnonzero(~(ms <= _EXP_CAP))
    if bad.size:
        b = bad[0]
        raise NumericalError(
            f"exponent guard tripped: |{what}| reached {float(ms[b]):.6g} > "
            f"{_EXP_CAP:.0f} at gamma_eff = {float(gamma_eff[b]):.6g}; the "
            "requested risk aversion / quantity / payoff scale is outside the "
            "representable range of the scheme")


def _guard_exponent(x: np.ndarray, buf: np.ndarray, what: str,
                    gamma_eff: np.ndarray) -> None:
    """The march steps' ``_check_exponent``: one abs into the scratch
    ``buf`` (x's shape) and one max, a bare ``maximum.reduce`` (NaN
    propagates, as through ``max``).  Only a tripped guard (max beyond
    _EXP_CAP, infinite or NaN) runs the full check, which raises with its
    message and block."""
    if not np.maximum.reduce(np.abs(x, out=buf), None) <= _EXP_CAP:
        _check_exponent(x, what, gamma_eff)


def _cumulative_simpson_chunks(f, n: int, dx: float, chunk: int):
    """Cumulative Simpson integral, on a uniform step ``dx`` and starting
    from 0, of the table of n + 1 rows (n >= 1) whose rows lo .. hi - 1 are
    ``f(lo, hi)``: yields rows 1 .. n in ascending blocks of at most
    ``chunk`` rows (``chunk`` even).

    ``f`` is asked for every row exactly once, in adjacent ascending
    ranges, at most one call per block: a block reads the last three rows
    of the one before again, and those are kept rather than asked for
    twice.  So ``f`` may compute its rows as it is asked for them, and only
    about ``chunk`` rows of the table are held at once.

    The same arithmetic as scipy's ``cumulative_simpson(y, dx=dx, axis=0,
    initial=0.0)`` (scipy 1.17, equal intervals): interval [j, j + 1]
    takes the h1 formula d/3 (5 f_j/4 + 2 f_{j+1} - f_{j+2}/4) at even j
    and the h2 formula d/3 (5 f_{j+1}/4 + 2 f_j - f_{j-1}/4) at odd j and
    on the last interval (both formulas read the same three rows), and the
    sub-integrals are summed in order, each block continuing from the last
    row of the one before; two rows take the trapezoid rule, as in scipy.
    So every block is bit-identical to the same rows of the whole table,
    whatever ``chunk`` is.
    """
    if n == 1:
        y = f(0, 2)
        yield (dx * (y[1] + y[0]) / 2.0)[None]
        return
    d = dx / 3

    def simpson(out, y0, y1, y2):
        """out = d * (5 * y0 / 4 + 2 * y1 - y2 / 4), rounded as written,
        with ``tmp`` as scratch."""
        t = tmp[:len(out)]
        np.multiply(5, y0, out=out)
        np.divide(out, 4, out=out)
        np.add(out, np.multiply(2, y1, out=t), out=out)
        np.subtract(out, np.divide(y2, 4, out=t), out=out)
        np.multiply(d, out, out=out)

    acc = None
    for a in range(0, n, chunk):            # chunk is even, so a is even
        b = min(a + chunk, n)               # this block's intervals a .. b - 1
        hi = min(b + 2, n + 1)              # this block reads rows lo .. hi - 1
        if a == 0:
            rows = f(0, hi)
            # The rows a block reads, and scratch, allocated once: a block's
            # large temporaries would make the allocator return and fault
            # in the same pages again block after block.
            buf = np.empty((chunk + 3,) + rows.shape[1:])
            tmp = np.empty((chunk // 2 + 1,) + rows.shape[1:])
            y = buf[:hi]
            y[...] = rows
        else:
            # Rows a - 1 .. a + 1, the last three the block before read; a
            # lone last interval needs no new row.
            buf[:3] = y[-3:]
            y = buf[:3 + hi - (a + 2)]
            if hi > a + 2:
                y[3:] = f(a + 2, hi)
        lo = max(a - 1, 0)                  # a lone last interval reads row a - 1
        o, m = a - lo, b - a
        # h1 on the even intervals but the table's last one, h2 on the rest.
        ne = (m + 1) // 2 - int(b == n and m % 2 == 1)
        sub = np.empty((m,) + y.shape[1:])
        simpson(sub[0:2 * ne:2], y[o:o + 2 * ne:2], y[o + 1:o + 2 * ne + 1:2],
                y[o + 2:o + 2 * ne + 2:2])
        simpson(sub[1::2], y[o + 2:o + m + 1:2], y[o + 1:o + m:2],
                y[o:o + m - 1:2])
        if b == n:
            simpson(sub[-1:], y[-1:], y[-2:-1], y[-3:-2])
        if acc is not None:
            sub[0] += acc
        np.cumsum(sub, axis=0, out=sub)
        acc = sub[-1]
        yield sub


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid in (t, z = ln S).

    n_time  : number of time steps N (the grid has N + 1 time rows)
    n_space : number of space nodes M, at z_min + j * delta_z

    ``z_max``, the last node, is derived from the other fields.
    """

    n_time: int
    n_space: int
    z_min: float
    delta_t: float
    delta_z: float

    def __post_init__(self) -> None:
        check_count("n_time", self.n_time, 1)
        check_count("n_space", self.n_space, 3)
        if not math.isfinite(self.z_min):
            raise ValueError(f"z_min must be finite, got {self.z_min}")
        if not (self.delta_t > 0.0 and self.delta_z > 0.0):
            raise ValueError("grid steps must be positive")
        if not self.delta_t < math.inf:
            raise ValueError(f"delta_t must be finite, got {self.delta_t}")
        if self.delta_z >= 2.0:
            # The upwind-free discretization of -p_z keeps both off-diagonal
            # signs only for dz < 2; coarser grids are rejected outright.
            raise ValueError(f"delta_z must be < 2, got {self.delta_z}")

    @property
    def z_max(self) -> float:
        """The last space node, the same sum as the last of ``z_nodes``."""
        return self.z_min + (self.n_space - 1) * self.delta_z

    @staticmethod
    def build(params: ModelParams, strike: float, n_time: int = _DEFAULT_N_TIME,
              width: float = _DEFAULT_WIDTH) -> "GridSpec":
        """Strike-centered grid covering ln K +- width * sigma0 * sqrt(T).

        The strike log-price is placed exactly midway between two nodes, so
        discontinuous terminal data are sampled symmetrically around the
        kink; the midpoint alignment is preserved when n_time is scaled,
        which keeps convergence ladders clean.
        """
        if not (math.isfinite(strike) and strike > 0.0):
            raise ValueError(f"strike must be positive, got {strike}")
        check_count("n_time", n_time, 1)
        if not width > 0.0:
            raise ValueError(f"width must be > 0, got {width}")
        dt = params.T / n_time
        s2dt = params.sigma0 * params.sigma0 * dt
        dz = math.sqrt(s2dt + 0.25 * s2dt * s2dt)
        zk = math.log(strike)
        half = width * params.sigma0 * math.sqrt(params.T)
        m = half / dz - 0.5
        # n_space = 2m + 2 must stay below sys.maxsize, numpy's largest size.
        if not m < sys.maxsize // 2 - 1:
            raise ValueError(f"width = {width} needs more space nodes than an "
                             "array can hold")
        m = max(1, math.ceil(m))
        z_min = zk - (m + 0.5) * dz
        if not z_min + (2 * m + 1) * dz < math.log(sys.float_info.max):
            raise ValueError(f"strike = {strike} puts the grid's largest spot "
                             "beyond the largest double")
        return GridSpec(n_time=n_time, n_space=2 * m + 2, z_min=z_min,
                        delta_t=dt, delta_z=dz)

    def times(self) -> np.ndarray:
        return np.arange(self.n_time + 1) * self.delta_t

    def z_nodes(self) -> np.ndarray:
        return self.z_min + np.arange(self.n_space) * self.delta_z

    def spot_nodes(self) -> np.ndarray:
        return np.exp(self.z_nodes())

    def log_spots(self, spot) -> np.ndarray:
        """ln S of each spot; refuses (ValueError) a spot that is not
        positive and finite or lies outside the grid domain."""
        s = np.asarray(spot, dtype=float)
        _bs.check_spot(s)
        z = np.log(s)
        outside = (z < self.z_min) | (z > self.z_max)
        if np.any(outside):
            raise ValueError(
                f"spot {float(s[outside][0])} outside the grid domain "
                f"[{math.exp(self.z_min):.6g}, {math.exp(self.z_max):.6g}]")
        return z


def _kept_rows(grid: GridSpec, keep) -> tuple[int, ...]:
    """Sorted distinct time-row indices from a sequence of them; ``None``
    names every row.  An entry that is not an integer (a bool included) is
    refused by value."""
    if keep is None:
        return tuple(range(grid.n_time + 1))
    rows = sorted({check_integer("keep row", i) for i in keep})
    if not rows:
        raise ValueError("keep must name at least one time row")
    if rows[0] < 0 or rows[-1] > grid.n_time:
        bad = rows[0] if rows[0] < 0 else rows[-1]
        raise ValueError(
            f"keep row {bad} is not a time row of the grid (0 .. {grid.n_time})")
    return tuple(rows)


@dataclass(frozen=True)
class PriceSurface:
    """Per-contract price surface on a GridSpec.

    ``values[k, j]`` is the price at the k-th stored time row and log-price
    z_min + j * delta_z.  ``keep`` is the tuple of the grid time indices of
    the stored rows, strictly ascending in the order of ``values`` (anything
    else is refused).  Constructed with ``keep=None``, a surface stores every
    row and ``keep`` becomes (0, 1, .., N), so ``values[i]`` is the row at
    calendar time i * delta_t.  ``regime`` tags which regime the surface
    quotes (0: tradeable regime, 1: shock regime).
    """

    values: np.ndarray
    grid: GridSpec
    regime: int
    keep: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        keep = _kept_rows(self.grid, self.keep)
        if self.keep is not None and keep != tuple(self.keep):
            raise ValueError(
                f"keep must list distinct time rows in ascending order, "
                f"got {self.keep!r}")
        object.__setattr__(self, "keep", keep)
        expected = (len(keep), self.grid.n_space)
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")
        check_regime("regime", self.regime)

    def _row_index(self, t: float) -> int:
        check_scalar("t", t)
        x = t / self.grid.delta_t
        # A non-finite x has no nearest integer; -1 is refused below.
        i = round(x) if math.isfinite(x) else -1
        if i < 0 or i > self.grid.n_time or abs(x - i) > 1e-6:
            raise ValueError(
                f"t={t} is not a grid time (delta_t={self.grid.delta_t})")
        k = bisect_left(self.keep, i)
        if k == len(self.keep) or self.keep[k] != i:
            raise ValueError(
                f"t={t} is not a stored row of this surface (it keeps "
                f"{len(self.keep)} of {self.grid.n_time + 1} time rows)")
        return k

    def row(self, t: float) -> np.ndarray:
        """Price profile over z at grid time t."""
        return self.values[self._row_index(t)]

    def _stencil(self, spot, t: float):
        """The three-node read of the row at t behind ``quote`` and
        ``delta``: each spot's offset x = z - z_j from its nearest interior
        node j, the value p_j there, and the differences p_{j+1} - p_{j-1}
        and p_{j+1} - 2 p_j + p_{j-1}."""
        row = self.row(t)
        z = self.grid.log_spots(spot)
        j = np.rint((z - self.grid.z_min) / self.grid.delta_z).astype(int)
        j = np.clip(j, 1, self.grid.n_space - 2)
        x = z - (self.grid.z_min + j * self.grid.delta_z)
        pm, p0, pp = row[j - 1], row[j], row[j + 1]
        return x, p0, pp - pm, pp - 2.0 * p0 + pm

    def quote(self, spot, t: float = 0.0):
        """Price at (t, spot); quadratic interpolation on the three nearest
        nodes.  Vectorized over spot."""
        x, p0, d1, d2 = self._stencil(spot, t)
        dz = self.grid.delta_z
        return p0 + x * d1 / (2.0 * dz) + 0.5 * x * x * d2 / (dz * dz)

    def delta(self, spot, t: float = 0.0):
        """dP/dS at (t, spot) from the same local quadratic, divided by S."""
        x, _, d1, d2 = self._stencil(spot, t)
        dz = self.grid.delta_z
        return (d1 / (2.0 * dz) + x * d2 / (dz * dz)) / np.asarray(spot, dtype=float)


def _block_rows(table: np.ndarray, m: int):
    """Rows n - 1, n - 2, .., 0 of a per-step, per-block table of shape
    (n + 1, B, 1), each spread over its blocks to one flat row of B * M
    nodes, in the order a march steps.  _ROW_CHUNK rows are spread at a
    time by one broadcast copy, which costs a step less than broadcasting
    its (B, 1) column over a (B, M) view would."""
    n_rows, blocks = table.shape[:2]
    buf = np.empty((min(_ROW_CHUNK, n_rows - 1), blocks, m))
    rows = buf.reshape(len(buf), -1)
    for hi in range(n_rows - 1, 0, -_ROW_CHUNK):
        lo = max(hi - _ROW_CHUNK, 0)
        np.copyto(buf[:hi - lo], table[lo:hi])
        yield from rows[hi - lo - 1::-1]


def _const(v: float) -> np.ndarray:
    """A per-march constant as a 0-d array: as an operand of an in-place
    ufunc on a flat row it dispatches faster than a Python float, a
    one-element column or a full row."""
    return np.array(v, dtype=float)


class _Stepper:
    """One implicit step of v -> (1 - dt L + dt kappa) v = rhs with
    L = (sigma^2/2)(d_zz - d_z) and linear-in-S end conditions (p_SS = 0)
    folded into the first and last rows, for a stack of ``blocks``
    independent right-hand sides solved by one LAPACK ``dgtsv`` call.

    Linearity is imposed in the price variable S = e^z, not in z: ghost
    values are p_ghost = (1 + e^{+-dz}) p_end - e^{+-dz} p_next, exact for
    any function affine in S.  That covers the true far fields of every
    supported payoff (vanilla ~ affine in S deep in the money, approaching
    0 or K elsewhere; digitals approach constants); linearity in z would
    instead flatten the vanilla call's e^z growth and leak an O(1) error
    layer in from the upper boundary.

    The stack is one block-diagonal tridiagonal system whose couplings
    between neighbouring blocks are exactly zero (see the module
    docstring for why each block's solution is then bit-identical to a
    solve of that block alone).

    The diagonal is one flat row of B*M nodes, allocated once per march,
    the layout ``dgtsv`` solves.  Each solve refills it in place from the
    base value and dt * kappa, then adds the end-row folds as one full row
    that is zero away from each block's two end nodes (x + 0.0 is x), in
    the operand order of a plain assembly."""

    def __init__(self, grid: GridSpec, sigma0: float, blocks: int = 1):
        a_coef = 0.5 * sigma0 * sigma0 * grid.delta_t
        dz = grid.delta_z
        sub = -a_coef * (1.0 / (dz * dz) + 1.0 / (2.0 * dz))
        sup = -a_coef * (1.0 / (dz * dz) - 1.0 / (2.0 * dz))
        self._diag0 = _const(1.0 + 2.0 * a_coef / (dz * dz))
        m = grid.n_space
        # One block's off-diagonals padded to length m; the pad is the zero
        # coupling to the next block and is cut off after the last block.
        lower = np.full(m, sub)
        lower[m - 2] = sub - sup * math.exp(dz)       # folded last row
        lower[m - 1] = 0.0
        upper = np.full(m, sup)
        upper[0] = sup - sub * math.exp(-dz)          # folded first row
        upper[m - 1] = 0.0
        self._dl = np.tile(lower, blocks)[:-1]
        self._du = np.tile(upper, blocks)[:-1]
        folds = np.zeros(m)
        folds[0] = sub * (1.0 + math.exp(-dz))
        folds[m - 1] = sup * (1.0 + math.exp(dz))
        self._folds = np.tile(folds, blocks)
        self._d = np.empty(blocks * m)

    def solve(self, dt_kappa, rhs: np.ndarray) -> np.ndarray:
        """Solve one implicit step in place of ``rhs``, a flat row of B*M
        nodes; ``dt_kappa`` is dt * kappa (a scalar or a flat row,
        nonnegative for a well-posed step).  Returns the solution."""
        np.add(self._diag0, dt_kappa, out=self._d)
        np.add(self._d, self._folds, out=self._d)
        _, _, _, x, info = dgtsv(self._dl, self._d, self._du, rhs,
                                 overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise NumericalError(
                f"tridiagonal step is singular (LAPACK dgtsv info = {info}); "
                "the step coefficients are outside the range the scheme "
                "supports")
        return x


def _march(grid: GridSpec, terminal: tuple[np.ndarray, ...], step,
           keep: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Backward march from the terminal rows; ``step(i, rows, out)``
    returns the rows at time i from those at time i + 1, written into
    ``out`` (one flat row per surface) or into rows of its own.

    The steps see every row flat: a (B, M) terminal row of B blocks is
    marched as one contiguous row of B * M nodes.  The march owns the rows
    a step writes: two flat buffers per surface, allocated once, that steps
    i and i + 1 take in turn, so a step reads the rows it was given while
    it writes the new ones, and the rows it returns stay valid through the
    next step.  Only the time rows listed in ``keep``, a ``_kept_rows``
    result, are stored.  Each surface is allocated once in
    its final layout: a terminal row of shape (..., M) gives a surface of
    shape (..., len(keep), M), so a (B, M) stack of contracts gives a
    (B, len(keep), M) stack, and every kept row is stored where it
    belongs, through a reshape, as soon as it is computed.
    """
    n = grid.n_time
    slot = [-1] * (n + 1)
    for k, i in enumerate(keep):
        slot[i] = k
    surfaces = tuple(np.empty(row.shape[:-1] + (len(keep), row.shape[-1]))
                     for row in terminal)
    # Time-major views of the same memory: storing a row is one plain index.
    by_time = [np.moveaxis(surf, -2, 0) for surf in surfaces]
    if slot[n] >= 0:
        for surf, row in zip(by_time, terminal):
            surf[slot[n]] = row
    rows = tuple(row.reshape(-1) for row in terminal)
    # outs[0] and outs[1]: one row of each surface's buffer pair.
    outs = list(zip(*(np.empty((2, row.size)) for row in rows)))
    for i in range(n - 1, -1, -1):
        rows = step(i, rows, outs[i & 1])
        k = slot[i]
        if k >= 0:
            for surf, row in zip(by_time, rows):
                surf[k] = row.reshape(surf.shape[1:])
    return surfaces


def _gamma_effs(params: ModelParams, quantities) -> tuple[list[float], np.ndarray]:
    """The signed quantities of a stacked solve as floats, and their
    gamma_eff = quantity * gamma; refuses an empty list and a gamma_eff
    that is not finite or is zero (ValueError), and one below
    _GAMMA_EFF_FLOOR in magnitude (NumericalError)."""
    ns = [float(n) for n in quantities]
    if not ns:
        raise ValueError("quantities must name at least one contract")
    gs = np.array([n * params.gamma for n in ns])
    if not np.all(np.isfinite(gs)) or np.any(gs == 0.0):
        raise ValueError(f"gamma_eff must be finite and nonzero, got {gs.tolist()}")
    tiny = np.flatnonzero(np.abs(gs) < _GAMMA_EFF_FLOOR)
    if tiny.size:
        raise NumericalError(
            f"gamma_eff = {gs[tiny[0]]:.6g} is below {_GAMMA_EFF_FLOOR:g} in "
            "magnitude, where the march's two 1/gamma_eff terms cancel to "
            "rounding of about 1e-17 / |gamma_eff|; mmm_and_expansion's "
            "p0 + gamma_eff * p1 is accurate to O(gamma_eff^2) there")
    return ns, gs


def _switch_rates(params: ModelParams, measure: str,
                  grid: GridSpec) -> tuple[np.ndarray, list[float]]:
    """nu01(t_i) on the grid's time rows and the shock-exit weights
    w_i = e^{-nu10(t_i) dt}, from one evaluation of the measure's
    ``model.intensity_curve``."""
    nu01_t, nu10_t = intensity_curve(params, measure).rates(grid.times())
    dt = grid.delta_t
    # math.exp, not np.exp: the weights must round as a scalar step's do.
    return nu01_t, [math.exp(-v * dt) for v in nu10_t.tolist()]


def _source_step(stepper: _Stepper, dt: np.ndarray, g: np.ndarray, c,
                 kappa: np.ndarray, p_old: np.ndarray, p_lin: np.ndarray,
                 out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """One implicit step of a semi-linear march whose exponential source is
    linearized at ``p_lin`` with slope ``kappa``: solves
    (1 - dt L + dt kappa) p = p_old + dt (c - kappa / g + kappa p_lin) in
    place of ``out``, with ``tmp`` as scratch, and returns p."""
    rhs = np.divide(kappa, g, out=out)
    np.subtract(c, rhs, out=rhs)
    np.add(rhs, np.multiply(kappa, p_lin, out=tmp), out=rhs)
    np.multiply(dt, rhs, out=rhs)
    np.add(p_old, rhs, out=rhs)
    return stepper.solve(np.multiply(dt, kappa, out=tmp), rhs)


def solve_indifference(params: ModelParams, payoff: Payoff, grid: GridSpec,
                       quantities, keep=None) -> list[tuple[PriceSurface, PriceSurface]]:
    """Per-contract indifference surfaces (p, q), one pair per signed
    quantity (positive: buyer, negative: writer), marched in one pass.

    Quantity scales risk aversion (gamma_eff = quantity * gamma), so
    terminal data are exact; ``payoff`` supplies kind and strike.  The
    contracts are one stack of blocks, one per quantity, and every pair is
    bit-identical to a solve of that quantity alone.  ``keep`` lists the
    time-row indices to store (default: all); the march holds
    2 * len(quantities) surfaces of that many rows.
    """
    _, gs = _gamma_effs(params, quantities)
    keep = _kept_rows(grid, keep)
    nu01_t, w_t = _switch_rates(params, "MEMM", grid)
    blocks, m = gs.size, grid.n_space
    dt = _const(grid.delta_t)
    stepper = _Stepper(grid, params.sigma0, blocks)
    g = np.repeat(gs, m)                # each node's gamma_eff
    nu01_over_g = _block_rows(nu01_t[:, None, None] / gs[:, None], m)
    nu01_t = nu01_t.tolist()
    # Scratch: two temporaries with (B, M) views for the guard.
    h = np.tile(payoff.value(grid.spot_nodes()), (blocks, 1))
    a, b = np.empty((2, h.size))
    a_blocks, b_blocks = a.reshape(h.shape), b.reshape(h.shape)

    def step(i: int, rows, out):
        p, q = rows
        p_out, q_out = out
        # x = g (p - q) is -g (q - p) but for the sign of an exact zero,
        # which exp and the guard do not see.
        x = np.subtract(p, q, out=a)
        np.multiply(g, x, out=x)
        _guard_exponent(a_blocks, b_blocks, "gamma_eff * (q - p)", gs)
        kappa = np.exp(x, out=x)
        np.multiply(nu01_t[i], kappa, out=kappa)
        # The source's 1/g constant is nu01 / g; linearized at p itself.
        p = _source_step(stepper, dt, g, next(nu01_over_g), kappa, p, p,
                         p_out, b)
        # q = p - log1p(w expm1(-g (q - p))) / g
        y = np.subtract(p, q, out=a)
        np.multiply(g, y, out=y)
        _guard_exponent(a_blocks, b_blocks, "gamma_eff * (q - p)", gs)
        np.expm1(y, out=y)
        np.multiply(w_t[i], y, out=y)
        np.log1p(y, out=y)
        np.divide(y, g, out=y)
        return p, np.subtract(p, y, out=q_out)

    p, q = _march(grid, (h, h), step, keep)
    return [(PriceSurface(p_n, grid, 0, keep), PriceSurface(q_n, grid, 1, keep))
            for p_n, q_n in zip(p, q)]


def solve_buyer(params: ModelParams, payoff: Payoff, grid: GridSpec,
                keep=None) -> tuple[PriceSurface, PriceSurface]:
    """Per-contract buyer indifference surfaces (p, q) for payoff.quantity
    contracts; quantity scales risk aversion, so terminal data are exact."""
    n = payoff.quantity
    if n <= 0.0:
        raise ValueError(f"buyer solve requires quantity > 0, got {n}")
    return solve_indifference(params, payoff, grid, [n], keep)[0]


def solve_writer(params: ModelParams, payoff: Payoff, grid: GridSpec,
                 keep=None) -> tuple[PriceSurface, PriceSurface]:
    """Per-contract writer indifference surfaces for |payoff.quantity|
    contracts; the writer system is the buyer system under gamma -> -gamma."""
    return solve_indifference(params, payoff, grid, [-abs(payoff.quantity)],
                              keep)[0]


@dataclass(frozen=True)
class LinearPriceResult:
    """Linear price surfaces (per contract) under one pricing measure."""

    surface_p: PriceSurface
    surface_q: PriceSurface
    grid: GridSpec

    def quote(self, spot, regime: int = 0, t: float = 0.0):
        regime = check_regime("regime", regime)
        surf = self.surface_p if regime == 0 else self.surface_q
        return surf.quote(spot, t)


def _linear_result(p: np.ndarray, q: np.ndarray, grid: GridSpec,
                   keep) -> LinearPriceResult:
    return LinearPriceResult(surface_p=PriceSurface(p, grid, 0, keep),
                             surface_q=PriceSurface(q, grid, 1, keep),
                             grid=grid)


def _linear_step(params: ModelParams, grid: GridSpec,
                 measures: tuple[str, ...], stepper: _Stepper):
    """Step of the linear (p, q) system, one block per measure ('MMM' or
    'MEMM') of a flat stack of B blocks, with the intensities of
    ``model.intensity_curve``.

    Returns ``(step, dt_k01, w)``: ``step(i, rows, out)`` is a ``_march``
    step of the rows (p, q) (called once per i, from N - 1 down to 0), and
    ``dt_k01[i]`` and ``w[i]`` (shape (B, 1)) hold each block's
    dt * nu01(t_i) and shock-exit weight w = e^{-nu10(t_i) dt}, which the
    expansion step reuses; the step takes both as full rows
    (``_block_rows``).
    """
    blocks, m = len(measures), grid.n_space
    dt_k01 = np.empty((grid.n_time + 1, blocks, 1))
    w = np.empty_like(dt_k01)
    for b, measure in enumerate(measures):
        nu01_t, w_t = _switch_rates(params, measure, grid)
        dt_k01[:, b, 0] = grid.delta_t * nu01_t
        w[:, b, 0] = w_t
    k_rows, w_rows = _block_rows(dt_k01, m), _block_rows(w, m)

    def step(i: int, rows, out):
        p, q = rows
        p_out, q_out = out
        k, w_i = next(k_rows), next(w_rows)
        # p_new solves with rhs p + k q; q_new = p_new + (q - p_new) w
        rhs = np.multiply(k, q, out=p_out)
        p_new = stepper.solve(k, np.add(p, rhs, out=rhs))
        q_new = np.subtract(q, p_new, out=q_out)
        np.multiply(q_new, w_i, out=q_new)
        return p_new, np.add(p_new, q_new, out=q_new)

    return step, dt_k01, w


def linear_price(params: ModelParams, payoff: Payoff, measure: str,
                 grid: GridSpec, keep=None) -> LinearPriceResult:
    """Linear price surfaces under 'MMM' or 'MEMM'.

    Linear pricing is per contract and independent of payoff.quantity.
    Terminal rows carry the payoff exactly; the tradeable-regime surface at
    intermediate times solves the implicit march of the coupled system.
    ``keep`` lists the time-row indices to store (default: all).
    """
    if measure not in ("MMM", "MEMM"):
        raise ValueError(f"measure must be 'MMM' or 'MEMM', got {measure!r}")
    keep = _kept_rows(grid, keep)
    step, _, _ = _linear_step(params, grid, (measure,),
                              _Stepper(grid, params.sigma0))
    h = payoff.value(grid.spot_nodes())
    p, q = _march(grid, (h, h), step, keep)
    return _linear_result(p, q, grid, keep)


@dataclass(frozen=True)
class AsymptoticBundle:
    """Zeroth- and first-order coefficient surfaces of the small-gamma
    expansion p = p0 + gamma_eff * p1 + O(gamma_eff^2) (per contract, unit
    payoff coefficients).  The surfaces do not depend on the quantity or on
    gamma: ``first_order_quote`` takes gamma_eff = quantity * gamma, whose
    sign picks the buyer (positive) or writer (negative) expansion."""

    p0: PriceSurface
    q0: PriceSurface
    p1: PriceSurface
    q1: PriceSurface

    def first_order_quote(self, spot, gamma_eff: float, t: float = 0.0):
        """p0 + gamma_eff * p1 at (t, spot); vectorized over spot."""
        return self.p0.quote(spot, t) + gamma_eff * self.p1.quote(spot, t)


def mmm_and_expansion(params: ModelParams, payoff: Payoff, grid: GridSpec,
                      keep=None) -> tuple[LinearPriceResult, AsymptoticBundle]:
    """The MMM linear price and the MEMM small-gamma expansion from one
    march.

    The expansion's zeroth order (p0, q0) is the linear MEMM price and
    (p1, q1) its first-order coefficients.  The MMM price and p0 share each
    step's tridiagonal solve (a two-block stack), so the MMM result is
    bit-identical to ``linear_price(..., "MMM", ...)`` and p0/q0 to
    ``linear_price(..., "MEMM", ...)``.

    The first-order update rules are the exact gamma-derivatives (at
    gamma = 0) of the nonlinear scheme's discrete update map, so
    p0 + gamma*p1 matches the marched nonlinear price to O(gamma^2) on the
    same grid -- the leftover is pure curvature with no discretisation
    cross-term.  Both coefficients stay <= 0 node by node (they measure the
    concave utility drag, which only subtracts value).

    Its steps square price differences, which the payoff's range on the
    grid bounds, so a payoff whose range squared overflows is refused
    before the march.  ``keep`` lists the time-row indices to store
    (default: all).
    """
    keep = _kept_rows(grid, keep)
    h = payoff.value(grid.spot_nodes())
    span = float(np.max(h) - np.min(h))
    if not math.isfinite(span * span):
        raise NumericalError(
            f"payoff range {span:.6g} on the grid squares beyond double "
            "precision; the payoff scale is outside the representable range "
            "of the first-order expansion")
    linear, dt_k01, w = _linear_step(params, grid, ("MMM", "MEMM"),
                                     _Stepper(grid, params.sigma0, 2))
    k_memm = dt_k01[:, 1, 0].tolist()
    w_memm = w[:, 1, 0].tolist()
    c_memm = [0.5 * w * (w - 1.0) for w in w_memm]
    half = _const(0.5)
    stepper = _Stepper(grid, params.sigma0)
    m = grid.n_space
    zero = np.zeros(m)
    a, b = np.empty_like(zero), np.empty_like(zero)

    def step(i: int, rows, out):
        p_lin, q_lin, p1, q1 = rows
        p_lin_new, q_lin_new = linear(i, (p_lin, q_lin), out[:2])
        # The MEMM block (the second) is the zeroth order p0, q0.
        p0, q0, p0_new = p_lin[m:], q_lin[m:], p_lin_new[m:]
        dt_k01, w = k_memm[i], w_memm[i]
        # Differentiate the nonlinear updates in gamma at gamma = 0.
        # p-step: source picks up -(1/2) v^2 plus the linearisation
        # cross-term v * (p0_new - p0), both at the known time level:
        # rhs = p1 + dt_k01 * (q1 - 0.5 * v**2 + v * (p0_new - p0)).
        v = np.subtract(q0, p0, out=a)
        rhs = np.square(v, out=out[2])
        np.multiply(half, rhs, out=rhs)
        np.subtract(q1, rhs, out=rhs)
        np.add(rhs, np.multiply(v, np.subtract(p0_new, p0, out=b), out=b),
               out=rhs)
        np.multiply(dt_k01, rhs, out=rhs)
        p1 = stepper.solve(dt_k01, np.add(p1, rhs, out=rhs))
        # q-step: relaxation of q1 toward p1 plus the second-order
        # term of the exact shock update, (1/2) w (w - 1) vin^2 <= 0:
        # q1 = p1 + (q1 - p1) * w + 0.5 * w * (w - 1.0) * vin**2.
        vin2 = np.square(np.subtract(q0, p0_new, out=a), out=a)
        q1 = np.subtract(q1, p1, out=out[3])
        np.multiply(q1, w, out=q1)
        np.add(p1, q1, out=q1)
        np.add(q1, np.multiply(c_memm[i], vin2, out=vin2), out=q1)
        return p_lin_new, q_lin_new, p1, q1

    h = np.tile(h, (2, 1))
    p_lin, q_lin, p1, q1 = _march(grid, (h, h, zero, zero), step, keep)
    bundle = AsymptoticBundle(
        *(PriceSurface(v, grid, regime, keep)
          for v, regime in zip((p_lin[1], q_lin[1], p1, q1), (0, 1, 0, 1))))
    return _linear_result(p_lin[0], q_lin[0], grid, keep), bundle


def _single_shock_base(params: ModelParams, payoff: Payoff, grid: GridSpec):
    """Grid data shared by every single-shock march of one payoff.

    Returns (h, pbs_rows, wgt, decay, f0, c_lin): the payoff row h_j =
    h(S_j), the Black-Scholes row source pbs_rows(lo, hi) giving rows
    lo .. hi - 1 of the table P_BS(m_k, S_j) (its row 0 is h), the weight
    wgt[k] = nu10 e^{(nu10 - d0) m_k}, the per-step lists
    decay[i] = e^{-nu10 (T - t_i)} and f0[i] = F0(t_i) (single-shock
    factors), and the array c_lin[i] = nu01 decay[i] (CS0[N - i] + 1),
    where CS0[k] = int_0^{m_k} wgt dm is the payoff-free weight integral.
    No (N + 1) x M table is built: a march asks ``pbs_rows`` for each
    block of rows as its Simpson integral reaches it.
    CS0 matters because e^{-nu10 (T-t)} (CS0 + 1) is exactly the
    shock-regime discount factor F1 of this single-shock problem;
    assembling the 1/gamma constant from CS0 rather than the closed form
    makes the quadrature error cancel between the 1/gamma terms instead of
    leaving an O(eps/gamma) residue.  m shares the time-grid spacing, so
    row N - i corresponds to time-to-maturity T - t_i.
    """
    fac = single_shock_factors(params)
    d0, nu10 = params.d0, params.nu10
    if abs(nu10 - d0) * params.T > _EXP_CAP:
        raise NumericalError(
            f"|nu10 - d0| * T = {abs(nu10 - d0) * params.T:.3g} exceeds the "
            f"exponent cap {_EXP_CAP:.0f}; the source integral is not "
            "representable in double precision")
    m_grid = grid.times()
    spots = grid.spot_nodes()

    def pbs_rows(lo: int, hi: int) -> np.ndarray:
        return _bs.bs_price(payoff, m_grid[lo:hi, None], spots[None, :],
                            params.sigma0)

    wgt = nu10 * np.exp((nu10 - d0) * m_grid)
    cs0 = np.concatenate(([0.0], *_cumulative_simpson_chunks(
        lambda lo, hi: wgt[lo:hi], grid.n_time, grid.delta_t, _SOURCE_CHUNK)))
    decay = [math.exp(-nu10 * (params.T - t)) for t in m_grid.tolist()]
    f0 = fac.F0(m_grid).tolist()
    # bs_price returns the payoff itself at m = 0, so h is P_BS's row 0.
    return (payoff.value(spots), pbs_rows, wgt, decay, f0,
            params.nu01 * np.array(decay) * (cs0[::-1] + 1.0))


def _single_shock_source(h: np.ndarray, pbs_rows, wgt: np.ndarray,
                         grid: GridSpec, gamma_eff: np.ndarray):
    """Rows k = 1 .. N, in ascending order, of the source tables CS[b, k, j]
    = int_0^{m_k} wgt(m) e^{-gamma_eff[b] (P_BS(m, S_j) - h_j)} dm, one
    block per entry of ``gamma_eff``, each with its own guards; block b is
    bit-identical to a table built for gamma_eff[b] alone.

    The rows are integrated _SOURCE_CHUNK at a time as the march reaches
    them, so the stack holds O(B * M) of them rather than B whole
    (N + 1) x M tables.  Each block of Black-Scholes rows is asked of
    ``pbs_rows`` once, turned into time values P_BS - h and checked by the
    exponent guard before its exponentials are taken, so a time value
    beyond the cap is refused as the march reaches it, naming that block's
    largest one.  Each block of integrated rows is checked for positivity
    before its first row is yielded.
    """
    neg_g = -gamma_eff[None, :, None]
    # The integrand rows of a block, allocated once for the reason the
    # Simpson helper gives; it copies them out before the next call.
    buf = np.empty((_SOURCE_CHUNK + 2, gamma_eff.size, grid.n_space))

    def integrand(lo: int, hi: int) -> np.ndarray:
        tv = pbs_rows(lo, hi)
        tv -= h
        # max |tv| without a second block; np.maximum keeps a NaN.
        tv_max = float(np.maximum(tv.max(), -tv.min()))
        # max |g * tv| is g * max |tv| exactly: rounding is monotone.
        _check_exponent(gamma_eff * tv_max, "gamma_eff * time value", gamma_eff)
        y = np.multiply(neg_g, tv[:, None, :], out=buf[:hi - lo])
        np.exp(y, out=y)
        y *= wgt[lo:hi, None, None]
        return y

    for cs in _cumulative_simpson_chunks(integrand, grid.n_time, grid.delta_t,
                                         _SOURCE_CHUNK):
        # cs + 1 scales the shock intensity of the march.  Simpson's odd-row
        # formula turns negative where e^{-gamma_eff (P_BS - h)} grows by
        # more than about a factor 8 per time step (digitals next to the
        # strike at large gamma_eff); the step would then lose its M-matrix
        # property, so refuse rather than march.
        low = np.min(cs, axis=2) + 1.0
        bad = np.argwhere(~(low > 0.0))
        if bad.size:
            k, b = bad[0]
            raise NumericalError(
                f"single-shock source table not positive (min of cs + 1 is "
                f"{low[k, b]:.3g}) at gamma_eff = {gamma_eff[b]:.6g}, nsteps = "
                f"{grid.n_time}: the time grid does not resolve "
                "e^{-gamma_eff (P_BS - h)}; lower the quantity or risk "
                "aversion, or raise nsteps")
        yield from cs


def solve_single_shock(params: ModelParams, payoff: Payoff, grid: GridSpec,
                       quantities, keep=None) -> list[PriceSurface]:
    """Per-contract single-shock buyer surfaces, one per positive quantity,
    marched in one pass over one stream of Black-Scholes rows: the price
    when only the first shock is priced (recovery is absorbing).
    Buyer-only: the writer direction would need e^{+gamma h} inside the
    source integral, which overflows for unbounded payoffs.

    Each quantity gets its own block, utility scale gamma_eff = quantity *
    gamma, source table and guards (a guard names the block's gamma_eff),
    and its surface is bit-identical to a one-quantity call at that
    quantity.  ``keep`` lists the time-row indices to store (default:
    all); with one row kept the march holds O(B * M * _SOURCE_CHUNK)
    doubles, no (N + 1) x M table.

    The Black-Scholes rows are computed a Simpson block at a time as the
    march reaches them, and the exponent guard checks each block's time
    values before its exponentials are taken.  So a time value beyond the
    cap is refused mid-march, at the first block of rows where any
    quantity's passes it; the message names the first such quantity in
    stack order and that block's largest gamma_eff * |P_BS - h|.

    The shock-regime value is an explicit functional of Black-Scholes
    prices (one recovery at most), entering the tradeable-regime equation
    through the source table; only p is marched.

    Every step linearizes e^{gamma_eff (p - h)} at the known level, except
    the first, which repeats that linearization (Newton) until the update
    reaches rounding.  The first step starts from the kinked terminal
    payoff and moves p by O(1) next to the strike; the tangent there lies
    below the convex exponential, so one linearized step overstates the
    source and lifts the price above its gamma -> 0 limit.  The fully
    implicit step keeps it at or below that limit (M-matrix comparison).
    Each block stops iterating once its own update reaches rounding, so
    the other blocks' further iterations leave it as its solo march does.
    """
    ns, gs = _gamma_effs(params, quantities)
    for qty in ns:
        if qty <= 0.0:
            raise ValueError(f"buyer solve requires quantity > 0, got {qty}")
    keep = _kept_rows(grid, keep)
    h, pbs_rows, wgt, decay, f0, c_lin = _single_shock_base(params, payoff,
                                                            grid)
    blocks, m = gs.size, grid.n_space
    source = _single_shock_source(h, pbs_rows, wgt, grid, gs)
    h = np.tile(h, blocks)
    n = grid.n_time
    dt = _const(grid.delta_t)
    g = np.repeat(gs, m)                # each node's gamma_eff
    stepper = _Stepper(grid, params.sigma0, blocks)
    nu01 = _const(params.nu01)
    # The 1/g constant nu01 decay (cs0 + 1) / (F0 g) of every step.
    c_lin = _block_rows(
        c_lin[:, None, None] / (np.array(f0)[:, None, None] * gs[:, None]), m)
    one = _const(1.0)
    # Scratch: the source row and two temporaries, with (B, M) views for
    # the source rows and the guard.
    cs1, x, tmp = np.empty((3, h.size))
    cs1_blocks, x_blocks, tmp_blocks = (r.reshape(blocks, m) for r in (cs1, x, tmp))

    def linearized(i: int, c_lin_i: np.ndarray, p_old: np.ndarray,
                   p_lin: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Implicit step from row i + 1 to row i, written into ``out``,
        with the exponential linearized at p_lin; ``cs1`` holds the source
        row CS[:, n - i] + 1 and ``c_lin_i`` the step's 1/g constant."""
        np.subtract(p_lin, h, out=x)
        np.multiply(g, x, out=x)
        _guard_exponent(x_blocks, tmp_blocks, "gamma_eff * (p - h)", gs)
        # g_source * e^{g p} assembled in shifted form: all exponents are
        # time-value sized.  The 1/g constant uses the same quadrature
        # table (decay * (cs0 + 1) == F1 of this problem), so the two
        # 1/g terms cancel exactly rather than to quadrature error.
        # kappa = nu01 * (decay * e^x * cs1) / f0
        kappa = np.exp(x, out=x)
        np.multiply(decay[i], kappa, out=kappa)
        np.multiply(kappa, cs1, out=kappa)
        np.multiply(nu01, kappa, out=kappa)
        np.divide(kappa, f0[i], out=kappa)
        return _source_step(stepper, dt, g, c_lin_i, kappa, p_old, p_lin,
                            out, tmp)

    def step(i: int, rows, out):
        (p,), (p_out,) = rows, out
        # _march steps i = n - 1 .. 0, which reads the source rows
        # k = n - i = 1 .. n in the order ``source`` yields them.
        np.add(next(source), one, out=cs1_blocks)
        c_lin_i = next(c_lin)
        if i < n - 1:
            return (linearized(i, c_lin_i, p, p, p_out),)
        # The first step leaves the kinked payoff: Newton to rounding, each
        # block frozen at the iterate where its own update converged (every
        # iterate is a new array, never ``p_out``).
        active = np.ones(blocks, dtype=bool)
        for it in range(_FIRST_STEP_MAX_ITER):
            p_new = linearized(i, c_lin_i, h, p, p_out)
            update = np.max(np.abs(p_new - p).reshape(blocks, m), axis=1)
            scale = np.maximum(1.0, np.max(np.abs(p_new).reshape(blocks, m),
                                           axis=1))
            p = np.where(np.repeat(active, m), p_new, p)
            active &= ~(update <= _ROUNDING * scale)
            if not active.any():
                return (p,)
        b = int(np.flatnonzero(active)[0])
        raise NumericalError(
            f"first single-shock step did not converge in {it + 1} Newton "
            f"iterations at gamma_eff = {gs[b]:.6g} (last update "
            f"{update[b]:.3g}); the requested risk aversion / quantity is "
            "outside the range the source table resolves on this grid")

    p = _march(grid, (h.reshape(blocks, m),), step, keep)[0]
    return [PriceSurface(p_q, grid, 0, keep) for p_q in p]


def single_shock_zero_order(params: ModelParams, payoff: Payoff,
                            grid: GridSpec) -> PriceSurface:
    """Small-gamma limit of the single-shock price (per contract), by the
    linear PDE route; companion surface for spread attribution.

    The shock-regime value q0(t, S) is explicit:
    e^{-nu10 (T-t)} [int_0^{T-t} nu10 e^{(nu10-d0) m} P_BS(m, S) dm + h(S)]
    / F1(t); the tradeable-regime price is marched against it.  Every
    coefficient is assembled from the same quadrature tables as the
    nonlinear single-shock march, making this the exact gamma -> 0 limit
    of that scheme: the difference p_check(gamma) - p_check0 is then a
    pure gamma-order quantity with no discretisation floor.  The
    Black-Scholes rows are computed a Simpson block at a time as the march
    reaches them, so the surface, which keeps every row, is the one whole
    (N + 1) x M table it holds.
    """
    h, pbs_rows, wgt, decay, f0, c_lin = _single_shock_base(params, payoff,
                                                            grid)
    keep = _kept_rows(grid, None)
    n = grid.n_time
    dt = grid.delta_t
    # Rows k = 1 .. n of the source table CS1[k] = int_0^{m_k} wgt P_BS dm,
    # integrated _SOURCE_CHUNK rows at a time as the march reaches them,
    # each block of Black-Scholes rows computed once.
    def integrand(lo: int, hi: int) -> np.ndarray:
        y = pbs_rows(lo, hi)
        y *= wgt[lo:hi, None]
        return y

    cs1 = (row for rows in _cumulative_simpson_chunks(
        integrand, n, dt, _SOURCE_CHUNK) for row in rows)
    stepper = _Stepper(grid, params.sigma0)
    # diag uses kappa(gamma -> 0) = nu01 decay (cs0 + 1) / F0 and the
    # coupling uses the same decay/F0 scaling, mirroring the nonlinear
    # assembly term by term.
    dt_k_hat = [dt * (c / f) for c, f in zip(c_lin.tolist(), f0)]
    scale = [dt * params.nu01 * d for d in decay]

    def step(i: int, rows, out):
        (p,), (rhs,) = rows, out
        # rhs = p + dt * nu01 * decay * (cs1[n - i] + h) / f0, with the
        # source rows k = n - i = 1 .. n read in the order ``cs1`` yields them
        np.add(next(cs1), h, out=rhs)
        np.multiply(scale[i], rhs, out=rhs)
        np.divide(rhs, f0[i], out=rhs)
        return (stepper.solve(dt_k_hat[i], np.add(p, rhs, out=rhs)),)

    return PriceSurface(_march(grid, (h,), step, keep)[0], grid, 0, keep)


@dataclass(frozen=True)
class HedgeReport:
    """Hedge quantities of a spot sweep at one time t, per contract.

    ``merton_dollar_position`` is one float, the option-independent
    investment demand mu0 / (sigma0^2 gamma); every other field is an
    array of the shape of the spot argument (0-d for a scalar spot).  The
    stock offset of the option position is quantity * spot * indiff_delta.
    ``adjusted_delta`` is the Black-Scholes delta on the expected-liquid
    clock adjusted_ttm(T - t, regime), NaN where that clock is 0.

    The decomposition splits indiff_delta into a plain Black-Scholes delta
    at calendar time-to-maturity (base_delta), the shift from moving to the
    expected-liquid clock, the shift from moving to the price-implied
    clock, and the residual (smile_correction); the terms sum to
    indiff_delta exactly.  A term that does not exist is NaN: both clock
    spreads of a digital (no implied clock) or of a low-confidence spot,
    where base_delta + smile_correction is the whole delta, and
    implied_ttm_value where the quote has no implied clock.
    """

    merton_dollar_position: float
    indiff_delta: np.ndarray
    base_delta: np.ndarray
    adjusted_delta: np.ndarray
    adjusted_ttm_spread: np.ndarray
    implied_ttm_spread: np.ndarray
    smile_correction: np.ndarray
    implied_ttm_value: np.ndarray
    low_confidence: np.ndarray


def hedge_report(params: ModelParams, payoff: Payoff, surface: PriceSurface,
                 t: float, spot) -> HedgeReport:
    """Delta decomposition of an indifference surface at (t, spot), t < T.

    ``spot`` is a scalar or a 1-D array.  The sweep is evaluated in one
    pass: one delta and one quote of the surface, one Black-Scholes greeks
    call per clock and one implied-clock inversion; each element of the
    report equals the one its spot gets alone.
    """
    check_scalar("t", t)
    if not (0.0 <= t < params.T):
        raise ValueError(f"need 0 <= t < T={params.T}, got t={t}")
    s = np.asarray(spot, dtype=float)
    if s.ndim > 1:
        raise ValueError(f"spot must be a scalar or a 1-D array, got shape {s.shape}")
    shape, s = s.shape, s.reshape(-1)
    ttm = params.T - t
    sigma = params.sigma0
    indiff = surface.delta(s, t)
    base = _bs.bs_greeks(payoff, ttm, s, sigma).delta
    t_adj = float(_bs.adjusted_ttm(params, ttm, surface.regime))
    adjusted = np.full(s.shape, np.nan)
    if t_adj > 0.0:
        adjusted = _bs.bs_greeks(payoff, t_adj, s, sigma).delta
    spread_adj, spread_imp, implied = np.full((3,) + s.shape, np.nan)
    smile = indiff - base
    low_confidence = np.zeros(s.shape, dtype=bool)
    if not payoff.is_digital:
        imp = _bs.implied_ttm(payoff, s, surface.quote(s, t), sigma, params.T)
        # A failed inversion (ttm NaN) is a quote below intrinsic value,
        # which the indifference quote can reach deep in the money at high
        # risk aversion: no implied clock exists there.
        implied = imp.ttm
        usable = ~imp.low_confidence & (imp.ttm > 0.0) & (t_adj > 0.0)
        # Without usable intermediate clocks a spot keeps base + residual.
        low_confidence = ~usable
        u = np.flatnonzero(usable)
        if u.size:
            delta_imp = _bs.bs_greeks(payoff, imp.ttm[u], s[u], sigma).delta
            spread_adj[u] = adjusted[u] - base[u]
            spread_imp[u] = delta_imp - adjusted[u]
            smile[u] = indiff[u] - delta_imp
    return HedgeReport(
        params.mu0 / (sigma * sigma * params.gamma),
        *(x.reshape(shape) for x in (indiff, base, adjusted, spread_adj,
                                     spread_imp, smile, implied, low_confidence)))
