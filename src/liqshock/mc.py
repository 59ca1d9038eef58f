"""Monte Carlo oracle for linear prices via realized liquid time.

Under any of the linear pricing measures the payoff's value is
E[P_BS(ttm = realized liquid time, spot)]: the asset diffuses only while
the chain is liquid and is frozen in a shock, so no path-level diffusion
discretization is needed; only the chain is sampled, exactly.

Sampling is counter-based: round r's draws are the uniform vectors of
length n_paths that numpy's Philox4x64-10 generator keyed by (seed, r,
purpose) fills, so path i's r-th draw is a pure function of (seed, r, i)
and results do not depend on how many paths are still alive.  A round
keeps the live paths' index, regime, clock and liquid time as compact
arrays and works through them in blocks of ``_BLOCK`` paths, so its
temporaries stay cache-sized.  A dense round takes its draws from the
filled vectors; a sparse one (at most ``_SPARSE_FRACTION`` of the paths
live) computes them only at the live indices, straight from the Philox
counter (``_live_uniforms``), with the same bits.  One thinning kernel,
``sample_realized_ttm``, serves all three measures: time-dependent
intensities are sampled by thinning against a precomputed curve bound,
constant intensities accept every candidate (which reduces thinning to
plain exponential sojourns), and the single-shock curve makes the first
recovery absorbing.

A candidate whose intensity reaches its bound is accepted whatever its
acceptance draw, so a dense round fills the acceptance vector (purpose 1)
only when one of its blocks holds a candidate below its bound, once, at
the first such block.  MMM, and MEMM at d0 = 0, never fill it; MEMM and
single-shock curves fill it in every dense round.  This depends only on
the intensities a round computes, and every draw is the same, bit for
bit, as if every round filled both vectors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import bs as _bs
from .errors import NumericalError, check_count, check_integer
from .model import IntensityCurve, ModelParams, Payoff, intensity_curve

__all__ = [
    "MCEstimate",
    "sample_realized_ttm",
    "mc_linear_price",
]

logger = logging.getLogger(__name__)

_MIN_PATHS = 100
# Relative headroom allowed before declaring the thinning bound violated.
_BOUND_SLACK = 1e-12
# Live paths per block of a thinning round (temporaries of 64 KB each).
_BLOCK = 8192
# A round with at most this fraction of the paths live computes its draws
# at the live indices instead of filling two n_paths vectors.
_SPARSE_FRACTION = 1.0 / 32.0

# Philox4x64-10 (Salmon et al. 2011) as numpy's Philox bit generator runs
# it: multipliers, Weyl key increments, and the uint64 -> double map.
_PHILOX_M = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_MASK64 = (1 << 64) - 1
_LO32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_TWO_M53 = 1.0 / 9007199254740992.0
_TINY = float(np.finfo(float).tiny)


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error (sd / sqrt(n))."""

    mean: float
    std_error: float


def _validate_seed(seed: int) -> int:
    s = check_integer("seed", seed)
    if not (0 <= s < 2 ** 63):
        raise ValueError(f"seed must be in [0, 2**63), got {s}")
    return s


def _round_uniforms(seed: int, round_idx: int, purpose: int,
                    out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with uniforms in [0, 1) for one round; key = (seed,
    round, purpose)."""
    key = (seed << 64) | (round_idx * 8 + purpose)
    np.random.Generator(np.random.Philox(key=key)).random(out=out)
    return out


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low uint64 words of the 128-bit products _PHILOX_M[m] * x."""
    a = _PHILOX_M[m]
    a_lo, a_hi = a & _LO32, a >> _U32
    x_lo, x_hi = x & _LO32, x >> _U32
    ll = x_lo * a_lo
    hl = x_hi * a_lo
    # (ll >> 32) + (hl & LO32) + x_lo * a_hi <= 2**64 - 1: no wrap.
    cross = (ll >> _U32) + (hl & _LO32) + x_lo * a_hi
    return (hl >> _U32) + (cross >> _U32) + x_hi * a_hi, x * a


def _live_uniforms(seed: int, round_idx: int, idx: np.ndarray) -> np.ndarray:
    """Entries ``idx`` of round ``round_idx``'s two uniform vectors.

    Returns a (2, idx.size) array: row 0 holds the thinning draws
    (purpose 0), row 1 the acceptance draws (purpose 1), bit-identical to
    the entries of the vectors ``_round_uniforms`` fills.  numpy's Philox
    generator increments its 256-bit counter before each block of four
    words, so index i is word i % 4 of the block at counter (i // 4 + 1,
    0, 0, 0); the key words are (round * 8 + purpose, seed).  Both
    purposes run through the ten rounds in one pass of uint64 array
    arithmetic, which wraps modulo 2**64 as the generator's C code does.
    """
    pos = idx.astype(np.uint64)[None, :]
    k0 = [round_idx * 8, round_idx * 8 + 1]
    k1 = seed
    # Counter words 1..3 start at zero; shapes broadcast, so the first two
    # rounds run once for both purposes where their inputs agree.
    zero = np.zeros((1, 1), dtype=np.uint64)
    x0, x1, x2, x3 = (pos >> np.uint64(2)) + np.uint64(1), zero, zero, zero
    for r in range(_PHILOX_ROUNDS):
        key0 = np.array([[(k + r * _PHILOX_W[0]) & _MASK64] for k in k0],
                        dtype=np.uint64)
        key1 = np.full((1, 1), (k1 + r * _PHILOX_W[1]) & _MASK64,
                       dtype=np.uint64)
        hi0, lo0 = _mulhilo(0, x0)
        hi1, lo1 = _mulhilo(1, x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
    words = np.broadcast_arrays(x0, x1, x2, x3)
    word = np.choose((pos & np.uint64(3)).astype(np.intp), words)
    return (word >> np.uint64(11)).astype(float) * _TWO_M53


def _round_cap(horizon: float, max_bound: float) -> int:
    # Generous cap on thinning rounds; candidate counts per path are
    # Poisson(horizon * bound), so this is unreachable for healthy inputs.
    return 1000 + int(100.0 * horizon * max(max_bound, 1.0))


def sample_realized_ttm(curve: IntensityCurve, horizon: float,
                        start_regime: int, seed: int,
                        n_paths: int) -> np.ndarray:
    """Realized liquid time over [0, horizon] for the two-regime chain.

    Returns an array of shape (n_paths,), each entry in [0, horizon];
    ``n_paths`` must be an integer of at least 100.
    ``horizon`` must not exceed the curve's parameter horizon T (the tilted
    intensities are defined on [0, T]).  Under the 'MEMM_single_shock'
    curve at most one shock occurs: the chain starts liquid (regime 0) and
    its first recovery is absorbing (liquid for good).
    """
    seed = _validate_seed(seed)
    check_count("n_paths", n_paths, _MIN_PATHS)
    if start_regime not in (0, 1):
        raise ValueError(f"start_regime must be 0 or 1, got {start_regime}")
    absorbing = curve.measure == "MEMM_single_shock"
    if absorbing and start_regime != 0:
        raise ValueError("the single-shock measure starts in regime 0")
    T = curve.params.T
    if not (0.0 <= horizon <= T + 1e-12):
        raise ValueError(f"horizon must be in [0, T={T}], got {horizon}")
    if horizon == 0.0:
        return np.zeros(n_paths)
    bounds = (curve.bound01, curve.bound10)
    # Waits are log1p(-u) / -rate, which is -log1p(-u) / rate bit for bit;
    # only a zero bound needs a where, to draw w = inf (no candidate).
    neg_rates = (-bounds[0], -bounds[1])
    all_positive = bounds[0] > 0.0 and bounds[1] > 0.0
    # A candidate whose intensity reaches a normal, finite bound b is
    # accepted whatever its draw: u * b < b for every u in [0, 1).
    exact_bounds = all(b == 0.0 or _TINY <= b < math.inf for b in bounds)
    # The live paths' index (ascending), regime, clock and liquid time so
    # far; a round compacts its survivors to the front, in order.  A path
    # writes its result to ``liquid`` when it retires.
    idx = np.arange(n_paths)
    state = np.full(n_paths, start_regime, dtype=np.int8)
    t_cur = np.zeros(n_paths)
    acc_liq = np.zeros(n_paths)
    liquid = np.empty(n_paths)
    u_s = u_a = None
    n_live = n_paths
    cap = _round_cap(horizon, max(bounds))
    n_cand = 0
    n_acc = 0
    r = 0
    while n_live:
        if r >= cap:
            raise NumericalError(
                f"thinning did not terminate within {cap} rounds "
                f"(bounds={bounds}, horizon={horizon})")
        sparse = n_live <= _SPARSE_FRACTION * n_paths
        if not sparse:
            if u_s is None:
                u_s, u_a = np.empty(n_paths), np.empty(n_paths)
            _round_uniforms(seed, r, 0, u_s)
        # The acceptance vector is filled on the round's first block that
        # can reject a candidate (never when every candidate is certain).
        filled = False
        kept = 0
        for lo in range(0, n_live, _BLOCK):
            hi = min(lo + _BLOCK, n_live)
            ix = idx[lo:hi]
            if sparse:
                us, ua = _live_uniforms(seed, r, ix)
            else:
                us = u_s[ix]
            st = state[lo:hi]
            t_old = t_cur[lo:hi]
            liq = acc_liq[lo:hi]
            m0 = st == 0
            neg_rate = np.where(m0, neg_rates[0], neg_rates[1])
            # us is a copy: the exponential waits are computed in place.
            w = np.log1p(np.negative(us, out=us), out=us)
            if all_positive:
                w /= neg_rate
            else:
                with np.errstate(divide="ignore"):
                    w = np.where(neg_rate < 0.0, w / neg_rate, np.inf)
            # Liquid time accrues along regime-0 stretches up to the
            # horizon, whether or not the candidate switch is accepted.
            # Adding 0.0 leaves every other entry (all >= 0) unchanged.
            liq += np.where(m0, np.minimum(w, horizon - t_old), 0.0)
            t_new = t_old + w
            going = ~(t_new >= horizon)
            past = np.flatnonzero(~going)
            liquid[ix.take(past)] = np.minimum(liq.take(past), horizon)
            # Integer takes: boolean-mask indexing costs several times more
            # on these irregular masks.
            sel = np.flatnonzero(going)
            if not sel.size:
                continue
            ix, tc, st, liq = (ix.take(sel), t_new.take(sel), st.take(sel),
                               liq.take(sel))
            m0 = st == 0
            nu_c = np.empty(ix.size)
            for ri, fn in ((np.flatnonzero(m0), curve.nu01),
                           (np.flatnonzero(~m0), curve.nu10)):
                if ri.size:
                    nu_c[ri] = fn(tc.take(ri))
            bnd = np.where(m0, bounds[0], bounds[1])
            if np.any(nu_c > bnd * (1.0 + _BOUND_SLACK)):
                raise NumericalError(
                    "intensity exceeded its thinning bound; the curve bound "
                    "is not a true upper bound")
            if exact_bounds and np.all(nu_c >= bnd):
                acc = np.ones(ix.size, dtype=bool)
            else:
                if not (sparse or filled):
                    _round_uniforms(seed, r, 1, u_a)
                    filled = True
                ua = ua.take(sel) if sparse else u_a[ix]
                acc = ua * bnd < nu_c
            n_cand += ix.size
            n_acc += int(np.count_nonzero(acc))
            if absorbing:
                # An absorbing recovery: the rest of the horizon accrues
                # and the path retires.
                retire = acc & ~m0
                out = np.flatnonzero(retire)
                liquid[ix.take(out)] = np.minimum(
                    liq.take(out) + (horizon - tc.take(out)), horizon)
                stay = np.flatnonzero(~retire)
                ix, tc, st, liq, acc = (ix.take(stay), tc.take(stay),
                                        st.take(stay), liq.take(stay),
                                        acc.take(stay))
            st ^= acc
            # Survivors move to the front; kept <= lo, and the right-hand
            # sides above are copies, so no unread entry is overwritten.
            nxt = kept + ix.size
            idx[kept:nxt] = ix
            state[kept:nxt] = st
            t_cur[kept:nxt] = tc
            acc_liq[kept:nxt] = liq
            kept = nxt
        n_live = kept
        r += 1
    if n_cand:
        logger.debug("thinning acceptance ratio %.4f over %d candidates "
                     "(measure=%s)", n_acc / n_cand, n_cand, curve.measure)
    return liquid


def mc_linear_price(params: ModelParams, payoff: Payoff, measure: str,
                    spot: float, n_paths: int, seed: int) -> MCEstimate:
    """Monte Carlo linear price E[P_BS(realized liquid time, spot)].

    Per contract, with the chain started liquid (regime 0); ``measure`` is
    one of 'MMM', 'MEMM', 'MEMM_single_shock'.  The mean uses numpy's
    pairwise summation; the standard error is the sample standard
    deviation (ddof=1) over sqrt(n_paths).
    """
    curve = intensity_curve(params, measure)
    _bs.check_spot(spot)
    ttm = sample_realized_ttm(curve, params.T, 0, seed, n_paths)
    vals = _bs.bs_price(payoff, ttm, spot, params.sigma0)
    return MCEstimate(mean=float(np.mean(vals)),
                      std_error=float(np.std(vals, ddof=1) / math.sqrt(n_paths)))
