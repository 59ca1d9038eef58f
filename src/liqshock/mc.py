"""Monte Carlo oracle for linear prices via realized liquid time.

Under any of the linear pricing measures the payoff's value is
E[P_BS(ttm = realized liquid time, spot)]: the asset diffuses only while
the chain is liquid and is frozen in a shock, so no path-level diffusion
discretization is needed; only the chain is sampled, exactly.

Sampling is counter-based: round r's draws are the uniform vectors of
length n_paths that numpy's Philox4x64-10 generator keyed by (seed, r,
purpose) fills, so path i's r-th draw is a pure function of (seed, r, i)
and results depend neither on how many paths are still alive nor on the
order the paths run in.  The sampler is chunk-major: it takes each chunk
of ``_CHUNK`` consecutive paths through its dense rounds before it
starts the next, and a round keeps the chunk's live paths' offset,
regime, clock and liquid time as compact arrays, working through them in
blocks of ``_BLOCK`` paths so its temporaries stay cache-sized.  A dense
round fills the chunk's window of the round's vectors, with the Philox
counter set to the chunk's first path (``_round_uniforms``).  Once at
most ``_SPARSE_FRACTION`` of a chunk is live, it parks its live paths as
a cohort tagged with the round; after the last chunk one sparse tail
runs every parked path, merging each cohort at its round, and computes
each round's draws at the live paths alone, straight from the counter
(``_live_uniforms``, one call per round).  One thinning kernel,
``sample_realized_ttm``, serves all three measures: time-dependent
intensities are sampled by thinning against a precomputed curve bound,
constant intensities accept every candidate (plain exponential
sojourns), and the single-shock curve's first recovery enters regime 2,
liquid at rate 0.  A block reads its candidates' intensities in one
``IntensityCurve.by_regime`` call.

Memory: a price holds one float64 array of n_paths entries, the clocks,
which ``mc_linear_price`` overwrites with their Black-Scholes values and
then reduces in place.  Beside it the sampler holds the state of one
chunk (live paths and two uniform windows) and the parked tail, at most
n_paths / 32 paths, which runs after the chunk state is freed.

A candidate whose intensity reaches its bound is accepted whatever its
acceptance draw, so a dense round fills its acceptance window (purpose 1)
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
from .errors import NumericalError, check_count, check_integer, check_scalar
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
# Consecutive paths per chunk; a chunk runs through all its rounds before
# the next starts, so the sampler's state is chunk-sized.  A multiple of 4.
_CHUNK = 2 ** 16
# Live paths per block of a thinning round, and clocks per bs_price call
# of a price (temporaries of 64 KB each).
_BLOCK = 8192
# A chunk with at most this fraction of its paths live parks them for the
# sparse tail, whose rounds compute their draws at the live indices
# instead of filling the two chunk buffers.
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
                    out: np.ndarray, start: int = 0) -> np.ndarray:
    """Fill ``out`` with entries start, start + 1, .. of one round's
    uniform vector in [0, 1); key = (seed, round, purpose).

    The generator's counter is set to ``start // 4``, the position of
    entry ``start`` (see ``_live_uniforms``), so the fill equals the same
    slice of a fill from entry 0; ``start`` must be a multiple of 4.
    """
    if start % 4:
        raise ValueError(f"start must be a multiple of 4, got {start}")
    key = (seed << 64) | (round_idx * 8 + purpose)
    np.random.Generator(np.random.Philox(key=key, counter=start // 4)).random(
        out=out)
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
    arithmetic, which wraps modulo 2**64 as the generator's C code does,
    ``_BLOCK`` indices at a time, so the uint64 temporaries stay the size
    of one block whatever ``idx.size`` is.
    """
    # Key words of each Philox round: one per purpose, and the seed word.
    keys = [(np.array([[(round_idx * 8 + purpose + r * _PHILOX_W[0]) & _MASK64]
                       for purpose in (0, 1)], dtype=np.uint64),
             np.full((1, 1), (seed + r * _PHILOX_W[1]) & _MASK64,
                     dtype=np.uint64))
            for r in range(_PHILOX_ROUNDS)]
    # Counter words 1..3 start at zero; shapes broadcast, so the first two
    # rounds run once for both purposes where their inputs agree.
    zero = np.zeros((1, 1), dtype=np.uint64)
    out = np.empty((2, idx.size))
    for start in range(0, idx.size, _BLOCK):
        pos = idx[start:start + _BLOCK].astype(np.uint64)[None, :]
        x0, x1, x2, x3 = (pos >> np.uint64(2)) + np.uint64(1), zero, zero, zero
        for key0, key1 in keys:
            hi0, lo0 = _mulhilo(0, x0)
            hi1, lo1 = _mulhilo(1, x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ key0, lo1, hi0 ^ x3 ^ key1, lo0
        words = np.broadcast_arrays(x0, x1, x2, x3)
        word = np.choose((pos & np.uint64(3)).astype(np.intp), words)
        out[:, start:start + _BLOCK] = (
            (word >> np.uint64(11)).astype(float) * _TWO_M53)
    return out


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
    its first recovery enters regime 2, liquid for good (rate 0).  Curve
    bounds that are not finite and >= 0 are refused (NumericalError).

    The paths run chunk-major, ``_CHUNK`` consecutive indices at a time,
    each chunk through its dense rounds; once at most ``_SPARSE_FRACTION``
    of a chunk is live, its live paths are parked, and after the last
    chunk all parked paths run together, one round at a time.  Path i's
    draws are Philox outputs at counter positions fixed by (seed, round,
    i), so the result is bit-identical whatever the chunk size.  One
    DEBUG record gives the whole call's acceptance ratio and candidate
    count.
    """
    seed = _validate_seed(seed)
    check_count("n_paths", n_paths, _MIN_PATHS)
    start_regime = check_integer("start_regime", start_regime)
    if start_regime not in (0, 1):
        raise ValueError(f"start_regime must be 0 or 1, got {start_regime}")
    absorbing = curve.measure == "MEMM_single_shock"
    if absorbing and start_regime != 0:
        raise ValueError("the single-shock measure starts in regime 0")
    T = curve.params.T
    check_scalar("horizon", horizon)
    if not (0.0 <= horizon <= T + 1e-12):
        raise ValueError(f"horizon must be in [0, T={T}], got {horizon}")
    if horizon == 0.0:
        return np.zeros(n_paths)
    bounds = (curve.bound01, curve.bound10)
    for name, b in zip(("bound01", "bound10"), bounds):
        if not 0.0 <= b < math.inf:
            raise NumericalError(f"{name} must be finite and >= 0, got {b}")
    # Regime 2 is liquid for good: the single-shock measure's accepted
    # recovery enters it (a switch adds 1) and, at rate 0, the path accrues
    # the rest of the horizon and retires the next round.  Waits are
    # log1p(-u) / -rate, which is -log1p(-u) / rate bit for bit; as
    # |log1p(-u)| < 37, a rate of at least 1e-300 gives a finite wait.
    # Smaller rates go through a where: a zero rate draws w = inf (no
    # candidate) even at u = 0 (-0.0 / -0.0); a tiny one overflows to inf.
    neg_rates = np.array([-bounds[0], -bounds[1]] + [-0.0] * absorbing)
    switch = np.add if absorbing else np.bitwise_xor
    finite_waits = bool(np.all(neg_rates <= -1e-300))
    # A candidate whose intensity reaches a normal bound b is accepted
    # whatever its draw: u * b < b for every u in [0, 1).
    exact_bounds = all(b == 0.0 or _TINY <= b for b in bounds)
    cap = _round_cap(horizon, max(bounds))
    n_cand = 0
    n_acc = 0

    def thin_round(r, live, n_live, res, u_s, u_a, start):
        """Run round r on the first ``n_live`` paths of ``live``: each
        draws one candidate; a path past the horizon writes its liquid time
        to ``res`` at its offset, and the survivors move to the front, in
        order.  Returns their count.  Path i's draws are u_s[i] and u_a[i];
        with ``start`` set, u_a is the acceptance window from entry
        ``start`` of the round's vector, filled on the first block that
        can reject a candidate (never when every candidate is certain)."""
        nonlocal n_cand, n_acc
        if r >= cap:
            raise NumericalError(
                f"thinning did not terminate within {cap} rounds "
                f"(bounds={bounds}, horizon={horizon})")
        idx, state, t_cur, acc_liq = live
        kept = 0
        for lo in range(0, n_live, _BLOCK):
            hi = min(lo + _BLOCK, n_live)
            ix = idx[lo:hi]
            st = state[lo:hi]
            t_old = t_cur[lo:hi]
            liq = acc_liq[lo:hi]
            neg_rate = neg_rates.take(st)
            # us is a copy: the exponential waits are computed in place.
            us = u_s.take(ix)
            w = np.log1p(np.negative(us, out=us), out=us)
            if finite_waits:
                w /= neg_rate
            else:
                with np.errstate(all="ignore"):
                    w = np.where(neg_rate < 0.0, w / neg_rate, np.inf)
            # Liquid time accrues along regime-0 and regime-2 stretches up
            # to the horizon, whether or not the candidate switch is
            # accepted.  Adding 0.0 leaves every other entry unchanged.
            liq += np.where(st != 1, np.minimum(w, horizon - t_old), 0.0)
            t_new = t_old + w
            going = ~(t_new >= horizon)
            past = np.flatnonzero(~going)
            res[ix.take(past)] = np.minimum(liq.take(past), horizon)
            # Integer takes: boolean-mask indexing costs several times more
            # on these irregular masks.
            sel = np.flatnonzero(going)
            if not sel.size:
                continue
            ix, tc, st, liq = (ix.take(sel), t_new.take(sel), st.take(sel),
                               liq.take(sel))
            nu_c = curve.by_regime(tc, st)
            bnd = np.where(st == 0, bounds[0], bounds[1])
            if np.any(nu_c > bnd * (1.0 + _BOUND_SLACK)):
                raise NumericalError(
                    "intensity exceeded its thinning bound; the curve "
                    "bound is not a true upper bound")
            if exact_bounds and np.all(nu_c >= bnd):
                acc = np.ones(ix.size, dtype=bool)
            else:
                if start is not None:
                    _round_uniforms(seed, r, 1, u_a, start=start)
                    start = None
                acc = u_a.take(ix) * bnd < nu_c
            n_cand += ix.size
            n_acc += int(np.count_nonzero(acc))
            switch(st, acc, out=st)
            # Survivors move to the front; kept <= lo, and the right-hand
            # sides above are copies, so no unread entry is overwritten.
            nxt = kept + ix.size
            idx[kept:nxt] = ix
            state[kept:nxt] = st
            t_cur[kept:nxt] = tc
            acc_liq[kept:nxt] = liq
            kept = nxt
        return kept

    # The result is allocated first, so an impossible n_paths fails at once.
    liquid = np.empty(n_paths)
    # A chunk's live paths: offset in the chunk (ascending), regime, clock
    # and liquid time; a path writes its result to ``liquid`` when it
    # retires.  These and the two uniform windows are chunk-sized and
    # serve every chunk.  A dense round fills the chunk's window of the
    # thinning vector, and of the acceptance vector when thin_round needs
    # it.  A chunk with at most _SPARSE_FRACTION of its paths live parks
    # them, with their absolute indices, as a cohort tagged with its round.
    size = min(_CHUNK, n_paths)
    live = (np.empty(size, dtype=np.intp), np.empty(size, dtype=np.int8),
            np.empty(size), np.empty(size))
    u_s, u_a = np.empty(size), np.empty(size)
    parked = []
    for c0 in range(0, n_paths, _CHUNK):
        m = min(_CHUNK, n_paths - c0)
        for a, first in zip(live, (np.arange(m), start_regime, 0.0, 0.0)):
            a[:m] = first
        n_live = m
        r = 0
        while n_live > _SPARSE_FRACTION * m:
            _round_uniforms(seed, r, 0, u_s[:m], start=c0)
            n_live = thin_round(r, live, n_live, liquid[c0:c0 + m], u_s,
                                u_a[:m], c0)
            r += 1
        if n_live:
            parked.append((r, live[0][:n_live] + c0,
                           *(a[:n_live].copy() for a in live[1:])))
    # The tail, after the chunk arrays are freed: the cohorts are
    # concatenated in round order, and a path's slot there is its offset.
    # One loop counts up from the smallest parked round and merges each
    # cohort, moving it next to the live paths, when it reaches that
    # cohort's round, so every tail path is at the loop's round.  A round
    # computes both draws at its live paths alone into two slot-indexed
    # buffers; ``ids`` maps the slots to the paths for the draws and for
    # the results.
    del live, u_s, u_a
    if parked:
        parked.sort(key=lambda cohort: cohort[0])
        rounds, *columns = zip(*parked)
        sizes = [cohort.size for cohort in columns[0]]
        ids, *rest = map(np.concatenate, columns)
        del parked, columns
        live = (np.arange(ids.size), *rest)
        u_s, u_a, res = (np.empty(ids.size) for _ in range(3))
        n_live = merged = k = 0
        while k < len(rounds) or n_live:
            if not n_live:
                r = rounds[k]
            while k < len(rounds) and rounds[k] == r:
                n = sizes[k]
                for a in live:
                    a[n_live:n_live + n] = a[merged:merged + n]
                n_live += n
                merged += n
                k += 1
            here = live[0][:n_live]
            u_s[here], u_a[here] = _live_uniforms(seed, r, ids.take(here))
            n_live = thin_round(r, live, n_live, res, u_s, u_a, None)
            r += 1
        liquid[ids] = res
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
    deviation (ddof=1) over sqrt(n_paths).  The clocks are priced in
    place, ``_BLOCK`` at a time, and reduced in place; both are
    bit-identical to ``np.mean`` and ``np.std`` over one whole-array
    ``bs_price``.
    """
    curve = intensity_curve(params, measure)
    check_scalar("spot", spot)
    _bs.check_spot(spot)
    v = sample_realized_ttm(curve, params.T, 0, seed, n_paths)
    for lo in range(0, n_paths, _BLOCK):
        v[lo:lo + _BLOCK] = _bs.bs_price(payoff, v[lo:lo + _BLOCK], spot,
                                         params.sigma0)
    return _estimate_in_place(v)


def _estimate_in_place(v: np.ndarray) -> MCEstimate:
    """``np.mean(v)`` and ``np.std(v, ddof=1) / sqrt(v.size)``, bit for
    bit, with no second array of v's size; v is overwritten."""
    n = v.size
    mean = float(np.mean(v))
    # np.std(v, ddof=1)'s steps (numpy's _var), run in place on v.
    m = np.add.reduce(v, axis=None, keepdims=True)
    np.true_divide(m, n, out=m)
    np.subtract(v, m, out=v)
    np.square(v, out=v)
    sd = np.sqrt(np.add.reduce(v, axis=None) / (n - 1))
    return MCEstimate(mean=mean, std_error=float(sd / math.sqrt(n)))
