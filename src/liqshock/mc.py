"""Monte Carlo oracle for linear prices via realized liquid time.

Under any of the linear pricing measures the payoff's value is
E[P_BS(ttm = realized liquid time, spot)]: the asset diffuses only while
the chain is liquid and is frozen in a shock, so no path-level diffusion
discretization is needed; only the chain is sampled, exactly.

Sampling is counter-based: every round r draws full n_paths-length uniform
vectors keyed by (seed, r, purpose), so path i's r-th draw is a pure
function of (seed, r, i) and results do not depend on how many paths are
still alive.  One thinning kernel, ``sample_realized_ttm``, serves all three
measures: time-dependent intensities are sampled by thinning against a
precomputed curve bound, constant intensities accept every candidate (which
reduces thinning to plain exponential sojourns), and the single-shock
curve makes the first recovery absorbing.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import bs as _bs
from .errors import NumericalError
from .model import IntensityCurve, ModelParams, Payoff, intensity_curve

__all__ = [
    "MCEstimate",
    "sample_realized_ttm",
    "mc_linear_price",
]

logger = logging.getLogger(__name__)

_MC_MEASURES = ("MMM", "MEMM", "MEMM_single_shock")
_MIN_PATHS = 100
# Relative headroom allowed before declaring the thinning bound violated.
_BOUND_SLACK = 1e-12


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo mean with its standard error (sd / sqrt(n))."""

    mean: float
    std_error: float
    n_paths: int
    seed: int


def _validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    s = int(seed)
    if not (0 <= s < 2 ** 63):
        raise ValueError(f"seed must be in [0, 2**63), got {s}")
    return s


def _round_uniforms(seed: int, round_idx: int, purpose: int,
                    antithetic: bool, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with uniforms in [0, 1) for one round; key = (seed,
    round, purpose).

    With ``antithetic`` the second half mirrors the first (u -> 1 - u)."""
    key = (seed << 64) | (round_idx * 8 + purpose)
    np.random.Generator(np.random.Philox(key=key)).random(out=out)
    if antithetic:
        half = out.size // 2
        out[half:] = 1.0 - out[:half]
    return out


def _check_paths(n_paths: int, antithetic: bool) -> None:
    if n_paths < _MIN_PATHS:
        raise ValueError(f"n_paths must be >= {_MIN_PATHS}, got {n_paths}")
    if antithetic and n_paths % 2 != 0:
        raise ValueError("antithetic sampling requires an even n_paths")


def _round_cap(horizon: float, max_bound: float) -> int:
    # Generous cap on thinning rounds; candidate counts per path are
    # Poisson(horizon * bound), so this is unreachable for healthy inputs.
    return 1000 + int(100.0 * horizon * max(max_bound, 1.0))


def sample_realized_ttm(curve: IntensityCurve, horizon: float,
                        start_regime: int, seed: int, n_paths: int = 1,
                        antithetic: bool = False) -> np.ndarray:
    """Realized liquid time over [0, horizon] for the two-regime chain.

    Returns an array of shape (n_paths,), each entry in [0, horizon].
    ``horizon`` must not exceed the curve's parameter horizon T (the tilted
    intensities are defined on [0, T]).  Under the 'MEMM_single_shock'
    curve at most one shock occurs: the chain starts liquid (regime 0) and
    its first recovery is absorbing (liquid for good).
    """
    seed = _validate_seed(seed)
    _check_paths(n_paths, antithetic)
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
    t_cur = np.zeros(n_paths)
    state = np.full(n_paths, start_regime, dtype=np.int8)
    liquid = np.zeros(n_paths)
    # A round computes on the live paths only (ascending indices), and the
    # two uniform buffers are allocated once, so a round's temporaries
    # shrink with the live set.
    u_s = np.empty(n_paths)
    u_a = np.empty(n_paths)
    live = np.arange(n_paths)
    cap = _round_cap(horizon, max(bounds))
    n_cand = 0
    n_acc = 0
    r = 0
    while live.size:
        if r >= cap:
            raise NumericalError(
                f"thinning did not terminate within {cap} rounds "
                f"(bounds={bounds}, horizon={horizon})")
        _round_uniforms(seed, r, 0, antithetic, u_s)
        _round_uniforms(seed, r, 1, False, u_a)
        st = state[live]
        m0 = st == 0
        rate = np.where(m0, bounds[0], bounds[1])
        with np.errstate(divide="ignore"):
            w = np.where(rate > 0.0, -np.log1p(-u_s[live]) / rate, np.inf)
        # Liquid time accrues along regime-0 stretches up to the horizon,
        # whether or not the candidate switch is accepted.
        t_old = t_cur[live]
        liquid[live[m0]] += np.minimum(w[m0], horizon - t_old[m0])
        t_new = t_old + w
        going = ~(t_new >= horizon)
        cand = live[going]
        live = cand
        if cand.size:
            tc = t_new[going]
            st = st[going]
            nu_c = np.empty(cand.size)
            m0 = st == 0
            if m0.any():
                nu_c[m0] = np.asarray(curve.nu01(tc[m0]), dtype=float)
            m1 = ~m0
            if m1.any():
                nu_c[m1] = np.asarray(curve.nu10(tc[m1]), dtype=float)
            bnd = np.where(m0, bounds[0], bounds[1])
            if np.any(nu_c > bnd * (1.0 + _BOUND_SLACK)):
                raise NumericalError(
                    "intensity exceeded its thinning bound; the curve bound "
                    "is not a true upper bound")
            acc = u_a[cand] * bnd < nu_c
            n_cand += cand.size
            n_acc += int(acc.sum())
            t_cur[cand] = tc
            if absorbing:
                # An absorbing recovery: the rest of the horizon accrues
                # and the path retires.
                retire = acc & m1
                recover = cand[retire]
                liquid[recover] += horizon - t_cur[recover]
                live = cand[~retire]
                acc &= m0
            flip = cand[acc]
            state[flip] = 1 - state[flip]
        r += 1
    if n_cand:
        logger.debug("thinning acceptance ratio %.4f over %d candidates "
                     "(measure=%s)", n_acc / n_cand, n_cand, curve.measure)
    return np.minimum(liquid, horizon)


def mc_linear_price(params: ModelParams, payoff: Payoff, measure: str,
                    spot: float, n_paths: int, seed: int,
                    start_regime: int = 0,
                    antithetic: bool = False) -> MCEstimate:
    """Monte Carlo linear price E[P_BS(realized liquid time, spot)].

    Per contract; ``measure`` is one of 'MMM', 'MEMM',
    'MEMM_single_shock' (the last starts in regime 0 by construction).
    The mean uses numpy's pairwise summation; the standard error is the
    sample standard deviation (ddof=1) over sqrt(n_paths), computed over
    antithetic pair averages when ``antithetic`` is set.
    """
    if measure not in _MC_MEASURES:
        raise ValueError(f"measure must be one of {_MC_MEASURES}, got {measure!r}")
    if not (math.isfinite(spot) and spot > 0.0):
        raise ValueError(f"spot must be positive and finite, got {spot}")
    curve = intensity_curve(params, measure)
    ttm = sample_realized_ttm(curve, params.T, start_regime, seed, n_paths,
                              antithetic)
    vals = np.asarray(_bs.bs_price(payoff, ttm, spot, params.sigma0), dtype=float)
    if antithetic:
        # Paths i and i + n/2 share mirrored uniforms; the independent
        # sampling units are the pair averages, so the standard error is
        # computed over them (the mean is unchanged).
        half = n_paths // 2
        pairs = 0.5 * (vals[:half] + vals[half:])
        mean = float(np.mean(pairs))
        se = float(np.std(pairs, ddof=1) / math.sqrt(half))
    else:
        mean = float(np.mean(vals))
        se = float(np.std(vals, ddof=1) / math.sqrt(n_paths))
    return MCEstimate(mean=mean, std_error=se, n_paths=n_paths,
                      seed=_validate_seed(seed))
