"""The blocked thinning sampler and its counter-based Philox draws.

``data/sampler_digests_50k.json`` holds SHA-256 digests of
``sample_realized_ttm`` draws at 50,000 paths, written by the sampler that
filled both uniform vectors for every path in every round.  50,000 paths
span several blocks of live paths, and both dense rounds (draws taken from
the filled vectors) and sparse rounds (draws computed at the live indices
only).  The blocked sampler must reproduce them bit for bit whatever the
block size and wherever the sparse-round threshold lies.  (Like the march
goldens, the digests pin this platform's floating point.)
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from liqshock import (
    ModelParams,
    Payoff,
    intensity_curve,
    mc_linear_price,
    sample_realized_ttm,
)
from liqshock import mc

GOLDENS = json.loads((Path(__file__).parent / "data" /
                      "sampler_digests_50k.json").read_text())
SETS = sorted(GOLDENS["sets"])


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64)
                          .tobytes()).hexdigest()


def draw_digests(name: str) -> dict[str, str]:
    """Digests of MMM and MEMM (both start regimes) and single-shock MEMM
    draws, with and without antithetic pairs, for one stored set."""
    spec = GOLDENS["sets"][name]
    params = ModelParams(**spec["params"])
    seed, n = spec["seed"], GOLDENS["n_paths"]
    out = {}
    for measure in ("MMM", "MEMM"):
        curve = intensity_curve(params, measure)
        for regime in (0, 1):
            for anti in (False, True):
                out[f"{measure}_r{regime}_anti{int(anti)}"] = digest(
                    sample_realized_ttm(curve, params.T, regime, seed, n, anti))
    curve = intensity_curve(params, "MEMM_single_shock")
    for anti in (False, True):
        out[f"MEMM_single_shock_anti{int(anti)}"] = digest(
            sample_realized_ttm(curve, params.T, 0, seed, n, anti))
    return out


def test_goldens_reach_sparse_rounds_and_several_blocks(monkeypatch):
    """The stored sets exercise what they are meant to: more than one
    block in a dense round, and sparse rounds."""
    rounds = []
    real = mc._live_uniforms

    def spy(seed, round_idx, antithetic, n_paths, idx):
        rounds.append(round_idx)
        return real(seed, round_idx, antithetic, n_paths, idx)

    monkeypatch.setattr(mc, "_live_uniforms", spy)
    assert GOLDENS["n_paths"] > 4 * mc._BLOCK
    for name in SETS:
        rounds.clear()
        spec = GOLDENS["sets"][name]
        params = ModelParams(**spec["params"])
        sample_realized_ttm(intensity_curve(params, "MEMM"), params.T, 0,
                            spec["seed"], GOLDENS["n_paths"])
        assert len(set(rounds)) >= 3, name


@pytest.mark.parametrize("name", SETS)
def test_draws_match_digests(name):
    assert draw_digests(name) == GOLDENS["sets"][name]["digests"]


@pytest.mark.parametrize("name", SETS)
@pytest.mark.parametrize("fraction", [1.0, 0.0], ids=["always_gather",
                                                      "never_gather"])
def test_draws_independent_of_sparse_threshold(monkeypatch, name, fraction):
    monkeypatch.setattr(mc, "_SPARSE_FRACTION", fraction)
    assert draw_digests(name) == GOLDENS["sets"][name]["digests"]


def test_draws_independent_of_block_size(monkeypatch):
    monkeypatch.setattr(mc, "_BLOCK", 64)
    name = SETS[-1]
    assert draw_digests(name) == GOLDENS["sets"][name]["digests"]


CAP = mc._round_cap(1.0, 200.0)


@pytest.mark.parametrize("seed", [0, 20121, 2 ** 63 - 1])
@pytest.mark.parametrize("round_idx", [0, 7, CAP // 3, CAP - 1])
@pytest.mark.parametrize("n_paths", [100, 1001, 40_000])
def test_live_uniforms_match_the_filled_vectors(seed, round_idx, n_paths):
    """Both rows of the Philox gather equal numpy's own fills at random
    ascending index sets, with and without the antithetic mirror (sets
    then straddle n/2)."""
    rng = np.random.default_rng([seed % 2 ** 32, round_idx, n_paths])
    accept = mc._round_uniforms(seed, round_idx, 1, False, np.empty(n_paths))
    for anti in (False, True) if n_paths % 2 == 0 else (False,):
        thin = mc._round_uniforms(seed, round_idx, 0, anti, np.empty(n_paths))
        for size in (1, 5, min(257, n_paths), n_paths):
            idx = np.sort(rng.choice(n_paths, size=size, replace=False))
            u = mc._live_uniforms(seed, round_idx, anti, n_paths, idx)
            assert u.shape == (2, size)
            assert np.array_equal(u[0], thin[idx])
            assert np.array_equal(u[1], accept[idx])
        if anti:
            half = n_paths // 2
            idx = np.arange(half - 3, half + 3)
            u = mc._live_uniforms(seed, round_idx, anti, n_paths, idx)
            assert np.array_equal(u[0], thin[idx])


@pytest.mark.parametrize("measure,antithetic", [
    ("MMM", False), ("MEMM", False), ("MEMM", True),
    ("MEMM_single_shock", False)])
def test_memory_stays_below_twelve_doubles_per_path(params, measure, antithetic):
    """The sampler keeps compact live-path state and blocks its
    temporaries, and bs_price evaluates the sampled clocks in blocks, so
    the whole price peaks below 12 float64 per path."""
    n = 200_000
    tracemalloc.start()
    try:
        mc_linear_price(params, Payoff("vanilla_call", 10.0), measure, 10.0,
                        n, seed=41, antithetic=antithetic)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * n
