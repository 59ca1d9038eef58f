"""The blocked thinning sampler and its counter-based Philox draws.

``data/sampler_digests_50k.json`` holds SHA-256 digests of
``sample_realized_ttm`` draws at 50,000 paths, written by the sampler that
filled both uniform vectors for every path in every round.  50,000 paths
span several blocks of live paths, and both dense rounds (draws taken from
the filled vectors) and sparse rounds (draws computed at the live indices
only).  The blocked sampler must reproduce them bit for bit whatever the
block size and wherever the sparse-round threshold lies.  Its ``curves``
entry is a constant-flagged curve whose nu01 equals its bound on [0, T/2]
and falls below it after, so acceptance is certain for some candidates
and not for others; those digests were written before dense rounds
learned to skip the acceptance fill.  (Like the march goldens, the digests
pin this platform's floating point.)  Keys keep the ``anti0`` suffix they
were stored with, when the sampler also had an antithetic mode.
"""

from __future__ import annotations

import json
import logging
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import digest
from liqshock import (
    ModelParams,
    Payoff,
    intensity_curve,
    mc_linear_price,
    sample_realized_ttm,
)
from liqshock import mc
from liqshock.model import IntensityCurve

GOLDENS = json.loads((Path(__file__).parent / "data" /
                      "sampler_digests_50k.json").read_text())
SETS = sorted(GOLDENS["sets"])


def draw_digests(name: str) -> dict[str, str]:
    """Digests of MMM and MEMM (both start regimes) and single-shock MEMM
    draws for one stored set."""
    spec = GOLDENS["sets"][name]
    params = ModelParams(**spec["params"])
    seed, n = spec["seed"], GOLDENS["n_paths"]
    out = {}
    for measure in ("MMM", "MEMM"):
        curve = intensity_curve(params, measure)
        for regime in (0, 1):
            out[f"{measure}_r{regime}_anti0"] = digest(
                sample_realized_ttm(curve, params.T, regime, seed, n))
    curve = intensity_curve(params, "MEMM_single_shock")
    out["MEMM_single_shock_anti0"] = digest(
        sample_realized_ttm(curve, params.T, 0, seed, n))
    return out


def kinked_curve() -> tuple[IntensityCurve, dict]:
    """The stored curve: nu01 = 1.5 - max(0, t - 0.5) under its bound
    nu01(0) = 1.5, and a constant nu10 = 12."""
    spec = GOLDENS["curves"]["nu01_kinked_at_half"]
    params = ModelParams(**spec["params"])
    curve = IntensityCurve("kinked", params,
                           lambda t: (1.5 - np.maximum(0.0, t - 0.5),
                                      np.full_like(t, 12.0)), constant=True)
    return curve, spec


def kinked_digests() -> dict[str, str]:
    curve, spec = kinked_curve()
    return {f"r{regime}_anti0": digest(sample_realized_ttm(
                curve, curve.params.T, regime, spec["seed"],
                GOLDENS["n_paths"]))
            for regime in (0, 1)}


def count_fills(monkeypatch) -> list[int]:
    """Record the purpose of every ``_round_uniforms`` fill."""
    purposes = []
    real = mc._round_uniforms

    def spy(seed, round_idx, purpose, out, start=0):
        purposes.append(purpose)
        return real(seed, round_idx, purpose, out, start)

    monkeypatch.setattr(mc, "_round_uniforms", spy)
    return purposes


def zero_first_draws(monkeypatch) -> list[int]:
    """Make entry 0 of every dense fill exactly 0, and record the rounds
    whose thinning window was so filled."""
    rounds = []
    real = mc._round_uniforms

    def spy(seed, round_idx, purpose, out, start=0):
        real(seed, round_idx, purpose, out, start)
        if start == 0:
            out[0] = 0.0
            if purpose == 0:
                rounds.append(round_idx)
        return out

    monkeypatch.setattr(mc, "_round_uniforms", spy)
    return rounds


@pytest.mark.parametrize("measure,overrides,zero_rate_round", [
    ("MMM", dict(nu01=0.0), 0), ("MEMM_single_shock", {}, 2)])
def test_zero_draw_at_zero_rate_draws_no_candidate(monkeypatch, params,
                                                   measure, overrides,
                                                   zero_rate_round):
    """A thinning draw of exactly 0 at rate 0 gives -0.0 / -0.0, which the
    wait discards: the path draws no candidate, stays liquid to the
    horizon, and no warning escapes.  Under MMM at nu01 = 0 path 0 meets
    rate 0 in round 0.  Under the single-shock measure its acceptance
    draws are 0 too, so it takes a shock and recovers at t = 0 and meets
    regime 2's rate 0 in round 2."""
    rounds = zero_first_draws(monkeypatch)
    p = replace(params, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sample_realized_ttm(intensity_curve(p, measure), p.T, 0,
                                  seed=5, n_paths=1000)
    assert out[0] == p.T
    assert rounds[:zero_rate_round + 1] == list(range(zero_rate_round + 1))


@pytest.fixture
def live_gathers(monkeypatch) -> list[tuple[set[int], int]]:
    """Record every ``_live_uniforms`` gather: its distinct rounds and its
    index count."""
    gathers = []
    real = mc._live_uniforms

    def spy(seed, round_idx, idx):
        gathers.append((set(np.unique(round_idx).tolist()), idx.size))
        return real(seed, round_idx, idx)

    monkeypatch.setattr(mc, "_live_uniforms", spy)
    return gathers


def test_goldens_reach_sparse_rounds_and_several_blocks(live_gathers):
    """The stored sets exercise what they are meant to: more than one
    block in a dense round, and sparse rounds."""
    assert GOLDENS["n_paths"] > 4 * mc._BLOCK
    for name in SETS:
        live_gathers.clear()
        spec = GOLDENS["sets"][name]
        params = ModelParams(**spec["params"])
        sample_realized_ttm(intensity_curve(params, "MEMM"), params.T, 0,
                            spec["seed"], GOLDENS["n_paths"])
        assert len(set().union(*(r for r, _ in live_gathers))) >= 3, name


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


@pytest.mark.parametrize("block", [mc._BLOCK, 64])
def test_skipped_acceptance_fill_keeps_draws(monkeypatch, block):
    """Where some candidates reach their bound and others fall below it,
    the draws are those of the sampler that filled every acceptance
    vector."""
    monkeypatch.setattr(mc, "_BLOCK", block)
    assert kinked_digests() == GOLDENS["curves"]["nu01_kinked_at_half"][
        "digests"]


@pytest.mark.parametrize("name", SETS)
def test_acceptance_fills_only_where_a_candidate_can_be_rejected(
        monkeypatch, name):
    """MMM, and MEMM at d0 = 0, accept every candidate, so no round fills
    the acceptance vector (purpose 1); MEMM can reject any candidate, so
    every dense round (one thinning fill, purpose 0) fills it exactly
    once."""
    spec = GOLDENS["sets"][name]
    params = ModelParams(**spec["params"])
    purposes = count_fills(monkeypatch)
    for measure, mu0, fills in (("MMM", params.mu0, False),
                                ("MEMM", params.mu0, True),
                                ("MEMM", 0.0, False)):
        curve = intensity_curve(replace(params, mu0=mu0), measure)
        for regime in (0, 1):
            purposes.clear()
            sample_realized_ttm(curve, params.T, regime, spec["seed"],
                                GOLDENS["n_paths"])
            dense = purposes.count(0)
            assert dense >= 3
            assert purposes.count(1) == (dense if fills else 0)


def test_kinked_curve_fills_some_dense_rounds(monkeypatch):
    """Started in the shock, round 0 holds only nu10 = bound candidates
    and skips its fill; later rounds meet nu01 below its bound."""
    curve, spec = kinked_curve()
    purposes = count_fills(monkeypatch)
    sample_realized_ttm(curve, curve.params.T, 1, spec["seed"],
                        GOLDENS["n_paths"])
    assert purposes[:2] == [0, 0]
    assert 0 < purposes.count(1) < purposes.count(0)


CAP = mc._round_cap(1.0, 200.0)


@pytest.mark.parametrize("seed", [0, 20121, 2 ** 63 - 1])
@pytest.mark.parametrize("round_idx", [0, 7, CAP // 3, CAP - 1])
@pytest.mark.parametrize("n_paths", [100, 1001, 40_000])
def test_live_uniforms_match_the_filled_vectors(seed, round_idx, n_paths):
    """Both rows of the Philox gather equal numpy's own fills at random
    ascending index sets."""
    rng = np.random.default_rng([seed % 2 ** 32, round_idx, n_paths])
    accept = mc._round_uniforms(seed, round_idx, 1, np.empty(n_paths))
    thin = mc._round_uniforms(seed, round_idx, 0, np.empty(n_paths))
    for size in (1, 5, min(257, n_paths), n_paths):
        idx = np.sort(rng.choice(n_paths, size=size, replace=False))
        u = mc._live_uniforms(seed, round_idx, idx)
        assert u.shape == (2, size)
        assert np.array_equal(u[0], thin[idx])
        assert np.array_equal(u[1], accept[idx])


def test_live_uniforms_take_one_round_per_index():
    """With one round per index, four rounds interleaved over more than
    one block, each entry of both rows is its own round's fill."""
    seed, n_paths = 20121, 40_000
    rng = np.random.default_rng(n_paths)
    idx = np.sort(rng.choice(n_paths, size=12_000, replace=False))
    mixed = np.array([0, 7, CAP // 3, CAP - 1])
    rounds = mixed[np.arange(idx.size) % mixed.size]
    u = mc._live_uniforms(seed, rounds, idx)
    assert u.shape == (2, idx.size)
    for r in mixed:
        at = rounds == r
        for purpose in (0, 1):
            fill = mc._round_uniforms(seed, int(r), purpose,
                                      np.empty(n_paths))
            assert np.array_equal(u[purpose, at], fill[idx[at]])


# 50,000 paths in chunks of 12,004: five chunks, the last one short.
SHORT_CHUNK = 12_004


def test_goldens_fit_one_shipped_chunk():
    """At the shipped chunk size every stored digest comes from one chunk,
    so the patched-chunk tests below are what runs them across chunks."""
    assert GOLDENS["n_paths"] <= mc._CHUNK
    assert -(-GOLDENS["n_paths"] // SHORT_CHUNK) == 5
    assert GOLDENS["n_paths"] % SHORT_CHUNK


@pytest.mark.parametrize("name", SETS)
def test_draws_match_digests_across_chunks(monkeypatch, name):
    monkeypatch.setattr(mc, "_CHUNK", SHORT_CHUNK)
    assert draw_digests(name) == GOLDENS["sets"][name]["digests"]


def test_kinked_curve_matches_digests_across_chunks(monkeypatch):
    monkeypatch.setattr(mc, "_CHUNK", SHORT_CHUNK)
    assert kinked_digests() == GOLDENS["curves"]["nu01_kinked_at_half"][
        "digests"]


@pytest.mark.parametrize("measure,regime", [("MMM", 0), ("MMM", 1),
                                            ("MEMM", 0), ("MEMM", 1),
                                            ("MEMM_single_shock", 0)])
def test_draws_independent_of_chunking(monkeypatch, params, measure, regime):
    """Three shipped chunks, the last of 12 paths, draw what one chunk
    holding every path draws."""
    curve = intensity_curve(params, measure)
    n = 2 * mc._CHUNK + 12
    chunked = sample_realized_ttm(curve, params.T, regime, 29, n)
    monkeypatch.setattr(mc, "_CHUNK", n)
    assert np.array_equal(
        chunked, sample_realized_ttm(curve, params.T, regime, 29, n))


@pytest.mark.parametrize("n_paths", [1000, 40_003])
def test_window_fill_is_the_slice_of_a_full_fill(n_paths):
    """A fill from entry ``start`` sets the Philox counter there and
    equals that slice of the fill from entry 0, short windows included."""
    seed, round_idx = 20121, 7
    for purpose in (0, 1):
        full = mc._round_uniforms(seed, round_idx, purpose,
                                  np.empty(n_paths))
        last = (n_paths - 1) // 4 * 4
        for start in (0, 4, n_paths // 8 * 4, last):
            for size in (n_paths - start, min(5, n_paths - start)):
                window = mc._round_uniforms(seed, round_idx, purpose,
                                            np.empty(size), start=start)
                assert np.array_equal(window, full[start:start + size])


@pytest.mark.parametrize("start", [1, 2, 3, 6, 4097])
def test_window_fill_refuses_unaligned_start(start):
    with pytest.raises(ValueError, match="multiple of 4"):
        mc._round_uniforms(0, 0, 0, np.empty(8), start=start)


def test_one_tail_gathers_once_per_round(live_gathers, params):
    """The chunks' sparse tails run as one: a 400k-path call over four
    chunks gathers its draws at the live indices once per tail round, not
    once per round of every chunk, and every parked path is in the first
    gather, so the gathers shrink."""
    sample_realized_ttm(intensity_curve(params, "MEMM"), params.T, 0, 3,
                        400_000)
    assert 400_000 > 3 * mc._CHUNK
    assert 0 < len(live_gathers) <= 10
    sizes = [n for _, n in live_gathers]
    assert sizes == sorted(sizes, reverse=True)


# 50,000 paths in chunks of 16,384: three full chunks and one of 848.
# Under the first stored set's regime-1 curves the short chunk turns
# sparse a round before the full ones.
PARKING_CHUNK = 16_384


def test_cohorts_parked_at_different_rounds_keep_draws(monkeypatch,
                                                       live_gathers):
    """Chunks that park at different rounds run in the one tail, each path
    at its own round: a gather holds paths of two rounds or more, and the
    draws match the digests."""
    monkeypatch.setattr(mc, "_CHUNK", PARKING_CHUNK)
    name = SETS[0]
    assert draw_digests(name) == GOLDENS["sets"][name]["digests"]
    assert max(len(rounds) for rounds, _ in live_gathers) >= 2


def test_one_acceptance_record_per_call(monkeypatch, params, caplog):
    """A call over three chunks logs one record with the whole call's
    acceptance ratio and candidate count, those of a one-chunk call."""
    curve = intensity_curve(params, "MEMM")
    n = 50_000

    def record_args():
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="liqshock.mc"):
            sample_realized_ttm(curve, params.T, 0, 37, n)
        records = [r for r in caplog.records if r.name == "liqshock.mc"]
        assert len(records) == 1
        return records[0].args

    whole = record_args()
    monkeypatch.setattr(mc, "_CHUNK", 20_000)
    chunked = record_args()
    assert chunked[:2] == whole[:2]
    assert 0.0 < whole[0] < 1.0 and whole[1] > n


def traced_peak(params, n: int) -> int:
    tracemalloc.start()
    try:
        mc_linear_price(params, Payoff("vanilla_call", 10.0), "MEMM", 10.0,
                        n, seed=41)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_grows_by_the_result_alone(params):
    """The sampler's working set is chunk-sized, so from 200k to 400k
    paths the traced peak of a price grows by at most 10 bytes per added
    path: the 8-byte result, not the per-path state."""
    small, large = traced_peak(params, 200_000), traced_peak(params, 400_000)
    assert large - small <= 10 * 200_000


@pytest.mark.parametrize("measure", ["MMM", "MEMM", "MEMM_single_shock"])
def test_memory_stays_below_twelve_doubles_per_path(params, measure):
    """The sampler keeps compact live-path state and blocks its
    temporaries, and bs_price evaluates the sampled clocks in blocks, so
    the whole price peaks below 12 float64 per path."""
    n = 200_000
    tracemalloc.start()
    try:
        mc_linear_price(params, Payoff("vanilla_call", 10.0), measure, 10.0,
                        n, seed=41)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 8 * n


def test_memory_per_path_at_a_million_paths(params):
    """The clocks are priced and reduced in place, so a 1M-path MEMM
    price holds one path-length array plus chunk-sized sampler state and
    the parked tail: its traced peak stays below 13 bytes per path.  It
    read 11.9 bytes per path when written, 1.1 MB below the bound; a
    second path-length array (8 bytes per path) or a 2**17-path chunk
    (2.7 MB more state) breaks it."""
    n = 1_000_000
    assert traced_peak(params, n) < 13 * n
