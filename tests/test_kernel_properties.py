"""Property tests of the structured kernels on drawn lattices, windows and channels.

The structured KS factor and comb blocks of T must expand to the dense
kernels they replaced (``tests/helpers.py``), the half-step must land on the
dense eigensolver's value, the SINR must keep its role-swap and
time-reversal identities, and a sync sweep's one kernel per pair must give
every point the SINR of its own evaluation.
"""

import dataclasses
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import j0

from helpers import dense_half_step, dense_ki, dense_ks, dense_role_swapped, expand, random_waveform
from pops import (
    LatticeConfig,
    PathList,
    PopsResult,
    SeparableChannel,
    SinrReport,
    build_ks_kin,
    half_step,
    make_conventional_rx,
    make_conventional_tx,
    modulate,
    power_ratio,
    shift,
    sinr,
    sinr_time_reversed,
    sweep_freq_sync,
    sweep_time_sync,
)
from pops.channel import doppler_correlation, jakes_nodes
from pops.codec import Channel, decode, encode
from pops.kernels import _total_layout, _useful_layout

IDEAL = PathList.ideal()
LAYOUTS = (_useful_layout, _total_layout)
PROPERTY = settings(max_examples=30, deadline=timedelta(seconds=5), derandomize=True,
                    database=None)


@st.composite
def channels(draw, n):
    """A PathList, a SeparableChannel or the ideal channel.  Bd*Ts reaches 0.9,
    so Bd*Ts*L reaches the node rule's limit (about 50, past which the rounding
    of the node phases alone nears 1e-14)."""
    kind = draw(st.sampled_from(["paths", "separable", "ideal"]))
    if kind == "ideal":
        return IDEAL
    if kind == "separable":
        return SeparableChannel.with_uniform_delays(
            K=draw(st.integers(1, 4)), b=draw(st.floats(0.2, 0.8)),
            max_delay=draw(st.integers(0, 2 * n)), Bd=draw(st.floats(0.0, 0.9)))
    paths = draw(st.lists(
        st.tuples(st.integers(0, 2 * n), st.floats(-0.05, 0.05), st.floats(0.1, 1.0)),
        min_size=1, max_size=4, unique_by=lambda p: (p[0], p[1]),
    ))
    total = sum(p[2] for p in paths)
    return PathList.from_paths([(d, nu, w / total) for d, nu, w in paths])


@st.composite
def instances(draw):
    """Lattice, channel, a waveform, a window (length, start or None) and snr."""
    n = draw(st.integers(4, 16))
    cfg = LatticeConfig(N=n, Q=draw(st.integers(2, n)))
    ch = draw(channels(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = random_waveform(rng, draw(st.integers(1, 3 * n)), offset=draw(st.integers(-n, n)))
    length = draw(st.integers(1, 4 * n))
    start = draw(st.one_of(st.none(), st.integers(-2 * n, 2 * n)))
    snr = draw(st.one_of(st.just(math.inf), st.floats(0.5, 1000.0)))
    return cfg, ch, w, length, start, snr


def _assert_dense(ks, kin, w, ch, cfg, snr):
    """The structured pair equals the dense KS and KI + noise I to 1e-10 of its largest entry."""
    length, s = ks.L, ks.window_start
    assert kin.window_start == s and kin.L == length
    want_ks = dense_ks(w, ch, length, s)
    noise = 0.0 if math.isinf(snr) else w.energy / snr
    want_kin = dense_ki(w, ch, cfg, length, s) + noise * np.eye(length)
    scale = max(np.abs(want_ks).max(), np.abs(want_kin).max())
    np.testing.assert_allclose(expand(ks), want_ks, rtol=0, atol=1e-10 * scale)
    np.testing.assert_allclose(expand(kin), want_kin, rtol=0, atol=1e-10 * scale)


@PROPERTY
@given(instances())
def test_structured_kernels_expand_to_dense(inst):
    # Built once on an empty layout cache (a miss) and once more for an
    # equal channel that is another object (a hit): both equal the dense
    # oracle, and the hit repeats the miss bit for bit.
    cfg, ch, w, length, start, snr = inst
    for layout in LAYOUTS:
        layout.cache_clear()
    ks, kin = build_ks_kin(w, ch, cfg, length, snr, window_start=start)
    assert ks.L == length
    _assert_dense(ks, kin, w, ch, cfg, snr)
    same = decode(Channel, encode(ch))
    assert same is not ch
    ks2, kin2 = build_ks_kin(w, same, cfg, length, snr, window_start=start)
    assert [layout.cache_info().misses for layout in LAYOUTS] == [1, 1]
    assert _total_layout.cache_info().hits == 1
    _assert_dense(ks2, kin2, w, same, cfg, snr)
    for a, b in ((ks, ks2), (kin, kin2)):
        assert a.window_start == b.window_start and np.array_equal(a.data, b.data)


@PROPERTY
@given(instances(), st.sampled_from(["Bd", "delay"]))
def test_channels_differing_in_one_value_share_no_layout(inst, what):
    # Built right after its neighbour on the same geometry, each channel's
    # kernels still equal its own dense oracle.
    cfg, ch, w, length, start, snr = inst
    if what == "Bd":
        assume(isinstance(ch, SeparableChannel))
        other = dataclasses.replace(ch, Bd=ch.Bd + 0.05 if ch.Bd < 0.9 else ch.Bd / 2)
    elif isinstance(ch, SeparableChannel):
        other = dataclasses.replace(ch, delays=ch.delays + np.eye(1, ch.K, ch.K - 1, dtype=int)[0])
    else:
        other = PathList(ch.delays + np.eye(1, ch.K, ch.K - 1, dtype=int)[0], ch.dopplers,
                         ch.powers, ch.Ts)
    assert other != ch
    s = build_ks_kin(w, ch, cfg, length, snr, window_start=start)[0].window_start
    for c in (ch, other, ch):
        _assert_dense(*build_ks_kin(w, c, cfg, length, snr, window_start=s), w, c, cfg, snr)


def test_layout_cache_stays_bounded():
    cfg = LatticeConfig(N=12, Q=8)
    ch = SeparableChannel.from_spread_product(cfg, 0.01)
    w = random_waveform(np.random.default_rng(0), 12, offset=-6)
    for start in range(-40, 40):
        build_ks_kin(w, ch, cfg, 16, 10.0, window_start=start)
    for layout in LAYOUTS:
        info = layout.cache_info()
        assert info.currsize == info.maxsize and info.misses >= 80


@PROPERTY
@given(instances())
def test_half_step_equals_dense_eigensolve(inst):
    cfg, ch, w, length, start, snr = inst
    # A finite snr keeps T definite; at snr=inf the ideal channel's T is
    # singular and the solve runs on its range, where interference vanishes.
    assume(math.isfinite(snr) or ch is IDEAL)
    ks, kin = build_ks_kin(w, ch, cfg, length, snr, window_start=start)
    _, value = half_step(ks, kin)
    want = dense_half_step(expand(ks), expand(kin))
    assert value == want or value == pytest.approx(want, rel=1e-10)


@st.composite
def pairs(draw):
    """Lattice, channel and a transmit/receive pair of any lengths and offsets."""
    n = draw(st.integers(4, 16))
    cfg = LatticeConfig(N=n, Q=draw(st.integers(2, n)))
    ch = draw(channels(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tx = random_waveform(rng, draw(st.integers(1, 3 * n)), offset=draw(st.integers(-n, n)))
    rx = random_waveform(rng, draw(st.integers(1, 3 * n)), offset=draw(st.integers(-n, n)))
    return cfg, ch, tx, rx, draw(st.one_of(st.just(math.inf), st.floats(0.5, 1000.0)))


def _same_report(a, b):
    total = a.ps + a.pi
    assert b.ps == pytest.approx(a.ps, rel=0, abs=1e-10 * total)
    assert b.pi == pytest.approx(a.pi, rel=0, abs=1e-10 * total)
    for x, y in ((a.sinr, b.sinr), (a.sir, b.sir)):
        assert x == y or x == pytest.approx(y, rel=1e-10)


@PROPERTY
@given(pairs())
def test_role_swap_identity(pair):
    cfg, ch, tx, rx, snr = pair
    ps, pi = (max(p, 0.0) for p in dense_role_swapped(tx, rx, ch, cfg))
    pn = 0.0 if math.isinf(snr) else 1.0 / snr
    swapped = SinrReport(ps=ps, pi=pi, pn=pn, sinr=power_ratio(ps, pi + pn),
                         sir=power_ratio(ps, pi), snr=snr)
    _same_report(sinr(tx, rx, ch, cfg, snr), swapped)


@PROPERTY
@given(pairs())
def test_time_reversal_identity(pair):
    cfg, ch, tx, rx, snr = pair
    _same_report(sinr(tx, rx, ch, cfg, snr), sinr_time_reversed(tx, rx, ch, cfg, snr))


@st.composite
def sync_sweeps(draw):
    """A fixed pair, its lattice and channel, CP baselines, snr 10 or inf, and
    offsets: timing errors out to past the pulse's whole reach (so a shifted
    receiver overlaps it partly or not at all) and integer or fractional
    carrier offsets."""
    n = draw(st.integers(4, 12))
    cfg = LatticeConfig(N=n, Q=draw(st.integers(2, n)))
    ch = draw(channels(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tx = random_waveform(rng, draw(st.integers(1, 2 * n)), offset=draw(st.integers(-n, n)))
    rx = random_waveform(rng, draw(st.integers(1, 2 * n)), offset=draw(st.integers(-n, n)))
    reach = len(tx) + len(rx) + int(ch.delays.max()) + 3 * n
    taus = draw(st.lists(st.integers(-reach, reach), min_size=1, max_size=6, unique=True))
    dfreqs = draw(st.lists(st.one_of(st.integers(-n, n).map(float), st.floats(-2.0, 2.0)),
                           min_size=1, max_size=6))
    cps = draw(st.lists(st.integers(0, n), max_size=2, unique=True))
    return cfg, ch, tx, rx, taus, dfreqs, cps, draw(st.sampled_from([10.0, math.inf]))


def _series_pairs(cfg, tx, rx, cps):
    """Each sweep series with the lattice and the pair it evaluates."""
    yield "pops", cfg, tx, rx
    for cp in cps:
        c = LatticeConfig(N=cfg.Q + cp, Q=cfg.Q)
        yield f"conventional_cp{cp}", c, make_conventional_tx(c), make_conventional_rx(c)


@PROPERTY
@given(sync_sweeps())
def test_sync_sweeps_equal_per_point_sinr(case):
    cfg, ch, tx, rx, taus, dfreqs, cps, snr = case
    stub = PopsResult(tx_opt=tx, rx_opt=rx, sinr_trajectory=(), converged=True,
                      iterations_used=0)
    sweeps = (
        (sweep_time_sync(stub, ch, cfg, taus, snr=snr, cp_baselines=cps),
         lambda w, v, Q: shift(w, int(v))),
        (sweep_freq_sync(stub, ch, cfg, dfreqs, snr=snr, cp_baselines=cps), modulate),
    )
    for result, perturb in sweeps:
        assert list(result.series) == [name for name, *_ in _series_pairs(cfg, tx, rx, cps)]
        for name, c, t, r in _series_pairs(cfg, tx, rx, cps):
            for v, got in zip(result.axis_values, result.series[name], strict=True):
                want = sinr(t, perturb(r, v, c.Q), ch, c, snr).sinr
                # Interference is x^H T x - ps, so a SINR s is resolved to about
                # 2e-16 (1 + s) relative: 1e-12 holds up to s = 1e2 and grows
                # with s past it.  A useful power that cancels (an orthogonal
                # subcarrier) leaves s at rounding size, held to 1e-15.
                rel = 1e-12 * max(1.0, want / 1e2)
                assert got == want or got == pytest.approx(want, rel=rel, abs=1e-15), (name, v)


@pytest.mark.parametrize("L", [2, 16, 160, 768])
def test_node_rule_reproduces_j0(L):
    lags = np.arange(L)
    for product in np.linspace(0.0, 50.0, 201):  # Bd * Ts * L up to the rule's limit
        bd_ts = product / L
        if bd_ts >= 1.0:
            continue
        theta = jakes_nodes(bd_ts, L)
        got = np.exp(1j * np.outer(theta, lags)).mean(axis=0)
        assert np.abs(got - j0(np.pi * bd_ts * lags)).max() <= 1e-14, (L, product, theta.size)


@pytest.mark.parametrize("seed", range(4))
def test_node_mean_of_paths_is_the_direct_sum(seed):
    # Eight paths on three delays, so several Dopplers share a delay; a path
    # list's one node per path is exact at every lag, negative ones included.
    rng = np.random.default_rng(seed)
    delays = rng.integers(0, 3, size=8)
    nus = rng.uniform(-0.05, 0.05, size=8)
    weights = rng.uniform(0.1, 1.0, size=8)
    ts = rng.uniform(0.5, 1.0)
    ch = PathList.from_paths(zip(delays, nus, weights / weights.sum()), Ts=ts)
    assert np.unique(ch.delays).size < ch.K
    L = 64
    lags = np.arange(1 - L, L)
    got = ch.powers @ doppler_correlation(ch.doppler_nodes(L), lags)
    want = sum(pk * np.exp(2j * np.pi * nu * ch.Ts * lags)
               for nu, pk in zip(ch.dopplers, ch.powers))
    assert np.abs(got - want).max() <= 1e-14
