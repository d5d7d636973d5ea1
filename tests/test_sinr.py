"""SINR evaluation: kernel engine, closed form, duality identities, noise statistics."""

import math

import numpy as np
import pytest

from helpers import dense_role_swapped, random_pathlist, random_waveform
from pops import (
    LatticeConfig,
    PathList,
    SeparableChannel,
    SinrReport,
    make_conventional_rx,
    make_conventional_tx,
    noise_correlation,
    power_ratio,
    sinr,
    sinr_conventional,
    sinr_time_reversed,
    time_reverse,
)


class TestReport:
    """Power bookkeeping in the report object."""

    def test_noise_floor_is_inverse_snr(self):
        cfg = LatticeConfig(N=20, Q=16)
        ch = PathList.ideal()
        r = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), ch, cfg, snr=4.0)
        assert r.pn == pytest.approx(0.25)
        assert r.sinr == pytest.approx(r.ps / (r.pi + r.pn))

    def test_zero_noise_limit(self):
        cfg = LatticeConfig(N=20, Q=16)
        ch = PathList.from_paths([(0, 0.0, 0.5), (9, 0.0, 0.5)])
        r = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), ch, cfg, math.inf)
        assert r.pn == 0.0
        assert r.sinr == pytest.approx(r.sir)

    def test_interference_free_sir_is_infinite(self):
        cfg = LatticeConfig(N=20, Q=16)
        r = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), PathList.ideal(), cfg, 10.0)
        assert r.pi < 1e-15
        assert math.isinf(r.sir)

    def test_rejects_negative_powers_and_bad_snr(self):
        with pytest.raises(ValueError):
            SinrReport(ps=-1.0, pi=0.0, pn=0.0, sinr=1.0, sir=1.0, snr=1.0)
        cfg = LatticeConfig(N=20, Q=16)
        with pytest.raises(ValueError):
            sinr(make_conventional_tx(cfg), make_conventional_rx(cfg),
                 PathList.ideal(), cfg, snr=0.0)


class TestConventionalClosedForm:
    """The rectangular-pair SINR in closed form versus the kernel engine."""

    def test_guard_protected_channel_hits_q_over_n_ratio(self):
        # All delays within the guard, no Doppler: P_S = Q/N, P_I = 0,
        # so SINR = (Q/N) / (1/snr) = 8 at N=20, Q=16, snr=10.
        cfg = LatticeConfig(N=20, Q=16)
        ch = PathList.from_paths([(0, 0.0, 0.4), (2, 0.0, 0.35), (4, 0.0, 0.25)])
        r = sinr_conventional(cfg, ch, snr=10.0)
        assert r.sinr == pytest.approx(8.0, abs=1e-12)
        engine = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), ch, cfg, 10.0)
        assert engine.sinr == pytest.approx(8.0, abs=1e-9)

    def test_matches_engine_on_random_channels(self):
        rng = np.random.default_rng(51)
        for trial in range(12):
            n = int(rng.integers(10, 28))
            q = int(rng.integers(6, n + 1))
            cfg = LatticeConfig(N=n, Q=q)
            # delays up to ~1.5 N: far beyond the guard interval
            ch = random_pathlist(rng, max_delay=int(1.5 * n), k=4, nu_scale=0.03)
            want = sinr_conventional(cfg, ch, snr=10.0)
            got = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), ch, cfg, 10.0)
            assert got.sinr == pytest.approx(want.sinr, rel=1e-8), trial
            assert got.ps == pytest.approx(want.ps, rel=1e-8), trial

    def test_matches_engine_separable(self):
        rng = np.random.default_rng(52)
        for bdtm in (1e-3, 1e-2, 0.1):
            cfg = LatticeConfig(N=20, Q=16)
            ch = SeparableChannel.from_spread_product(cfg, bdtm)
            want = sinr_conventional(cfg, ch, 10.0).sinr
            got = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), ch, cfg, 10.0).sinr
            assert got == pytest.approx(want, rel=1e-8), bdtm

    def test_power_conservation_any_delays(self):
        rng = np.random.default_rng(53)
        for trial in range(6):
            cfg = LatticeConfig(N=14, Q=8)
            ch = random_pathlist(rng, max_delay=20, k=3, nu_scale=0.05)
            r = sinr_conventional(cfg, ch, 10.0)
            assert r.ps + r.pi == pytest.approx(cfg.Q / cfg.N, rel=1e-12), trial

    def test_quantile_paths_match_separable_on_criterion_lattices(self):
        # to_pathlist puts 64 Dopplers on every delay; the closed form sums
        # them path by path and must land on the separable channel's J0 value.
        for cfg in (LatticeConfig(N=20, Q=16), LatticeConfig(N=12, Q=8),
                    LatticeConfig(N=36, Q=32)):
            channels = [SeparableChannel.from_spread_product(cfg, v)
                        for v in (1e-3, 3e-3, 0.01, 0.03, 0.1)]
            channels.append(SeparableChannel.with_uniform_delays(
                K=6, b=0.6, max_delay=cfg.guard + 5, Bd=0.003))
            if cfg.N == 20:  # past the symbol itself
                channels.append(SeparableChannel.with_uniform_delays(
                    K=6, b=0.6, max_delay=22, Bd=0.003))
            for ch in channels:
                want = sinr_conventional(cfg, ch, 10.0).sinr
                got = sinr_conventional(cfg, ch.to_pathlist(64), 10.0).sinr
                assert got == pytest.approx(want, rel=1e-12), (cfg, ch)

    def test_two_dopplers_on_one_delay_past_the_guard(self):
        cfg = LatticeConfig(N=10, Q=8)  # guard of 2 samples
        ch = PathList.from_paths([(0, 0.0, 0.4), (5, -0.03, 0.35), (5, 0.02, 0.25)])
        want = sinr_conventional(cfg, ch, 10.0)
        got = sinr(make_conventional_tx(cfg), make_conventional_rx(cfg), ch, cfg, 10.0)
        assert got.sinr == pytest.approx(want.sinr, rel=1e-8)
        assert got.ps == pytest.approx(want.ps, rel=1e-8)

    def test_delay_beyond_symbol_kills_useful_power(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = PathList.from_paths([(25, 0.0, 1.0)])  # past the whole symbol
        r = sinr_conventional(cfg, ch, 10.0)
        assert r.ps == 0.0
        assert r.pi == pytest.approx(cfg.Q / cfg.N)


class TestDualityIdentities:
    """Role swap (against the dense S(-p, -nu) oracle) and time reversal leave
    the SINR unchanged."""

    def _random_instance(self, rng):
        cfg = LatticeConfig(N=10, Q=8)
        ch = random_pathlist(rng, max_delay=5, k=3, nu_scale=0.05)
        tx = random_waveform(rng, 12, offset=-4)
        rx = random_waveform(rng, 9, offset=-2)
        return cfg, ch, tx, rx

    def test_role_swap(self):
        rng = np.random.default_rng(61)
        for trial in range(10):
            cfg, ch, tx, rx = self._random_instance(rng)
            a = sinr(tx, rx, ch, cfg, 10.0)
            ps, pi = dense_role_swapped(tx, rx, ch, cfg)
            assert ps == pytest.approx(a.ps, rel=1e-10), trial
            assert pi == pytest.approx(a.pi, rel=1e-10), trial
            assert power_ratio(ps, pi + 0.1) == pytest.approx(a.sinr, rel=1e-10), trial

    def test_time_reversal(self):
        rng = np.random.default_rng(62)
        for trial in range(10):
            cfg, ch, tx, rx = self._random_instance(rng)
            a = sinr(tx, rx, ch, cfg, 10.0)
            b = sinr_time_reversed(tx, rx, ch, cfg, 10.0)
            assert b.sinr == pytest.approx(a.sinr, rel=1e-10), trial

    def test_time_reversal_is_swapped_reversed_pair(self):
        rng = np.random.default_rng(63)
        cfg, ch, tx, rx = self._random_instance(rng)
        direct = sinr(time_reverse(rx), time_reverse(tx), ch, cfg, 10.0)
        assert sinr_time_reversed(tx, rx, ch, cfg, 10.0).sinr == pytest.approx(direct.sinr)

    def test_scale_invariance(self):
        rng = np.random.default_rng(64)
        cfg, ch, tx, rx = self._random_instance(rng)
        from pops import Waveform

        big_tx = Waveform(3.0 * tx.samples, offset=tx.offset)
        small_rx = Waveform(0.2 * rx.samples, offset=rx.offset)
        a = sinr(tx, rx, ch, cfg, 10.0)
        b = sinr(big_tx, small_rx, ch, cfg, 10.0)
        assert b.sinr == pytest.approx(a.sinr, rel=1e-12)
        assert b.ps == pytest.approx(a.ps, rel=1e-12)


class TestNoiseCorrelation:
    """Second-order statistics of the demodulated noise across lattice points."""

    def test_rectangular_receiver_is_white(self):
        cfg = LatticeConfig(N=20, Q=16)
        rx = make_conventional_rx(cfg)
        positions = [(m, n) for n in (0, 1) for m in (0, 1, 5, 9)]
        R = noise_correlation(rx, cfg, positions)
        np.testing.assert_allclose(np.diag(R).real, rx.energy, rtol=1e-12)
        off = R - np.diag(np.diag(R))
        assert np.abs(off).max() < 1e-12

    def test_long_receiver_correlates_subcarriers(self):
        # A receiver longer than Q (here the time-reversed transmit rectangle,
        # as a zero-padding scheme would use) spans N samples, so same-symbol
        # subcarrier projections overlap and correlate.
        cfg = LatticeConfig(N=20, Q=16)
        rx = time_reverse(make_conventional_tx(cfg))
        positions = [(m, 0) for m in range(4)]
        R = noise_correlation(rx, cfg, positions)
        diag = np.diag(R).real
        np.testing.assert_allclose(diag, rx.energy, rtol=1e-12)
        corr = np.abs(R[0, 1]) / diag[0]
        assert corr > 0.01

    def test_hermitian(self):
        cfg = LatticeConfig(N=10, Q=8)
        rng = np.random.default_rng(71)
        rx = random_waveform(rng, 14, offset=-3)
        R = noise_correlation(rx, cfg, [(0, 0), (1, 0), (2, 1)])
        np.testing.assert_allclose(R, R.conj().T, atol=1e-14)
