"""Direct link simulation as an independent check on the kernel algebra."""

import math
from pathlib import Path

import numpy as np
import pytest

from pops import (
    LatticeConfig,
    McConfig,
    PathList,
    SeparableChannel,
    estimate_sinr,
    make_conventional_rx,
    make_conventional_tx,
    required_symbol_span,
    sinr,
)
from pops.cli import EXIT_VALIDATION, main


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(trials=0)
        with pytest.raises(ValueError):
            McConfig(trials=10, alphabet="256qam")
        with pytest.raises(ValueError):
            McConfig(trials=10, chunk_size=0)
        with pytest.raises(ValueError):
            McConfig(trials=10, doppler_grid_size=0)

    @pytest.mark.parametrize("field,value", [
        ("trials", True), ("chunk_size", True), ("rng_seed", True),
        ("rng_seed", -1), ("rng_seed", 1.5), ("trials", 100.0),
    ])
    def test_integers_only(self, field, value):
        with pytest.raises(ValueError, match=field):
            McConfig(**{"trials": 10, field: value})

    def test_numpy_integers_accepted(self):
        mc = McConfig(trials=np.int64(100), rng_seed=np.uint32(0), chunk_size=np.int32(7))
        assert mc.trials == 100

    def test_doppler_grid_size_is_retired(self):
        assert McConfig(trials=10).doppler_grid_size == 64
        with pytest.raises(ValueError, match="retired.*Doppler nodes"):
            McConfig(trials=10, doppler_grid_size=16)

    def test_cli_names_a_bad_seed(self, tmp_path, capsys):
        ini = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "small.ini"
        code = main(["montecarlo", str(ini), "--set", "mc.rng_seed=-1",
                     "--set", f"run.output_dir={tmp_path}"])
        assert code == EXIT_VALIDATION
        assert "mc: rng_seed" in capsys.readouterr().err


class TestSymbolSpan:
    """How many lattice slots can reach the receive window."""

    def test_hand_computed_case(self):
        cfg = LatticeConfig(N=20, Q=16)
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        # rx occupies [0, 16); a delay of 24 pulls slot -1 pulses into it.
        assert required_symbol_span(tx, rx, max_delay=24, N=cfg.N) == (-1, 0)
        assert required_symbol_span(tx, rx, max_delay=0, N=cfg.N) == (0, 0)

    def test_slot_zero_always_included(self):
        cfg = LatticeConfig(N=20, Q=16)
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        lo, hi = required_symbol_span(tx, rx, max_delay=100, N=cfg.N)
        assert lo <= 0 <= hi


class TestAgainstAnalytic:
    """Estimates statistically consistent with the kernel quadratic forms."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=20, Q=16)
        self.tx = make_conventional_tx(self.cfg)
        self.rx = make_conventional_rx(self.cfg)

    def test_guard_protected_channel(self):
        # delays within the guard, no Doppler: exact SINR is 8.0 at snr=10
        ch = PathList.from_paths([(0, 0.0, 0.6), (4, 0.0, 0.4)])
        est = estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0,
                            McConfig(trials=20_000, rng_seed=5))
        assert abs(est.sinr - 8.0) < 3.0 * est.se
        assert est.se < 0.2
        assert est.pn == pytest.approx(0.1, abs=0.01)

    def test_prefix_absorbs_in_band_delays(self):
        ch = PathList.from_paths([(0, 0.0, 0.6), (4, 0.0, 0.4)])
        est = estimate_sinr(self.tx, self.rx, ch, self.cfg, math.inf,
                            McConfig(trials=4000, rng_seed=1))
        assert est.pi / est.ps < 1e-12
        assert est.pn == 0.0
        assert est.sinr == math.inf

    def test_dispersive_channel_matches_kernels(self):
        ch = SeparableChannel.from_spread_product(self.cfg, 0.01)
        want = sinr(self.tx, self.rx, ch, self.cfg, 10.0).sinr
        est = estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0,
                            McConfig(trials=20_000, rng_seed=7))
        assert abs(est.sinr - want) < 3.0 * est.se

    def test_qpsk_symbols_agree(self):
        ch = SeparableChannel.from_spread_product(self.cfg, 0.01)
        want = sinr(self.tx, self.rx, ch, self.cfg, 10.0).sinr
        est = estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0,
                            McConfig(trials=20_000, rng_seed=11, alphabet="qpsk"))
        assert abs(est.sinr - want) < 3.0 * est.se

    def test_power_split_reported(self):
        ch = SeparableChannel.from_spread_product(self.cfg, 0.01)
        est = estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0,
                            McConfig(trials=10_000, rng_seed=13))
        assert est.sinr == pytest.approx(est.ps / (est.pi + est.pn), rel=1e-12)
        assert est.trials == 10_000


class TestDopplerNodes:
    """A separable channel is simulated as one path per (tap, Doppler node)."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=20, Q=16)
        self.tx = make_conventional_tx(self.cfg)
        self.rx = make_conventional_rx(self.cfg)

    def test_equals_the_path_list_of_its_nodes(self):
        ch = SeparableChannel.from_spread_product(self.cfg, 0.01)
        nodes = ch.doppler_nodes(len(self.rx))[0]
        paths = PathList.from_paths(
            [(d, theta / (2.0 * math.pi * ch.Ts), p / nodes.size)
             for d, p in zip(ch.delays, ch.powers) for theta in nodes], Ts=ch.Ts)
        mc = McConfig(trials=3000, rng_seed=4)
        a = estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0, mc)
        b = estimate_sinr(self.tx, self.rx, paths, self.cfg, 10.0, mc)
        for field in ("ps", "pi", "pn", "se"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-12), field

    def test_builds_no_quantile_grid(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("estimate_sinr must read doppler_nodes")

        monkeypatch.setattr(SeparableChannel, "to_pathlist", refuse)
        ch = SeparableChannel.from_spread_product(self.cfg, 0.01)
        estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0, McConfig(trials=100))

    @pytest.mark.parametrize("bd_ts,nodes", [(0.05, 10), (0.2, 17)])
    def test_fast_fading_matches_kernels(self, bd_ts, nodes):
        ch = SeparableChannel.with_uniform_delays(K=3, b=0.5, max_delay=6, Bd=bd_ts)
        assert ch.doppler_nodes(len(self.rx)).shape == (1, nodes)
        want = sinr(self.tx, self.rx, ch, self.cfg, 10.0).sinr
        est = estimate_sinr(self.tx, self.rx, ch, self.cfg, 10.0,
                            McConfig(trials=20_000, rng_seed=17))
        assert abs(est.sinr - want) < 3.0 * est.se


class TestEstimatorStatistics:
    """Reproducibility and error-bar behavior."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=20, Q=16)
        self.tx = make_conventional_tx(self.cfg)
        self.rx = make_conventional_rx(self.cfg)
        self.ch = SeparableChannel.from_spread_product(self.cfg, 0.01)

    def test_deterministic_given_seed(self):
        mc = McConfig(trials=2000, rng_seed=42)
        a = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0, mc)
        b = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0, mc)
        assert a.sinr == b.sinr and a.se == b.se

    def test_chunking_does_not_change_the_estimate(self):
        # Each chunk draws from its own stream spawned from the seed, so a
        # different chunking draws different trials: the estimates agree
        # only statistically, within their error bars.
        a = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0,
                          McConfig(trials=4000, rng_seed=9, chunk_size=4000))
        b = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0,
                          McConfig(trials=4000, rng_seed=9, chunk_size=1000))
        assert abs(a.sinr - b.sinr) < 3.0 * (a.se + b.se)

    def test_seed_changes_the_estimate(self):
        a = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0,
                          McConfig(trials=2000, rng_seed=1))
        b = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0,
                          McConfig(trials=2000, rng_seed=2))
        assert a.sinr != b.sinr

    def test_error_bar_shrinks_like_root_trials(self):
        se1 = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0,
                            McConfig(trials=1000, rng_seed=3)).se
        se4 = estimate_sinr(self.tx, self.rx, self.ch, self.cfg, 10.0,
                            McConfig(trials=4000, rng_seed=3)).se
        assert 1.4 < se1 / se4 < 2.9  # ideal ratio: 2
