"""Direct link simulation as an independent check on the kernel algebra."""

import math
from pathlib import Path

import numpy as np
import pytest

from helpers import direct_response_matrix, random_waveform, time_domain_mc
from pops import (
    LatticeConfig,
    McConfig,
    PathList,
    SeparableChannel,
    Waveform,
    estimate_sinr,
    make_conventional_rx,
    make_conventional_tx,
    required_symbol_span,
    save_waveform_csv,
    sinr,
)
from pops import montecarlo
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


class TestZeroEnergy:
    """A pulse without energy is refused before any trial is drawn."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=20, Q=16)
        self.tx = make_conventional_tx(self.cfg)
        self.rx = make_conventional_rx(self.cfg)
        self.ch = SeparableChannel.from_spread_product(self.cfg, 0.01)

    @pytest.mark.parametrize("silent", ["tx", "rx"])
    def test_refused_before_any_draw(self, silent, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no symbol may be drawn for a zero-energy pulse")

        monkeypatch.setattr(montecarlo, "_draw_symbols", refuse)
        pair = {"tx": self.tx, "rx": self.rx}
        pair[silent] = Waveform(np.zeros(len(pair[silent])), offset=pair[silent].offset)
        with pytest.raises(ValueError, match="waveforms must have nonzero energy"):
            estimate_sinr(pair["tx"], pair["rx"], self.ch, self.cfg, 10.0, McConfig(trials=100))

    def test_cli_exits_with_validation_error(self, tmp_path, capsys):
        ini = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "small.ini"
        zero = tmp_path / "zero.csv"
        save_waveform_csv(Waveform(np.zeros(self.cfg.L_phi), offset=self.tx.offset), zero)
        code = main(["montecarlo", str(ini), "--set", f"sinr.tx_file={zero}",
                     "--set", f"run.output_dir={tmp_path}"])
        assert code == EXIT_VALIDATION
        assert "error: waveforms must have nonzero energy" in capsys.readouterr().err


# Jakes spreads Bd*Ts giving 6 and 17 nodes on a receive window of D*20 samples.
_SPREADS = {1: (0.007, 0.16), 2: (0.004, 0.08), 3: (0.0025, 0.052)}


def _grid_channel(kind, D):
    if kind == "paths":  # Dopplers on every path; delays past the guard and past N
        return PathList.from_paths([(0, 0.013, 0.4), (7, -0.021, 0.3), (23, 0.034, 0.2),
                                    (45, -0.008, 0.1)])
    bd = _SPREADS[D][kind == "17 nodes"]
    return SeparableChannel.with_uniform_delays(K=3, b=0.5, max_delay=9, Bd=bd)


class TestAgainstTimeDomain:
    """The response-matrix estimator equals the literal time-domain simulation
    of the same draws (``helpers.time_domain_mc``) to rounding."""

    @pytest.mark.parametrize("alphabet,snr", [("gaussian", 10.0), ("qpsk", math.inf)])
    @pytest.mark.parametrize("kind", ["paths", "6 nodes", "17 nodes"])
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_equals_time_domain_oracle(self, D, kind, alphabet, snr, monkeypatch):
        cfg = LatticeConfig(N=20, Q=16, Dphi=D, Dpsi=D)
        rng = np.random.default_rng(100 * D + len(kind))
        tx = random_waveform(rng, cfg.L_phi, offset=-3)
        rx = random_waveform(rng, cfg.L_psi, offset=5)
        ch = _grid_channel(kind, D)
        if kind != "paths":
            assert ch.doppler_nodes(len(rx)).shape == (1, int(kind.split()[0]))
        assert required_symbol_span(tx, rx, ch.max_delay, cfg.N)[0] < 0
        mc = McConfig(trials=700, rng_seed=D, alphabet=alphabet, chunk_size=300)
        got = estimate_sinr(tx, rx, ch, cfg, snr, mc)
        want = time_domain_mc(tx, rx, ch, cfg, snr, mc)
        assert got.pi > 0.01 * got.ps
        for field in ("ps", "pi", "pn", "sinr", "se"):
            want_value = pytest.approx(getattr(want, field), rel=1e-12, abs=0.0)
            assert getattr(got, field) == want_value, field
        # Symbols, gains and noise written in place as z.real, z.imag carry the
        # bits of x + 1j * y, so the estimate is the same to the last bit.
        monkeypatch.setattr(montecarlo, "_standard_complex",
                            lambda rng, shape: rng.standard_normal(shape)
                            + 1j * rng.standard_normal(shape))
        summed = estimate_sinr(tx, rx, ch, cfg, snr, mc)
        for field in ("ps", "pi", "pn", "sinr", "se"):
            assert getattr(got, field) == getattr(summed, field), field

    def test_response_matrix_equals_atom_sum(self):
        cfg = LatticeConfig(N=20, Q=16, Dphi=2, Dpsi=2)
        rng = np.random.default_rng(3)
        tx = random_waveform(rng, cfg.L_phi, offset=-5)
        rx = random_waveform(rng, cfg.L_psi, offset=9)
        for ch in (_grid_channel("paths", 2), _grid_channel("6 nodes", 2)):
            nodes = ch.doppler_nodes(len(rx))
            n_lo, n_hi = required_symbol_span(tx, rx, ch.max_delay, cfg.N)
            slots = np.arange(n_lo, n_hi + 1)
            G = nodes.shape[1]
            theta = np.broadcast_to(nodes, (ch.delays.size, G)).ravel()
            B = montecarlo._response_matrix(tx, rx, ch.delays, nodes, slots, cfg.N, cfg.Q)
            want = direct_response_matrix(tx, rx, theta, np.repeat(ch.delays, G), slots,
                                          cfg.N, cfg.Q)
            assert B.shape == (slots.size * cfg.Q, ch.delays.size * G)
            assert np.max(np.abs(B - want)) <= 1e-12 * np.max(np.abs(want))


class TestNoiseAtTheDecisionVariable:
    """The noise is drawn as its projection on the receiver, one complex
    Gaussian per trial, with the law of white noise correlated with psi."""

    @pytest.mark.parametrize("snr", [1.0, 10.0])
    @pytest.mark.parametrize("D", [1, 2, 3])
    def test_noise_power_is_one_over_snr(self, D, snr):
        # pn is normalized by E_phi * E_psi, so pn * snr is a mean of Exp(1)
        # draws whatever the pulses' energies.
        cfg = LatticeConfig(N=20, Q=16, Dphi=D, Dpsi=D)
        rng = np.random.default_rng(10 * D + int(snr))
        tx = random_waveform(rng, cfg.L_phi, offset=-3)
        rx = random_waveform(rng, cfg.L_psi, offset=5)
        tx = Waveform(0.6 * tx.samples, offset=tx.offset)
        rx = Waveform(2.5 * rx.samples, offset=rx.offset)
        trials = 4000
        est = estimate_sinr(tx, rx, _grid_channel("6 nodes", D), cfg, snr,
                            McConfig(trials=trials, rng_seed=D))
        assert abs(est.pn * snr - 1.0) <= 3.0 / math.sqrt(trials)

    def test_no_draw_spans_the_receive_window(self, monkeypatch):
        cfg = LatticeConfig(N=20, Q=16, Dphi=2, Dpsi=2)
        rng = np.random.default_rng(5)
        tx = random_waveform(rng, cfg.L_phi, offset=-3)
        rx = random_waveform(rng, cfg.L_psi - 3, offset=5)
        ch = _grid_channel("paths", 2)
        assert len(rx) not in (cfg.Q, ch.delays.size)
        shapes = []
        draw = montecarlo._standard_complex

        def record(rng, shape):
            shapes.append(shape)
            return draw(rng, shape)

        monkeypatch.setattr(montecarlo, "_standard_complex", record)
        estimate_sinr(tx, rx, ch, cfg, 10.0, McConfig(trials=700, rng_seed=1, chunk_size=300))
        assert (300,) in shapes and (100,) in shapes  # the noise, one draw per trial
        assert all(len(rx) not in shape for shape in shapes), shapes
