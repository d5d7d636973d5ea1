"""Spectral analysis, parameter sweeps, CSV persistence, and replay."""

import importlib
import json
import math

import numpy as np
import pytest

from pops import (
    LatticeConfig,
    PathList,
    PopsConfig,
    SeparableChannel,
    SweepResult,
    Waveform,
    build_ks_kin,
    initialization_study,
    make_conventional_rx,
    make_conventional_tx,
    make_gaussian_init,
    make_hermite_init,
    modulate,
    oob_level_db,
    oob_power_fraction,
    psd,
    read_sweep_csv,
    rerun_from_metadata,
    run_pops,
    shift,
    sinr,
    sinr_conventional,
    sweep_doppler_delay,
    sweep_freq_sync,
    sweep_ft,
    sweep_mismatch,
    sweep_time_sync,
    write_sweep_csv,
)
from pops.codec import decode, encode


class TestSweepResult:
    def test_series_length_validated(self):
        with pytest.raises(ValueError):
            SweepResult(axis_name="x", axis_values=np.arange(3),
                        series={"y": np.arange(4)}, metadata={})


class TestPsd:
    """Oversampled spectra in subcarrier-spacing units."""

    def test_peak_is_zero_db_at_dc(self):
        cfg = LatticeConfig(N=20, Q=16)
        r = psd(make_conventional_rx(cfg), cfg)
        k = int(np.argmax(r.series["psd_db"]))
        assert r.series["psd_db"][k] == 0.0
        assert r.axis_values[k] == pytest.approx(0.0)

    def test_rectangle_first_sidelobe(self):
        # 128-point rectangle: the first sidelobe of the Dirichlet kernel sits
        # at -13.26 dB, essentially the continuous sinc value at this length.
        cfg = LatticeConfig(N=128, Q=128)
        w = Waveform(np.ones(128) / np.sqrt(128.0), offset=0)
        r = psd(w, cfg, oversample=32)
        db = r.series["psd_db"]
        axis = r.axis_values
        # main lobe ends at the first null, 1 F away; look in (1, 2) F
        mask = (axis > 1.0) & (axis < 2.0)
        assert db[mask].max() == pytest.approx(-13.26, abs=0.1)

    def test_rectangle_nulls_at_multiples_of_f(self):
        cfg = LatticeConfig(N=20, Q=16)
        r = psd(make_conventional_rx(cfg), cfg, oversample=16)
        for f0 in (1.0, 2.0, 3.0):
            k = int(np.argmin(np.abs(r.axis_values - f0)))
            assert r.series["psd_db"][k] < -200  # exact nulls -> -inf

    def test_symmetric_for_real_waveforms(self):
        cfg = LatticeConfig(N=20, Q=16)
        r = psd(make_conventional_rx(cfg), cfg, oversample=8)
        db = r.series["psd_db"]
        # drop the unpaired most-negative frequency bin
        np.testing.assert_allclose(db[1:], db[1:][::-1], atol=1e-9)

    def test_aggregate_spectrum_widens_with_load(self):
        cfg = LatticeConfig(N=20, Q=16)
        w = make_conventional_rx(cfg)
        single = psd(w, cfg)
        loaded = psd(w, cfg, n_subcarriers=9)
        assert loaded.series["psd_db"].max() == 0.0
        # at +3 F the loaded symbol still carries in-band subcarriers
        k = int(np.argmin(np.abs(loaded.axis_values - 3.0)))
        assert loaded.series["psd_db"][k] > -3.0
        assert single.series["psd_db"][k] < -10.0

    def test_replicas_sit_at_the_exact_subcarrier_spacing(self):
        # Q = 18 does not divide 16 * 22: the aggregate spectrum must still be
        # the sum of the subcarriers' own periodograms.
        cfg = LatticeConfig(N=22, Q=18)
        w = make_hermite_init(cfg, [1.0])
        r = psd(w, cfg, oversample=16, n_subcarriers=5)
        m_bins = r.axis_values.size
        direct = sum(np.abs(np.fft.fft(modulate(w, m, cfg.Q).samples, m_bins)) ** 2
                     for m in range(-2, 3))
        direct = np.fft.fftshift(direct / direct.max())
        np.testing.assert_allclose(10.0 ** (r.series["psd_db"] / 10.0), direct,
                                   rtol=1e-12, atol=1e-15)

    def test_validation(self):
        cfg = LatticeConfig(N=20, Q=16)
        with pytest.raises(ValueError):
            psd(make_conventional_rx(cfg), cfg, oversample=1)
        with pytest.raises(ValueError):
            psd(make_conventional_rx(cfg), cfg, n_subcarriers=0)


class TestOutOfBandMeasures:
    def setup_method(self):
        self.cfg = LatticeConfig(N=32, Q=16)
        self.rect = make_conventional_tx(self.cfg)
        self.smooth = make_hermite_init(self.cfg, [1.0])

    def test_envelope_level(self):
        rect_level = oob_level_db(psd(self.rect, self.cfg), min_offset_f=2.0)
        smooth_level = oob_level_db(psd(self.smooth, self.cfg), min_offset_f=2.0)
        assert smooth_level < rect_level - 20.0

    def test_envelope_needs_tail_samples(self):
        with pytest.raises(ValueError):
            oob_level_db(psd(self.rect, self.cfg), min_offset_f=1e6)

    def test_power_fraction_is_a_ratio(self):
        f_rect = oob_power_fraction(self.rect, self.cfg)
        f_smooth = oob_power_fraction(self.smooth, self.cfg)
        assert 0.0 < f_smooth < f_rect < 1.0

    def test_power_fraction_monotone_in_bandwidth(self):
        narrow = oob_power_fraction(self.rect, self.cfg, band_halfwidth_f=0.5)
        wide = oob_power_fraction(self.rect, self.cfg, band_halfwidth_f=2.0)
        assert wide < narrow


class TestSweepFt:
    """SINR against the grid density N/Q."""

    def test_small_grid(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        r = sweep_ft(cfg, ch, [1.25, 1.3, 1.5], snr=10.0,
                     pops=PopsConfig(snr=10.0, max_iterations=30))
        assert r.axis_name == "ft"
        assert set(r.series) == {"pops_dphi1_dpsi1", "conventional"}
        # 1.3 * 8 = 10.4 is not an integer N: the row must be NaN and flagged
        assert np.isnan(r.series["pops_dphi1_dpsi1"][1])
        assert np.isnan(r.series["conventional"][1])
        assert any("1.3" in w for w in r.metadata["warnings"])
        # representable points: optimized beats the rectangular baseline
        for i in (0, 2):
            assert r.series["pops_dphi1_dpsi1"][i] > r.series["conventional"][i]

    def test_conventional_column_is_closed_form(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        r = sweep_ft(cfg, ch, [1.25, 1.5], snr=10.0,
                     pops=PopsConfig(snr=10.0, max_iterations=5))
        for ft, got in zip([1.25, 1.5], r.series["conventional"]):
            cfg_pt = LatticeConfig(N=int(round(ft * 8)), Q=8)
            assert got == pytest.approx(sinr_conventional(cfg_pt, ch, 10.0).sinr, rel=1e-12)

    def test_duration_pairs_make_separate_series(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        r = sweep_ft(cfg, ch, [1.25], durations=((1, 1), (2, 2)), snr=10.0,
                     pops=PopsConfig(snr=10.0, max_iterations=20))
        assert "pops_dphi1_dpsi1" in r.series and "pops_dphi2_dpsi2" in r.series
        assert (r.series["pops_dphi2_dpsi2"][0]
                >= r.series["pops_dphi1_dpsi1"][0] * (1 - 1e-6))


class TestSweepDopplerDelay:
    def test_axis_and_series(self):
        cfg = LatticeConfig(N=10, Q=8)
        r = sweep_doppler_delay(cfg, 0.01, [0.05, 0.1], cp_samples=(2, 4), snr=10.0,
                                pops=PopsConfig(snr=10.0, max_iterations=20))
        assert r.axis_name == "bd_over_f"
        assert set(r.series) == {"pops", "conventional_cp2", "conventional_cp4"}
        for name, vals in r.series.items():
            assert np.all(np.isfinite(vals)), name
            assert np.all(vals > 0), name

    def test_conventional_matches_closed_form(self):
        cfg = LatticeConfig(N=10, Q=8)
        r = sweep_doppler_delay(cfg, 0.01, [0.1], cp_samples=(4, 4), snr=10.0,
                                pops=PopsConfig(snr=10.0, max_iterations=5))
        assert list(r.series) == ["pops", "conventional_cp4"]  # a repeated CP is one column
        bd_ts = 0.1 / cfg.Q
        ch = SeparableChannel.with_uniform_delays(
            K=8, b=0.5, max_delay=max(1, round(0.01 / bd_ts)), Bd=bd_ts)
        want = sinr_conventional(LatticeConfig(N=12, Q=8), ch, 10.0).sinr
        assert r.series["conventional_cp4"][0] == pytest.approx(want, rel=1e-12)

    def test_rejects_nonpositive_spread(self):
        cfg = LatticeConfig(N=10, Q=8)
        with pytest.raises(ValueError):
            sweep_doppler_delay(cfg, 0.0, [0.1])


class TestSyncSweeps:
    """Timing and carrier-frequency error robustness, no reoptimization."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=10, Q=8)
        self.ch = SeparableChannel.from_spread_product(self.cfg, 0.01)
        self.res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=40))

    def test_zero_offset_reproduces_direct_evaluation(self):
        r = sweep_time_sync(self.res, self.ch, self.cfg, [-2, 0, 2], snr=10.0,
                            cp_baselines=(2,))
        direct = sinr(self.res.tx_opt, self.res.rx_opt, self.ch, self.cfg, 10.0).sinr
        # A sweep reads all its receivers in one batched product, which rounds
        # differently from the one-column product of a direct evaluation; the
        # time sweep's union window also widens every sum.
        assert r.series["pops"][1] == pytest.approx(direct, rel=1e-12)
        f = sweep_freq_sync(self.res, self.ch, self.cfg, [-0.1, 0.0, 0.1], snr=10.0,
                            cp_baselines=(2,))
        assert f.series["pops"][1] == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("sweep, values", [
        (sweep_time_sync, range(-15, 16)),
        (sweep_freq_sync, np.linspace(-1.5, 1.5, 13)),
    ])
    def test_one_kernel_pair_per_series(self, monkeypatch, sweep, values):
        built = []

        def counted(*args, **kwargs):
            built.append(args[0])
            return build_ks_kin(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module("pops.sinr"), "build_ks_kin", counted)
        r = sweep(self.res, self.ch, self.cfg, list(values), snr=10.0, cp_baselines=(2, 4))
        assert len(built) == 3 and built[0] is self.res.tx_opt
        assert all(len(v) == len(values) for v in r.series.values())

    def test_one_value_and_empty_sweeps(self):
        names = {"pops", "conventional_cp2"}
        tx, rx = self.res.tx_opt, self.res.rx_opt
        for sweep, v, perturbed in ((sweep_time_sync, 3.0, shift(rx, 3)),
                                    (sweep_freq_sync, 0.25, modulate(rx, 0.25, self.cfg.Q))):
            one = sweep(self.res, self.ch, self.cfg, [v], snr=10.0, cp_baselines=(2,))
            assert set(one.series) == names and list(one.axis_values) == [v]
            want = sinr(tx, perturbed, self.ch, self.cfg, 10.0).sinr
            assert one.series["pops"][0] == pytest.approx(want, rel=1e-12)
            empty = sweep(self.res, self.ch, self.cfg, [], snr=10.0, cp_baselines=(2,))
            assert set(empty.series) == names and empty.axis_values.size == 0
            assert all(s.shape == (0,) for s in empty.series.values())

    def test_fractional_timing_offsets_are_refused(self):
        with pytest.raises(ValueError, match=r"whole samples.*\[2\.5, -0\.25\]"):
            sweep_time_sync(self.res, self.ch, self.cfg, [2.5, 2.0, -0.25, 3.0])

    def test_axes_and_series_names(self):
        r = sweep_time_sync(self.res, self.ch, self.cfg, [0], snr=10.0)
        assert r.axis_name == "tau_samples"
        assert set(r.series) == {"pops", "conventional_cp16", "conventional_cp32"}
        f = sweep_freq_sync(self.res, self.ch, self.cfg, [0.0], snr=10.0)
        assert f.axis_name == "dfreq_in_F"

    def test_prefix_absorbs_timing_advance(self):
        # With an ideal channel, advancing the rectangular receiver into the
        # cyclic prefix must not change the SINR at all.
        ideal = PathList.ideal()
        r = sweep_time_sync(self.res, ideal, self.cfg, [-8, 0], snr=10.0,
                            cp_baselines=(16,))
        conv = r.series["conventional_cp16"]
        assert conv[0] == pytest.approx(conv[1], rel=1e-12)

    def test_optimized_pair_peaks_at_zero_offset(self):
        taus = list(range(-4, 5))
        r = sweep_time_sync(self.res, self.ch, self.cfg, taus, snr=10.0,
                            cp_baselines=(2,))
        assert int(np.argmax(r.series["pops"])) == taus.index(0)


class TestSweepMismatch:
    def test_diagonal_is_self_evaluation(self):
        cfg = LatticeConfig(N=10, Q=8)
        grid = [0.005, 0.02]
        r = sweep_mismatch(cfg, optimize_at=grid, evaluate_over=grid, snr=10.0,
                           pops=PopsConfig(snr=10.0, max_iterations=30))
        assert r.axis_name == "spread_product"
        for i, v in enumerate(grid):
            res = run_pops(cfg, SeparableChannel.from_spread_product(cfg, v),
                           PopsConfig(snr=10.0, max_iterations=30))
            assert r.series[f"optimized_at_{v:g}"][i] == pytest.approx(
                res.final_sinr, rel=1e-12)

    def test_matched_design_wins_on_its_own_channel(self):
        cfg = LatticeConfig(N=10, Q=8)
        grid = [0.005, 0.05]
        r = sweep_mismatch(cfg, optimize_at=grid, evaluate_over=grid, snr=10.0,
                           pops=PopsConfig(snr=10.0, max_iterations=60))
        a, b = r.series["optimized_at_0.005"], r.series["optimized_at_0.05"]
        assert a[0] >= b[0] and b[1] >= a[1]


class TestInitializationStudy:
    def test_bound_and_baseline_columns(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        inits = [
            ("hermite", make_hermite_init(cfg, [1.0])),
            ("gaussian", make_gaussian_init(cfg, (cfg.L_phi - 1) / 2, 2.0)),
        ]
        r = initialization_study(cfg, ch, 10.0, inits,
                                 pops=PopsConfig(snr=10.0, max_iterations=40))
        assert list(r.axis_values) == [0.0, 1.0]
        sinrs = r.series["sinr"]
        bound = r.series["upper_bound"]
        conv = r.series["conventional"]
        assert np.all(np.isfinite(sinrs))
        assert bound[0] == bound[1] and conv[0] == conv[1]
        assert np.all(bound >= sinrs)
        assert conv[0] == pytest.approx(sinr_conventional(cfg, ch, 10.0).sinr)

    def test_singular_bound_goes_nan_with_warning(self):
        # The ideal channel leaves interference-free directions: infinite SIR bound.
        cfg = LatticeConfig(N=10, Q=8)
        inits = [
            ("hermite", make_hermite_init(cfg, [1.0])),
            ("gaussian", make_gaussian_init(cfg, (cfg.L_phi - 1) / 2, 2.0)),
        ]
        r = initialization_study(cfg, PathList.ideal(), math.inf, inits,
                                 pops=PopsConfig(max_iterations=5))
        assert np.all(np.isnan(r.series["upper_bound"]))
        assert any("singular" in w for w in r.metadata["warnings"])

    def test_duplicate_names_rejected(self):
        # The metadata keys the initializations by name, so a repeated name
        # would keep only its last waveform and the sweep could not replay.
        cfg = LatticeConfig(N=10, Q=8)
        w = make_hermite_init(cfg, [1.0])
        with pytest.raises(ValueError, match="duplicate initialization name 'a'"):
            initialization_study(cfg, PathList.ideal(), 10.0, [("a", w), ("b", w), ("a", w)])

    def test_needs_two_inits(self):
        cfg = LatticeConfig(N=10, Q=8)
        with pytest.raises(ValueError):
            initialization_study(cfg, PathList.ideal(), 10.0,
                                 [("only", make_hermite_init(cfg, [1.0]))])


class TestCsvPersistence:
    """CSV plus JSON sidecar: readable, reproducible, byte-stable."""

    def _sample_sweep(self):
        return SweepResult(
            axis_name="tau_samples",
            axis_values=np.array([-1.0, 0.0, 1.0]),
            series={"pops": np.array([1.5, 2.0, 1.25]),
                    "conventional_cp2": np.array([0.5, 0.75, 0.5])},
            metadata={"sweep": "demo", "note": "sample"},
        )

    def test_round_trip(self, tmp_path):
        r = self._sample_sweep()
        path = tmp_path / "sweep.csv"
        write_sweep_csv(r, path, scenario_hash="cafe01234567")
        back = read_sweep_csv(path)
        assert back.axis_name == r.axis_name
        np.testing.assert_array_equal(back.axis_values, r.axis_values)
        assert set(back.series) == set(r.series)
        for k in r.series:
            np.testing.assert_array_equal(back.series[k], r.series[k])
        assert back.metadata == r.metadata  # restored from the sidecar

    def test_scenario_hash_comment_and_sidecar(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(self._sample_sweep(), path, scenario_hash="cafe01234567")
        text = path.read_text()
        assert text.startswith("# scenario=cafe01234567\n")
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["scenario_hash"] == "cafe01234567"
        assert "written_at" in meta
        assert meta["metadata"]["sweep"] == "demo"

    def test_rewrite_is_byte_identical(self, tmp_path):
        # timestamps live in the sidecar only; the CSV must not churn
        r = self._sample_sweep()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(r, a, scenario_hash="cafe01234567")
        write_sweep_csv(r, b, scenario_hash="cafe01234567")
        assert a.read_bytes() == b.read_bytes()

    def test_full_precision_survives(self, tmp_path):
        vals = np.array([math.pi, 1 / 3, 2.0**-40])
        r = SweepResult(axis_name="x", axis_values=vals,
                        series={"y": vals * math.e}, metadata={})
        path = tmp_path / "p.csv"
        write_sweep_csv(r, path)
        back = read_sweep_csv(path)
        np.testing.assert_array_equal(back.series["y"], r.series["y"])


class TestReplay:
    """A sweep can be reproduced exactly from its recorded metadata."""

    def test_time_sync_replay(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        res = run_pops(cfg, ch, PopsConfig(snr=10.0, max_iterations=20))
        r = sweep_time_sync(res, ch, cfg, [-1, 0, 1], snr=10.0, cp_baselines=(2,))
        again = rerun_from_metadata(r.metadata)
        for k in r.series:
            np.testing.assert_array_equal(again.series[k], r.series[k])

    def test_psd_replay(self):
        cfg = LatticeConfig(N=10, Q=8)
        r = psd(make_conventional_tx(cfg), cfg, oversample=4)
        again = rerun_from_metadata(r.metadata)
        np.testing.assert_array_equal(again.series["psd_db"], r.series["psd_db"])

    def test_legacy_bound_dimension_key_is_ignored(self):
        # Sidecars written before the lag-block bound carry "bound_max_dimension".
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        inits = [
            ("hermite", make_hermite_init(cfg, [1.0])),
            ("gaussian", make_gaussian_init(cfg, (cfg.L_phi - 1) / 2, 2.0)),
        ]
        r = initialization_study(cfg, ch, 10.0, inits,
                                 pops=PopsConfig(snr=10.0, max_iterations=5))
        assert "bound_max_dimension" not in r.metadata
        again = rerun_from_metadata({**r.metadata, "bound_max_dimension": 10})
        for k in r.series:
            np.testing.assert_array_equal(again.series[k], r.series[k])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            rerun_from_metadata({"sweep": "nonsense"})

    def test_legacy_approach_key_is_ignored(self):
        # Sidecars written before the single half-step solver carry "approach".
        legacy = {"approach": "rayleigh", "epsilon": 1e-8, "max_iterations": 7,
                  "snr": "inf", "paper_literal_gep": False}
        assert decode(PopsConfig, legacy) == PopsConfig(epsilon=1e-8, max_iterations=7)
        assert "approach" not in encode(decode(PopsConfig, legacy))

    def test_legacy_literal_gep_false_is_ignored(self):
        # Sidecars written before the single SINR objective carry "paper_literal_gep".
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        inits = [("hermite", make_hermite_init(cfg, [1.0])),
                 ("gaussian", make_gaussian_init(cfg, (cfg.L_phi - 1) / 2, 2.0))]
        r = initialization_study(cfg, ch, 10.0, inits,
                                 pops=PopsConfig(snr=10.0, max_iterations=5))
        assert "paper_literal_gep" not in r.metadata["pops"]
        legacy = {**r.metadata, "pops": {**r.metadata["pops"], "paper_literal_gep": False}}
        again = rerun_from_metadata(legacy)
        assert again.metadata == r.metadata
        for k in r.series:
            np.testing.assert_array_equal(again.series[k], r.series[k])

    def test_legacy_literal_gep_true_is_refused(self):
        # Its series came from the retired SIR objective and cannot be reproduced.
        legacy = {"sweep": "init-study", "snr": 10.0,
                  "pops": {"epsilon": 1e-10, "max_iterations": 5, "snr": 10.0,
                           "paper_literal_gep": True}}
        with pytest.raises(ValueError, match=r"pops\.paper_literal_gep"):
            rerun_from_metadata(legacy)
