"""INI scenario files: schema strictness, typed accessors, hashing, overrides."""

import math

import numpy as np
import pytest

from helpers import noise_init
from pops import (
    PathList,
    ScenarioError,
    SeparableChannel,
    Waveform,
    load_scenario,
    make_gaussian_init,
    make_hermite_init,
    make_rrc_init,
    save_waveform_csv,
    scenario_from_text,
)

MINIMAL = """
[lattice]
N = 20
Q = 16

[channel]
type = ideal
"""

SEPARABLE = """
[lattice]
N = 20
Q = 16

[channel]
type = separable
spread_product = 0.01

[run]
snr = 10
"""


class TestParsing:
    def test_minimal_scenario(self):
        sc = scenario_from_text(MINIMAL)
        cfg = sc.lattice()
        assert (cfg.N, cfg.Q, cfg.Ts, cfg.Dphi, cfg.Dpsi) == (20, 16, 1.0, 1, 1)
        assert isinstance(sc.channel(), PathList)
        assert math.isinf(sc.snr)  # run.snr defaults to inf
        sc.validate()

    def test_defaults_fill_every_section(self):
        sc = scenario_from_text(MINIMAL)
        pcfg = sc.pops(sc.lattice())
        assert pcfg.epsilon == 1e-10
        assert pcfg.max_iterations == 200
        mc = sc.mc()
        assert mc.trials == 10000 and mc.alphabet == "gaussian"
        assert sc.durations() == [(1, 1)]

    def test_missing_required_key_is_named(self):
        with pytest.raises(ScenarioError, match=r"lattice\.N"):
            scenario_from_text("[lattice]\nQ = 16\n\n[channel]\ntype = ideal\n")

    def test_unknown_key_is_named(self):
        text = "[lattice]\nN = 20\nQ = 16\nM = 3\n\n[channel]\ntype = ideal\n"
        with pytest.raises(ScenarioError, match=r"lattice\.M"):
            scenario_from_text(text)

    def test_retired_approach_key_is_named(self):
        with pytest.raises(ScenarioError, match=r"pops\.approach"):
            scenario_from_text(MINIMAL + "\n[pops]\napproach = rayleigh\n")

    def test_retired_literal_gep_key_is_named(self):
        with pytest.raises(ScenarioError, match=r"pops\.paper_literal_gep"):
            scenario_from_text(MINIMAL + "\n[pops]\npaper_literal_gep = false\n")
        with pytest.raises(ScenarioError, match=r"pops\.paper_literal_gep"):
            scenario_from_text(MINIMAL, overrides=["pops.paper_literal_gep=true"])

    def test_retired_bound_dimension_key_is_named(self):
        with pytest.raises(ScenarioError, match=r"bound\.max_dimension"):
            scenario_from_text(MINIMAL + "\n[bound]\nmax_dimension = 4096\n")

    def test_unknown_section_is_named(self):
        with pytest.raises(ScenarioError, match="radio"):
            scenario_from_text(MINIMAL + "\n[radio]\npower = 1\n")

    def test_type_errors_name_section_and_key(self):
        bad = MINIMAL.replace("N = 20", "N = twenty")
        with pytest.raises(ScenarioError, match=r"lattice\.N.*twenty"):
            scenario_from_text(bad).lattice()

    def test_inf_snr_token(self):
        sc = scenario_from_text(MINIMAL + "\n[run]\nsnr = inf\n")
        assert math.isinf(sc.snr)
        sc10 = scenario_from_text(MINIMAL + "\n[run]\nsnr = 10\n")
        assert sc10.snr == 10.0
        with pytest.raises(ScenarioError):
            _ = scenario_from_text(MINIMAL + "\n[run]\nsnr = -3\n").snr

    def test_keys_are_case_sensitive(self):
        # configparser lowercases keys by default; the schema must not
        with pytest.raises(ScenarioError, match=r"lattice\.n"):
            scenario_from_text("[lattice]\nn = 20\nQ = 16\n\n[channel]\ntype = ideal\n")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="scenario file not found"):
            load_scenario(tmp_path / "absent.ini")

    def test_load_from_disk(self, tmp_path):
        p = tmp_path / "case.ini"
        p.write_text(SEPARABLE)
        sc = load_scenario(p)
        assert sc.snr == 10.0
        assert isinstance(sc.channel(), SeparableChannel)


class TestChannelRules:
    """Keys must be consistent with the declared channel type."""

    def test_separable_from_spread_product(self):
        ch = scenario_from_text(SEPARABLE).channel()
        assert ch.spread_product == pytest.approx(0.01, rel=1e-12)

    def test_separable_from_bd_and_delay(self):
        text = SEPARABLE.replace("spread_product = 0.01",
                                 "max_delay = 4\nBd = 0.002")
        ch = scenario_from_text(text).channel()
        assert ch.max_delay == 4 and ch.Bd == pytest.approx(0.002)

    def test_separable_needs_some_spread(self):
        text = SEPARABLE.replace("spread_product = 0.01", "K = 8")
        with pytest.raises(ScenarioError, match="spread_product"):
            scenario_from_text(text).channel()

    def test_spread_product_conflicts_with_bd(self):
        text = SEPARABLE.replace("spread_product = 0.01",
                                 "spread_product = 0.01\nBd = 0.002")
        with pytest.raises(ScenarioError, match=r"channel\.Bd"):
            scenario_from_text(text).channel()

    def test_ideal_rejects_spread_keys(self):
        text = MINIMAL + "\n[channel]\nspread_product = 0.01\n"
        text = text.replace("[channel]\ntype = ideal\n\n[channel]",
                            "[channel]")  # merge sections
        with pytest.raises(ScenarioError, match="not valid for channel.type=ideal"):
            scenario_from_text(
                "[lattice]\nN = 20\nQ = 16\n\n[channel]\ntype = ideal\nspread_product = 0.01\n"
            ).channel()

    def test_paths_channel(self):
        text = """
[lattice]
N = 20
Q = 16

[channel]
type = paths
delays = 0, 3, 7
dopplers = 0.0, 0.01, -0.02
powers = 0.5, 0.3, 0.2
"""
        ch = scenario_from_text(text).channel()
        assert isinstance(ch, PathList)
        np.testing.assert_array_equal(ch.delays, [0, 3, 7])

    def test_paths_requires_all_three_lists(self):
        text = """
[lattice]
N = 20
Q = 16

[channel]
type = paths
delays = 0, 3
dopplers = 0.0, 0.01
"""
        with pytest.raises(ScenarioError, match=r"channel\.powers"):
            scenario_from_text(text).channel()

    def test_unknown_channel_type(self):
        with pytest.raises(ScenarioError, match="channel.type"):
            scenario_from_text(MINIMAL.replace("ideal", "rayleigh-fading")).channel()


class TestInitializers:
    def _sc(self, extra):
        return scenario_from_text(SEPARABLE + "\n[pops]\n" + extra)

    def test_hermite_coefficients(self):
        sc = self._sc("init = hermite\nhermite_coefficients = 1.0, 0.0, 0.5\n")
        w = sc.initializer(sc.lattice())
        assert w.energy == pytest.approx(1.0)
        assert len(w) == 20

    def test_gaussian_centered_by_default(self):
        sc = self._sc("init = gaussian\n")
        w = sc.initializer(sc.lattice())
        peak = int(np.argmax(np.abs(w.samples)))
        assert abs(peak - (len(w) - 1) / 2) <= 1
        np.testing.assert_allclose(w.samples, w.samples[::-1], rtol=1e-9)

    def test_noise_is_seed_deterministic(self):
        a = self._sc("init = noise\ninit_seed = 7\n")
        b = self._sc("init = noise\ninit_seed = 7\n")
        c = self._sc("init = noise\ninit_seed = 8\n")
        wa = a.initializer(a.lattice())
        wb = b.initializer(b.lattice())
        wc = c.initializer(c.lattice())
        np.testing.assert_array_equal(wa.samples, wb.samples)
        assert not np.array_equal(wa.samples, wc.samples)

    def test_file_init(self, tmp_path):
        w = Waveform(np.arange(1, 21, dtype=float), offset=-10)
        path = tmp_path / "init.csv"
        save_waveform_csv(w, path)
        sc = self._sc(f"init = file\ninit_file = {path}\n")
        back = sc.initializer(sc.lattice())
        np.testing.assert_allclose(back.samples, w.samples)
        missing = self._sc("init = file\n")
        with pytest.raises(ScenarioError, match="init_file"):
            missing.initializer(missing.lattice())

    def test_unknown_init_kind(self):
        sc = self._sc("init = wavelet\n")
        with pytest.raises(ScenarioError, match="wavelet"):
            sc.initializer(sc.lattice())

    @pytest.mark.parametrize("extra, want", [
        ("init = hermite\n", lambda cfg: make_hermite_init(cfg, [1.0])),
        ("init = hermite\nhermite_coefficients = 1.0, 0.0, 0.5\n",
         lambda cfg: make_hermite_init(cfg, [1.0, 0.0, 0.5])),
        ("init = gaussian\n", lambda cfg: make_gaussian_init(
            cfg, (cfg.L_phi - 1) / 2.0, math.sqrt(cfg.N * cfg.Q) / (2.0 * math.sqrt(math.pi)))),
        ("init = gaussian\ngaussian_sigma = 2.5\n",
         lambda cfg: make_gaussian_init(cfg, (cfg.L_phi - 1) / 2.0, 2.5)),
        ("init = rrc\n", lambda cfg: make_rrc_init(cfg, 0.25)),
        ("init = rrc\nrrc_rolloff = 0.5\nrrc_period = 9\n",
         lambda cfg: make_rrc_init(cfg, 0.5, 9)),
        ("init = noise\n", lambda cfg: noise_init(cfg, 0)),
        ("init = noise\ninit_seed = 7\n", lambda cfg: noise_init(cfg, 7)),
    ])
    def test_each_kind_builds_its_pulse(self, extra, want):
        sc = self._sc(extra)
        got, expected = sc.initializer(sc.lattice()), want(sc.lattice())
        assert got.offset == expected.offset
        assert got.samples.tobytes() == expected.samples.tobytes()


class TestOverrides:
    def test_override_applies(self):
        sc = scenario_from_text(SEPARABLE, overrides=("run.snr=20",))
        assert sc.snr == 20.0

    def test_override_bad_format(self):
        with pytest.raises(ScenarioError, match="section.key=value"):
            scenario_from_text(SEPARABLE, overrides=("snr:20",))

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match=r"run\.snrr"):
            scenario_from_text(SEPARABLE, overrides=("run.snrr=20",))

    def test_override_changes_hash(self):
        base = scenario_from_text(SEPARABLE)
        bumped = scenario_from_text(SEPARABLE, overrides=("run.snr=20",))
        assert base.hash != bumped.hash


class TestHash:
    """The fingerprint tracks effective values, not formatting."""

    def test_format(self):
        h = scenario_from_text(MINIMAL).hash
        assert len(h) == 12
        int(h, 16)  # valid hex

    def test_stable_under_formatting(self):
        shuffled = """
; a comment
[channel]
type = ideal

[lattice]
Q    = 16
N = 20
"""
        assert scenario_from_text(MINIMAL).hash == scenario_from_text(shuffled).hash

    def test_explicit_default_matches_omitted(self):
        explicit = MINIMAL + "\n[pops]\nepsilon = 1e-10\n"
        assert scenario_from_text(MINIMAL).hash == scenario_from_text(explicit).hash

    def test_values_change_hash(self):
        a = scenario_from_text(MINIMAL)
        b = scenario_from_text(MINIMAL.replace("N = 20", "N = 22"))
        assert a.hash != b.hash


class TestDerivedObjects:
    def test_durations_parsing(self):
        sc = scenario_from_text(SEPARABLE + "\n[sweep]\ndurations = 1x1, 2x3\n")
        assert sc.durations() == [(1, 1), (2, 3)]
        bad = scenario_from_text(SEPARABLE + "\n[sweep]\ndurations = 2by2\n")
        with pytest.raises(ScenarioError, match="durations"):
            bad.durations()

    def test_mc_config(self):
        sc = scenario_from_text(
            SEPARABLE + "\n[mc]\ntrials = 500\nalphabet = qpsk\nrng_seed = 9\n"
        )
        mc = sc.mc()
        assert (mc.trials, mc.alphabet, mc.rng_seed) == (500, "qpsk", 9)

    def test_sinr_pair_defaults_to_conventional(self):
        sc = scenario_from_text(MINIMAL)
        tx, rx = sc.sinr_pair(sc.lattice())
        assert len(tx) == 20 and len(rx) == 16
        np.testing.assert_allclose(tx.samples, 1 / np.sqrt(20))

    def test_sinr_pair_from_files(self, tmp_path):
        wt = Waveform(np.ones(5), offset=-2)
        wr = Waveform(np.ones(4), offset=0)
        save_waveform_csv(wt, tmp_path / "t.csv")
        save_waveform_csv(wr, tmp_path / "r.csv")
        sc = scenario_from_text(
            MINIMAL + f"\n[sinr]\ntx_file = {tmp_path / 't.csv'}\nrx_file = {tmp_path / 'r.csv'}\n"
        )
        tx, rx = sc.sinr_pair(sc.lattice())
        assert len(tx) == 5 and len(rx) == 4

    def test_output_dir(self, tmp_path):
        sc = scenario_from_text(MINIMAL + f"\n[run]\noutput_dir = {tmp_path}/out\n")
        assert str(sc.output_dir).endswith("out")
