"""Command-line frontend: subcommands, artifacts, exit codes."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import noise_init
from pops import (
    Waveform,
    load_scenario,
    make_gaussian_init,
    make_hermite_init,
    make_rrc_init,
    read_sweep_csv,
    rerun_from_metadata,
    sinr,
)
from pops import cli
from pops.codec import decode
from pops.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
SCENARIOS = sorted(SCENARIO_DIR.glob("*.ini"))


@pytest.fixture
def workspace(tmp_path):
    """A small dispersive scenario writing its artifacts under tmp_path/out."""
    ini = tmp_path / "case.ini"
    ini.write_text(f"""
[lattice]
N = 10
Q = 8

[channel]
type = separable
spread_product = 0.01

[run]
snr = 10
output_dir = {tmp_path / "out"}

[pops]
max_iterations = 15

[mc]
trials = 2000
""")
    return ini, tmp_path / "out"


def run_cli(*argv):
    return main(list(argv))


class TestOptimize:
    def test_writes_result_bundle(self, workspace, capsys):
        ini, out = workspace
        assert run_cli("optimize", str(ini)) == EXIT_OK
        assert (out / "optimize.json").exists()
        assert (out / "optimize_tx.csv").exists()
        assert (out / "optimize_rx.csv").exists()
        record = json.loads((out / "optimize.json").read_text())
        assert len(record["scenario"]) == 12
        stdout = capsys.readouterr().out
        assert "optimize: sinr=" in stdout
        assert f"scenario={record['scenario']}" in stdout


class TestEvaluation:
    def test_sinr_writes_report(self, workspace, capsys):
        ini, out = workspace
        assert run_cli("sinr", str(ini)) == EXIT_OK
        record = json.loads((out / "sinr.json").read_text())
        assert record["sinr"] > 0
        assert "sinr=" in capsys.readouterr().out

    def test_conventional_matches_sinr_on_rect_pair(self, workspace):
        ini, out = workspace
        run_cli("sinr", str(ini))
        run_cli("conventional", str(ini))
        got = json.loads((out / "sinr.json").read_text())["sinr"]
        want = json.loads((out / "conventional.json").read_text())["sinr"]
        # default pair for `sinr` is the conventional pair
        assert got == pytest.approx(want, rel=1e-8)

    def test_upperbound(self, workspace, capsys):
        ini, out = workspace
        assert run_cli("upperbound", str(ini)) == EXIT_OK
        record = json.loads((out / "upperbound.json").read_text())
        assert record["bound"] > 0
        assert record["dimension"] > 0
        assert "bound=" in capsys.readouterr().out

    def test_upperbound_singular_is_numerical_failure(self, tmp_path):
        ini = tmp_path / "ideal.ini"
        ini.write_text(f"""
[lattice]
N = 10
Q = 8

[channel]
type = ideal

[run]
output_dir = {tmp_path / "out"}
""")
        assert run_cli("upperbound", str(ini)) == EXIT_NUMERICAL


@pytest.mark.parametrize("ini", SCENARIOS, ids=lambda p: p.name)
def test_upperbound_on_shipped_scenario(ini, tmp_path):
    # full_scale.ini is the paper's lattice: Kronecker dimension 160 * 492 = 78720.
    assert run_cli("upperbound", str(ini), "--set", f"run.output_dir={tmp_path}") == EXIT_OK
    bound = json.loads((tmp_path / "upperbound.json").read_text())["bound"]
    assert math.isfinite(bound) and bound > 0
    if ini.name == "full_scale.ini":
        sc = load_scenario(ini)
        cfg = sc.lattice()
        init = make_hermite_init(cfg, [1.0])
        assert bound >= sinr(init, init, sc.channel(), cfg, sc.snr).sir


@pytest.mark.parametrize("ini", SCENARIOS, ids=lambda p: p.name)
def test_montecarlo_on_shipped_scenario(ini, tmp_path):
    assert run_cli("montecarlo", str(ini), "--set", f"run.output_dir={tmp_path}") == EXIT_OK
    row = (tmp_path / "montecarlo.csv").read_text().splitlines()[2].split(",")
    est, se = float(row[0]), float(row[1])
    sc = load_scenario(ini)
    cfg = sc.lattice()
    want = sinr(*sc.sinr_pair(cfg), sc.channel(), cfg, sc.snr).sinr
    assert math.isfinite(se) and abs(est - want) <= 4.0 * se


def _assert_sidecar_replays(csv_path):
    """Replaying the written sidecar gives the written series exactly."""
    written = read_sweep_csv(csv_path)
    again = rerun_from_metadata(written.metadata)
    np.testing.assert_array_equal(again.axis_values, written.axis_values)
    assert list(again.series) == list(written.series)
    for name, values in written.series.items():
        np.testing.assert_array_equal(again.series[name], values, err_msg=name)


class TestPsdAndSweep:
    def test_psd_artifact(self, workspace, capsys):
        ini, out = workspace
        assert run_cli("psd", str(ini), "--set", "psd.source=conventional-tx") == EXIT_OK
        assert (out / "psd.csv").exists()
        assert (out / "psd.csv.meta.json").exists()
        stdout = capsys.readouterr().out
        assert "oob_level_at_2F" in stdout

    def test_psd_rerun_is_byte_identical(self, workspace):
        ini, out = workspace
        run_cli("psd", str(ini), "--set", "psd.source=conventional-tx")
        first = (out / "psd.csv").read_bytes()
        run_cli("psd", str(ini), "--set", "psd.source=conventional-tx")
        assert (out / "psd.csv").read_bytes() == first

    def test_time_sync_sweep(self, workspace, capsys):
        ini, out = workspace
        code = run_cli("sweep", "time-sync", str(ini),
                       "--set", "sweep.tau_values=-2,0,2",
                       "--set", "sweep.cp_samples=2")
        assert code == EXIT_OK
        csv_path = out / "sweep_time-sync.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()
        assert header[0].startswith("# scenario=")
        assert header[1] == "tau_samples,pops,conventional_cp2"
        assert "rows=3" in capsys.readouterr().out
        _assert_sidecar_replays(csv_path)

    def test_freq_sync_sweep_on_shipped_scenario(self, tmp_path, capsys):
        code = run_cli("sweep", "freq-sync", str(SCENARIO_DIR / "small.ini"),
                       "--set", f"run.output_dir={tmp_path}")
        assert code == EXIT_OK
        csv_path = tmp_path / "sweep_freq-sync.csv"
        assert csv_path.read_text().splitlines()[1] == \
            "dfreq_in_F,pops,conventional_cp2,conventional_cp4"
        assert "rows=5" in capsys.readouterr().out
        _assert_sidecar_replays(csv_path)

    def test_freq_sync_requires_grid(self, workspace, capsys):
        ini, _ = workspace
        assert run_cli("sweep", "freq-sync", str(ini)) == EXIT_VALIDATION
        assert "dfreq_values" in capsys.readouterr().err

    def test_doppler_delay_requires_spread(self, tmp_path, capsys):
        ini = tmp_path / "bd.ini"
        ini.write_text(f"""
[lattice]
N = 10
Q = 8

[channel]
type = separable
max_delay = 2
Bd = 0.001

[run]
output_dir = {tmp_path / "out"}

[sweep]
grid = 0.05, 0.1
""")
        assert run_cli("sweep", "doppler-delay", str(ini)) == EXIT_VALIDATION
        assert "channel.spread_product" in capsys.readouterr().err


class TestInitStudy:
    def test_tokens_build_their_pulses(self, workspace):
        # Tokens keep make_initializer's default shapes, whatever the [pops] keys say.
        ini, out = workspace
        code = run_cli("sweep", "init-study", str(ini), "--set", "pops.max_iterations=2",
                       "--set", "sweep.inits=hermite,gaussian,rrc,noise:3",
                       "--set", "pops.hermite_coefficients=1,0,0.5",
                       "--set", "pops.gaussian_sigma=2", "--set", "pops.rrc_rolloff=0.5")
        assert code == EXIT_OK
        meta = json.loads((out / "sweep_init-study.csv.meta.json").read_text())["metadata"]
        cfg = load_scenario(ini).lattice()
        sigma = math.sqrt(cfg.N * cfg.Q) / (2.0 * math.sqrt(math.pi))
        want = {
            "hermite": make_hermite_init(cfg, [1.0]),
            "gaussian": make_gaussian_init(cfg, (cfg.L_phi - 1) / 2.0, sigma),
            "rrc": make_rrc_init(cfg, rolloff=0.25),
            "noise:3": noise_init(cfg, 3),
        }
        assert list(meta["inits"]) == list(want)
        for token, w in want.items():
            got = decode(Waveform, meta["inits"][token])
            assert got.offset == w.offset
            assert got.samples.tobytes() == w.samples.tobytes()

    @pytest.mark.parametrize("inits, message", [
        ("hermite,hermite", "duplicate initializer 'hermite'"),
        ("hermite,noise", "unknown initializer 'noise'"),
        ("hermite,noise:x", "bad noise seed in 'noise:x'"),
    ])
    def test_bad_tokens_are_named(self, workspace, capsys, inits, message):
        ini, _ = workspace
        code = run_cli("sweep", "init-study", str(ini), "--set", f"sweep.inits={inits}")
        assert code == EXIT_VALIDATION
        assert f"sweep.inits: {message}" in capsys.readouterr().err


class TestMonteCarlo:
    def test_artifact_and_determinism(self, workspace, capsys):
        ini, out = workspace
        assert run_cli("montecarlo", str(ini)) == EXIT_OK
        first = (out / "montecarlo.csv").read_bytes()
        lines = first.decode().splitlines()
        assert lines[0].startswith("# scenario=")
        assert lines[1] == "sinr_estimate,standard_error,trials,seed"
        assert lines[2].endswith(",2000,0")
        run_cli("montecarlo", str(ini))
        assert (out / "montecarlo.csv").read_bytes() == first
        assert "trials=2000" in capsys.readouterr().out


class TestValidate:
    def test_all_checks_pass(self, workspace, capsys):
        ini, _ = workspace
        assert run_cli("validate", str(ini)) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout.count("PASS") >= 4
        assert "FAIL" not in stdout

    @staticmethod
    def _high_sir(spread):
        # snr=inf with SIR about 1e8 (spread 1e-5) or 1e12 (spread 1e-7)
        return ("validate", str(SCENARIO_DIR / "small.ini"), "--set", "run.snr=inf",
                "--set", f"channel.spread_product={spread}")

    @pytest.mark.parametrize("spread", ["1e-5", "1e-7"])
    def test_high_sir_scenarios_pass(self, spread, capsys):
        assert run_cli(*self._high_sir(spread)) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out

    def test_perturbed_closed_form_fails(self, monkeypatch, capsys):
        real = cli.sinr_conventional

        def perturbed(cfg, ch, snr):
            rep = real(cfg, ch, snr)
            return dataclasses.replace(rep, ps=rep.ps + 1e-6 * (rep.ps + rep.pi))

        monkeypatch.setattr(cli, "sinr_conventional", perturbed)
        assert run_cli(*self._high_sir("1e-5")) == EXIT_NUMERICAL
        assert "closed-form-vs-kernel: FAIL" in capsys.readouterr().out

    def test_perturbed_time_reversal_fails(self, monkeypatch, capsys):
        real = cli.sinr_time_reversed

        def perturbed(tx, rx, ch, cfg, snr):
            rep = real(tx, rx, ch, cfg, snr)
            return dataclasses.replace(rep, pi=rep.pi + 1e-9 * (rep.ps + rep.pi))

        monkeypatch.setattr(cli, "sinr_time_reversed", perturbed)
        assert run_cli(*self._high_sir("1e-5")) == EXIT_NUMERICAL
        assert "time-reversal-identity: FAIL" in capsys.readouterr().out


class TestErrorHandling:
    def test_missing_scenario_file(self, tmp_path, capsys):
        assert run_cli("sinr", str(tmp_path / "nope.ini")) == EXIT_VALIDATION
        assert "scenario file not found" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[lattice]\nN = 10\nQ = 8\nR = 1\n\n[channel]\ntype = ideal\n")
        assert run_cli("sinr", str(ini)) == EXIT_VALIDATION
        assert "lattice.R" in capsys.readouterr().err

    def test_bad_override(self, workspace, capsys):
        ini, _ = workspace
        assert run_cli("sinr", str(ini), "--set", "garbage") == EXIT_VALIDATION
        assert "section.key=value" in capsys.readouterr().err

    def test_type_error_in_value(self, workspace, capsys):
        ini, _ = workspace
        assert run_cli("sinr", str(ini), "--set", "run.snr=loud") == EXIT_VALIDATION
        assert "run.snr" in capsys.readouterr().err

    def test_overrides_feed_through(self, workspace):
        ini, out = workspace
        run_cli("montecarlo", str(ini), "--set", "mc.trials=123")
        text = (out / "montecarlo.csv").read_text()
        assert ",123," in text
