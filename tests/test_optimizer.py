"""The half-step eigensolve and the alternating waveform-pair optimization."""

import math

import numpy as np
import pytest
import scipy.linalg

from helpers import random_kernel_pair, random_waveform
from pops import (
    KernelMatrix,
    LatticeConfig,
    PathList,
    PopsConfig,
    PopsResult,
    SeparableChannel,
    half_step,
    load_pops_result,
    run_pops,
    save_pops_result,
    sinr,
)
from pops.kernels import build_ks_kin


class TestHalfStepSolvers:
    """The dominant generalized eigenpair, against the dense eigensolver."""

    def test_agree_with_dense_reference(self):
        rng = np.random.default_rng(81)
        for trial in range(20):
            L = int(rng.integers(2, 65))
            ks, kin = random_kernel_pair(rng, L)
            want = scipy.linalg.eigh(
                ks.data, kin.data, eigvals_only=True, subset_by_index=[L - 1, L - 1]
            )[0]
            _, value = half_step(ks, kin)
            assert value == pytest.approx(want, rel=1e-10), trial

    def test_returned_vector_attains_value(self):
        rng = np.random.default_rng(82)
        ks, kin = random_kernel_pair(rng, 24)
        w, value = half_step(ks, kin)
        x = w.samples
        quotient = np.real(x.conj() @ ks.data @ x) / np.real(x.conj() @ kin.data @ x)
        assert quotient == pytest.approx(value, rel=1e-12)
        assert w.energy == pytest.approx(1.0)
        assert w.offset == ks.window_start

    def test_value_is_maximal_over_random_vectors(self):
        rng = np.random.default_rng(83)
        ks, kin = random_kernel_pair(rng, 16)
        _, value = half_step(ks, kin)
        for _ in range(50):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            q = np.real(x.conj() @ ks.data @ x) / np.real(x.conj() @ kin.data @ x)
            assert q <= value * (1 + 1e-12)

    def test_singular_total_kernel_is_solved_on_its_range(self):
        # KS and KIN share a 5-dimensional null space, so KS + KIN is
        # singular; the value is that of the problem restricted to the range.
        rng = np.random.default_rng(85)
        L, r = 14, 9
        V, _ = np.linalg.qr(rng.standard_normal((L, r)) + 1j * rng.standard_normal((L, r)))
        ks_r, kin_r = random_kernel_pair(rng, r)
        ks = KernelMatrix(V @ ks_r.data @ V.conj().T, "useful", "synthetic", 1, 0)
        kin = KernelMatrix(V @ kin_r.data @ V.conj().T, "interference-plus-noise",
                           "synthetic", 1, 0)
        want = scipy.linalg.eigh(ks_r.data, kin_r.data, eigvals_only=True,
                                 subset_by_index=[r - 1, r - 1])[0]
        notes = []
        _, value = half_step(ks, kin, notes)
        assert value == pytest.approx(want, rel=1e-10)
        assert notes == [f"KS + KIN singular (rank {r} of {L}); solved on its range"]

    def test_singular_interference_gives_infinite_value(self):
        # KIN of rank 3 with KS positive definite: KS + KIN stays definite and
        # the maximizer lies in null(KIN), an interference-free direction.
        rng = np.random.default_rng(84)
        G = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        A = (G @ G.conj().T) / 12
        H = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        B = H @ H.conj().T  # rank 3
        ks = KernelMatrix(A, "useful", "synthetic", 1, 0)
        kin = KernelMatrix(B, "interference-plus-noise", "synthetic", 1, 0)
        notes = []
        w, value = half_step(ks, kin, notes)
        x = w.samples
        assert value == math.inf
        assert np.real(x.conj() @ B @ x) <= 1e-12 * np.real(x.conj() @ A @ x)
        assert notes == []


class TestPopsConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PopsConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            PopsConfig(max_iterations=0)
        with pytest.raises(ValueError):
            PopsConfig(snr=-1.0)


class TestRunPops:
    """Alternating optimization on a small dispersive grid."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=10, Q=8)
        self.ch = SeparableChannel.from_spread_product(self.cfg, 0.01)

    def test_trajectory_is_nondecreasing(self):
        res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=60))
        values = [v for (_, _, v) in res.sinr_trajectory]
        diffs = np.diff(values)
        assert diffs.min() >= -1e-9 * max(values)
        assert values[-1] > values[0]  # actually improved

    def test_beats_conventional_baseline(self):
        from pops import sinr_conventional

        res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=100))
        assert res.final_sinr > sinr_conventional(self.cfg, self.ch, 10.0).sinr

    def test_final_value_matches_engine(self):
        res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=40))
        engine = sinr(res.tx_opt, res.rx_opt, self.ch, self.cfg, 10.0).sinr
        assert res.final_sinr == pytest.approx(engine, rel=1e-12)

    def test_deterministic(self):
        pcfg = PopsConfig(snr=10.0, max_iterations=30)
        a = run_pops(self.cfg, self.ch, pcfg)
        b = run_pops(self.cfg, self.ch, pcfg)
        assert a.sinr_trajectory == b.sinr_trajectory
        np.testing.assert_array_equal(a.tx_opt.samples, b.tx_opt.samples)
        np.testing.assert_array_equal(a.rx_opt.samples, b.rx_opt.samples)

    def test_converges_and_is_stationary(self):
        res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, epsilon=1e-10,
                                                     max_iterations=300))
        assert res.converged
        assert res.iterations_used < 300
        # At a fixed point one more receiver half-step cannot improve.
        ks, kin = build_ks_kin(res.tx_opt, self.ch, self.cfg, self.cfg.L_psi, 10.0,
                               window_start=res.rx_opt.offset)
        _, best = half_step(ks, kin)
        assert best <= res.final_sinr * (1 + 1e-9)

    def test_literal_gep_is_zero_noise_denominator(self):
        # The plain generalized eigenproblem divides by the bare interference
        # kernel; with snr=inf both formulations coincide.
        a = run_pops(self.cfg, self.ch, PopsConfig(snr=math.inf, max_iterations=25))
        b = run_pops(self.cfg, self.ch,
                     PopsConfig(snr=10.0, paper_literal_gep=True, max_iterations=25))
        np.testing.assert_allclose(a.tx_opt.samples, b.tx_opt.samples, atol=1e-12)

    def test_custom_init_is_honored(self):
        rng = np.random.default_rng(91)
        init = random_waveform(rng, self.cfg.L_phi, offset=-(self.cfg.L_phi // 2))
        res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=5, init=init))
        assert len(res.tx_opt) == self.cfg.L_phi
        assert res.tx_opt.offset == init.offset
        bad = random_waveform(rng, self.cfg.L_phi + 1)
        with pytest.raises(ValueError):
            run_pops(self.cfg, self.ch, PopsConfig(init=bad))

    def test_unit_energy_outputs(self):
        res = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=10))
        assert res.tx_opt.energy == pytest.approx(1.0)
        assert res.rx_opt.energy == pytest.approx(1.0)

    def test_longer_durations_do_not_hurt(self):
        short = run_pops(self.cfg, self.ch, PopsConfig(snr=10.0, max_iterations=80))
        cfg3 = LatticeConfig(N=10, Q=8, Dphi=3, Dpsi=3)
        long = run_pops(cfg3, self.ch, PopsConfig(snr=10.0, max_iterations=80))
        assert long.final_sinr >= short.final_sinr * (1 - 1e-6)

    def test_singular_interference_is_reported_not_fatal(self):
        # Ideal channel at snr=inf: KS + KIN has rank Q < N; the run must
        # complete interference-free and record the singular-T note once.
        res = run_pops(self.cfg, PathList.ideal(), PopsConfig(snr=math.inf, max_iterations=2))
        assert res.final_sinr == math.inf
        assert res.warnings == ("KS + KIN singular (rank 8 of 10); solved on its range",)
        assert res.tx_opt.energy == pytest.approx(1.0)


class TestResultSerialization:
    """JSON-plus-CSV persistence of an optimization result."""

    def test_round_trip(self, tmp_path):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        res = run_pops(cfg, ch, PopsConfig(snr=10.0, max_iterations=12))
        path = save_pops_result(res, tmp_path, stem="case", extra={"scenario": "abc123"})
        assert path.name == "case.json"
        back = load_pops_result(path)
        assert back.sinr_trajectory == res.sinr_trajectory
        assert back.converged == res.converged
        assert back.iterations_used == res.iterations_used
        np.testing.assert_array_equal(back.tx_opt.samples, res.tx_opt.samples)
        np.testing.assert_array_equal(back.rx_opt.samples, res.rx_opt.samples)
        assert back.tx_opt.offset == res.tx_opt.offset

    def test_extra_fields_land_in_json(self, tmp_path):
        import json

        cfg = LatticeConfig(N=10, Q=8)
        res = PopsResult(
            tx_opt=random_waveform(np.random.default_rng(0), 10, offset=-5),
            rx_opt=random_waveform(np.random.default_rng(1), 10, offset=0),
            sinr_trajectory=((1, "ping", 2.0),),
            converged=True,
            iterations_used=1,
        )
        path = save_pops_result(res, tmp_path, extra={"scenario": "deadbeef0123"})
        record = json.loads(path.read_text())
        assert record["scenario"] == "deadbeef0123"
        assert record["final_sinr"] == 2.0
