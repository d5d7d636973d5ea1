"""The half-step eigensolve and the alternating waveform-pair optimization."""

import math

import numpy as np
import pytest
import scipy.linalg

from helpers import (dense_half_step, expand, random_kernel_pair, random_waveform,
                     structured_pair)
from pops import (
    LatticeConfig,
    PathList,
    PopsConfig,
    PopsResult,
    SeparableChannel,
    Waveform,
    half_step,
    load_pops_result,
    make_conventional_tx,
    run_pops,
    save_pops_result,
    sinr,
)
from pops import optimizer
from pops.kernels import build_ks_kin
from pops.optimizer import _top_eigenvector


class TestHalfStepSolvers:
    """The dominant generalized eigenpair, against the dense eigensolver on the
    expansion of random structured pairs."""

    def test_agree_with_dense_reference(self):
        rng = np.random.default_rng(81)
        for trial in range(20):
            L = int(rng.integers(2, 65))
            ks, kin = random_kernel_pair(rng, L)
            want = scipy.linalg.eigh(
                expand(ks), expand(kin), eigvals_only=True, subset_by_index=[L - 1, L - 1]
            )[0]
            _, value = half_step(ks, kin)
            assert value == pytest.approx(want, rel=1e-10), trial

    def test_returned_vector_attains_value(self):
        rng = np.random.default_rng(82)
        ks, kin = random_kernel_pair(rng, 24)
        w, value = half_step(ks, kin)
        x = w.samples
        quotient = np.real(x.conj() @ expand(ks) @ x) / np.real(x.conj() @ expand(kin) @ x)
        assert quotient == pytest.approx(value, rel=1e-12)
        assert w.energy == pytest.approx(1.0)
        assert w.offset == ks.window_start

    def test_value_is_maximal_over_random_vectors(self):
        rng = np.random.default_rng(83)
        ks, kin = random_kernel_pair(rng, 16, q=4)
        A, B = expand(ks), expand(kin)
        _, value = half_step(ks, kin)
        for _ in range(50):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            q = np.real(x.conj() @ A @ x) / np.real(x.conj() @ B @ x)
            assert q <= value * (1 + 1e-12)

    @staticmethod
    def _embedded_singular_pair(dust=0.0):
        """(KS, KIN, value of the reduced problem, r, L): a random pair on r = 9
        samples embedded in L = 14, so that KS and KIN share a 5-dimensional
        null space, plus dust times the largest diagonal entry of T on the null
        samples.  Both comb blocks (Q=2) of T lose part of their range: the
        reduced pair's even and odd samples land on 5 of the 7 even and 4 of
        the 7 odd samples."""
        rng = np.random.default_rng(85)
        L, r, q = 14, 9, 2
        ks_r, kin_r = random_kernel_pair(rng, r, q=q)
        V = np.zeros((L, r))
        V[[2, 1, 4, 5, 8, 7, 10, 11, 12], np.arange(r)] = 1.0
        t = V @ (expand(ks_r) + expand(kin_r)) @ V.T
        assert not t[0::2, 1::2].any()  # T lives on its comb
        null = np.flatnonzero(~V.any(axis=1))
        t[null, null] = dust * t.diagonal().real.max()
        ks, kin = structured_pair(V @ ks_r.data, np.stack([t[c::q, c::q] for c in range(q)]))
        want = scipy.linalg.eigh(expand(ks_r), expand(kin_r), eigvals_only=True,
                                 subset_by_index=[r - 1, r - 1])[0]
        return ks, kin, want, r, L

    def test_singular_total_kernel_is_solved_on_its_range(self):
        # KS + KIN is singular; the value is that of the problem restricted to the range.
        ks, kin, want, r, L = self._embedded_singular_pair()
        notes = []
        _, value = half_step(ks, kin, notes)
        assert value == pytest.approx(want, rel=1e-10)
        assert notes == [f"KS + KIN singular (rank {r} of {L}); solved on its range"]

    def test_pivot_under_the_range_floor_takes_the_range_path(self):
        # Rounding dust on T's null samples: np.linalg.cholesky accepts every
        # block, but the dust pivots^2 lie under L eps times T's largest
        # diagonal entry, so the solve runs on the range as for exact zeros.
        ks, kin, want, r, L = self._embedded_singular_pair(dust=1e-17)
        R = np.linalg.cholesky(kin.data)  # accepted
        assert (np.abs(np.diagonal(R, axis1=1, axis2=2)) ** 2).min() < (
            L * np.finfo(float).eps * np.diagonal(kin.data, axis1=1, axis2=2).real.max())
        notes = []
        _, value = half_step(ks, kin, notes)
        assert value == pytest.approx(dense_half_step(expand(ks), expand(kin)), rel=1e-10)
        assert value == pytest.approx(want, rel=1e-10)
        assert notes == [f"KS + KIN singular (rank {r} of {L}); solved on its range"]

    @pytest.mark.parametrize("D", [1, 3, 12])
    def test_definite_pair_is_whitened_by_cholesky(self, D, monkeypatch):
        # A kernel pair at snr=10 is positive definite: the half-step whitens
        # by Cholesky, never calls eigh, records no note and equals the dense
        # oracle.  N=8/Q=4 gives the comb blocks of N=256/Q=128, m = 2 D.
        cfg = LatticeConfig(N=8, Q=4, Dphi=D, Dpsi=D)
        ch = SeparableChannel.from_spread_product(cfg, 0.05, bd_over_f=0.05)
        rng = np.random.default_rng(D)
        w = random_waveform(rng, cfg.L_phi, offset=-(cfg.L_phi // 2))
        ks, kin = build_ks_kin(w, ch, cfg, cfg.L_psi, 10.0)
        assert kin.data.shape[1] == 2 * D
        want = dense_half_step(expand(ks), expand(kin))

        def no_eigh(*args, **kwargs):
            raise AssertionError("the range path ran on a definite pair")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        notes = []
        _, value = half_step(ks, kin, notes)
        assert value == pytest.approx(want, rel=1e-10)
        assert notes == []

    @pytest.mark.parametrize("D", [1, 3, 12])
    def test_real_pair_is_solved_in_float64(self, D):
        # The geometry above with a real pulse: float64 kernels, a float64
        # solve, a real receiver, and the dense oracle's value.
        cfg = LatticeConfig(N=8, Q=4, Dphi=D, Dpsi=D)
        ch = SeparableChannel.from_spread_product(cfg, 0.05, bd_over_f=0.05)
        x = np.random.default_rng(D).standard_normal(cfg.L_phi)
        w = Waveform(x, offset=-(cfg.L_phi // 2))
        for snr in (10.0, math.inf):
            ks, kin = build_ks_kin(w, ch, cfg, cfg.L_psi, snr)
            assert ks.data.dtype == kin.data.dtype == np.float64
            rx, value = half_step(ks, kin)
            assert value == pytest.approx(dense_half_step(expand(ks), expand(kin)), rel=1e-10)
            assert not rx.samples.imag.any()
            assert rx.energy == pytest.approx(1.0)

    def test_singular_interference_gives_infinite_value(self):
        # KIN of rank 3 with KS positive definite: KS + KIN stays definite and
        # the maximizer lies in null(KIN), an interference-free direction.
        rng = np.random.default_rng(84)
        G = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        A = (G @ G.conj().T) / 12
        H = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        B = H @ H.conj().T  # rank 3
        ks, kin = structured_pair(G / np.sqrt(12), (A + B)[None])
        notes = []
        w, value = half_step(ks, kin, notes)
        x = w.samples
        assert value == math.inf
        assert np.real(x.conj() @ B @ x) <= 1e-12 * np.real(x.conj() @ A @ x)
        assert notes == []


class TestTopEigenvector:
    """The LAPACK index-range eigensolver against np.linalg.eigh."""

    @staticmethod
    def _random(rng, r, dtype):
        G = rng.standard_normal((r, r))
        if dtype == np.complex128:
            G = G + 1j * rng.standard_normal((r, r))
        return G @ G.conj().T

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("r", [1, 48, 88])
    def test_matches_eigh(self, r, dtype):
        A = self._random(np.random.default_rng(r), r, dtype)
        v = _top_eigenvector(A)
        assert v.dtype == dtype
        lam, U = np.linalg.eigh(A)
        assert abs(np.vdot(U[:, -1], v)) == pytest.approx(1.0, rel=1e-10)
        assert np.real(np.vdot(v, A @ v)) == pytest.approx(lam[-1], rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    @pytest.mark.parametrize("r", [48, 88])
    def test_repeated_top_eigenvalue(self, r, dtype):
        # Any unit vector of the top eigenspace is a solution: only the
        # eigenvalue and the residual can be compared.
        rng = np.random.default_rng(r + 1)
        U = np.linalg.qr(self._random(rng, r, dtype))[0]
        lam = np.sort(rng.uniform(0.0, 1.0, r))
        lam[-3:] = 2.0
        A = (U * lam) @ U.conj().T
        v = _top_eigenvector(A)
        assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-12)
        assert np.real(np.vdot(v, A @ v)) == pytest.approx(np.linalg.eigh(A)[0][-1], rel=1e-12)
        assert np.linalg.norm(A @ v - 2.0 * v) <= 1e-12 * r


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

    @pytest.mark.parametrize("start", ["hermite", "cp"])
    def test_real_start_stays_real(self, start, monkeypatch):
        # Jakes nodes come in exact +- pairs, so from a real start every
        # half-step runs on float64 kernels and returns a real pulse.
        init = None if start == "hermite" else make_conventional_tx(self.cfg)
        dtypes = set()

        def recorded(ks, kin, notes=None):
            dtypes.update((ks.data.dtype, kin.data.dtype, kin.factor.dtype))
            return solve(ks, kin, notes)

        solve = optimizer.half_step
        monkeypatch.setattr(optimizer, "half_step", recorded)
        res = run_pops(self.cfg, self.ch, PopsConfig(snr=math.inf, max_iterations=20, init=init))
        assert dtypes == {np.dtype(np.float64)}
        for w in (res.tx_opt, res.rx_opt):
            assert w.samples.dtype == np.complex128 and not w.samples.imag.any()

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
