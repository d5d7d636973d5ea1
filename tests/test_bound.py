"""Joint-pair relaxation: quotient identity, upper bound, singularity handling."""

import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    dense_kronecker_forms,
    dense_upper_bound,
    lag_block_indices,
    random_pathlist,
    random_waveform,
)
from pops import (
    LatticeConfig,
    PathList,
    PopsConfig,
    SeparableChannel,
    SingularInterferenceError,
    build_kronecker_system,
    kronecker_quotient,
    load_scenario,
    make_conventional_rx,
    make_conventional_tx,
    make_hermite_init,
    power_ratio,
    run_pops,
    sinr,
    upper_bound,
)
from pops.bound import _range_scale


def _system_for(cfg, ch, tx, rx):
    """Windows that tightly cover the given supports."""
    return build_kronecker_system(
        cfg,
        ch,
        phi_offset=tx.offset,
        phi_length=len(tx),
        psi_offset=rx.offset,
        psi_length=len(rx),
    )


class TestQuotientIdentity:
    """The product-space quadratic forms reproduce the direct SIR."""

    def test_matches_engine_sir(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for trial in range(25):
            n = int(rng.integers(8, 13))
            q = int(rng.integers(6, n + 1))
            cfg = LatticeConfig(N=n, Q=q)
            ch = random_pathlist(rng, max_delay=4, k=3, nu_scale=0.05)
            tx = random_waveform(rng, int(rng.integers(6, n + 3)), offset=int(rng.integers(-5, 0)))
            rx = random_waveform(rng, int(rng.integers(5, q + 2)), offset=int(rng.integers(-3, 2)))
            sys_ = _system_for(cfg, ch, tx, rx)
            got = kronecker_quotient(sys_, tx, rx)
            want = sinr(tx, rx, ch, cfg, math.inf).sir
            rel = abs(got - want) / want
            worst = max(worst, rel)
            assert rel < 1e-10, trial
        assert worst < 1e-10

    def test_separable_matches_engine_sir(self):
        # A separable channel enters with its closed-form J0, as in the kernels.
        rng = np.random.default_rng(104)
        for trial in range(10):
            cfg = LatticeConfig(N=int(rng.integers(8, 13)), Q=int(rng.integers(6, 9)))
            ch = SeparableChannel.from_spread_product(cfg, float(rng.uniform(0.005, 0.05)))
            tx = random_waveform(rng, cfg.L_phi, offset=-(cfg.L_phi // 2))
            rx = random_waveform(rng, cfg.L_psi, offset=int(rng.integers(-4, 2)))
            got = kronecker_quotient(_system_for(cfg, ch, tx, rx), tx, rx)
            want = sinr(tx, rx, ch, cfg, math.inf).sir
            assert got == pytest.approx(want, rel=1e-10), trial

    def test_zero_interference_rule_is_shared(self):
        # A pair that no pairing reaches carries neither useful nor interference
        # power: both sides read 0/0 as 0.  Interference-free useful power reads inf.
        cfg = LatticeConfig(N=11, Q=4)
        ch = PathList.from_paths([(5, 0.0, 1.0)])
        rng = np.random.default_rng(105)
        tx = random_waveform(rng, 6, offset=0)
        rx = random_waveform(rng, 5, offset=11)
        report = sinr(tx, rx, ch, cfg, math.inf)
        assert report.ps == report.pi == 0.0 and report.sir == report.sinr == 0.0
        assert kronecker_quotient(_system_for(cfg, ch, tx, rx), tx, rx) == 0.0
        cfg = LatticeConfig(N=20, Q=16)
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        ideal = PathList.ideal()
        assert sinr(tx, rx, ideal, cfg, math.inf).sir == math.inf
        assert kronecker_quotient(_system_for(cfg, ideal, tx, rx), tx, rx) == math.inf

    def test_equals_dense_forms(self):
        # The symbol form against chi^H A chi / chi^H B chi of the dense assembly:
        # explicit windows give blocks of several sizes, and an asymmetric path
        # list gives complex symbols, whose conjugation the form must respect.
        rng = np.random.default_rng(106)
        for trial in range(20):
            n = int(rng.integers(6, 12))
            cfg = LatticeConfig(N=n, Q=int(rng.integers(3, n + 1)))
            ch = random_pathlist(rng, max_delay=int(rng.integers(1, n)), k=3, nu_scale=0.05)
            windows = (int(rng.integers(-6, 1)), int(rng.integers(4, 12)),
                       int(rng.integers(-4, 4)), int(rng.integers(4, 12)))
            sys_ = build_kronecker_system(cfg, ch, phi_offset=windows[0], phi_length=windows[1],
                                          psi_offset=windows[2], psi_length=windows[3])
            assert np.iscomplexobj(sys_.a_symbol) and np.unique(sys_.sizes).size > 1, trial
            a, b = dense_kronecker_forms(cfg, ch, *windows)
            tx = random_waveform(rng, windows[1], offset=windows[0])
            rx = random_waveform(rng, windows[3], offset=windows[2])
            chi = np.kron(tx.samples, rx.samples.conj())
            want = power_ratio(np.vdot(chi, a @ chi).real, np.vdot(chi, b @ chi).real)
            assert kronecker_quotient(sys_, tx, rx) == pytest.approx(want, rel=1e-10), trial

    def test_quotient_scale_invariant(self):
        rng = np.random.default_rng(102)
        cfg = LatticeConfig(N=10, Q=8)
        ch = random_pathlist(rng, max_delay=3, k=2)
        tx = random_waveform(rng, 10, offset=-5)
        rx = random_waveform(rng, 8, offset=0)
        sys_ = _system_for(cfg, ch, tx, rx)
        from pops import Waveform

        scaled = Waveform(7.0 * tx.samples, offset=tx.offset)
        assert kronecker_quotient(sys_, scaled, rx) == pytest.approx(
            kronecker_quotient(sys_, tx, rx), rel=1e-12
        )

    def test_embedding_invariance(self):
        # The same pair evaluated in a wider window gives the same quotient.
        rng = np.random.default_rng(103)
        cfg = LatticeConfig(N=10, Q=8)
        ch = random_pathlist(rng, max_delay=3, k=2)
        tx = random_waveform(rng, 10, offset=-5)
        rx = random_waveform(rng, 8, offset=0)
        tight = _system_for(cfg, ch, tx, rx)
        wide = build_kronecker_system(
            cfg, ch, phi_offset=tx.offset - 3, phi_length=len(tx) + 6,
            psi_offset=rx.offset - 4, psi_length=len(rx) + 8,
        )
        assert kronecker_quotient(wide, tx, rx) == pytest.approx(
            kronecker_quotient(tight, tx, rx), rel=1e-12
        )


class TestSystemStructure:
    """Hermitian symmetry and positive semidefiniteness of both forms."""

    def test_forms_are_hermitian_psd(self):
        rng = np.random.default_rng(111)
        for trial in range(5):
            cfg = LatticeConfig(N=9, Q=6)
            ch = random_pathlist(rng, max_delay=3, k=2, nu_scale=0.05)
            sys_ = build_kronecker_system(cfg, ch)
            for blocks in (sys_.a_matrix, sys_.b_matrix):
                np.testing.assert_array_equal(blocks, np.conj(np.swapaxes(blocks, 1, 2)))
                lo = np.linalg.eigvalsh(blocks).min()
                assert lo > -1e-10 * max(np.abs(blocks).max(), 1.0), trial

    def test_symmetric_doppler_spectra_give_real_blocks(self):
        # A Jakes tap, and every quantile grid of one, has a real symbol, so its
        # blocks take half the memory; an asymmetric path list stays complex.
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        for symmetric in (ch, ch.to_pathlist(16), PathList.ideal()):
            sys_ = build_kronecker_system(cfg, symmetric)
            assert sys_.a_matrix.dtype == sys_.b_matrix.dtype == np.float64
        skew = PathList.from_paths([(0, 0.0, 0.5), (2, 0.03, 0.5)])
        assert build_kronecker_system(cfg, skew).b_matrix.dtype == np.complex128

    def test_dimension_property(self):
        cfg = LatticeConfig(N=8, Q=6)
        sys_ = build_kronecker_system(cfg, PathList.ideal(),
                                      phi_offset=-4, phi_length=8,
                                      psi_offset=-2, psi_length=10)
        assert sys_.dimension == 80
        # The one path pairs (i, j) at lags j - i = -2 + 8n: 6 pairs at -2, 4 at 6.
        np.testing.assert_array_equal(sys_.lags, [-2, 6])
        assert sys_.a_matrix.shape == sys_.b_matrix.shape == (2, 6, 6)
        assert not sys_.a_matrix[1, 4:].any() and not sys_.a_matrix[1, :, 4:].any()

    def test_paper_scale_builds_only_lag_blocks(self):
        # dim 160 * 492 = 78720: one block per (delay, lattice shift), none dense.
        cfg = LatticeConfig(N=160, Q=128)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        sys_ = build_kronecker_system(cfg, ch)
        assert sys_.dimension == 78720
        assert sys_.a_matrix.shape == sys_.b_matrix.shape == (38, 160, 160)
        # A is nonzero only on the 8 lags of a path delay.
        assert np.count_nonzero(sys_.a_matrix[:, 0, 0]) == 8

    def test_window_argument_validation(self):
        cfg = LatticeConfig(N=8, Q=6)
        with pytest.raises(ValueError):
            build_kronecker_system(cfg, PathList.ideal(), psi_offset=0)  # missing length
        sys_ = build_kronecker_system(cfg, PathList.ideal(),
                                      phi_offset=0, phi_length=8,
                                      psi_offset=0, psi_length=6)
        rng = np.random.default_rng(112)
        outside = random_waveform(rng, 8, offset=-4)  # sticks out of the phi window
        inside_rx = random_waveform(rng, 6, offset=0)
        with pytest.raises(ValueError):
            kronecker_quotient(sys_, outside, inside_rx)


class TestLagBlocks:
    """The blocks against the dense assembly of A and B they replace."""

    def _instances(self):
        rng = np.random.default_rng(131)
        for _ in range(6):
            n = int(rng.integers(6, 12))
            cfg = LatticeConfig(N=n, Q=int(rng.integers(4, n + 1)))
            ch = random_pathlist(rng, max_delay=int(rng.integers(0, 2 * n)), k=3, nu_scale=0.05)
            sys_ = build_kronecker_system(cfg, ch)
            yield sys_, dense_kronecker_forms(cfg, ch, sys_.phi_offset, sys_.phi_length,
                                              sys_.psi_offset, sys_.psi_length)

    def test_cross_lag_entries_are_zero(self):
        for sys_, (a, b) in self._instances():
            inside = np.zeros(a.shape, dtype=bool)
            for t in range(sys_.lags.size):
                idx = lag_block_indices(sys_, t)
                inside[np.ix_(idx, idx)] = True
            assert not a[~inside].any() and not b[~inside].any()

    def test_blocks_equal_dense_submatrices(self):
        for sys_, (a, b) in self._instances():
            for t in range(sys_.lags.size):
                idx = lag_block_indices(sys_, t)
                m = idx.size
                np.testing.assert_allclose(sys_.a_matrix[t, :m, :m], a[np.ix_(idx, idx)],
                                           rtol=0, atol=1e-13)
                np.testing.assert_allclose(sys_.b_matrix[t, :m, :m], b[np.ix_(idx, idx)],
                                           rtol=0, atol=1e-13)

    def test_bound_equals_dense_top_eigenvalue(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = SeparableChannel.from_spread_product(cfg, 0.01).to_pathlist(8)
        sys_ = build_kronecker_system(cfg, ch)
        a, b = dense_kronecker_forms(cfg, ch, sys_.phi_offset, sys_.phi_length,
                                     sys_.psi_offset, sys_.psi_length)
        for snr in (10.0, math.inf):
            assert upper_bound(sys_, snr) == pytest.approx(dense_upper_bound(a, b, snr), rel=1e-10)
        for sys_, (a, b) in self._instances():
            assert upper_bound(sys_, 10.0) == pytest.approx(dense_upper_bound(a, b, 10.0),
                                                            rel=1e-10)


class TestRangeScale:
    """The range threshold's scale, read off the comb, against every dense block."""

    def test_equals_largest_block_eigenvalue(self):
        rng = np.random.default_rng(141)
        systems = other = 0
        for k in itertools.count():
            n = int(rng.integers(6, 20))
            cfg = LatticeConfig(N=n, Q=int(rng.integers(2, n + 1)))
            if k % 4 < 2:
                ch = random_pathlist(rng, max_delay=int(rng.integers(0, n)), k=3, nu_scale=0.05)
            else:
                ch = SeparableChannel(K=2, b=0.5, delays=[0, int(rng.integers(1, 4))],
                                      Bd=float(rng.uniform(0.001, 0.05)))
            windows = {}
            if k % 2:
                windows = dict(phi_offset=int(rng.integers(-8, 2)),
                               phi_length=int(rng.integers(3, 20)),
                               psi_offset=int(rng.integers(-8, 6)),
                               psi_length=int(rng.integers(3, 20)))
            sys_ = build_kronecker_system(cfg, ch, **windows)
            if not sys_.lags.size:  # no pairing in these windows: nothing to scale
                continue
            top = np.linalg.eigvalsh(sys_.a_matrix + sys_.b_matrix)[:, -1]
            assert _range_scale(sys_) == pytest.approx(top.max(), rel=1e-13, abs=0.0), k
            useful = sys_.a_symbol[:, 0] != 0
            other += bool(top[~useful].max(initial=0.0) > top[useful].max(initial=0.0))
            systems += 1
            if systems == 200:
                break
        # Some of them hold the largest eigenvalue in a block where A = 0.
        assert other >= 10


class TestUpperBound:
    """The relaxation dominates anything the alternating optimizer reaches."""

    def setup_method(self):
        self.cfg = LatticeConfig(N=10, Q=8)
        rng = np.random.default_rng(121)
        self.ch = random_pathlist(rng, max_delay=2, k=2, nu_scale=0.02)

    def test_dominates_optimized_pairs(self):
        rng = np.random.default_rng(122)
        sys_ = build_kronecker_system(self.cfg, self.ch)
        bound = upper_bound(sys_, snr=10.0)
        best = 0.0
        inits = [make_hermite_init(self.cfg, [1.0])] + [
            random_waveform(rng, self.cfg.L_phi, offset=-(self.cfg.L_phi // 2))
            for _ in range(5)
        ]
        for init in inits:
            res = run_pops(self.cfg, self.ch,
                           PopsConfig(snr=10.0, max_iterations=60, init=init))
            best = max(best, res.final_sinr)
        assert bound >= best

    def _dense_channel(self):
        # A sparse path set can leave interference-free directions in the
        # product space (the zero-noise bound is then rightly infinite); the
        # Doppler-spread profile keeps the interference operator invertible.
        return SeparableChannel.from_spread_product(self.cfg, 0.01).to_pathlist(8)

    def test_dominates_any_embedded_quotient(self):
        rng = np.random.default_rng(123)
        sys_ = build_kronecker_system(self.cfg, self._dense_channel())
        bound = upper_bound(sys_)  # zero-noise: bounds the SIR itself
        for _ in range(20):
            tx = random_waveform(rng, self.cfg.L_phi, offset=-(self.cfg.L_phi // 2))
            rx = random_waveform(rng, 6, offset=int(rng.integers(-2, 2)))
            assert kronecker_quotient(sys_, tx, rx) <= bound * (1 + 1e-10)

    def test_monotone_in_snr(self):
        sys_ = build_kronecker_system(self.cfg, self._dense_channel())
        values = [upper_bound(sys_, snr=s) for s in (1.0, 10.0, 100.0)]
        assert values[0] < values[1] < values[2]
        assert values[2] <= upper_bound(sys_) * (1 + 1e-12)

    def test_interference_free_channel_needs_finite_snr(self):
        sys_ = build_kronecker_system(self.cfg, PathList.ideal())
        with pytest.raises(SingularInterferenceError):
            upper_bound(sys_)
        finite = upper_bound(sys_, snr=10.0)
        assert np.isfinite(finite)
        # the noise-limited matched bound: ps <= 1, pn = 1/snr
        assert finite >= 10.0 * self.cfg.Q / self.cfg.N

    def test_large_finite_snr_is_finite(self):
        # pi >= ||chi||^2/snr > 0, however far below power_ratio's floor it is
        value = upper_bound(build_kronecker_system(self.cfg, PathList.ideal()), snr=1e13)
        assert math.isfinite(value)
        assert value >= 1e13 * self.cfg.Q / self.cfg.N

    def test_singular_interference_survives_whitening(self):
        # A + B keeps eigenvalues near 1e-11 of its largest here; whitening by
        # them left the winning chi with interference above power_ratio's
        # floor although B is singular on the range.
        cfg = LatticeConfig(N=12, Q=2)
        ch = SeparableChannel(K=2, b=0.5, delays=[0, 5], Bd=0.004329793935329396)
        sys_ = build_kronecker_system(cfg, ch, phi_offset=-1, phi_length=20,
                                      psi_offset=-4, psi_length=17)
        with pytest.raises(SingularInterferenceError):
            upper_bound(sys_)
        a = scipy.linalg.block_diag(*sys_.a_matrix)
        b = scipy.linalg.block_diag(*sys_.b_matrix)
        for snr in (10.0, 1000.0):
            assert upper_bound(sys_, snr) == pytest.approx(dense_upper_bound(a, b, snr), rel=1e-10)

    @pytest.mark.parametrize("cfg, ch", [
        (LatticeConfig(N=19, Q=4, Dphi=2, Dpsi=2),
         SeparableChannel(K=2, b=0.5, delays=[0, 1], Bd=0.02349790819342788)),
        (LatticeConfig(N=32, Q=13, Dphi=2, Dpsi=2),
         SeparableChannel(K=2, b=0.5, delays=[0, 1], Bd=0.001095822316733365).to_pathlist(16)),
    ], ids=["separable", "pathlist"])
    def test_singular_on_ill_conditioned_comb_blocks(self, cfg, ch):
        # B is singular on the range here, but its comb blocks are only ill
        # conditioned: a bound that whitens by them reads a finite SIR.
        with pytest.raises(SingularInterferenceError):
            upper_bound(build_kronecker_system(cfg, ch))

    @pytest.mark.parametrize("n, q, bd, windows, singular", [
        (11, 4, 0.0250284337647191, (-6, 12, 1, 13), False),
        (9, 3, 0.013952229426669033, (-5, 17, 5, 14), True),
    ], ids=["finite", "singular"])
    def test_a_zero_block_sets_the_reference(self, n, q, bd, windows, singular):
        # An A = 0 block, longer than the useful block of its residue mod N, holds
        # the largest eigenvalue of A + B, which scales the range and the singular
        # test.  Measured against the useful blocks alone, the second system's
        # SIR bound would read about 2.4e11.
        cfg = LatticeConfig(N=n, Q=q)
        ch = SeparableChannel(K=2, b=0.5, delays=[0, 1], Bd=bd)
        phi_offset, phi_length, psi_offset, psi_length = windows
        sys_ = build_kronecker_system(cfg, ch, phi_offset=phi_offset, phi_length=phi_length,
                                      psi_offset=psi_offset, psi_length=psi_length)
        useful = sys_.a_matrix[:, 0, 0] != 0
        top = np.linalg.eigvalsh(sys_.a_matrix + sys_.b_matrix)[:, -1]
        assert top[~useful].max() > 1.4 * top[useful].max()
        a = scipy.linalg.block_diag(*sys_.a_matrix)
        b = scipy.linalg.block_diag(*sys_.b_matrix)
        if singular:
            with pytest.raises(SingularInterferenceError):
                upper_bound(sys_)
        for snr in (10.0,) if singular else (math.inf, 10.0):
            assert upper_bound(sys_, snr) == pytest.approx(dense_upper_bound(a, b, snr), rel=1e-10)

    def test_bound_error_names_the_remedy(self):
        sys_ = build_kronecker_system(self.cfg, PathList.ideal())
        with pytest.raises(SingularInterferenceError, match="snr"):
            upper_bound(sys_)


class TestPaperScale:
    """`full_scale.ini`: 38 lag blocks, of which the 8 at a path delay are solved."""

    @classmethod
    def setup_class(cls):
        sc = load_scenario(Path(__file__).resolve().parent.parent / "demos" / "scenarios"
                           / "full_scale.ini")
        cls.cfg, cls.ch = sc.lattice(), sc.channel()
        cls.sys = build_kronecker_system(cls.cfg, cls.ch)

    @pytest.mark.parametrize("snr, want", [
        (math.inf, 688.9375943603776), (10.0, 354.51977477333844), (100.0, 629.5382945057015),
    ])
    def test_equals_the_bound_over_every_block(self, snr, want):
        # The values of a solve of all 38 blocks.
        assert upper_bound(self.sys, snr) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_build_stays_small(self):
        # The system holds one symbol row per lag, about 0.2 MB here.
        tracemalloc.start()
        try:
            build_kronecker_system(self.cfg, self.ch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_solve_stays_small(self):
        # Solving every block peaked at 23.5 MB; the 8 useful ones take about 8 MB.
        tracemalloc.start()
        try:
            upper_bound(self.sys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12e6


class TestDelayProfileInvariance:
    """At snr=inf the relaxation does not see the delay profile: taps that
    share one Doppler spectrum and fold onto distinct lags mod N each give
    useful lag blocks of one symbol pair times the tap's power, and the power
    cancels in the quotient.  So the bound is that of one tap with that Doppler."""

    @pytest.mark.parametrize("n, q, spread, taps", [(68, 64, 0.005, 6), (20, 16, 0.01, 3)])
    def test_equals_the_bound_of_one_tap(self, n, q, spread, taps):
        cfg = LatticeConfig(N=n, Q=q)
        ch = SeparableChannel.from_spread_product(cfg, spread)
        assert ch.K == taps and ch.max_delay < n
        one = SeparableChannel(K=1, b=0.5, delays=[0], Bd=ch.Bd)
        want = upper_bound(build_kronecker_system(cfg, one))
        got = upper_bound(build_kronecker_system(cfg, ch))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
