"""Structured kernel builders checked against brute-force sums over paths, shifts,
subcarriers, and against the dense builders they replaced."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import j0

from helpers import (dense_ki, dense_ks, dense_role_swapped, expand, random_pathlist,
                     random_waveform, small_config)
from pops import (
    KernelMatrix,
    LatticeConfig,
    PathList,
    SeparableChannel,
    Waveform,
    best_window_start,
    build_ki,
    build_ks,
    build_ks_kin,
    make_conventional_rx,
    make_conventional_tx,
)
from pops.kernels import _total, to_comb


# ---------------------------------------------------------------------------
# Brute-force oracles.  These recompute the kernels entry by entry from the
# defining sums -- per-path outer products for the useful kernel, and an
# explicit triple sum over (path, lattice shift, subcarrier) for the total --
# sharing no code with the builders under test.
# ---------------------------------------------------------------------------

def _path_terms(ch):
    """(delay, rho(r) callable, power) triples for either channel kind."""
    if isinstance(ch, PathList):
        return [
            (int(d), (lambda r, nu=nu: np.exp(2j * np.pi * nu * ch.Ts * r)), pk)
            for d, nu, pk in zip(ch.delays, ch.dopplers, ch.powers)
        ]
    return [
        (int(d), (lambda r: j0(np.pi * ch.Bd * ch.Ts * r)), pk)
        for d, pk in zip(ch.delays, ch.powers)
    ]


def oracle_ks(w, ch, s, L):
    p = s + np.arange(L)
    diff = p[:, None] - p[None, :]
    K = np.zeros((L, L), dtype=complex)
    for d, rho, pk in _path_terms(ch):
        v = w.dense(s - d, L)  # w(p - d) on the window
        K += pk * np.outer(v, v.conj()) * rho(diff)
    return K


def oracle_total(w, ch, cfg, s, L):
    p = s + np.arange(L)
    diff = p[:, None] - p[None, :]
    K = np.zeros((L, L), dtype=complex)
    n_span = (L + len(w) + 64) // cfg.N + 2
    for d, rho, pk in _path_terms(ch):
        for n in range(-n_span, n_span + 1):
            v = w.dense(s - d - n * cfg.N, L)
            if not np.any(v):
                continue
            outer = pk * np.outer(v, v.conj()) * rho(diff)
            for m in range(cfg.Q):
                K += outer * np.exp(2j * np.pi * m * diff / cfg.Q)
    return K


def rel_err(got, want):
    scale = max(np.abs(want).max(), 1e-30)
    return np.abs(got - want).max() / scale


class TestUsefulKernelOracle:
    """build_ks against the per-path double sum."""

    def test_discrete_paths(self):
        rng = np.random.default_rng(11)
        for trial in range(8):
            cfg = small_config()
            ch = random_pathlist(rng, max_delay=5, k=3, nu_scale=0.05)
            w = random_waveform(rng, rng.integers(6, 15), offset=int(rng.integers(-4, 2)))
            s = int(rng.integers(-3, 4))
            ks = build_ks(w, ch, cfg.Q, window_start=s)
            assert rel_err(expand(ks), oracle_ks(w, ch, s, cfg.Q)) < 1e-13, trial
            assert rel_err(expand(ks), dense_ks(w, ch, cfg.Q, s)) < 1e-13, trial

    def test_separable_channel(self):
        rng = np.random.default_rng(12)
        ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=4, Bd=0.008)
        for trial in range(4):
            w = random_waveform(rng, 12, offset=-3)
            ks = build_ks(w, ch, 10, window_start=-2)
            assert rel_err(expand(ks), oracle_ks(w, ch, -2, 10)) < 1e-13, trial
            assert rel_err(expand(ks), dense_ks(w, ch, 10, -2)) < 1e-13, trial

    def test_wide_factor_is_compressed(self):
        # Bd*Ts = 0.9 needs 29 Doppler nodes per tap: K G = 87 columns for 10
        # samples, stored as an exact 10-column factor.
        ch = SeparableChannel.with_uniform_delays(K=3, b=0.5, max_delay=2, Bd=0.9)
        w = random_waveform(np.random.default_rng(14), 12, offset=-3)
        ks = build_ks(w, ch, 10, window_start=-2)
        assert ks.data.shape == (10, 10)
        assert rel_err(expand(ks), oracle_ks(w, ch, -2, 10)) < 1e-13


class TestInterferenceKernelOracle:
    """build_ki against the explicit (path, shift, subcarrier) triple sum."""

    def test_discrete_paths(self):
        rng = np.random.default_rng(21)
        for trial in range(5):
            cfg = small_config(n=10, q=8)
            ch = random_pathlist(rng, max_delay=4, k=2, nu_scale=0.03)
            w = random_waveform(rng, rng.integers(8, 13), offset=int(rng.integers(-4, 1)))
            s = int(rng.integers(-2, 3))
            ki = build_ki(w, ch, cfg, cfg.Q, window_start=s)
            want = oracle_total(w, ch, cfg, s, cfg.Q) - oracle_ks(w, ch, s, cfg.Q)
            assert rel_err(expand(ki), want) < 1e-12, trial
            assert rel_err(expand(ki), dense_ki(w, ch, cfg, cfg.Q, s)) < 1e-12, trial

    def test_separable_channel(self):
        cfg = small_config(n=12, q=8)
        ch = SeparableChannel.with_uniform_delays(K=3, b=0.5, max_delay=4, Bd=0.01)
        rng = np.random.default_rng(22)
        w = random_waveform(rng, 12, offset=-2)
        ki = build_ki(w, ch, cfg, cfg.Q, window_start=0)
        want = oracle_total(w, ch, cfg, 0, cfg.Q) - oracle_ks(w, ch, 0, cfg.Q)
        assert rel_err(expand(ki), want) < 1e-12
        assert rel_err(expand(ki), dense_ki(w, ch, cfg, cfg.Q, 0)) < 1e-12

    def test_long_waveform_many_shifts(self):
        # A support spanning several symbol periods exercises the n-sum.
        cfg = small_config(n=6, q=4)
        rng = np.random.default_rng(23)
        ch = random_pathlist(rng, max_delay=3, k=2, nu_scale=0.02)
        w = random_waveform(rng, 20, offset=-9)
        ki = build_ki(w, ch, cfg, 8, window_start=-4)
        want = oracle_total(w, ch, cfg, -4, 8) - oracle_ks(w, ch, -4, 8)
        assert rel_err(expand(ki), want) < 1e-12
        assert rel_err(expand(ki), dense_ki(w, ch, cfg, 8, -4)) < 1e-12


def _geometry(name):
    """(lattice, channel, pulse, window length, window start) of a named T geometry."""
    rng = np.random.default_rng(sum(map(ord, name)))
    paths = PathList.from_paths([(0, 0.01, 0.3), (2, -0.02, 0.3), (13, 0.005, 0.4)])
    if name == "wrap-only":  # four periods before the pulse: no n = 0 term reaches it
        return small_config(n=10, q=8), paths, random_waveform(rng, 14, offset=-3), 12, -40
    if name == "window-past-reach":  # L = 31 > D N + max delay = 23, and Q does not divide L
        ch = SeparableChannel.with_uniform_delays(K=3, b=0.5, max_delay=3, Bd=0.02)
        return small_config(n=10, q=8), ch, random_waveform(rng, 20, offset=-5), 31, -8
    if name == "pulse-not-multiple-of-N":
        return small_config(n=10, q=6), paths, random_waveform(rng, 23, offset=2), 17, 0
    if name == "padding":
        ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=6, Bd=0.01)
        return small_config(n=12, q=8), ch, random_waveform(rng, 12, offset=-6), 21, -3
    if name == "one-comb-lag":  # L <= Q: m = 1
        return small_config(n=12, q=8), paths, random_waveform(rng, 12, offset=-6), 5, 1
    assert name == "equal-delays"  # distinct Dopplers at one delay
    ch = PathList.from_paths([(2, 0.03, 0.3), (2, -0.02, 0.3), (5, 0.01, 0.4)])
    return small_config(n=10, q=8), ch, random_waveform(rng, 15, offset=-4), 14, -2


class TestPeriodicAssembly:
    """T built from the pulse's N-periodic lag products, on geometries that
    random draws rarely reach, against the dense oracle."""

    NAMES = ["wrap-only", "window-past-reach", "pulse-not-multiple-of-N", "padding",
             "one-comb-lag", "equal-delays"]

    @pytest.mark.parametrize("snr", [10.0, math.inf])
    @pytest.mark.parametrize("name", NAMES)
    def test_equals_dense_oracle(self, name, snr):
        cfg, ch, w, L, s = _geometry(name)
        ks, kin = build_ks_kin(w, ch, cfg, L, snr, window_start=s)
        want = dense_ki(w, ch, cfg, L, s) + (0.0 if math.isinf(snr) else w.energy / snr) * np.eye(L)
        scale = max(np.abs(want).max(), np.abs(expand(ks)).max())
        np.testing.assert_allclose(expand(kin), want, rtol=0, atol=1e-10 * scale)
        assert kin.data.dtype == np.complex128  # a complex pulse, on any channel
        assert kin.data.shape == (cfg.Q, -(-L // cfg.Q), -(-L // cfg.Q))
        pad = ~to_comb(np.ones(L, dtype=bool), cfg.Q)  # (Q, m), True on the padding
        assert pad.any() == (L % cfg.Q != 0)
        for blocks in (kin.data, kin.data.swapaxes(1, 2)):
            assert np.all(blocks[pad] == 0.0)

    @pytest.mark.parametrize("name", NAMES)
    def test_windows_a_period_apart_share_blocks(self, name):
        cfg, ch, w, L, s = _geometry(name)
        near = build_ks_kin(w, ch, cfg, L, 10.0, window_start=s)[1]
        far = build_ks_kin(w, ch, cfg, L, 10.0, window_start=s + cfg.N)[1]
        np.testing.assert_array_equal(near.data, far.data)

    def test_long_pulse_assembly_stays_small(self):
        # One T at N=256/Q=128, D=3 (L=768) on a built layout: the lag products
        # of the folded pulse, not one gathered row per (tap, lattice shift).
        cfg = LatticeConfig(N=256, Q=128, Dphi=3, Dpsi=3)
        ch = SeparableChannel.from_spread_product(cfg, 0.01, bd_over_f=0.05)
        w = random_waveform(np.random.default_rng(5), cfg.L_phi, offset=-cfg.L_phi // 2)
        ks = build_ks(w, ch, cfg.L_psi, window_start=w.offset)
        _total(w, ch, cfg, ks, 0.1)
        tracemalloc.start()
        try:
            _total(w, ch, cfg, ks, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


def _real_waveform(rng, length, offset):
    """Unit-energy waveform with real Gaussian samples (imaginary part exactly 0)."""
    x = rng.standard_normal(length)
    return Waveform(x / np.linalg.norm(x), offset=offset)


class TestRealKernels:
    """A real pulse on a channel whose Doppler nodes come in exact +- pairs
    gives float64 kernels (C from cos/sin node pairs, real comb blocks), equal
    to the dense oracle; any other input keeps complex kernels."""

    @pytest.mark.parametrize("snr", [10.0, math.inf])
    @pytest.mark.parametrize("name", ["window-past-reach", "padding"])
    def test_separable_channel_gives_float64_kernels(self, name, snr):
        cfg, ch, w, L, s = _geometry(name)
        w = _real_waveform(np.random.default_rng(len(name)), len(w), w.offset)
        ks, kin = build_ks_kin(w, ch, cfg, L, snr, window_start=s)
        for arr in (ks.data, kin.data, kin.factor):
            assert arr.dtype == np.float64
        scale = np.abs(dense_ks(w, ch, L, s)).max()
        np.testing.assert_allclose(expand(ks), dense_ks(w, ch, L, s), rtol=0, atol=1e-10 * scale)
        noise = 0.0 if math.isinf(snr) else w.energy / snr
        np.testing.assert_allclose(expand(kin), dense_ki(w, ch, cfg, L, s) + noise * np.eye(L),
                                   rtol=0, atol=1e-10 * scale)

    def test_useful_kernel_of_odd_and_even_node_counts(self):
        # The oracle geometry of TestUsefulKernelOracle at two spreads: an odd
        # node count has a theta = 0 node, an even one has none.
        rng = np.random.default_rng(12)
        counts = set()
        for bd in (0.008, 0.05):  # G = 5 and 8
            ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=4, Bd=bd)
            counts.add(ch.doppler_nodes(10).shape[1] % 2)
            w = _real_waveform(rng, 12, -3)
            ks = build_ks(w, ch, 10, window_start=-2)
            assert ks.data.dtype == np.float64
            assert rel_err(expand(ks), oracle_ks(w, ch, -2, 10)) < 1e-13
        assert counts == {0, 1}

    @pytest.mark.parametrize("doppler, dtype", [(False, np.float64), (True, np.complex128)])
    def test_path_list_dtype_follows_its_doppler(self, doppler, dtype):
        # Paths without Doppler have the one node 0 (symmetric); any nonzero
        # Doppler keeps complex kernels, even for a real pulse.
        rng = np.random.default_rng(24)
        cfg = small_config(n=10, q=8)
        ch = random_pathlist(rng, max_delay=4, k=3, complex_doppler=doppler)
        w = _real_waveform(rng, 12, -4)
        ks, kin = build_ks_kin(w, ch, cfg, cfg.Q, 10.0, window_start=-2)
        assert ks.data.dtype == kin.data.dtype == dtype
        np.testing.assert_allclose(expand(kin), dense_ki(w, ch, cfg, cfg.Q, -2)
                                   + w.energy / 10.0 * np.eye(cfg.Q), rtol=0, atol=1e-12)

    def test_forms_of_complex_receivers(self):
        # Real kernels read complex receivers, C-ordered or strided, as the dense product.
        cfg, ch, w, L, s = _geometry("window-past-reach")
        w = _real_waveform(np.random.default_rng(26), len(w), w.offset)
        ks, kin = build_ks_kin(w, ch, cfg, L, 10.0, window_start=s)
        rng = np.random.default_rng(26)
        X = rng.standard_normal((L, 3)) + 1j * rng.standard_normal((L, 3))
        for stack in (X, np.asfortranarray(X)):
            for k in (ks, kin):
                ps, form = k.forms(stack)
                useful = np.real(np.einsum("lp,lk,kp->p", X.conj(), expand(ks), X))
                np.testing.assert_allclose(ps, useful, rtol=1e-12)
                want = np.real(np.einsum("lp,lk,kp->p", X.conj(), expand(k), X))
                np.testing.assert_allclose(form, want, rtol=1e-12)


class TestKernelInvariants:
    """Hermitian symmetry, positive semidefiniteness, window bookkeeping."""

    def _random_instance(self, seed):
        rng = np.random.default_rng(seed)
        cfg = small_config(n=12, q=8)
        ch = random_pathlist(rng, max_delay=5, k=3, nu_scale=0.05)
        w = random_waveform(rng, 14, offset=-5)
        return cfg, ch, w

    def test_hermitian_and_psd(self):
        for seed in range(5):
            cfg, ch, w = self._random_instance(seed)
            ks = build_ks(w, ch, cfg.Q)
            ki = build_ki(w, ch, cfg, cfg.Q)
            for name, k in (("ks", ks), ("ki", ki)):
                dense = expand(k)
                np.testing.assert_allclose(dense, dense.conj().T, atol=1e-14)
                lo = np.linalg.eigvalsh(dense)[0]
                assert lo > -1e-12 * max(np.abs(dense).max(), 1.0), (seed, name)

    def test_kin_adds_scaled_identity(self):
        # KIN = KI + ||w||^2/snr I on the window's samples; the comb padding stays 0.
        cfg, ch, w = self._random_instance(7)
        L = cfg.Q + 3  # not a multiple of Q: the last comb blocks carry padding
        ki = build_ki(w, ch, cfg, L)
        _, kin = build_ks_kin(w, ch, cfg, L, snr=10.0, window_start=ki.window_start)
        np.testing.assert_allclose(expand(kin), expand(ki) + w.energy / 10.0 * np.eye(L),
                                   atol=1e-15)
        pad = ~to_comb(np.ones(L, dtype=bool), cfg.Q)  # (Q, m), True on the padding
        assert pad.any()
        assert not kin.data[pad].any() and not kin.data.swapaxes(1, 2)[pad].any()
        _, kin_inf = build_ks_kin(w, ch, cfg, L, snr=math.inf, window_start=ki.window_start)
        np.testing.assert_array_equal(kin_inf.data, ki.data)
        np.testing.assert_array_equal(kin_inf.factor, ki.factor)

    def test_build_ks_kin_shares_window(self):
        cfg, ch, w = self._random_instance(8)
        ks, kin = build_ks_kin(w, ch, cfg, cfg.Q, snr=10.0)
        assert ks.window_start == kin.window_start == build_ki(w, ch, cfg, cfg.Q).window_start
        np.testing.assert_array_equal(kin.factor, ks.data)

    def test_quad_matches_manual_product(self):
        cfg, ch, w = self._random_instance(9)
        rng = np.random.default_rng(99)
        other = random_waveform(rng, 6, offset=1)
        ks = build_ks(w, ch, cfg.Q, window_start=0)
        x = other.dense(0, cfg.Q)
        assert ks.quad(other) == pytest.approx(np.real(x.conj() @ expand(ks) @ x))
        ki = build_ki(w, ch, cfg, cfg.Q, window_start=0)
        assert ki.quad(other) == pytest.approx(np.real(x.conj() @ expand(ki) @ x))

    def test_forms_match_dense_oracle_and_quad(self):
        cfg, ch, w = self._random_instance(11)
        rng = np.random.default_rng(11)
        ks, kin = build_ks_kin(w, ch, cfg, cfg.Q + 3, snr=10.0)
        X = rng.standard_normal((ks.L, 4)) + 1j * rng.standard_normal((ks.L, 4))
        useful = np.real(np.einsum("lp,lk,kp->p", X.conj(), expand(ks), X))
        for k in (ks, kin):
            ps, form = k.forms(X)
            np.testing.assert_allclose(ps, useful, rtol=1e-12)
            want = np.real(np.einsum("lp,lk,kp->p", X.conj(), expand(k), X))
            np.testing.assert_allclose(form, want, rtol=1e-12)
            quads = [k.quad(Waveform(x, offset=k.window_start)) for x in X.T]
            np.testing.assert_allclose(form, quads, rtol=1e-12)

    def test_validation(self):
        cfg, ch, w = self._random_instance(10)
        with pytest.raises(ValueError):
            build_ks(w, ch, 0)
        ks = build_ks(w, ch, cfg.Q)
        ki = build_ki(w, ch, cfg, cfg.Q)
        with pytest.raises(ValueError):
            build_ks_kin(w, ch, cfg, cfg.Q, 0.0)
        with pytest.raises(ValueError):  # comb blocks need the factor of KS
            KernelMatrix(ki.data, window_start=0)
        with pytest.raises(ValueError):  # blocks that do not tile the factor's L
            KernelMatrix(ki.data[:4], 0, ks.data)
        bad_ts = SeparableChannel.with_uniform_delays(K=2, b=0.5, max_delay=2, Bd=0.0, Ts=2.0)
        with pytest.raises(ValueError):
            build_ki(random_waveform(np.random.default_rng(0), 8), bad_ts, cfg, cfg.Q)

    def test_read_only_complex_arrays_are_kept_as_they_are(self):
        rng = np.random.default_rng(12)
        C = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        blocks = np.stack([np.eye(2, dtype=complex)] * 3)  # Q = 3 blocks tile L = 6
        for arr in (C, blocks):
            arr.flags.writeable = False
        ks, kin = KernelMatrix(C, 0), KernelMatrix(blocks, 0, C)
        assert np.shares_memory(ks.data, C)
        assert np.shares_memory(kin.data, blocks) and np.shares_memory(kin.factor, C)
        # The pair the builders return shares one factor.
        cfg, ch, w = self._random_instance(12)
        ks, kin = build_ks_kin(w, ch, cfg, cfg.Q + 3, snr=10.0)
        assert np.shares_memory(kin.factor, ks.data)

    def test_other_inputs_are_copied_and_frozen(self):
        rng = np.random.default_rng(13)
        C = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        blocks = np.stack([np.eye(2, dtype=complex)] * 3)
        ks, kin = KernelMatrix(C, 0), KernelMatrix(blocks, 0, C)
        want = (C.copy(), blocks.copy())
        C[0, 0] += 1.0
        blocks[0, 0, 0] += 1.0
        np.testing.assert_array_equal(ks.data, want[0])
        np.testing.assert_array_equal(kin.factor, want[0])
        np.testing.assert_array_equal(kin.data, want[1])
        ones = np.ones((6, 2))
        ones.flags.writeable = False
        real = KernelMatrix(ones, 0)  # read-only float64: kept
        assert real.data is ones
        # Any other dtype is copied to float64 (real input) or complex128.
        for arr, dtype in ((np.ones((6, 2), dtype=np.float32), np.float64),
                           (np.ones((6, 2), dtype=np.int64), np.float64),
                           (np.ones((6, 2), dtype=np.complex64), np.complex128)):
            arr.flags.writeable = False
            copied = KernelMatrix(arr, 0).data
            assert copied.dtype == dtype and not np.shares_memory(copied, arr)
            np.testing.assert_array_equal(copied, arr)
        writable = np.ones((6, 2))
        copied = KernelMatrix(writable, 0).data
        assert copied.dtype == np.float64 and not np.shares_memory(copied, writable)
        for arr in (ks.data, kin.data, kin.factor, real.data, copied):
            assert not arr.flags.writeable


class TestBestWindow:
    """The automatic receive window maximizes the useful-kernel trace."""

    def test_attains_global_trace_maximum(self):
        rng = np.random.default_rng(31)
        for trial in range(5):
            ch = random_pathlist(rng, max_delay=5, k=3)
            w = random_waveform(rng, 15, offset=int(rng.integers(-6, 1)))
            L = 8
            s_best = best_window_start(w, ch, L)
            traces = {
                s: float(np.trace(expand(build_ks(w, ch, L, window_start=s))).real)
                for s in range(w.offset - L, w.offset + len(w) + 10)
            }
            assert traces[s_best] == pytest.approx(max(traces.values()), rel=1e-12), trial

    def test_ideal_channel_centers_on_support(self):
        w = Waveform(np.ones(8) / np.sqrt(8.0), offset=3)
        s = best_window_start(w, PathList.ideal(), 8)
        assert s == 3  # window exactly covers the support

    def test_default_window_used_by_builder(self):
        rng = np.random.default_rng(32)
        ch = random_pathlist(rng, max_delay=3, k=2)
        w = random_waveform(rng, 10, offset=-2)
        ks = build_ks(w, ch, 6)
        assert ks.window_start == best_window_start(w, ch, 6)


class TestDualityQuadraticForms:
    """Transmit/receive role swap preserves the useful and total powers: the
    kernels of phi read at psi equal the dense S(-p, -nu) kernels of psi read at phi."""

    def test_ks_quad_identity(self):
        rng = np.random.default_rng(41)
        cfg = small_config(n=10, q=8)
        for trial in range(10):
            ch = random_pathlist(rng, max_delay=4, k=3, nu_scale=0.05)
            phi = random_waveform(rng, 12, offset=-4)
            psi = random_waveform(rng, 9, offset=-2)
            fwd = build_ks(phi, ch, len(psi), window_start=psi.offset).quad(psi)
            rev = dense_role_swapped(phi, psi, ch, cfg)[0]
            assert fwd == pytest.approx(rev, rel=1e-10), trial

    def test_total_quad_identity(self):
        rng = np.random.default_rng(42)
        cfg = small_config(n=10, q=8)
        for trial in range(10):
            ch = random_pathlist(rng, max_delay=4, k=2, nu_scale=0.05)
            phi = random_waveform(rng, 11, offset=-3)
            psi = random_waveform(rng, 8, offset=-1)
            fwd = build_ks(phi, ch, len(psi), window_start=psi.offset).quad(psi) + build_ki(
                phi, ch, cfg, len(psi), window_start=psi.offset
            ).quad(psi)
            rev = sum(dense_role_swapped(phi, psi, ch, cfg))
            assert fwd == pytest.approx(rev, rel=1e-10), trial


class TestPowerConservation:
    """With the rectangular pair, useful plus interference power is Q/N exactly."""

    def _total_power(self, cfg, ch):
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        ks = build_ks(tx, ch, cfg.Q, window_start=0)
        ki = build_ki(tx, ch, cfg, cfg.Q, window_start=0)
        return (ks.quad(rx) + ki.quad(rx)) / (tx.energy * rx.energy)

    def test_delays_within_guard(self):
        cfg = LatticeConfig(N=20, Q=16)
        ch = PathList.from_paths([(0, 0.0, 0.5), (4, 0.01, 0.5)])
        assert self._total_power(cfg, ch) == pytest.approx(16 / 20, rel=1e-12)

    def test_delays_beyond_guard(self):
        cfg = LatticeConfig(N=20, Q=16)
        ch = PathList.from_paths([(0, 0.0, 0.3), (9, -0.02, 0.4), (17, 0.015, 0.3)])
        assert self._total_power(cfg, ch) == pytest.approx(16 / 20, rel=1e-12)

    def test_separable_channel(self):
        cfg = LatticeConfig(N=12, Q=8)
        ch = SeparableChannel.with_uniform_delays(K=5, b=0.5, max_delay=9, Bd=0.02)
        assert self._total_power(cfg, ch) == pytest.approx(8 / 12, rel=1e-12)

    def test_scaling_waveforms_cancels(self):
        cfg = LatticeConfig(N=10, Q=8)
        ch = PathList.from_paths([(0, 0.0, 0.7), (3, 0.01, 0.3)])
        tx = make_conventional_tx(cfg)
        rx = make_conventional_rx(cfg)
        big_tx = Waveform(5.0 * tx.samples, offset=tx.offset)
        big_rx = Waveform(0.25 * rx.samples, offset=rx.offset)
        ks = build_ks(big_tx, ch, cfg.Q, window_start=0)
        ki = build_ki(big_tx, ch, cfg, cfg.Q, window_start=0)
        got = (ks.quad(big_rx) + ki.quad(big_rx)) / (big_tx.energy * big_rx.energy)
        assert got == pytest.approx(8 / 10, rel=1e-12)
