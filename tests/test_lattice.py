"""Lattice configuration, waveform container, and pulse constructors."""

import numpy as np
import pytest

from pops import (
    LatticeConfig,
    Waveform,
    inner,
    lattice_atom,
    load_waveform_csv,
    make_conventional_rx,
    make_conventional_tx,
    make_gaussian_init,
    make_hermite_init,
    make_rrc_init,
    modulate,
    normalized,
    phase_fixed,
    save_waveform_csv,
    shift,
    time_reverse,
)


class TestLatticeConfig:
    """Derived grid quantities and input validation."""

    def test_derived_quantities(self):
        cfg = LatticeConfig(N=20, Q=16, Ts=0.5, Dphi=2, Dpsi=3)
        assert cfg.T == 10.0
        assert cfg.F == pytest.approx(1.0 / 8.0)
        assert cfg.ft_product == pytest.approx(1.25)
        assert cfg.density == pytest.approx(0.8)
        assert cfg.guard == 4
        assert cfg.L_phi == 40
        assert cfg.L_psi == 60

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            LatticeConfig(N=16, Q=20)  # N < Q
        with pytest.raises(ValueError):
            LatticeConfig(N=20.5, Q=16)
        with pytest.raises(ValueError):
            LatticeConfig(N=20, Q=16, Ts=0.0)
        with pytest.raises(ValueError):
            LatticeConfig(N=20, Q=16, Dphi=0)


class TestWaveform:
    """Container semantics: support indexing, energy, dense windows."""

    def test_energy_end_len(self):
        w = Waveform(np.array([1.0, 2.0, 2.0]), offset=-1)
        assert len(w) == 3
        assert w.end == 2
        assert w.energy == pytest.approx(9.0)

    def test_dense_places_samples_at_global_indices(self):
        w = Waveform(np.array([1.0, 2.0, 3.0]), offset=5)
        d = w.dense(3, 7)
        assert d.shape == (7,)
        np.testing.assert_allclose(d, [0, 0, 1, 2, 3, 0, 0])

    def test_dense_clips_outside_window(self):
        w = Waveform(np.array([1.0, 2.0, 3.0]), offset=0)
        np.testing.assert_allclose(w.dense(1, 2), [2, 3])
        np.testing.assert_allclose(w.dense(10, 2), [0, 0])

    def test_samples_are_frozen(self):
        w = Waveform(np.ones(4), offset=0)
        with pytest.raises(ValueError):
            w.samples[0] = 2.0

    def test_equality(self):
        a = Waveform(np.array([1.0, 2.0]), offset=1)
        b = Waveform(np.array([1.0, 2.0]), offset=1)
        c = Waveform(np.array([1.0, 2.0]), offset=0)
        assert a == b and a != c


class TestConventionalPair:
    """The rectangular cyclic-prefix pair on the N/Q grid."""

    def test_supports_and_amplitudes(self):
        cfg = LatticeConfig(N=20, Q=16)
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        assert tx.offset == -4 and len(tx) == 20
        assert rx.offset == 0 and len(rx) == 16
        np.testing.assert_allclose(tx.samples, 1 / np.sqrt(20))
        np.testing.assert_allclose(rx.samples, 1 / np.sqrt(16))
        assert tx.energy == pytest.approx(1.0)
        assert rx.energy == pytest.approx(1.0)

    def test_atom_has_cyclic_prefix(self):
        # The leading N-Q samples of a modulated transmit atom must replicate
        # the block that sits Q samples later; this only holds when the
        # subcarrier phase ramp uses the global sample index.
        cfg = LatticeConfig(N=20, Q=16)
        atom = lattice_atom(make_conventional_tx(cfg), m=3, n=0, cfg=cfg)
        d = atom.dense(-4, 20)  # global indices -4 .. 15
        np.testing.assert_allclose(d[:4], d[16:], atol=1e-15)

    def test_biorthogonality(self):
        cfg = LatticeConfig(N=20, Q=16)
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        gain = np.sqrt(cfg.Q / cfg.N)
        for m, n in [(0, 0), (3, 0), (5, 1), (15, -1)]:
            for mp, npp in [(0, 0), (3, 0), (5, 1), (15, -1)]:
                got = inner(lattice_atom(rx, m, n, cfg), lattice_atom(tx, mp, npp, cfg))
                want = gain if (m, n) == (mp, npp) else 0.0
                assert got == pytest.approx(want, abs=1e-12), (m, n, mp, npp)


class TestInitializers:
    """Hermite, Gaussian, and root-raised-cosine starting pulses."""

    def test_hermite_order0_is_unit_gaussian(self):
        cfg = LatticeConfig(N=32, Q=16)
        w = make_hermite_init(cfg, [1.0])
        assert w.energy == pytest.approx(1.0)
        assert len(w) == cfg.L_phi
        # symmetric around the support center, strictly positive
        np.testing.assert_allclose(w.samples, w.samples[::-1], rtol=1e-12)
        assert np.all(w.samples.real > 0)

    def test_hermite_isotropic_spread(self):
        # amplitude ~ exp(-(q-c)^2 / (2 sigma^2)) with sigma = sqrt(NQ)/(2 sqrt(pi)),
        # so the power profile has variance sigma^2 / 2 = NQ / (8 pi).
        cfg = LatticeConfig(N=32, Q=16, Dphi=2)
        w = make_hermite_init(cfg, [1.0])
        q = np.arange(len(w), dtype=float)
        c = (len(w) - 1) / 2.0
        p = np.abs(w.samples) ** 2
        p /= p.sum()
        var = np.sum(p * (q - c) ** 2)
        assert var == pytest.approx(cfg.N * cfg.Q / (8.0 * np.pi), rel=1e-6)

    def test_hermite_rejects_bad_coefficients(self):
        cfg = LatticeConfig(N=16, Q=8)
        with pytest.raises(ValueError):
            make_hermite_init(cfg, [0.0, 0.0])
        with pytest.raises(ValueError):
            make_hermite_init(cfg, np.ones(9))

    def test_gaussian_init_peak_and_energy(self):
        cfg = LatticeConfig(N=16, Q=8)
        w = make_gaussian_init(cfg, mean_sample=7.5, sigma_samples=3.0)
        assert w.energy == pytest.approx(1.0)
        peak = np.argmax(np.abs(w.samples))
        assert peak in (7, 8)
        with pytest.raises(ValueError):
            make_gaussian_init(cfg, 7.5, 0.0)

    def test_rrc_init(self):
        cfg = LatticeConfig(N=16, Q=8, Dphi=4)
        w = make_rrc_init(cfg, rolloff=0.25)
        assert w.energy == pytest.approx(1.0)
        # beta=0 degenerates to a sinc at the symbol rate; with an odd support
        # the center lands on a sample and the nulls at +-N are exact.
        cfg_odd = LatticeConfig(N=17, Q=8, Dphi=3)
        w0 = make_rrc_init(cfg_odd, rolloff=0.0)
        c = (len(w0) - 1) // 2
        assert abs(w0.samples[c]) == pytest.approx(np.max(np.abs(w0.samples)))
        assert abs(w0.samples[c + cfg_odd.N]) < 1e-12
        assert abs(w0.samples[c - cfg_odd.N]) < 1e-12
        with pytest.raises(ValueError):
            make_rrc_init(cfg, rolloff=1.5)


class TestTransforms:
    """Shift, modulation, reversal, and inner-product identities."""

    def setup_method(self):
        rng = np.random.default_rng(7)
        self.a = Waveform(rng.standard_normal(9) + 1j * rng.standard_normal(9), offset=-3)
        self.b = Waveform(rng.standard_normal(12) + 1j * rng.standard_normal(12), offset=-1)

    def test_shift_moves_support(self):
        s = shift(self.a, 5)
        assert s.offset == 2
        np.testing.assert_array_equal(s.samples, self.a.samples)

    def test_shift_adjoint(self):
        lhs = inner(shift(self.a, 4), self.b)
        rhs = inner(self.a, shift(self.b, -4))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_modulate_uses_global_index(self):
        q0 = 16
        m = modulate(self.a, 2.0, q0)
        idx = self.a.offset + np.arange(len(self.a))
        np.testing.assert_allclose(
            m.samples, self.a.samples * np.exp(2j * np.pi * 2.0 * idx / q0), rtol=1e-12
        )

    def test_modulate_accepts_fractional_offsets(self):
        m = modulate(self.a, 0.25, 16)
        assert m.energy == pytest.approx(self.a.energy)

    def test_time_reverse_involution(self):
        assert time_reverse(time_reverse(self.a)) == self.a

    def test_time_reverse_flips_axis(self):
        # (rev w)(q) = w(-q): pure inversion, no conjugation.
        r = time_reverse(self.a)
        idx = self.a.offset + np.arange(len(self.a))
        for i, q in enumerate(idx):
            assert r.dense(-q, 1)[0] == pytest.approx(self.a.samples[i])

    def test_inner_conjugate_symmetry(self):
        assert inner(self.a, self.b) == pytest.approx(np.conj(inner(self.b, self.a)))

    def test_inner_respects_offsets(self):
        # disjoint supports -> zero
        far = shift(self.b, 100)
        assert inner(self.a, far) == 0.0

    def test_normalized_and_phase_fixed(self):
        n = normalized(self.a)
        assert n.energy == pytest.approx(1.0)
        p = phase_fixed(n)
        k = np.argmax(np.abs(p.samples))
        assert p.samples[k].imag == pytest.approx(0.0, abs=1e-12)
        assert p.samples[k].real > 0
        assert p.energy == pytest.approx(1.0)


class TestWaveformCsv:
    """Disk round trip preserves samples and the support offset."""

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        w = Waveform(rng.standard_normal(17) + 1j * rng.standard_normal(17), offset=-6)
        path = tmp_path / "w.csv"
        save_waveform_csv(w, path)
        back = load_waveform_csv(path)
        assert back.offset == w.offset
        np.testing.assert_allclose(back.samples, w.samples, rtol=0, atol=1e-16)

    def test_gap_in_indices_is_refused(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("# offset=0\nindex,re,im\n0,1,0\n2,1,0\n5,1,0\n")
        with pytest.raises(ValueError, match="row 1 has index 2, expected 1"):
            load_waveform_csv(path)
