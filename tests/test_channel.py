"""Channel models: discrete paths and the separable delay/Doppler profile."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import j0

from pops import LatticeConfig, PathList, SeparableChannel, jakes_density
from pops.channel import doppler_correlation


class TestJakesDensity:
    """The U-shaped Doppler spectrum."""

    def test_integrates_to_one(self):
        bd = 0.37
        total, err = quad(lambda v: jakes_density(v, bd), -bd / 2, bd / 2, points=[0.0])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_and_u_shaped(self):
        bd = 2.0
        v = np.linspace(-0.9, 0.9, 41)
        d = jakes_density(v, bd)
        np.testing.assert_allclose(d, d[::-1], rtol=1e-12)
        assert d[0] > d[len(d) // 2]  # rises toward the band edges

    def test_autocorrelation_is_bessel(self):
        # The inverse transform of the density is J0(pi Bd t); check by
        # numerical quadrature rather than trusting the closed form.
        bd = 0.125
        for t in [0.0, 1.0, 7.0, 30.0]:
            got, _ = quad(
                lambda v: jakes_density(v, bd) * np.cos(2 * np.pi * v * t),
                -bd / 2,
                bd / 2,
                points=[0.0],
                limit=200,
            )
            assert got == pytest.approx(j0(np.pi * bd * t), abs=1e-8), t


class TestPathList:
    def test_from_paths_and_properties(self):
        ch = PathList.from_paths([(0, 0.01, 0.5), (3, -0.02, 0.3), (7, 0.0, 0.2)])
        assert ch.K == 3
        assert ch.max_delay == 7
        assert ch.powers.sum() == pytest.approx(1.0)

    def test_ideal(self):
        ch = PathList.ideal()
        assert ch.K == 1 and ch.max_delay == 0
        np.testing.assert_array_equal(ch.doppler_nodes(6), [[0.0]])
        assert ch.powers @ doppler_correlation(ch.doppler_nodes(6), [5]) == pytest.approx(1.0)

    def test_autocorrelation_matches_direct_sum(self):
        ch = PathList.from_paths([(0, 0.01, 0.6), (2, -0.03, 0.4)], Ts=2.0)
        lag = 11
        want = 0.6 * np.exp(2j * np.pi * 0.01 * 2.0 * lag) + 0.4 * np.exp(
            -2j * np.pi * 0.03 * 2.0 * lag
        )
        nodes = ch.doppler_nodes(lag + 1)
        assert nodes.shape == (2, 1)
        assert ch.powers @ doppler_correlation(nodes, [lag]) == pytest.approx(want)

    def test_validation(self):
        with pytest.raises(ValueError):
            PathList.from_paths([])
        with pytest.raises(ValueError):
            PathList.from_paths([(0, 0.0, -0.1)])
        with pytest.raises(ValueError):
            PathList.from_paths([(-1, 0.0, 1.0)])


class TestSeparableChannel:
    """Exponential power-delay profile times Jakes Doppler."""

    def test_powers_sum_to_one_and_decay(self):
        ch = SeparableChannel.with_uniform_delays(K=8, b=0.5, max_delay=7, Bd=0.01)
        p = ch.powers
        assert p.sum() == pytest.approx(1.0)
        np.testing.assert_allclose(p[1:] / p[:-1], 0.5, rtol=1e-12)

    def test_uniform_delays_collapse(self):
        ch = SeparableChannel.with_uniform_delays(K=8, b=0.5, max_delay=2, Bd=0.0)
        np.testing.assert_array_equal(ch.delays, [0, 1, 2])
        assert ch.K == 3

    def test_spread_product_round_trip(self):
        cfg = LatticeConfig(N=20, Q=16)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        assert ch.spread_product == pytest.approx(0.01, rel=1e-12)
        # balanced split: Bd/F and Tm/T within one rounding step of each other
        assert ch.max_delay == max(1, round(np.sqrt(0.01 * 20 * 16)))

    def test_spread_product_pinned_doppler(self):
        cfg = LatticeConfig(N=20, Q=16)
        ch = SeparableChannel.from_spread_product(cfg, 0.01, bd_over_f=0.05)
        assert ch.spread_product == pytest.approx(0.01, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeparableChannel.with_uniform_delays(K=4, b=1.5, max_delay=3, Bd=0.0)
        with pytest.raises(ValueError):
            SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=-1, Bd=0.0)
        with pytest.raises(ValueError):
            SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=3, Bd=1.5)
        with pytest.raises(ValueError):
            SeparableChannel(K=2, b=0.5, delays=np.array([3, 1]), Bd=0.0)

    def test_doppler_autocorrelation(self):
        # One node row shared by all taps; its mean phase is the Jakes J0.
        ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=3, Bd=0.02, Ts=2.0)
        lags = np.array([0, 5, 13])
        nodes = ch.doppler_nodes(14)
        assert nodes.shape[0] == 1
        got = np.exp(1j * np.outer(nodes[0], lags)).mean(axis=0)
        np.testing.assert_allclose(got, j0(np.pi * 0.02 * 2.0 * lags), rtol=1e-12)


class TestChannelsAreValues:
    """Equal fields make equal channels with equal hashes; the kernel layouts are keyed on them."""

    PATHS = [(0, 0.0, 0.5), (2, 0.01, 0.3), (5, -0.02, 0.2)]

    def separable(self, **changes):
        fields = dict(K=3, b=0.5, delays=[0, 2, 5], Bd=0.004, Ts=1.0) | changes
        return SeparableChannel(**fields)

    def test_equal_values_are_equal_and_hash_alike(self):
        for a, b in [(self.separable(), self.separable(delays=np.array([0, 2, 5]))),
                     (PathList.from_paths(self.PATHS), PathList.from_paths(self.PATHS)),
                     # -0.0 == 0.0, so the two must hash alike too
                     (PathList.from_paths([(0, 0.0, 1.0)]), PathList.from_paths([(0, -0.0, 1.0)]))]:
            assert a is not b and a == b and hash(a) == hash(b)
            assert len({a, b}) == 1

    def test_any_changed_field_makes_them_unequal(self):
        base = self.separable()
        for changed in [self.separable(b=0.6), self.separable(Bd=0.005),
                        self.separable(delays=[0, 2, 6]), self.separable(Ts=0.5)]:
            assert changed != base
        paths = PathList.from_paths(self.PATHS)
        for i, field in [(1, 0), (1, 1), (0, 2)]:
            tweaked = [list(p) for p in self.PATHS]
            tweaked[i][field] += 1 if field == 0 else 0.001
            tweaked[2][2] -= 0.001 if field == 2 else 0.0  # powers still sum to 1
            assert PathList.from_paths(tweaked) != paths, (i, field)
        assert PathList.from_paths(self.PATHS, Ts=0.5) != paths
        assert paths != base
        assert PathList.ideal() != SeparableChannel(K=1, b=0.5, delays=[0], Bd=0.0)


class TestDopplerDiscretization:
    """Quantile sampling of the Jakes spectrum into discrete paths."""

    def test_grid_size_and_power(self):
        ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=3, Bd=0.01)
        paths = ch.to_pathlist(doppler_grid_size=16)
        assert paths.K == 4 * 16
        assert paths.powers.sum() == pytest.approx(1.0)
        assert np.all(np.abs(paths.dopplers) < 0.005)

    def test_zero_doppler_collapses_grid(self):
        ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=3, Bd=0.0)
        paths = ch.to_pathlist(doppler_grid_size=64)
        assert paths.K == 4
        np.testing.assert_array_equal(paths.dopplers, 0.0)

    def test_discrete_autocorrelation_approaches_bessel(self):
        # The quantile grid is an equal-probability quadrature of the Jakes
        # density, so the discrete autocorrelation must converge to J0.
        ch = SeparableChannel.with_uniform_delays(K=1, b=0.5, max_delay=0, Bd=0.02)
        lags = np.arange(0, 40)
        exact = j0(np.pi * 0.02 * lags)
        for g, tol in [(16, 5e-3), (64, 5e-4), (256, 5e-5)]:
            paths = ch.to_pathlist(doppler_grid_size=g)
            approx = (paths.powers @ doppler_correlation(paths.doppler_nodes(40), lags)).real
            assert np.max(np.abs(approx - exact)) < tol, g

    @pytest.mark.parametrize("g", [1, 2, 7, 16, 64])
    @pytest.mark.parametrize("bd", [0.0, 0.013, 0.2])
    def test_pathlist_equals_tuple_construction(self, g, bd):
        ch = SeparableChannel(K=3, b=0.3, delays=[0, 2, 9], Bd=bd, Ts=0.5)
        got = ch.to_pathlist(doppler_grid_size=g)
        g = 1 if bd == 0.0 else g
        nus = (bd / 2.0) * np.sin(np.pi * (2 * np.arange(g) + 1 - g) / (2 * g))
        want = PathList.from_paths(
            [(d, nu, pi / g) for d, pi in zip(ch.delays, ch.powers) for nu in nus], Ts=0.5)
        assert got.Ts == want.Ts
        for name in ("delays", "dopplers", "powers"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_pathlist_keeps_delay_structure(self):
        ch = SeparableChannel.with_uniform_delays(K=3, b=0.5, max_delay=4, Bd=0.01)
        paths = ch.to_pathlist(doppler_grid_size=8)
        got = np.unique(paths.delays)
        np.testing.assert_array_equal(got, ch.delays)
        # per-delay power preserved
        for d, pk in zip(ch.delays, ch.powers):
            mask = paths.delays == d
            assert paths.powers[mask].sum() == pytest.approx(pk, rel=1e-12)
