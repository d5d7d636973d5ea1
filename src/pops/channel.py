"""Doubly dispersive channel models.

Two representations of the scattering function S(p, nu):

* :class:`PathList` — explicit discrete paths (delay in samples, Doppler in
  Hz, power), the general form.
* :class:`SeparableChannel` — truncated exponential delay profile times a
  Jakes Doppler density of spread Bd; :meth:`~SeparableChannel.to_pathlist`
  discretizes the Doppler density into equiprobable quantiles when an
  explicit quantile grid is wanted.

The evaluators (kernels, bound, closed form, Monte Carlo) see both through
one interface: ``delays`` and ``powers`` per tap, and ``doppler_nodes(L)``,
per-sample angular Dopplers theta whose mean of exp(j theta r) is the tap's
time autocorrelation at every lag |r| < L (:func:`doppler_correlation`).  A path
list has one exact node per path, shape (K, 1); a separable channel shares
the Gauss-Chebyshev nodes of its Jakes density (:func:`jakes_nodes`) among
all taps, shape (1, G), whose mean is J0(pi Bd Ts r) to 1e-14.

Path amplitudes are centered decorrelated complex Gaussians with
E|h_k|^2 = pi_k and total power sum(pi_k) = 1.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv

__all__ = ["PathList", "SeparableChannel", "doppler_correlation", "jakes_density",
           "jakes_nodes"]

_POWER_TOL = 1e-12


def jakes_density(nu, Bd: float) -> np.ndarray:
    """Normalized Jakes Doppler density 2/(pi*Bd*sqrt(1-(2 nu/Bd)^2)) on |nu| < Bd/2."""
    nu = np.asarray(nu, dtype=float)
    out = np.zeros_like(nu)
    inside = np.abs(nu) < Bd / 2.0
    x = 2.0 * nu[inside] / Bd
    out[inside] = 2.0 / (np.pi * Bd * np.sqrt(1.0 - x * x))
    return out


def _jakes_quantiles(Bd: float, G: int) -> np.ndarray:
    """The G equiprobable Jakes Dopplers (Bd/2) sin(pi (2i+1-G)/(2G)), which are
    also the Gauss-Chebyshev nodes of its density."""
    return (Bd / 2.0) * np.sin(np.pi * (2 * np.arange(G) + 1 - G) / (2 * G))


@functools.lru_cache(maxsize=64)
def jakes_nodes(bd_ts: float, L: int) -> np.ndarray:
    """Per-sample angular Dopplers theta_i of the fewest Gauss-Chebyshev nodes
    whose mean of exp(j theta_i r) is J0(pi Bd Ts r) to 1e-14 for |r| < L.

    The truncation error is 2 |J_2G(pi Bd Ts (L - 1))| at most; it is held to
    half the target, which leaves the rest to the rounding of the mean.  The
    result is cached and read-only: the bound, the closed form and Monte Carlo
    ask for it on every call, kernel assembly only when it builds a layout
    (twice; see :mod:`pops.kernels`).
    """
    x = math.pi * bd_ts * (L - 1)
    G = 1
    while 2.0 * abs(jv(2 * G, x)) > 5e-15:
        G += 1
    nodes = 2.0 * math.pi * _jakes_quantiles(bd_ts, G)
    nodes.flags.writeable = False
    return nodes


def doppler_correlation(nodes: np.ndarray, lags) -> np.ndarray:
    """Mean over each row of ``nodes`` of exp(j theta r) at the given lags,
    shape (rows, len(lags))."""
    return np.exp(1j * nodes[:, :, None] * np.asarray(lags, dtype=float)).mean(axis=1)


class _Value:
    """Equality and hash by field values, arrays compared element by element.

    The hash reads arrays through ``tolist()``, so values that compare equal
    hash alike (a Doppler of -0.0 and one of 0.0 included).  The fields are
    read-only, so the key is made once per object: the kernel layouts look a
    channel up on every assembly.
    """

    @functools.cached_property
    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in dataclasses.fields(self))
        return tuple(tuple(v.tolist()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)


@dataclass(frozen=True, eq=False)
class PathList(_Value):
    """Explicit discrete scattering function: paths (p_k, nu_k, pi_k).

    Paths are kept sorted by (delay, doppler); delays are nonnegative integer
    sample counts; powers are nonnegative and sum to 1.
    """

    delays: np.ndarray
    dopplers: np.ndarray
    powers: np.ndarray
    Ts: float = 1.0

    def __post_init__(self):
        d = np.asarray(self.delays, dtype=np.int64).copy()
        nu = np.asarray(self.dopplers, dtype=float).copy()
        p = np.asarray(self.powers, dtype=float).copy()
        if not (d.shape == nu.shape == p.shape) or d.ndim != 1 or d.size == 0:
            raise ValueError("delays, dopplers, powers must be equal-length nonempty 1-D")
        if np.any(d < 0):
            raise ValueError("delays must be nonnegative")
        if np.any(p < 0):
            raise ValueError("powers must be nonnegative")
        if abs(p.sum() - 1.0) > _POWER_TOL:
            raise ValueError(f"path powers must sum to 1, got {p.sum()!r}")
        keys = list(zip(d.tolist(), nu.tolist()))
        if sorted(keys) != keys or len(set(keys)) != len(keys):
            raise ValueError("paths must be strictly increasing in (delay, doppler)")
        if not self.Ts > 0:
            raise ValueError(f"Ts must be positive, got {self.Ts}")
        for name, arr in (("delays", d), ("dopplers", nu), ("powers", p)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_paths(cls, paths, Ts: float = 1.0) -> "PathList":
        """Build from (delay, doppler, power) tuples; sorts and merges duplicates."""
        merged: dict[tuple[int, float], float] = {}
        for p, nu, pi in paths:
            key = (int(p), float(nu))
            merged[key] = merged.get(key, 0.0) + float(pi)
        keys = sorted(merged)
        return cls(
            delays=np.array([k[0] for k in keys]),
            dopplers=np.array([k[1] for k in keys]),
            powers=np.array([merged[k] for k in keys]),
            Ts=Ts,
        )

    @classmethod
    def ideal(cls, Ts: float = 1.0) -> "PathList":
        """Single path, zero delay, zero Doppler: the identity channel."""
        return cls(delays=np.array([0]), dopplers=np.array([0.0]), powers=np.array([1.0]), Ts=Ts)

    @property
    def K(self) -> int:
        return self.delays.size

    @property
    def max_delay(self) -> int:
        return int(self.delays.max())

    def doppler_nodes(self, L: int) -> np.ndarray:
        """One node per path, 2 pi nu_k Ts, shape (K, 1): exact at every lag."""
        return (2.0 * np.pi * self.Ts * self.dopplers)[:, None]


@dataclass(frozen=True, eq=False)
class SeparableChannel(_Value):
    """Exponential delay profile (decay b over `delays`) times Jakes Doppler spread Bd."""

    K: int
    b: float
    delays: np.ndarray
    Bd: float
    Ts: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.K, (int, np.integer)) and self.K >= 1):
            raise ValueError(f"K must be an integer >= 1, got {self.K!r}")
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"decay factor b must lie in (0, 1), got {self.b}")
        d = np.asarray(self.delays, dtype=np.int64).copy()
        if d.ndim != 1 or d.size != self.K:
            raise ValueError(f"need exactly K={self.K} delays, got {d.size}")
        if np.any(d < 0) or np.any(np.diff(d) <= 0):
            raise ValueError("delays must be nonnegative and strictly increasing")
        if self.Bd < 0:
            raise ValueError(f"Bd must be nonnegative, got {self.Bd}")
        if not self.Ts > 0:
            raise ValueError(f"Ts must be positive, got {self.Ts}")
        if not self.Bd * self.Ts < 1.0:
            raise ValueError(f"need Bd*Ts < 1, got {self.Bd * self.Ts}")
        d.flags.writeable = False
        object.__setattr__(self, "delays", d)

    @classmethod
    def with_uniform_delays(cls, K: int, b: float, max_delay: int, Bd: float,
                            Ts: float = 1.0) -> "SeparableChannel":
        """Equally spaced integer delays 0 .. max_delay (K collapses if too few fit)."""
        if max_delay < 0:
            raise ValueError(f"max_delay must be nonnegative, got {max_delay}")
        n = min(K, max_delay + 1)
        delays = np.unique(np.round(np.linspace(0, max_delay, n)).astype(np.int64))
        return cls(K=delays.size, b=b, delays=delays, Bd=Bd, Ts=Ts)

    @classmethod
    def from_spread_product(cls, cfg, bdtm: float, K: int = 8, b: float = 0.5,
                            bd_over_f: float | None = None) -> "SeparableChannel":
        """Channel with a given spread factor B_d*T_m on the lattice of `cfg`.

        By default the product is split so that Bd/F = Tm/T (balanced
        dispersion); passing `bd_over_f` pins the Doppler side instead.  The
        delay span is rounded to an integer sample count and Bd adjusted so
        the product stays exact.
        """
        if bdtm <= 0:
            raise ValueError(f"bdtm must be positive, got {bdtm}")
        if bd_over_f is None:
            p_target = np.sqrt(bdtm * cfg.N * cfg.Q)
        else:
            if bd_over_f <= 0:
                raise ValueError(f"bd_over_f must be positive, got {bd_over_f}")
            p_target = bdtm * cfg.Q / bd_over_f
        p_max = max(1, int(round(p_target)))
        bd_ts = bdtm / p_max
        return cls.with_uniform_delays(K=K, b=b, max_delay=p_max, Bd=bd_ts / cfg.Ts, Ts=cfg.Ts)

    @property
    def max_delay(self) -> int:
        return int(self.delays.max())

    @property
    def Tm(self) -> float:
        """Delay spread: the largest path delay, in seconds."""
        return self.max_delay * self.Ts

    @property
    def spread_product(self) -> float:
        """B_d * T_m."""
        return self.Bd * self.Tm

    @property
    def powers(self) -> np.ndarray:
        """Truncated exponential profile pi_k = (1-b) b^k / (1-b^K); sums to 1 exactly."""
        k = np.arange(self.K)
        return (1.0 - self.b) * self.b**k / (1.0 - self.b**self.K)

    def doppler_nodes(self, L: int) -> np.ndarray:
        """The Jakes nodes of Bd Ts shared by all taps, shape (1, G): their mean
        phase is J0(pi Bd Ts r) to 1e-14 for |r| < L."""
        return jakes_nodes(self.Bd * self.Ts, L)[None, :]

    def to_pathlist(self, doppler_grid_size: int = 64) -> PathList:
        """Discretize the Jakes density into equiprobable quantile frequencies.

        Each of the K delays is split into `doppler_grid_size` paths at the
        Jakes quantiles nu_i = (Bd/2) sin(pi (2i+1-G)/(2G)), each carrying
        1/G of the tap power.  Bd=0 (or G=1) keeps one path per delay.
        """
        G = int(doppler_grid_size)
        if G < 1:
            raise ValueError(f"doppler_grid_size must be >= 1, got {doppler_grid_size}")
        if self.Bd == 0.0:
            G = 1
        # Delays strictly increase and the quantiles too: already sorted, no merging.
        return PathList(np.repeat(self.delays, G), np.tile(_jakes_quantiles(self.Bd, G), self.K),
                        np.repeat(self.powers / G, G), self.Ts)
