"""Time-frequency lattice, waveform container, and pulse constructors.

Conventions used throughout the package:

* A :class:`Waveform` stores complex samples plus the global index of its
  first sample, so sample ``i`` lives at discrete time ``(offset + i) * Ts``.
  Inner products and kernel assembly align waveforms on this global axis.
* The lattice atom at symbol ``n``, subcarrier ``m`` is
  ``w(q - n*N) * exp(2j*pi*m*q/Q)`` with the phase evaluated at the *global*
  index ``q`` (also for negative offsets).
* Eigenvector-derived waveforms are unit-normalized and rotated so that their
  largest-magnitude sample is real positive (removes the global-phase
  ambiguity that would otherwise break convergence checks).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_hermite

__all__ = [
    "LatticeConfig",
    "Waveform",
    "make_conventional_tx",
    "make_conventional_rx",
    "make_hermite_init",
    "make_gaussian_init",
    "make_rrc_init",
    "shift",
    "modulate",
    "time_reverse",
    "lattice_atom",
    "inner",
    "normalized",
    "phase_fixed",
    "save_waveform_csv",
    "load_waveform_csv",
]

MAX_HERMITE_ORDER = 8


@dataclass(frozen=True)
class LatticeConfig:
    """Time-frequency grid parameters.

    Attributes:
        N: samples per symbol period (T = N*Ts).
        Q: samples per inverse subcarrier spacing (1/F = Q*Ts); also the
            number of subcarriers.
        Ts: sampling period in seconds (1.0 for normalized runs).
        Dphi: transmit waveform duration in symbol periods (L_phi = Dphi*N).
        Dpsi: receive waveform duration in symbol periods (L_psi = Dpsi*N).
    """

    N: int
    Q: int
    Ts: float = 1.0
    Dphi: int = 1
    Dpsi: int = 1

    def __post_init__(self):
        if not (isinstance(self.N, (int, np.integer)) and isinstance(self.Q, (int, np.integer))):
            raise ValueError("N and Q must be integers")
        if not self.N >= self.Q >= 1:
            raise ValueError(f"need N >= Q >= 1, got N={self.N}, Q={self.Q}")
        for name in ("Dphi", "Dpsi"):
            d = getattr(self, name)
            if not (isinstance(d, (int, np.integer)) and d >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {d!r}")
        if not self.Ts > 0:
            raise ValueError(f"Ts must be positive, got {self.Ts}")

    # Derived quantities -- never stored, so they cannot go stale.
    @property
    def T(self) -> float:
        return self.N * self.Ts

    @property
    def F(self) -> float:
        return 1.0 / (self.Q * self.Ts)

    @property
    def ft_product(self) -> float:
        """FT = N/Q, the inverse of the lattice density."""
        return self.N / self.Q

    @property
    def density(self) -> float:
        """Lattice density Delta = Q/N <= 1."""
        return self.Q / self.N

    @property
    def guard(self) -> int:
        """Guard samples per symbol, N - Q (the CP length for CP-OFDM)."""
        return self.N - self.Q

    @property
    def L_phi(self) -> int:
        return self.Dphi * self.N

    @property
    def L_psi(self) -> int:
        return self.Dpsi * self.N


@dataclass(frozen=True)
class Waveform:
    """Finite-support complex sample vector on the global discrete-time axis.

    ``samples[i]`` is the value at global index ``offset + i``.  Instances
    are immutable; all transforms return new objects.
    """

    samples: np.ndarray
    offset: int = 0

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("samples must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples must all be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "offset", int(self.offset))

    def __len__(self) -> int:
        return self.samples.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return self.offset == other.offset and np.array_equal(self.samples, other.samples)

    @property
    def end(self) -> int:
        """One past the last occupied global index."""
        return self.offset + self.samples.size

    @functools.cached_property
    def energy(self) -> float:
        """Sum of |samples|^2, computed once: the samples are read-only."""
        return float(np.sum(np.abs(self.samples) ** 2))

    def dense(self, start: int, length: int) -> np.ndarray:
        """Values on the global window [start, start+length) as a dense vector."""
        out = np.zeros(length, dtype=np.complex128)
        lo = max(start, self.offset)
        hi = min(start + length, self.end)
        if lo < hi:
            out[lo - start : hi - start] = self.samples[lo - self.offset : hi - self.offset]
        return out


# ---------------------------------------------------------------------------
# Conventional (CP-OFDM) pulses
# ---------------------------------------------------------------------------

def make_conventional_tx(cfg: LatticeConfig) -> Waveform:
    """CP-OFDM transmit pulse: 1/sqrt(N) on indices -(N-Q) .. Q-1."""
    return Waveform(np.full(cfg.N, 1.0 / np.sqrt(cfg.N)), offset=-(cfg.N - cfg.Q))


def make_conventional_rx(cfg: LatticeConfig) -> Waveform:
    """CP-OFDM receive pulse: 1/sqrt(Q) on indices 0 .. Q-1."""
    return Waveform(np.full(cfg.Q, 1.0 / np.sqrt(cfg.Q)), offset=0)


# ---------------------------------------------------------------------------
# Initializers (transmit-side, support L_phi = Dphi*N)
# ---------------------------------------------------------------------------

def _init_support(cfg: LatticeConfig) -> tuple[int, int]:
    """(length, offset) of the standard initializer support, centered near 0."""
    L = cfg.L_phi
    return L, -(L // 2)


def make_hermite_init(cfg: LatticeConfig, coefficients) -> Waveform:
    """Unit-norm linear combination of Hermite-Gaussian functions.

    The family is ``h_n(t) = H_n(sqrt(2) t) exp(-t^2)`` sampled at
    ``t_q = (q - center) * sqrt(2*pi/(N*Q))``, which gives the n=0 Gaussian an
    isotropic spread on the lattice (sigma_time = sqrt(N*Q)/(2*sqrt(pi))
    samples).  Up to 8 coefficients (orders 0..7) are accepted.

    Args:
        cfg: lattice configuration; the support is Dphi*N samples.
        coefficients: real coefficients c_0, c_1, ...; at least one nonzero.
    """
    c = np.atleast_1d(np.asarray(coefficients, dtype=float))
    if c.ndim != 1 or c.size == 0 or c.size > MAX_HERMITE_ORDER:
        raise ValueError(f"need 1..{MAX_HERMITE_ORDER} coefficients, got shape {c.shape}")
    if not np.any(c != 0.0):
        raise ValueError("all-zero coefficient vector")
    L, offset = _init_support(cfg)
    center = (L - 1) / 2.0
    t = (np.arange(L) - center) * np.sqrt(2.0 * np.pi / (cfg.N * cfg.Q))
    envelope = np.exp(-t * t)
    w = np.zeros(L)
    for n, cn in enumerate(c):
        if cn != 0.0:
            w = w + cn * eval_hermite(n, np.sqrt(2.0) * t) * envelope
    return normalized(Waveform(w, offset=offset))


def make_gaussian_init(cfg: LatticeConfig, mean_sample: float, sigma_samples: float) -> Waveform:
    """Unit-norm sampled Gaussian, amplitude exp(-(q-mean)^2 / (2 sigma^2)).

    ``mean_sample`` is a local position within the 0..L-1 support.
    """
    if sigma_samples <= 0:
        raise ValueError(f"sigma_samples must be positive, got {sigma_samples}")
    L, offset = _init_support(cfg)
    q = np.arange(L, dtype=float)
    w = np.exp(-((q - mean_sample) ** 2) / (2.0 * sigma_samples**2))
    return normalized(Waveform(w, offset=offset))


def make_rrc_init(cfg: LatticeConfig, rolloff: float, period_samples: int | None = None) -> Waveform:
    """Unit-norm root-raised-cosine pulse sampled on the Dphi*N support.

    The design symbol period defaults to N samples; rolloff=0 degenerates to
    a sampled sinc at the symbol rate.
    """
    if not 0.0 <= rolloff <= 1.0:
        raise ValueError(f"rolloff must lie in [0, 1], got {rolloff}")
    period = cfg.N if period_samples is None else int(period_samples)
    if period < 1:
        raise ValueError(f"period_samples must be >= 1, got {period_samples}")
    L, offset = _init_support(cfg)
    center = (L - 1) / 2.0
    t = (np.arange(L) - center) / period  # in symbol units
    w = _rrc_impulse(t, rolloff)
    return normalized(Waveform(w, offset=offset))


def _rrc_impulse(t: np.ndarray, beta: float) -> np.ndarray:
    """Root-raised-cosine impulse response at times t (symbol units)."""
    if beta == 0.0:
        return np.sinc(t)
    out = np.empty_like(t)
    # Removable singularities: t = 0 and t = +-1/(4 beta).
    at_zero = np.isclose(t, 0.0, atol=1e-12)
    at_sing = np.isclose(np.abs(t), 1.0 / (4.0 * beta), atol=1e-12)
    regular = ~(at_zero | at_sing)
    tr = t[regular]
    num = np.sin(np.pi * tr * (1.0 - beta)) + 4.0 * beta * tr * np.cos(np.pi * tr * (1.0 + beta))
    den = np.pi * tr * (1.0 - (4.0 * beta * tr) ** 2)
    out[regular] = num / den
    out[at_zero] = 1.0 + beta * (4.0 / np.pi - 1.0)
    out[at_sing] = (beta / np.sqrt(2.0)) * (
        (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
        + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
    )
    return out


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def shift(w: Waveform, p: int) -> Waveform:
    """Time shift by p samples: (sigma_p w)(q) = w(q - p)."""
    return Waveform(w.samples, offset=w.offset + int(p))


def modulate(w: Waveform, m: float, Q: int) -> Waveform:
    """Multiply the sample at global index q by exp(2j*pi*m*q/Q).

    Integer m selects a subcarrier (period Q in m); fractional m models a
    carrier-frequency offset of m*F.
    """
    q = w.offset + np.arange(len(w))
    return Waveform(w.samples * np.exp(2j * np.pi * m * q / Q), offset=w.offset)


def time_reverse(w: Waveform) -> Waveform:
    """Temporal inversion: (rev w)(q) = w(-q)."""
    return Waveform(w.samples[::-1], offset=-(w.offset + len(w) - 1))


def lattice_atom(w: Waveform, m: int, n: int, cfg: LatticeConfig) -> Waveform:
    """The (m, n) lattice signal w(q - n*N) * exp(2j*pi*m*q/Q)."""
    return modulate(shift(w, n * cfg.N), m, cfg.Q)


def inner(a: Waveform, b: Waveform) -> complex:
    """<a, b> = sum_q a(q) conj(b(q)), aligned on the global axis."""
    lo = max(a.offset, b.offset)
    hi = min(a.end, b.end)
    if lo >= hi:
        return 0.0 + 0.0j
    sa = a.samples[lo - a.offset : hi - a.offset]
    sb = b.samples[lo - b.offset : hi - b.offset]
    return complex(np.vdot(sb, sa))


def normalized(w: Waveform) -> Waveform:
    """Rescale to unit energy."""
    e = w.energy
    if e == 0.0:
        raise ValueError("cannot normalize a zero waveform")
    return Waveform(w.samples / np.sqrt(e), offset=w.offset)


def phase_fixed(w: Waveform) -> Waveform:
    """Rotate so the largest-magnitude sample (first maximum) is real positive."""
    i = int(np.argmax(np.abs(w.samples)))
    pivot = w.samples[i]
    mag = abs(pivot)
    if mag == 0.0:
        raise ValueError("cannot phase-fix a zero waveform")
    return Waveform(w.samples * (np.conj(pivot) / mag), offset=w.offset)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_waveform_csv(w: Waveform, path) -> None:
    """Write `index,re,im` rows (global index) with a `# offset=` comment."""
    with open(path, "w") as f:
        f.write(f"# offset={w.offset}\n")
        f.write("index,re,im\n")
        for i, s in enumerate(w.samples):
            f.write(f"{w.offset + i},{s.real:.17g},{s.imag:.17g}\n")


def load_waveform_csv(path) -> Waveform:
    offset = None
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line.lstrip("# ").partition("=")
                if key.strip() == "offset":
                    offset = int(value)
                continue
            if line.startswith("index"):
                continue
            idx, re_s, im_s = line.split(",")
            rows.append((int(idx), float(re_s), float(im_s)))
    if offset is None:
        raise ValueError(f"{path}: missing '# offset=' comment")
    if not rows:
        raise ValueError(f"{path}: no samples")
    for i, (idx, _, _) in enumerate(rows):
        if idx != offset + i:
            raise ValueError(f"{path}: sample row {i} has index {idx}, expected {offset + i} "
                             f"(offset {offset}, indices must be consecutive)")
    samples = np.array([re + 1j * im for _, re, im in rows])
    return Waveform(samples, offset=offset)
