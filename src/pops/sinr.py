"""Analytic SINR evaluation for waveform pairs over dispersive channels.

All reports use the unit-energy convention: ps and pi are normalized by
||tx||^2 ||rx||^2 (so E = 1) and the noise power is pn = 1/snr, making every
quantity invariant to rescaling of either waveform.  snr = math.inf gives the
zero-noise branch, where sinr coincides with the (noise-free) sir.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import j0

from .channel import PathList, SeparableChannel
from .kernels import build_ks_kin
from .lattice import LatticeConfig, Waveform, inner, lattice_atom, time_reverse

__all__ = [
    "SinrReport",
    "sinr",
    "sinr_role_swapped",
    "sinr_time_reversed",
    "sinr_conventional",
    "noise_correlation",
]


@dataclass(frozen=True)
class SinrReport:
    """Power breakdown (units of E=1) and the resulting ratios."""

    ps: float
    pi: float
    pn: float
    sinr: float
    sir: float
    snr: float

    def __post_init__(self):
        if self.ps < 0 or self.pi < 0 or self.pn < 0:
            raise ValueError("powers must be nonnegative")


def _report(ps: float, pi: float, snr: float) -> SinrReport:
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    # Quadratic forms of PSD kernels; clip the ~1e-19 negative rounding dust
    # that interference-free configurations produce.
    ps = max(float(ps), 0.0)
    pi = max(float(pi), 0.0)
    pn = 0.0 if math.isinf(snr) else 1.0 / snr
    denom = pi + pn
    value = ps / denom if denom > 0 else math.inf
    sir = ps / pi if pi > 0 else math.inf
    return SinrReport(ps=ps, pi=pi, pn=pn, sinr=value, sir=sir, snr=snr)


def sinr(tx: Waveform, rx: Waveform, ch, cfg: LatticeConfig, snr: float) -> SinrReport:
    """SINR of the pair (tx, rx): rx^H KS rx / rx^H (KI + ||tx||^2/snr I) rx."""
    if tx.energy == 0 or rx.energy == 0:
        raise ValueError("waveforms must have nonzero energy")
    # At snr=inf the KIN of the pair is the bare KI; noise is added in _report.
    ks, ki = build_ks_kin(tx, ch, cfg, len(rx), math.inf, window_start=rx.offset)
    scale = tx.energy * rx.energy
    return _report(ks.quad(rx) / scale, ki.quad(rx) / scale, snr)


def sinr_role_swapped(tx: Waveform, rx: Waveform, ch, cfg: LatticeConfig,
                      snr: float) -> SinrReport:
    """Same SINR computed with the roles interchanged.

    tx acts as the receiver against the S(-p,-nu)-oriented kernels of rx;
    equals sinr(tx, rx, ...) identically.
    """
    if tx.energy == 0 or rx.energy == 0:
        raise ValueError("waveforms must have nonzero energy")
    ks, ki = build_ks_kin(rx, ch, cfg, len(tx), math.inf, window_start=tx.offset, sign=-1)
    scale = tx.energy * rx.energy
    return _report(ks.quad(tx) / scale, ki.quad(tx) / scale, snr)


def sinr_time_reversed(tx: Waveform, rx: Waveform, ch, cfg: LatticeConfig,
                       snr: float) -> SinrReport:
    """SINR of the time-reversed swapped pair (rev rx, rev tx) under S(p, nu).

    Equals sinr(tx, rx, ...) identically — the identity behind the pong step.
    """
    return sinr(time_reverse(rx), time_reverse(tx), ch, cfg, snr)


def sinr_conventional(cfg: LatticeConfig, ch, snr: float) -> SinrReport:
    """Closed-form SINR of the CP-OFDM pair, any delay profile.

    Each path overlaps the receive rectangle on M_k = clip(N - p_k, 0, Q)
    samples and contributes

        (pi_k / (N Q)) [M_k + 2 sum_{r=1}^{M_k-1} (M_k - r) Re rho_k(r)]

    to P_S/E, with Re rho_k(r) = J0(pi Bd Ts r) for separable channels and
    cos(2 pi nu_k Ts r) for explicit paths.  With all delays <= N-Q this
    telescopes to the familiar (1/N)[1 + sum (2(Q-r)/Q) rho(r)] form.  The
    conventional pair always satisfies P_S + P_I = E Q/N, so
    SINR = (P_S/E) / (Q/N - P_S/E + 1/SNR).
    """
    if isinstance(ch, SeparableChannel):
        delays, powers = ch.delays, ch.powers()
        rho = lambda r: j0(np.pi * ch.Bd * ch.Ts * r)  # noqa: E731
        rho_k = [rho] * ch.K
    elif isinstance(ch, PathList):
        delays, powers = ch.delays, ch.powers
        rho_k = [
            (lambda r, nu=nu: np.cos(2.0 * np.pi * nu * ch.Ts * r)) for nu in ch.dopplers
        ]
    else:
        raise TypeError(f"unsupported channel type {type(ch).__name__}")
    N, Q = cfg.N, cfg.Q
    ps = 0.0
    for d, pi_k, rho in zip(delays, powers, rho_k):
        m = int(np.clip(N - int(d), 0, Q))
        if m == 0:
            continue
        r = np.arange(1, m)
        ps += pi_k / (N * Q) * (m + 2.0 * np.sum((m - r) * rho(r)))
    return _report(ps, Q / N - ps, snr)


def noise_correlation(rx: Waveform, cfg: LatticeConfig, positions) -> np.ndarray:
    """Noise correlation across lattice points (N0 normalized to 1).

    Entry (i, j) is the correlation between the noise terms of the decision
    variables at positions[i] = (m, n) and positions[j] = (k, l), i.e. the
    inner product of the receive atoms; the diagonal is ||rx||^2.
    """
    atoms = [lattice_atom(rx, m, n, cfg) for (m, n) in positions]
    n_pos = len(atoms)
    R = np.empty((n_pos, n_pos), dtype=np.complex128)
    for i in range(n_pos):
        for k in range(i, n_pos):
            R[i, k] = inner(atoms[i], atoms[k])
            R[k, i] = np.conj(R[i, k])
    return R
