"""Analytic SINR evaluation for waveform pairs over dispersive channels.

All reports use the unit-energy convention: ps and pi are normalized by
||tx||^2 ||rx||^2 (so E = 1) and the noise power is pn = 1/snr, making every
quantity invariant to rescaling of either waveform.  snr = math.inf gives the
zero-noise branch, where sinr coincides with the (noise-free) sir.

Tx/Rx duality: the SINR of (tx, rx) equals that of tx received against the
S(-p, -nu) kernels of rx.  Those kernels are the index-reversed kernels of
time_reverse(rx) (:mod:`pops.kernels`), so the package states the identity
once, as :func:`sinr_time_reversed`; the S(-p, -nu) form is built only by
the tests' dense oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import doppler_correlation
from .kernels import build_ks_kin
from .lattice import LatticeConfig, Waveform, inner, lattice_atom, time_reverse

__all__ = ["SinrReport", "sinr", "sinr_time_reversed", "sinr_conventional",
           "noise_correlation", "power_ratio"]

# Interference is a difference of quadratic forms (x^H T x - ps): it leaves
# rounding dust of either sign and resolves no SIR beyond 1e12 (120 dB).
_ZERO_INTERFERENCE_RTOL = 1e-12


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


def power_ratio(ps: float, pi: float) -> float:
    """ps / pi under the zero-interference rule of the SINR engine, the
    optimizer and the bound: pi <= 1e-12 ps is none, an infinite ratio, or 0
    with no useful power either (the snr -> inf limit of the SINR)."""
    if pi <= _ZERO_INTERFERENCE_RTOL * ps:
        return math.inf if ps > 0 else 0.0
    return max(ps, 0.0) / pi


def _report(ps: float, pi: float, snr: float) -> SinrReport:
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    ps = max(float(ps), 0.0)
    pi = float(pi) if pi > _ZERO_INTERFERENCE_RTOL * ps else 0.0
    pn = 0.0 if math.isinf(snr) else 1.0 / snr
    return SinrReport(ps=ps, pi=pi, pn=pn, sinr=power_ratio(ps, pi + pn),
                      sir=power_ratio(ps, pi), snr=snr)


def _received(w: Waveform, xs, ch, cfg: LatticeConfig, snr: float) -> list[SinrReport]:
    """Reports for each x in xs received against the kernels of w.

    Kernel entries depend only on global sample indices, so one pair built on
    the union window of the receivers serves all of them.
    """
    if w.energy == 0 or any(x.energy == 0 for x in xs):
        raise ValueError("waveforms must have nonzero energy")
    if not xs:
        return []
    start = min(x.offset for x in xs)
    L = max(x.end for x in xs) - start
    # At snr=inf the KIN of the pair is the bare KI; noise is added in _report.
    _, ki = build_ks_kin(w, ch, cfg, L, math.inf, window_start=start)
    ps, pi = ki.forms(np.stack([x.dense(start, L) for x in xs], axis=1))
    scale = w.energy * np.array([x.energy for x in xs])
    return [_report(a, b, snr) for a, b in zip(ps / scale, pi / scale)]


def sinr(tx: Waveform, rx: Waveform, ch, cfg: LatticeConfig, snr: float) -> SinrReport:
    """SINR of the pair (tx, rx): rx^H KS rx / rx^H (KI + ||tx||^2/snr I) rx."""
    return _received(tx, [rx], ch, cfg, snr)[0]


def sinr_time_reversed(tx: Waveform, rx: Waveform, ch, cfg: LatticeConfig,
                       snr: float) -> SinrReport:
    """SINR of the time-reversed swapped pair (rev rx, rev tx) under S(p, nu).

    Equals sinr(tx, rx, ...) identically — the identity behind the pong step.
    """
    return sinr(time_reverse(rx), time_reverse(tx), ch, cfg, snr)


def sinr_conventional(cfg: LatticeConfig, ch, snr: float) -> SinrReport:
    """Closed-form SINR of the CP-OFDM pair, any delay profile.

    Each tap overlaps the receive rectangle on M_k = clip(N - p_k, 0, Q)
    samples and contributes

        (pi_k / (N Q)) [M_k + 2 sum_{r=1}^{M_k-1} (M_k - r) Re rho_k(r)]

    to P_S/E, with rho_k(r) the mean of exp(j theta r) over the tap's Doppler
    nodes: cos(2 pi nu_k Ts r) for an explicit path, J0(pi Bd Ts r) for a
    separable channel.  With all delays <= N-Q this telescopes to the familiar
    (1/N)[1 + sum (2(Q-r)/Q) rho(r)] form.  The conventional pair always
    satisfies P_S + P_I = E Q/N, so SINR = (P_S/E) / (Q/N - P_S/E + 1/SNR).
    """
    N, Q = cfg.N, cfg.Q
    m = np.clip(N - ch.delays, 0, Q)
    r = np.arange(1, Q)
    rho = doppler_correlation(ch.doppler_nodes(Q), r).real
    overlap = m + 2.0 * np.sum(np.maximum(m[:, None] - r, 0) * rho, axis=1)
    ps = float(np.sum(ch.powers * overlap)) / (N * Q)
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
