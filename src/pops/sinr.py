"""Analytic SINR evaluation for waveform pairs over dispersive channels.

All reports use the unit-energy convention: ps and pi are normalized by
||tx||^2 ||rx||^2 (so E = 1) and the noise power is pn = 1/snr, making every
quantity invariant to rescaling of either waveform.  snr = math.inf gives the
zero-noise branch, where sinr coincides with the (noise-free) sir.

Every kernel evaluation goes through ``_received``.  It takes a transmit
prototype and a stack of receivers: a window start, an L x P matrix whose
columns are the receivers' samples on [start, start+L), and their common
energy.  It builds one kernel pair of tx on that window and returns the
normalized ps and pi of every column.  :func:`sinr` is its one-column case on
rx's own window.  The sync sweeps (:mod:`pops.analysis`) pass all their
perturbed receivers at once and read the SINR through the same
zero-interference rule, without a report per point.

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


def _noise_power(snr: float) -> float:
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    return 0.0 if math.isinf(snr) else 1.0 / snr


def _powers(ps: float, pi: float) -> tuple[float, float]:
    """ps and pi as reported: ps clipped at 0, and pi <= 1e-12 ps read as 0."""
    ps = max(float(ps), 0.0)
    return ps, (float(pi) if pi > _ZERO_INTERFERENCE_RTOL * ps else 0.0)


def _report(ps: float, pi: float, snr: float) -> SinrReport:
    pn = _noise_power(snr)
    ps, pi = _powers(ps, pi)
    return SinrReport(ps=ps, pi=pi, pn=pn, sinr=power_ratio(ps, pi + pn),
                      sir=power_ratio(ps, pi), snr=snr)


def _sinrs(ps: np.ndarray, pi: np.ndarray, snr: float) -> np.ndarray:
    """The ``sinr`` field of each report _report would make, with no report made."""
    pn = _noise_power(snr)
    return np.array([power_ratio(a, b + pn) for a, b in map(_powers, ps, pi)])


def _received(w: Waveform, ch, cfg: LatticeConfig, start: int, X: np.ndarray,
              energy: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized (ps, pi) of each column of X (L x P) received against the kernels of w.

    Each column holds the samples, on the window [start, start+L), of a
    receiver of the given energy (the sync sweeps' shifts and phase ramps keep
    it).  Kernel entries depend only on global sample indices, so one pair
    built on that window serves every column.
    """
    if w.energy == 0 or energy == 0:
        raise ValueError("waveforms must have nonzero energy")
    if X.shape[1] == 0:
        return np.zeros(0), np.zeros(0)
    # At snr=inf the KIN of the pair is the bare KI; noise is added by the caller.
    _, ki = build_ks_kin(w, ch, cfg, len(X), math.inf, window_start=start)
    ps, pi = ki.forms(X)
    scale = w.energy * energy
    return ps / scale, pi / scale


def sinr(tx: Waveform, rx: Waveform, ch, cfg: LatticeConfig, snr: float) -> SinrReport:
    """SINR of the pair (tx, rx): rx^H KS rx / rx^H (KI + ||tx||^2/snr I) rx."""
    ps, pi = _received(tx, ch, cfg, rx.offset, rx.samples.reshape(-1, 1), rx.energy)
    return _report(ps[0], pi[0], snr)


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
