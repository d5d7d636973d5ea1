"""Link-level Monte-Carlo estimator of useful/interference/noise powers.

This module is the package's brute-force referee: it executes the discrete
signal model literally -- random symbols on the full lattice, random complex
path gains, per-path delay and Doppler, additive receiver noise -- and
estimates the SINR at the (0, 0) decision variable by averaging over trials.
No kernel matrices, no closed forms; agreement with ``pops.sinr`` is the
strongest end-to-end check the package has.

Per trial the transmitted signal is

    e(q) = sum_{m,n} a_mn phi(q - nN) exp(2j pi m q / Q)

(the m-sum is a length-Q inverse DFT), the received signal is

    r(p) = sum_k h_k e(p - p_k) exp(2j pi nu_k Ts p) + noise(p)

with ``h_k`` centered complex Gaussian of variance ``pi_k``, and the decision
variable is ``Lambda = <psi_00, r>``.  The useful part is isolated by running
the channel on the ``a_00`` term alone (exact separation by linearity), the
noise part by correlating the noise vector alone; the interference part is
the remainder.  Reported powers are normalized by ``E_phi * E_psi`` so they
are directly comparable to ``SinrReport`` fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PathList, SeparableChannel
from .lattice import LatticeConfig, Waveform

__all__ = ["McConfig", "McEstimate", "estimate_sinr", "required_symbol_span"]

_ALPHABETS = ("gaussian", "qpsk")


@dataclass(frozen=True)
class McConfig:
    """Estimator settings.

    Attributes
    ----------
    trials : int
        Number of independent channel/symbol/noise realizations.  Each one
        draws symbols on all Q subcarriers of exactly the time slots whose
        pulses reach the receive window (:func:`required_symbol_span`).
    alphabet : str
        "gaussian" for unit-power circular complex Gaussian symbols or
        "qpsk" for unit-modulus QPSK symbols.
    doppler_grid_size : int
        Quantile grid used to discretize a separable channel's Jakes
        spectrum (ignored for explicit path lists).
    rng_seed : int
        Seed for the reproducible generator tree.
    chunk_size : int
        Trials are vectorized in chunks of this size to bound memory.
    """

    trials: int
    alphabet: str = "gaussian"
    doppler_grid_size: int = 64
    rng_seed: int = 0
    chunk_size: int = 8192

    def __post_init__(self) -> None:
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValueError(f"trials must be a positive integer, got {self.trials}")
        if self.alphabet not in _ALPHABETS:
            raise ValueError(f"alphabet must be one of {_ALPHABETS}, got {self.alphabet!r}")
        if not isinstance(self.doppler_grid_size, int) or self.doppler_grid_size < 1:
            raise ValueError("doppler_grid_size must be a positive integer")
        if not isinstance(self.chunk_size, int) or self.chunk_size < 1:
            raise ValueError("chunk_size must be a positive integer")


@dataclass(frozen=True)
class McEstimate:
    """Estimates normalized like ``SinrReport``: ps/pi/pn relative to E_phi*E_psi."""

    sinr: float
    se: float
    ps: float
    pi: float
    pn: float
    trials: int


def required_symbol_span(
    tx: Waveform, rx: Waveform, max_delay: int, N: int
) -> tuple[int, int]:
    """Inclusive slot range [n_lo, n_hi] whose pulses can reach the receive window.

    A slot-n pulse occupies [tx.offset + nN, tx.offset + nN + L_tx) before the
    channel and up to ``max_delay`` later after it; every n whose delayed
    support intersects the receive window must be simulated.  Slot 0 is always
    included (it carries the detected symbol).
    """
    l_tx = tx.samples.size
    span_lo = rx.offset - max_delay
    span_hi = rx.end
    n_lo = math.ceil((span_lo - tx.offset - l_tx + 1) / N)
    n_hi = math.floor((span_hi - 1 - tx.offset) / N)
    return min(n_lo, 0), max(n_hi, 0)


def _draw_symbols(rng: np.random.Generator, shape: tuple[int, ...], alphabet: str) -> np.ndarray:
    if alphabet == "gaussian":
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    bits = rng.integers(0, 2, size=shape + (2,)) * 2 - 1
    return (bits[..., 0] + 1j * bits[..., 1]) / math.sqrt(2.0)


def estimate_sinr(
    tx: Waveform,
    rx: Waveform,
    ch: PathList | SeparableChannel,
    cfg: LatticeConfig,
    snr: float,
    mc: McConfig,
) -> McEstimate:
    """Estimate the SINR of the pair (tx, rx) by direct simulation.

    Returns an :class:`McEstimate` whose ``sinr`` is the ratio of averaged
    powers and whose ``se`` is the leave-one-out jackknife standard error of
    that ratio.
    """
    if isinstance(ch, SeparableChannel):
        paths = ch.to_pathlist(mc.doppler_grid_size)
    else:
        paths = ch
    if paths.Ts != cfg.Ts:
        raise ValueError(f"channel Ts = {paths.Ts} does not match lattice Ts = {cfg.Ts}")
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")

    N, Q = cfg.N, cfg.Q
    delays = paths.delays.astype(np.int64)
    nu_ts = paths.dopplers * cfg.Ts
    powers = paths.powers
    max_delay = int(delays.max())

    n_lo, n_hi = required_symbol_span(tx, rx, max_delay, N)
    slots = np.arange(n_lo, n_hi + 1)
    slot0 = -n_lo

    l_rx = rx.samples.size
    window = rx.offset + np.arange(l_rx)
    span_lo = rx.offset - max_delay
    span_len = rx.end - span_lo
    l_tx = tx.samples.size

    # Per-slot scatter of the transmit pulse into the simulated span.
    slot_maps = []
    for n in slots:
        g = tx.offset + n * N + np.arange(l_tx)
        keep = (g >= span_lo) & (g < span_lo + span_len)
        slot_maps.append((g[keep] - span_lo, g[keep] % Q, tx.samples[keep]))

    # Per-path receive-window gather and Doppler phase.
    path_idx = [window - d - span_lo for d in delays]
    path_phase = [np.exp(2j * np.pi * nt * window) for nt in nu_ts]
    # Useful-branch response: channel applied to the slot-0, subcarrier-0 pulse.
    v_use = np.stack(
        [tx.dense(rx.offset - d, l_rx) * ph for d, ph in zip(delays, path_phase)]
    )

    noise_var = tx.energy / snr if math.isfinite(snr) else 0.0
    psi_c = rx.samples.conj()
    scale = tx.energy * rx.energy

    u_parts, i_parts, n_parts = [], [], []
    n_chunks = -(-mc.trials // mc.chunk_size)
    seeds = np.random.SeedSequence(mc.rng_seed).spawn(n_chunks)
    remaining = mc.trials
    for seed in seeds:
        rng = np.random.default_rng(seed)
        chunk = min(mc.chunk_size, remaining)
        remaining -= chunk

        a = _draw_symbols(rng, (chunk, len(slots), Q), mc.alphabet)
        h = (rng.standard_normal((chunk, paths.K)) + 1j * rng.standard_normal((chunk, paths.K)))
        h *= np.sqrt(powers / 2.0)

        e_span = np.zeros((chunk, span_len), dtype=np.complex128)
        for idx, (pos, car, amp) in enumerate(slot_maps):
            if pos.size == 0:
                continue
            base = Q * np.fft.ifft(a[:, idx, :], axis=1)
            e_span[:, pos] += base[:, car] * amp

        r_full = np.zeros((chunk, l_rx), dtype=np.complex128)
        for k in range(paths.K):
            r_full += h[:, k, None] * e_span[:, path_idx[k]] * path_phase[k]
        r_use = a[:, slot0, 0, None] * (h @ v_use)

        lam_use = r_use @ psi_c
        lam_int = (r_full - r_use) @ psi_c
        u_parts.append(np.abs(lam_use) ** 2)
        i_parts.append(np.abs(lam_int) ** 2)
        if noise_var > 0.0:
            noise = (
                rng.standard_normal((chunk, l_rx)) + 1j * rng.standard_normal((chunk, l_rx))
            ) * math.sqrt(noise_var / 2.0)
            n_parts.append(np.abs(noise @ psi_c) ** 2)

    u = np.concatenate(u_parts)
    v = np.concatenate(i_parts)
    if n_parts:
        w = np.concatenate(n_parts)
    else:
        w = np.zeros_like(v)

    t = float(mc.trials)
    ps = float(u.mean()) / scale
    pi = float(v.mean()) / scale
    pn = float(w.mean()) / scale
    denom = pi + pn
    est = ps / denom if denom > 0.0 else math.inf

    # Leave-one-out jackknife of the ratio of sums.
    if mc.trials > 1 and denom > 0.0:
        usum, dsum = u.sum(), (v + w).sum()
        loo = (usum - u) / (dsum - (v + w))
        se = float(np.sqrt((t - 1.0) / t * np.sum((loo - loo.mean()) ** 2)))
    else:
        se = math.inf
    return McEstimate(sinr=est, se=se, ps=ps, pi=pi, pn=pn, trials=mc.trials)
