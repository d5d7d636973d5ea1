"""Link-level Monte-Carlo estimator of useful/interference/noise powers.

This module is the package's brute-force referee: it draws random symbols on
every lattice atom that reaches the receive window, random complex path
gains and additive receiver noise, and estimates the SINR at the (0, 0)
decision variable by averaging over trials.  No kernel matrices, no closed
forms; agreement with ``pops.sinr`` is the strongest end-to-end check the
package has.

The channel is read through the interface every evaluator uses: ``delays``,
``powers`` and ``doppler_nodes(L)``.  Each (tap, node) pair is one simulated
path, carrying its tap's power split evenly over the tap's nodes: one path
per entry of a path list, G Jakes nodes per tap of a separable channel.
The Doppler phases enter only at receive-window samples, so nodes exact at
every lag below the window length (``L = len(rx)``) give path gains with
exactly the channel's second-order statistics, which is all the SINR
depends on under the WSSUS model.

The signal model is the discrete one: the transmitted signal
``e(q) = sum_{m,n} a_mn phi(q - nN) exp(2j pi m q / Q)`` passes the paths
``r(p) = sum_j h_j e(p - d_j) exp(j theta_j p) + noise(p)``, with ``h_j``
centered complex Gaussian of variance ``pi_j`` and ``theta_j`` the path's
node, and the decision variable is ``Lambda = <psi_00, r>``.  For fixed gains
Lambda is linear in the symbols, so it is summed atom by atom through the
response matrix

    B[(n, m), j] = sum_p conj(psi(p)) exp(j theta_j p) phi(p - d_j - nN)
                   exp(2j pi m (p - d_j) / Q),

atom (n, m) sent through path j and correlated with the receiver, built once
per call, slot by slot (``_response_matrix``).  Per trial the useful part is
``a_00 sum_j h_j B[(0, 0), j]``, the interference part the same sum over
every other atom, and the noise part the projected noise ``<psi, noise>``,
which for white noise of variance sigma^2 per sample is CN(0, sigma^2
||psi||^2) and is drawn as one complex Gaussian per trial.  Reported
powers are normalized by ``E_phi * E_psi`` so they are directly comparable
to ``SinrReport`` fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PathList, SeparableChannel
from .lattice import LatticeConfig, Waveform
from .sinr import power_ratio

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
        Retired: the estimator simulates the channel's Doppler nodes
        (``doppler_nodes``), not a quantile grid.  Only the old default, 64,
        is accepted, so that a setting that no longer acts is never ignored.
    rng_seed : int
        Nonnegative seed for the reproducible generator tree.
    chunk_size : int
        Trials are vectorized in chunks of this size: one chunk holds
        chunk*S*Q complex symbols (S slots reaching the window), chunk*P path
        gains and as many per-path sums (P paths), plus chunk noise draws
        (one per trial, at the decision variable) when snr is finite.  It is
        not only a memory bound: each chunk draws from its own seed spawned
        from ``rng_seed``, so the draws, and the estimate, change with it.
        The N=20/Q=16 CP pair of
        ``demos/scenarios/small.ini`` at snr=10 with 3000 trials estimates
        7.901 at chunk_size 8192 and 7.861 at 1000 (analytic 7.815, standard
        error about 0.3); an estimate is reproduced by the same ``rng_seed``
        and ``chunk_size``.
    """

    trials: int
    alphabet: str = "gaussian"
    doppler_grid_size: int = 64
    rng_seed: int = 0
    chunk_size: int = 8192

    def __post_init__(self) -> None:
        for name, least in (("trials", 1), ("rng_seed", 0), ("chunk_size", 1)):
            value = getattr(self, name)
            if not _is_integer(value) or value < least:
                kind = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
        if self.alphabet not in _ALPHABETS:
            raise ValueError(f"alphabet must be one of {_ALPHABETS}, got {self.alphabet!r}")
        if not (_is_integer(self.doppler_grid_size) and self.doppler_grid_size == 64):
            raise ValueError(
                f"doppler_grid_size is retired (got {self.doppler_grid_size!r}): Monte Carlo "
                "simulates the channel's Doppler nodes; leave it at 64"
            )


def _is_integer(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def _standard_complex(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """``x + 1j y`` of two standard normal draws, x first, written in place:
    no complex temporaries, and the same bits as the sum."""
    z = np.empty(shape, dtype=np.complex128)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    return z


def _draw_symbols(rng: np.random.Generator, shape: tuple[int, ...], alphabet: str) -> np.ndarray:
    if alphabet == "gaussian":
        z = _standard_complex(rng, shape)
        z /= math.sqrt(2.0)
        return z
    bits = rng.integers(0, 2, size=shape + (2,)) * 2 - 1
    return (bits[..., 0] + 1j * bits[..., 1]) / math.sqrt(2.0)


def _response_matrix(tx: Waveform, rx: Waveform, delays: np.ndarray, nodes: np.ndarray,
                     slots: np.ndarray, N: int, Q: int) -> np.ndarray:
    """B (S*Q x K*G): atom (slot ``slots[s]``, subcarrier m) at row s*Q + m, sent
    through path (tap k, node g) at column k*G + g and correlated with the
    receiver; ``nodes`` (K or 1 rows, G columns) are the taps' Doppler nodes.

    Per slot, the delayed and phase-rotated pulse products of each path are
    folded into the Q residues of ``p - rx.offset``; one length-Q inverse DFT
    then sums every subcarrier, and the tap's ramp
    ``exp(2j pi m (rx.offset - d_k) / Q)`` completes the exponent.
    """
    l_tx, l_rx = tx.samples.size, rx.samples.size
    K, G = delays.size, nodes.shape[1]
    window = rx.offset + np.arange(l_rx)
    weight = rx.samples.conj() * np.exp(1j * np.broadcast_to(nodes, (K, G))[..., None] * window)
    lag = window - tx.offset - delays[:, None]  # pulse sample index at slot 0
    ramp = np.exp(2j * np.pi / Q * np.outer((rx.offset - delays) % Q, np.arange(Q)))
    folds = -(-l_rx // Q)
    padded = np.zeros((K, G, folds * Q), dtype=np.complex128)
    B = np.empty((slots.size, Q, K * G), dtype=np.complex128)
    for s, n in enumerate(slots):
        idx = lag - n * N
        pulse = np.where((idx >= 0) & (idx < l_tx), tx.samples[np.clip(idx, 0, l_tx - 1)], 0.0)
        np.multiply(pulse[:, None], weight, out=padded[..., :l_rx])
        residues = padded.reshape(K, G, folds, Q).sum(axis=2)
        B[s] = (Q * np.fft.ifft(residues, axis=2) * ramp[:, None]).reshape(K * G, Q).T
    return B.reshape(slots.size * Q, K * G)


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
    powers, read under the zero-interference rule of
    :func:`~pops.sinr.power_ratio`, and whose ``se`` is the leave-one-out
    jackknife standard error of that ratio (inf when the ratio is).
    """
    if ch.Ts != cfg.Ts:
        raise ValueError(f"channel Ts = {ch.Ts} does not match lattice Ts = {cfg.Ts}")
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    if tx.energy == 0 or rx.energy == 0:
        raise ValueError("waveforms must have nonzero energy")

    N, Q = cfg.N, cfg.Q
    l_rx = rx.samples.size
    # One path per (tap, node), tap-major: the phases enter only at window
    # samples, so nodes exact at every lag |r| < l_rx give the exact statistics.
    nodes = ch.doppler_nodes(l_rx)
    powers = np.repeat(ch.powers / nodes.shape[1], nodes.shape[1])
    delays = ch.delays.astype(np.int64)

    n_lo, n_hi = required_symbol_span(tx, rx, int(delays.max()), N)
    slots = np.arange(n_lo, n_hi + 1)
    slot0 = -n_lo
    B = _response_matrix(tx, rx, delays, nodes, slots, N, Q)
    b_use = B[slot0 * Q].copy()
    B[slot0 * Q] = 0.0  # every other atom interferes

    noise_var = tx.energy / snr if math.isfinite(snr) else 0.0
    scale = tx.energy * rx.energy

    u_parts, i_parts, n_parts = [], [], []
    n_chunks = -(-mc.trials // mc.chunk_size)
    seeds = np.random.SeedSequence(mc.rng_seed).spawn(n_chunks)
    remaining = mc.trials
    for seed in seeds:
        rng = np.random.default_rng(seed)
        chunk = min(mc.chunk_size, remaining)
        remaining -= chunk

        a = _draw_symbols(rng, (chunk, slots.size, Q), mc.alphabet)
        h = _standard_complex(rng, (chunk, powers.size))
        h *= np.sqrt(powers / 2.0)

        per_path = a.reshape(chunk, -1) @ B
        per_path *= h
        lam_use = a[:, slot0, 0] * (h @ b_use)
        u_parts.append(np.abs(lam_use) ** 2)
        i_parts.append(np.abs(per_path.sum(axis=1)) ** 2)
        if noise_var > 0.0:
            # <psi, noise> of white noise of variance noise_var per sample is
            # CN(0, noise_var * ||psi||^2): draw it at the decision variable.
            z = _standard_complex(rng, (chunk,))
            z *= math.sqrt(noise_var * rx.energy / 2.0)
            n_parts.append(np.abs(z) ** 2)

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
    est = power_ratio(ps, denom)

    # Leave-one-out jackknife of the ratio of sums.
    if mc.trials > 1 and math.isfinite(est) and denom > 0.0:
        usum, dsum = u.sum(), (v + w).sum()
        loo = (usum - u) / (dsum - (v + w))
        se = float(np.sqrt((t - 1.0) / t * np.sum((loo - loo.mean()) ** 2)))
    else:
        se = math.inf
    return McEstimate(sinr=est, se=se, ps=ps, pi=pi, pn=pn, trials=mc.trials)
