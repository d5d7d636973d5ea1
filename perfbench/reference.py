"""Reference SINR evaluator, written apart from the `pops` package.

It is the oracle for every workload check.  It executes the signal model by
its definition: every lattice atom g_mn(q) = phi(q - nN) exp(2j pi m q / Q),
with an explicit loop over the Q subcarriers m and every time shift n that
overlaps the receive pulse, passes through each path k (delay p_k, power
pi_k), and its power at the (0, 0) decision variable is averaged over the
path gain.  The m-sum is never folded analytically.

With b(p) = phi(p - p_k - nN) conj(psi(p)), the atom's power on path k is

    pi_k E|sum_p b(p) exp(2j pi (m (p - p_k) / Q + nu Ts p))|^2.

For an explicit path the Doppler nu is fixed.  For a separable channel it has
the Jakes density, and the expectation is sum_r J0(pi Bd Ts r) C_m(r) over
the autocorrelation C_m of the modulated product.

Waveforms are plain (samples, offset) pairs of numpy arrays and integers and
channels are plain dicts, so nothing here imports `pops`.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0


def separable(delays, powers, bd_ts: float) -> dict:
    """Exponential-profile-times-Jakes channel: delays, tap powers, Bd*Ts."""
    return {"kind": "separable", "delays": np.asarray(delays, dtype=np.int64),
            "powers": np.asarray(powers, dtype=float), "bd_ts": float(bd_ts)}


def paths(delays, nu_ts, powers) -> dict:
    """Explicit paths: delays, Doppler in cycles per sample, powers."""
    return {"kind": "paths", "delays": np.asarray(delays, dtype=np.int64),
            "nu_ts": np.asarray(nu_ts, dtype=float), "powers": np.asarray(powers, dtype=float)}


def exp_profile(K: int, b: float) -> np.ndarray:
    """Truncated exponential tap powers (1 - b) b^k / (1 - b^K), k < K."""
    k = np.arange(K)
    return (1.0 - b) * b**k / (1.0 - b**K)


def jakes_quantiles(bd_ts: float, G: int) -> np.ndarray:
    """Equiprobable quantiles of the Jakes density, in cycles per sample."""
    i = np.arange(G)
    return (bd_ts / 2.0) * np.sin(np.pi * (2 * i + 1 - G) / (2 * G))


def _overlap(tx, rx, lag: int):
    """b(p) = phi(p - lag) conj(psi(p)) on the overlap, and its first index p."""
    (t, t0), (r, r0) = tx, rx
    lo = max(t0 + lag, r0)
    hi = min(t0 + lag + t.size, r0 + r.size)
    if lo >= hi:
        return None, lo
    return t[lo - t0 - lag:hi - t0 - lag] * np.conj(r[lo - r0:hi - r0]), lo


def powers(tx, rx, ch: dict, N: int, Q: int) -> tuple[float, float]:
    """(P_S, P_I) per unit energy of the pair tx = (samples, offset), rx likewise."""
    t, t0 = tx
    r, r0 = rx
    m = np.arange(Q)
    roots = np.exp(2j * np.pi * np.outer(m, m) / Q)  # roots[m, r] = exp(2j pi m r / Q)
    ps = pi = 0.0
    for k, (d, pk) in enumerate(zip(ch["delays"], ch["powers"])):
        d = int(d)
        # Shifts n for which phi(. - d - nN) meets the receive support.
        n_lo = (r0 - d - t0 - t.size) // N + 1
        n_hi = -(-(r0 + r.size - d - t0) // N) - 1
        for n in range(n_lo, n_hi + 1):
            b, p0 = _overlap(tx, rx, d + n * N)
            if b is None:
                continue
            p = p0 + np.arange(b.size)
            if ch["kind"] == "paths":
                doppler = np.exp(2j * np.pi * ch["nu_ts"][k] * p)
                per_m = np.abs(roots[:, (p - d) % Q] @ (b * doppler)) ** 2
            else:
                # C(r) = sum_p b(p + r) conj(b(p)), r = -(len-1) .. len-1.
                corr = np.convolve(b, np.conj(b[::-1]))
                lags = np.arange(-(b.size - 1), b.size)
                weight = j0(np.pi * ch["bd_ts"] * lags) * corr
                per_m = np.real(roots[:, lags % Q] @ weight)
            if n == 0:
                ps += pk * per_m[0]
                pi += pk * per_m[1:].sum()
            else:
                pi += pk * per_m.sum()
    scale = float(np.vdot(t, t).real * np.vdot(r, r).real)
    return ps / scale, max(pi / scale, 0.0)


def sinr(tx, rx, ch: dict, N: int, Q: int, snr: float) -> float:
    """P_S / (P_I + 1/snr); snr = inf gives the SIR."""
    ps, pi = powers(tx, rx, ch, N, Q)
    den = pi + (0.0 if math.isinf(snr) else 1.0 / snr)
    return ps / den if den > 0 else math.inf


def conventional_pair(N: int, Q: int):
    """CP-OFDM pair: 1/sqrt(N) on [-(N-Q), Q), 1/sqrt(Q) on [0, Q)."""
    return (np.full(N, 1 / math.sqrt(N), dtype=complex), -(N - Q)), \
        (np.full(Q, 1 / math.sqrt(Q), dtype=complex), 0)


def shifted(w, tau: int):
    """w(q - tau)."""
    return w[0], w[1] + int(tau)


def modulated(w, v: float, Q: int):
    """w(q) exp(2j pi v q / Q) at global index q."""
    q = w[1] + np.arange(w[0].size)
    return w[0] * np.exp(2j * np.pi * v * q / Q), w[1]
