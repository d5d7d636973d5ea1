"""Shared factories for randomized test instances."""

import math

import numpy as np
import scipy.linalg
from scipy.linalg import toeplitz
from scipy.special import j0

from pops import (KernelMatrix, LatticeConfig, PathList, SeparableChannel, Waveform, normalized,
                  power_ratio)
from pops.kernels import best_window_start, to_comb
from pops.montecarlo import McEstimate, _draw_symbols, required_symbol_span


def random_pathlist(rng, max_delay, k=3, complex_doppler=True, nu_scale=0.01):
    """K-path channel with random integer delays, Dopplers and unit total power."""
    delays = np.sort(rng.choice(max_delay + 1, size=min(k, max_delay + 1), replace=False))
    if complex_doppler:
        nus = rng.uniform(-nu_scale, nu_scale, size=delays.size)
    else:
        nus = np.zeros(delays.size)
    powers = rng.uniform(0.2, 1.0, size=delays.size)
    powers /= powers.sum()
    return PathList.from_paths(list(zip(delays.tolist(), nus.tolist(), powers.tolist())))


def random_waveform(rng, length, offset=0):
    """Unit-energy complex waveform with i.i.d. Gaussian samples."""
    z = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    return normalized(Waveform(z, offset=offset))


def noise_init(cfg, seed):
    """The seeded complex Gaussian initializer, written out as an oracle."""
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(cfg.L_phi) + 1j * rng.standard_normal(cfg.L_phi)
    return Waveform(samples, offset=-(cfg.L_phi // 2))


def small_config(n=10, q=8, dphi=1, dpsi=1):
    return LatticeConfig(N=n, Q=q, Dphi=dphi, Dpsi=dpsi)


def random_kernel_pair(rng, L, ridge=0.1, q=None, r=None):
    """Random structured pair: KS = C C^H from a random C (L x r) and KIN on
    random positive definite comb blocks P (q of them), T = P + ||C||^2 I + ridge I,
    so that KIN = T - C C^H is at least P + ridge I."""
    q = int(rng.integers(1, L + 1)) if q is None else q
    r = int(rng.integers(1, L + 1)) if r is None else r
    m = -(-L // q)
    C = (rng.standard_normal((L, r)) + 1j * rng.standard_normal((L, r))) / math.sqrt(L)
    H = to_comb(rng.standard_normal((L, m)) + 1j * rng.standard_normal((L, m)), q)
    valid = to_comb(np.ones(L), q)
    shift = np.linalg.norm(C, 2) ** 2 + ridge
    blocks = H @ H.conj().swapaxes(1, 2) / m + shift * valid[:, :, None] * np.eye(m)
    blocks *= valid[:, :, None] * valid[:, None, :]
    return structured_pair(C, blocks)


def structured_pair(C, blocks):
    """(KS, KIN) kernels of KS = C C^H and T = KS + KIN given by its comb blocks."""
    return KernelMatrix(C, 0), KernelMatrix(blocks, 0, C)


def expand(kernel):
    """The dense L x L matrix a structured kernel stands for."""
    C = kernel.data if kernel.factor is None else kernel.factor
    ks = C @ C.conj().T
    if kernel.factor is None:
        return ks
    p = np.arange(kernel.L)
    c, a = p % len(kernel.data), p // len(kernel.data)
    same = c[:, None] == c[None, :]
    return np.where(same, kernel.data[c[:, None], a[:, None], a[None, :]], 0.0) - ks


def dense_half_step(ks, kin):
    """Value of the half-step solved densely: eigh(KS, T) on the range of
    T = KS + KIN, read under the package's zero-interference rule."""
    lam, U = np.linalg.eigh(ks + kin)
    keep = lam > len(lam) * np.finfo(float).eps * lam[-1]
    if not keep.any():  # neither useful nor interference power on the window
        return 0.0
    white = U[:, keep] / np.sqrt(lam[keep])
    x = white @ np.linalg.eigh(white.conj().T @ ks @ white)[1][:, -1]
    return power_ratio(np.real(np.vdot(x, ks @ x)), np.real(np.vdot(x, kin @ x)))


# ---------------------------------------------------------------------------
# The dense kernel builders the structured ones replaced: the oracle.
# ---------------------------------------------------------------------------

def _shift_range(w, s, L, d, N):
    """Lattice shifts n for which w(. - d - nN) overlaps [s, s+L)."""
    n_lo = (s - d - w.end) // N + 1
    n_hi = -(-(s - d + L - w.offset) // N) - 1
    return range(n_lo, n_hi + 1)


def _oracle_params(ch, sign):
    """(signed delays, signed per-sample Doppler cycles or None, powers, Bd Ts or None),
    read off the channel's own fields rather than its Doppler nodes."""
    if isinstance(ch, SeparableChannel):
        return sign * ch.delays, None, ch.powers, ch.Bd * ch.Ts
    return sign * ch.delays, sign * ch.dopplers * ch.Ts, ch.powers, None


def _assemble(w, ch, s, L, sign, N):
    """sum_k pi_k [sum_n v_kn v_kn^H] with per-path Doppler phases folded in.

    N=None restricts to the n=0 term (useful kernel); otherwise n runs over
    every lattice shift with support overlap.  For separable channels the
    (real) Jakes autocorrelation is applied by the caller.
    """
    delays, nutilde, powers, _ = _oracle_params(ch, sign)
    idx = np.arange(L)
    cols = []
    for k in range(len(powers)):
        d = int(delays[k])
        shifts = (0,) if N is None else _shift_range(w, s, L, d, N)
        phase = None if nutilde is None else np.exp(2j * np.pi * nutilde[k] * idx)
        for n in shifts:
            v = w.dense(s - d - n * (N or 0), L)
            cols.append(math.sqrt(powers[k]) * (v if phase is None else v * phase))
    if not cols:
        return np.zeros((L, L), dtype=np.complex128)
    G = np.column_stack(cols)
    return G @ G.conj().T


def _jakes_matrix(bd_ts, L):
    return toeplitz(j0(np.pi * bd_ts * np.arange(L)))


def _comb_matrix(Q, L):
    return toeplitz((np.arange(L) % Q == 0).astype(float))


def _oracle_window(w, ch, L, window_start, sign):
    """The given window start; the production choice only for S(p, nu), since
    the package selects windows in that orientation alone."""
    if window_start is not None:
        return window_start
    if sign != 1:
        raise ValueError("the S(-p, -nu) oracle needs an explicit window_start")
    return best_window_start(w, ch, L)


def dense_ks(w, ch, L, window_start=None, sign=1):
    """KS as an L x L matrix, J0 applied exactly for a separable channel.
    sign=-1 gives the S(-p, -nu) kernel: delays and Dopplers negated."""
    s = _oracle_window(w, ch, L, window_start, sign)
    M = _assemble(w, ch, s, L, sign, None)
    bd_ts = _oracle_params(ch, sign)[3]
    if bd_ts:
        M = M * _jakes_matrix(bd_ts, L)
    return 0.5 * (M + M.conj().T)


def dense_ki(w, ch, cfg, L, window_start=None, sign=1):
    """KI as an L x L matrix: the comb-masked total over lattice shifts, minus KS."""
    s = _oracle_window(w, ch, L, window_start, sign)
    mask = cfg.Q * _comb_matrix(cfg.Q, L)
    bd_ts = _oracle_params(ch, sign)[3]
    if bd_ts:
        mask = mask * _jakes_matrix(bd_ts, L)
    M = _assemble(w, ch, s, L, sign, cfg.N) * mask - dense_ks(w, ch, L, s, sign)
    return 0.5 * (M + M.conj().T)


def dense_role_swapped(tx, rx, ch, cfg):
    """(ps, pi) per unit energies of tx received against the dense S(-p, -nu)
    kernels of rx on tx's own window: the pair sinr(tx, rx) with the roles of
    transmitter and receiver interchanged."""
    x = tx.dense(tx.offset, len(tx))
    ks = dense_ks(rx, ch, len(tx), tx.offset, sign=-1)
    ki = dense_ki(rx, ch, cfg, len(tx), tx.offset, sign=-1)
    scale = tx.energy * rx.energy
    return np.real(np.vdot(x, ks @ x)) / scale, np.real(np.vdot(x, ki @ x)) / scale


def dense_kronecker_forms(cfg, ch, phi_offset, phi_length, psi_offset, psi_length):
    """A and B assembled densely on the whole Kronecker space, path by path.

    Transmit index major, receive index minor: the oracle for the lag blocks
    of ``build_kronecker_system`` (``ch`` is a PathList).
    """
    dim = phi_length * psi_length
    diff = np.arange(psi_length)[:, None] - np.arange(psi_length)[None, :]  # j - j'
    comb = np.where(diff % cfg.Q == 0, float(cfg.Q), 0.0)
    a = np.zeros((dim, dim), dtype=np.complex128)
    b = np.zeros((dim, dim), dtype=np.complex128)
    for delay, doppler, power in zip(ch.delays, ch.dopplers, ch.powers):
        rho = np.exp(-2j * np.pi * doppler * cfg.Ts * diff)
        base_shift = int(delay) + phi_offset - psi_offset
        n_lo = -((phi_length - 1 + base_shift) // cfg.N)
        n_hi = (psi_length - 1 - base_shift) // cfg.N
        for n in range(n_lo, n_hi + 1):
            shift = base_shift + n * cfg.N
            i = np.arange(max(0, -shift), min(phi_length, psi_length - shift))
            j = i + shift
            block = np.ix_(i * psi_length + j, i * psi_length + j)
            jj = np.ix_(j, j)
            b[block] += power * (comb[jj] * rho[jj])
            if n == 0:
                a[block] += power * rho[jj]
    b -= a
    return 0.5 * (a + a.conj().T), 0.5 * (b + b.conj().T)


def lag_block_indices(sys_, t):
    """Dense Kronecker indices i * psi_length + j of the pairs in block t."""
    lag = int(sys_.lags[t])
    i = np.arange(max(0, -lag), min(sys_.phi_length, sys_.psi_length - lag))
    return i * sys_.psi_length + i + lag


def dense_upper_bound(a, b, snr):
    """Top generalized eigenvalue of (A, B + I/snr) on range(A + B), dense."""
    eigs, vecs = scipy.linalg.eigh(a + b)
    basis = vecs[:, eigs > 1e-12 * max(eigs[-1], 0.0)]
    if basis.shape[1] == 0:  # no pairing carries power: the bound is 0, as upper_bound reads it
        return 0.0
    a_sub = basis.conj().T @ a @ basis
    b_sub = basis.conj().T @ b @ basis
    if math.isfinite(snr):
        b_sub += np.eye(basis.shape[1]) / snr
    return float(scipy.linalg.eigh(0.5 * (a_sub + a_sub.conj().T), 0.5 * (b_sub + b_sub.conj().T),
                                   eigvals_only=True)[-1])


def dense_oob_fraction(w, cfg, band_halfwidth_f):
    """1 - x^H P_B x / ||x||^2 with the prolate matrix P_B of |f| <= band_halfwidth_f / Q
    cycles per sample built densely: sin(2 pi beta (p - q)) / (pi (p - q))."""
    beta = band_halfwidth_f / cfg.Q
    x = w.samples
    d = np.subtract.outer(np.arange(x.size), np.arange(x.size))
    P = np.where(d == 0, 2 * beta, np.sin(2 * np.pi * beta * d) / (np.pi * np.where(d == 0, 1, d)))
    return 1.0 - np.vdot(x, P @ x).real / np.vdot(x, x).real


# ---------------------------------------------------------------------------
# Monte Carlo executed in the time domain: the oracle of the response matrix.
# ---------------------------------------------------------------------------

def time_domain_mc(tx, rx, ch, cfg, snr, mc):
    """``estimate_sinr`` written as the literal simulation, with the same draws:
    per trial the transmitted span is synthesized slot by slot (one inverse DFT
    each), every delay's time-varying gain multiplies its delayed copy on the
    receive window, and the interference is what remains of Lambda = <psi, r>
    once the a_00 term is removed.  The noise enters Lambda as its projection
    on psi, one complex Gaussian per trial."""
    N, Q = cfg.N, cfg.Q
    l_rx = rx.samples.size
    window = rx.offset + np.arange(l_rx)
    nodes = ch.doppler_nodes(l_rx)
    G = nodes.shape[1]
    theta = np.broadcast_to(nodes, (ch.delays.size, G)).ravel()
    powers = np.repeat(ch.powers / G, G)
    path_delay = np.repeat(ch.delays.astype(np.int64), G)
    path_phase = np.exp(1j * theta[:, None] * window)
    # Paths are sorted by delay: the paths of each distinct delay are a slice.
    delays, first = np.unique(path_delay, return_index=True)
    taps = [slice(lo, hi) for lo, hi in zip(first, [*first[1:], path_delay.size])]
    max_delay = int(delays[-1])

    n_lo, n_hi = required_symbol_span(tx, rx, max_delay, N)
    slots = np.arange(n_lo, n_hi + 1)
    slot0 = -n_lo

    span_lo = rx.offset - max_delay
    span_len = rx.end - span_lo
    l_tx = tx.samples.size

    # Per-slot scatter of the transmit pulse into the simulated span.
    slot_maps = []
    for n in slots:
        g = tx.offset + n * N + np.arange(l_tx)
        keep = (g >= span_lo) & (g < span_lo + span_len)
        slot_maps.append((g[keep] - span_lo, g[keep] % Q, tx.samples[keep]))

    # Per-delay receive-window gather, and the slot-0, subcarrier-0 pulse it
    # delivers there (the useful branch).
    tap_idx = [window - d - span_lo for d in delays]
    tap_use = [tx.dense(rx.offset - d, l_rx) for d in delays]

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
        h = (rng.standard_normal((chunk, powers.size))
             + 1j * rng.standard_normal((chunk, powers.size)))
        h *= np.sqrt(powers / 2.0)

        e_span = np.zeros((chunk, span_len), dtype=np.complex128)
        for idx, (pos, car, amp) in enumerate(slot_maps):
            if pos.size == 0:
                continue
            base = Q * np.fft.ifft(a[:, idx, :], axis=1)
            e_span[:, pos] += base[:, car] * amp

        r_full = np.zeros((chunk, l_rx), dtype=np.complex128)
        r_use = np.zeros((chunk, l_rx), dtype=np.complex128)
        for tap, idx, use in zip(taps, tap_idx, tap_use):
            gain = h[:, tap] @ path_phase[tap]  # the tap's gain at each window sample
            r_full += gain * e_span[:, idx]
            r_use += gain * use
        r_use *= a[:, slot0, 0, None]

        lam_use = r_use @ psi_c
        lam_int = (r_full - r_use) @ psi_c
        u_parts.append(np.abs(lam_use) ** 2)
        i_parts.append(np.abs(lam_int) ** 2)
        if noise_var > 0.0:
            # White noise of variance noise_var per sample, projected on psi:
            # CN(0, noise_var ||psi||^2), drawn at the decision variable.
            lam_noise = (
                rng.standard_normal(chunk) + 1j * rng.standard_normal(chunk)
            ) * math.sqrt(noise_var * np.sum(np.abs(psi_c) ** 2) / 2.0)
            n_parts.append(np.abs(lam_noise) ** 2)

    u = np.concatenate(u_parts)
    v = np.concatenate(i_parts)
    w = np.concatenate(n_parts) if n_parts else np.zeros_like(v)
    t = float(mc.trials)
    ps, pi, pn = (float(x.mean()) / scale for x in (u, v, w))
    est = power_ratio(ps, pi + pn)
    if mc.trials > 1 and math.isfinite(est) and pi + pn > 0.0:
        usum, dsum = u.sum(), (v + w).sum()
        loo = (usum - u) / (dsum - (v + w))
        se = float(np.sqrt((t - 1.0) / t * np.sum((loo - loo.mean()) ** 2)))
    else:
        se = math.inf
    return McEstimate(sinr=est, se=se, ps=ps, pi=pi, pn=pn, trials=mc.trials)


def direct_response_matrix(tx, rx, theta, path_delay, slots, N, Q):
    """The response matrix summed atom by atom over the receive window:
    B[(s, m), j] = sum_p conj(psi(p)) exp(j theta_j p) phi(p - d_j - n_s N)
    exp(2j pi m (p - d_j) / Q)."""
    p = rx.offset + np.arange(len(rx))
    B = np.zeros((len(slots) * Q, len(theta)), dtype=np.complex128)
    for s, n in enumerate(slots):
        for m in range(Q):
            for j, (th, d) in enumerate(zip(theta, path_delay)):
                phi = tx.dense(rx.offset - d - n * N, len(rx))
                B[s * Q + m, j] = np.sum(rx.samples.conj() * np.exp(1j * th * p) * phi
                                         * np.exp(2j * np.pi * m * (p - d) / Q))
    return B
