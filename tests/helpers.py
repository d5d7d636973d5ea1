"""Shared factories for randomized test instances."""

import math

import numpy as np
import scipy.linalg

from pops import KernelMatrix, LatticeConfig, PathList, Waveform, normalized


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


def small_config(n=10, q=8, dphi=1, dpsi=1):
    return LatticeConfig(N=n, Q=q, Dphi=dphi, Dpsi=dpsi)


def random_kernel_pair(rng, L, ridge=0.1):
    """Random PSD useful kernel and PD interference-plus-noise kernel."""
    G = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    H = rng.standard_normal((L, L)) + 1j * rng.standard_normal((L, L))
    A = (G @ G.conj().T) / L
    B = (H @ H.conj().T) / L + ridge * np.eye(L)
    ks = KernelMatrix(A, "useful", "synthetic", 1, 0)
    kin = KernelMatrix(B, "interference-plus-noise", "synthetic", 1, 0)
    return ks, kin


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
    a_sub = basis.conj().T @ a @ basis
    b_sub = basis.conj().T @ b @ basis
    if math.isfinite(snr):
        b_sub += np.eye(basis.shape[1]) / snr
    return float(scipy.linalg.eigh(0.5 * (a_sub + a_sub.conj().T), 0.5 * (b_sub + b_sub.conj().T),
                                   eigvals_only=True)[-1])
