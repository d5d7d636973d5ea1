"""Kronecker-relaxation upper bound on the achievable SINR.

For a fixed pair of support windows, the useful and interference powers are
quadratic forms in the Kronecker vector ``chi = phi (x) conj(psi)``,

    P_S = chi^H A chi,      P_I = chi^H B chi,

where ``A`` pairs a transmit sample ``i`` with a receive sample ``j`` at each
path lag ``j - i = p_k``, and ``B`` collects the same pairings at every
lattice lag ``p_k + n N`` folded over the ``Q`` subcarriers with the comb
identity, minus ``A``.  Maximizing the quotient over *all* unit vectors
``chi`` instead of the rank-one set ``{phi (x) conj(psi)}`` relaxes the
waveform-design problem into a generalized eigenvalue problem whose top
eigenvalue can never be below the SINR of any waveform pair on those windows.

Both forms couple ``(i, j)`` with ``(i', j')`` only within one pairing, hence
only when ``j - i = j' - i'``: ordered by lag, A and B are exactly block
diagonal (the cross-lag entries are structural zeros).  The block of lag
``l`` acts on ``chi_l[i] = phi[i] conj(psi[i + l])`` and its entry
``(i, i')`` depends only on ``d = i - i'``, so it is Hermitian Toeplitz: for
A the symbol ``r(d) = sum_k pi_k exp(-2j pi nu_k Ts d)`` over the paths at
the lag's delay, for B ``Q [d = 0 mod Q]`` times that sum over every delay
congruent to it mod N, minus A's.  Every channel enters through its Doppler
nodes, so a separable channel's taps carry J0 to 1e-14.  The bound is the
largest top eigenvalue of the per-lag problems, each of size at most
``min(L_phi, L_psi)``.

A is zero on every lag that is not a path delay's, and such a block adds 0
to the bound, so only the useful blocks (A != 0) are built and solved: 8 of
the 38 of ``demos/scenarios/full_scale.ini``.  The others still set the
scale of the range threshold, the largest eigenvalue of A + B over all
blocks.  A + B has one symbol per residue of the lag mod N, so each block is
a leading section of its residue's longest, whose top eigenvalue bounds the
rest (Cauchy interlacing); with the default windows that block is the
useful one.

The construction is pinned down by the identity
``kronecker_quotient(sys, tx, rx) == sir(tx, rx)`` for every pair embedded in
the system's windows; ``tests/test_bound.py`` checks it against the kernel
engine, and the blocks against a dense assembly of A and B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import PathList, SeparableChannel, doppler_correlation
from .lattice import LatticeConfig, Waveform
from .sinr import power_ratio

__all__ = ["KroneckerSystem", "SingularInterferenceError", "build_kronecker_system",
           "kronecker_quotient", "upper_bound"]

# Relative eigenvalue threshold below which A + B loses a direction and B is singular.
_RANGE_RTOL = 1e-12


class SingularInterferenceError(np.linalg.LinAlgError):
    """Raised when the interference operator B is singular at snr = inf.

    This happens on channels whose lattice reproduces the transmit pulse
    orthogonally (e.g. the ideal single-path channel at full guard), where
    some chi carries zero interference and the SIR bound is infinite.  Use a
    finite snr to obtain the noise-regularized SINR bound instead.
    """


@dataclass(frozen=True)
class KroneckerSystem:
    """Quadratic forms of the relaxed SINR problem on fixed windows.

    Attributes
    ----------
    a_matrix, b_matrix : ndarray, shape (len(lags), m, m)
        Diagonal blocks of the Hermitian PSD operators A and B, zero-padded
        to size m; ``chi^H A chi`` is the useful power and ``chi^H B chi`` the
        interference power of the pair ``chi = phi (x) conj(psi)`` (up to the
        common energy factor, which cancels in every quotient).
    lags : ndarray of int
        Window-local lag ``j - i`` of each block (lags without a pairing,
        all zeros in A and B, are left out).
    phi_offset, phi_length : int
        Transmit-side window: global sample indices
        ``[phi_offset, phi_offset + phi_length)``.
    psi_offset, psi_length : int
        Receive-side window, same convention.
    """

    a_matrix: np.ndarray
    b_matrix: np.ndarray
    lags: np.ndarray
    phi_offset: int
    phi_length: int
    psi_offset: int
    psi_length: int

    def __post_init__(self) -> None:
        m = int(_lag_rows(self.lags, self.phi_length, self.psi_length)[1].max(initial=0))
        if not self.a_matrix.shape == self.b_matrix.shape == (self.lags.size, m, m):
            raise ValueError(f"blocks must be {self.lags.size}x{m}x{m}, got "
                             f"{self.a_matrix.shape} and {self.b_matrix.shape}")
        for arr in (self.a_matrix, self.b_matrix, self.lags):
            arr.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.phi_length * self.psi_length


def _lag_rows(lags: np.ndarray, l_phi: int, l_psi: int) -> tuple[np.ndarray, np.ndarray]:
    """First transmit index and number of pairs (i, i + lag) inside both windows."""
    first = np.maximum(0, -lags)
    return first, np.minimum(l_phi, l_psi - lags) - first


def _delay_autocorrelation(ch: PathList | SeparableChannel, d: np.ndarray) -> np.ndarray:
    """``sum_k pi_k mean exp(-j theta_k d)`` over the taps of each distinct delay.

    A delay whose Doppler spectrum is symmetric (every Jakes tap and every
    quantile grid of one) has a real sum; its rounding dust is dropped so
    that real spectra give real blocks: half the memory of complex ones, and
    about half the eigensolve time.
    """
    delays, group = np.unique(ch.delays, return_inverse=True)
    member = (group == np.arange(delays.size)[:, None]).astype(np.float64)
    rho = member @ (ch.powers[:, None] * doppler_correlation(-ch.doppler_nodes(d.size), d))
    return np.real_if_close(rho)


def _toeplitz_blocks(symbol: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz blocks ``M[t, r, s] = symbol[t, r - s]`` (given for
    ``r >= s``), zero in the rows and columns at or past ``sizes[t]``."""
    r = np.arange(symbol.shape[1])
    diff = r[:, None] - r[None, :]
    blocks = symbol[:, np.abs(diff)]
    if np.iscomplexobj(blocks):
        blocks[:, diff < 0] = blocks[:, diff < 0].conj()
    inside = r < sizes[:, None]
    blocks[~(inside[:, :, None] & inside[:, None, :])] = 0.0
    return blocks


def build_kronecker_system(
    cfg: LatticeConfig,
    ch: PathList | SeparableChannel,
    *,
    phi_offset: int | None = None,
    phi_length: int | None = None,
    psi_offset: int | None = None,
    psi_length: int | None = None,
) -> KroneckerSystem:
    """Assemble the lag blocks of A and B for the given lattice, channel and windows.

    Parameters
    ----------
    cfg : LatticeConfig
        Lattice geometry; supplies N (time stride), Q (subcarriers) and the
        default window lengths ``L_phi``/``L_psi``.
    ch : PathList or SeparableChannel
        Discrete channel paths, summed per delay, or a separable channel,
        whose taps carry the Jakes autocorrelation J0 through its nodes.
    phi_offset, phi_length, psi_offset, psi_length : int, optional
        Support windows for the two prototypes.  The default transmit window
        is the optimizer's: length ``cfg.L_phi`` centered so that
        ``phi_offset = -(L_phi // 2)``.  The default receive window is the
        union of every length-``cfg.L_psi`` window the optimizer could
        select for that transmit support (all starts with nonzero useful
        power), so the bound dominates ``run_pops`` regardless of which
        receive window its trace rule picks; a waveform supported on any
        sub-window embeds with an unchanged quotient.
    """
    if phi_length is None:
        phi_length = cfg.L_phi
    if phi_offset is None:
        phi_offset = -(phi_length // 2)
    if psi_length is None or psi_offset is None:
        if psi_length is not None or psi_offset is not None:
            raise ValueError("give both psi_offset and psi_length, or neither")
        # Candidate receive windows [s, s + L_psi) have nonzero useful power
        # for s in [phi_offset + d_min - L_psi + 1, phi_offset + L_phi - 1
        # + d_max]; take their union so any optimizer choice is covered.
        psi_offset = phi_offset + int(ch.delays[0]) - cfg.L_psi + 1
        last_start = phi_offset + phi_length - 1 + int(ch.delays[-1])
        psi_length = last_start + cfg.L_psi - psi_offset
    if phi_length < 1 or psi_length < 1:
        raise ValueError("window lengths must be positive")
    if ch.Ts != cfg.Ts:
        raise ValueError(f"channel Ts = {ch.Ts} does not match lattice Ts = {cfg.Ts}")

    # Delay p pairs (i, i + l) at every window-local lag l = p + shift + n N.
    shift = phi_offset - psi_offset
    lags = np.arange(1 - phi_length, psi_length)
    delays = np.unique(ch.delays)
    folded = (lags[:, None] - shift - delays[None, :]) % cfg.N == 0
    paired = folded.any(axis=1)
    lags, folded = lags[paired], folded[paired]
    _, sizes = _lag_rows(lags, phi_length, psi_length)
    d = np.arange(sizes.max(initial=0))
    rho = _delay_autocorrelation(ch, d)
    own = (lags[:, None] - shift == delays[None, :]).astype(np.float64)
    a_symbol = own @ rho
    comb = np.where(d % cfg.Q == 0, float(cfg.Q), 0.0)
    b_symbol = comb * (folded.astype(np.float64) @ rho) - a_symbol
    # A's block is zero at every lag that is not a delay's (a_symbol[t, 0] is the
    # power at that delay): only the useful blocks are written, so the pages of
    # the others are never touched.
    useful = a_symbol[:, :1].any(axis=1)
    a_matrix = np.zeros((lags.size, d.size, d.size), dtype=a_symbol.dtype)
    a_matrix[useful] = _toeplitz_blocks(a_symbol[useful], sizes[useful])
    return KroneckerSystem(
        a_matrix=a_matrix,
        b_matrix=_toeplitz_blocks(b_symbol, sizes),
        lags=lags,
        phi_offset=phi_offset,
        phi_length=phi_length,
        psi_offset=psi_offset,
        psi_length=psi_length,
    )


def _embed(w: Waveform, offset: int, length: int, side: str) -> np.ndarray:
    if w.offset < offset or w.end > offset + length:
        raise ValueError(
            f"{side} support [{w.offset}, {w.end}) does not fit in the system "
            f"window [{offset}, {offset + length})"
        )
    return w.dense(offset, length)


def kronecker_quotient(sys: KroneckerSystem, tx: Waveform, rx: Waveform) -> float:
    """P_S / P_I of a concrete pair, evaluated through the relaxed operators.

    Equals ``sinr(tx, rx, ...).sir`` from the kernel engine whenever both
    supports fit the system's windows; this is the identity that defines the
    A/B construction.
    """
    phi = _embed(tx, sys.phi_offset, sys.phi_length, "transmit")
    psi = _embed(rx, sys.psi_offset, sys.psi_length, "receive")
    first, sizes = _lag_rows(sys.lags, sys.phi_length, sys.psi_length)
    r = np.arange(sys.a_matrix.shape[1])
    i = first[:, None] + r
    inside = r < sizes[:, None]
    chi = np.zeros(inside.shape, dtype=np.complex128)
    chi[inside] = phi[i[inside]] * psi[(i + sys.lags[:, None])[inside]].conj()
    ps = float(np.real(np.vdot(chi, (sys.a_matrix @ chi[..., None])[..., 0])))
    pi = float(np.real(np.vdot(chi, (sys.b_matrix @ chi[..., None])[..., 0])))
    return power_ratio(ps, pi)


def _range_reference(sys: KroneckerSystem, useful: np.ndarray, top: np.ndarray) -> float:
    """Largest eigenvalue of A + B over all blocks, given ``top``, those of the useful ones.

    A + B has the symbol ``Q [d = 0 mod Q]`` times the sum over every delay
    that folds onto the block's lag, one symbol per residue of the lag mod N.
    A block whose symbol agrees with a longer block's on its own length is a
    leading section of it, so by Cauchy interlacing its top eigenvalue is at
    most the longer one's.  With the default windows every useful block is
    the longest of its residue and covers the rest; a block that no useful
    block covers (explicit windows) is solved, where A = 0 and A + B = B.
    """
    other = np.ones(sys.lags.size, dtype=bool)
    other[useful] = False
    # Row 0 of a Hermitian Toeplitz block is its conjugated symbol, zero past its size.
    rows = sys.b_matrix[:, 0, :].copy()
    rows[useful] += sys.a_matrix[useful, 0, :]
    _, sizes = _lag_rows(sys.lags, sys.phi_length, sys.psi_length)
    inside = np.arange(rows.shape[1]) < sizes[other, None]
    gap = np.abs(rows[other][:, None, :] - rows[useful]).max(axis=2, where=inside[:, None, :],
                                                             initial=0.0)
    covered = (gap <= _RANGE_RTOL * np.abs(rows).max()) & (sizes[useful] >= sizes[other, None])
    rest = np.flatnonzero(other)[~covered.any(axis=1)]
    if rest.size:
        return max(top.max(), np.linalg.eigvalsh(sys.b_matrix[rest])[:, -1].max())
    return top.max()


def upper_bound(sys: KroneckerSystem, snr: float = math.inf) -> float:
    """Largest generalized eigenvalue of (A, B + I/snr).

    With unit-norm ``chi`` the noise term contributes ``1/snr`` to the
    denominator, so the quotient relaxes the exact SINR and its maximum
    dominates the SINR of every waveform pair supported on the system's
    windows (snr = inf gives the pure SIR bound).  A and B are block diagonal
    by lag, so this is the largest of the per-block top eigenvalues.  Only
    the useful blocks, those of a path delay's lag, are solved: where A = 0
    the block's eigenvalue is 0, and the useful blocks are 8 of the 38 of
    ``demos/scenarios/full_scale.ini``.

    The blocks are solved as the optimizer's half-step is: on the range of
    T = A + B + I/snr, the top eigenpair of T^-1/2 A T^-1/2 gives the
    maximizing ``chi``, and the bound is that vector's quotient, read at
    snr = inf under the zero-interference rule of :func:`~pops.sinr.power_ratio`.
    The range, and the singular test at snr = inf, are relative to the largest
    eigenvalue of A + B over all blocks, which interlacing reads off the
    useful ones (:func:`_range_reference`).

    Raises
    ------
    SingularInterferenceError
        If snr = inf and B is singular on the range of A + B (some ``chi``
        carries no interference): the SIR bound is infinite.
    """
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    # A PSD Toeplitz block with a zero diagonal is zero: it adds nothing.
    useful = np.flatnonzero(sys.a_matrix[:, :1, :1])
    if not useful.size:
        return 0.0
    a_matrix, b_matrix = sys.a_matrix[useful], sys.b_matrix[useful]
    # Directions outside range(A + B) carry neither useful nor interference
    # power (both forms are PSD, so null quadratic form means null vector);
    # they never help the quotient and would fake a singular B on windows
    # larger than the channel's reach or on a block's zero padding.  Work on
    # range(A + B); the threshold is relative to the largest over all blocks.
    lam, U = np.linalg.eigh(a_matrix + b_matrix)
    reference = _range_reference(sys, useful, lam[:, -1])
    keep = lam > _RANGE_RTOL * reference
    if not keep.any():
        return 0.0
    # In the eigenbasis of A + B, T is diagonal: whiten by it, 0 off the range.
    # Each block stack is as large as the system, so each is built once,
    # scaled in place and dropped as soon as it has been read.
    scale = np.where(keep, lam + 1.0 / snr, np.inf) ** -0.5
    u_h = U.conj().swapaxes(1, 2)  # a view when the blocks are real
    white = u_h @ a_matrix @ U
    white *= scale[..., None]
    white *= scale[:, None, :]
    top, Y = np.linalg.eigh(white)
    del white
    block = int(np.argmax(top[:, -1]))
    chi = U[block] @ (scale[block] * Y[block, :, -1])
    del Y
    ps = float(np.real(np.vdot(chi, a_matrix[block] @ chi)))
    pi = float(np.real(np.vdot(chi, b_matrix[block] @ chi) + np.vdot(chi, chi) / snr))
    if math.isfinite(snr):
        return max(ps, 0.0) / pi  # pi >= ||chi||^2/snr > 0
    # Whitening amplifies rounding and can hide a singular B: read B's spectrum on
    # the range too, each dropped direction decoupled at a Rayleigh quotient of it.
    sub = u_h @ b_matrix @ U
    del u_h, U
    pad = np.where(keep, 0.0, sub[int(np.argmax(lam[:, -1])), -1, -1].real)
    sub[~(keep[:, :, None] & keep[:, None, :])] = 0.0
    diag = np.arange(lam.shape[1])
    sub[:, diag, diag] += pad
    eigs = np.linalg.eigvalsh(sub)
    value = power_ratio(ps, pi)
    if math.isinf(value) or eigs.min() <= _RANGE_RTOL * reference:
        raise SingularInterferenceError(
            "interference operator is singular at snr = inf (some chi has "
            "zero interference, the SIR bound is infinite); pass a finite "
            "snr for the noise-regularized bound"
        )
    return value
