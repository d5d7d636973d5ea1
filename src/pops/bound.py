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
the 38 of ``demos/scenarios/full_scale.ini``.  The system itself holds only
the symbols, one row per lag, and no dense block.  Every block still sets
the scale of the range threshold, the largest eigenvalue of A + B over all
blocks.  The symbol of A + B is zero off ``d = 0 mod Q``, so a block of size
``s`` splits into Q comb sub-blocks, each a leading section of the
``ceil(s/Q)``-square Toeplitz matrix of the symbol at ``d = 0, Q, 2Q, ...``:
the scale is the largest eigenvalue of those small matrices (2x2 at full
scale), one batched ``eigvalsh`` for every lag.

The construction is pinned down by the identity
``kronecker_quotient(sys, tx, rx) == sir(tx, rx)`` for every pair embedded in
the system's windows; ``tests/test_bound.py`` checks it against the kernel
engine, and the blocks (assembled on read) against a dense assembly of A
and B.
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
    a_symbol, b_symbol : ndarray, shape (len(lags), m)
        Symbols of the lag blocks of the Hermitian PSD operators A and B:
        entry ``(r, r')`` of block ``t`` is ``symbol[t, r - r']`` for
        ``r >= r'`` (its conjugate above the diagonal), for ``r, r'`` below
        the block's size (``sizes``; m is the largest).  ``chi^H A chi`` is
        the useful power and ``chi^H B chi`` the interference power of the
        pair ``chi = phi (x) conj(psi)`` (up to the common energy factor,
        which cancels in every quotient).
    lags : ndarray of int
        Window-local lag ``j - i`` of each block (lags without a pairing,
        all zeros in A and B, are left out).
    Q : int
        The lattice's subcarrier count: A + B is zero off ``d = 0 mod Q``.
    phi_offset, phi_length : int
        Transmit-side window: global sample indices
        ``[phi_offset, phi_offset + phi_length)``.
    psi_offset, psi_length : int
        Receive-side window, same convention.
    """

    a_symbol: np.ndarray
    b_symbol: np.ndarray
    lags: np.ndarray
    Q: int
    phi_offset: int
    phi_length: int
    psi_offset: int
    psi_length: int

    def __post_init__(self) -> None:
        m = int(self.sizes.max(initial=0))
        if not self.a_symbol.shape == self.b_symbol.shape == (self.lags.size, m):
            raise ValueError(f"symbols must be {self.lags.size}x{m}, got "
                             f"{self.a_symbol.shape} and {self.b_symbol.shape}")
        for arr in (self.a_symbol, self.b_symbol, self.lags):
            arr.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.phi_length * self.psi_length

    @property
    def sizes(self) -> np.ndarray:
        """Size of each lag block: the number of pairs ``(i, i + lag)`` in both windows."""
        return _lag_rows(self.lags, self.phi_length, self.psi_length)[1]

    @property
    def a_matrix(self) -> np.ndarray:
        """A's blocks as a dense (len(lags), m, m) stack zero-padded to m: a new
        array assembled on each read from the symbols; the bound never reads it."""
        return _toeplitz_blocks(self.a_symbol, self.sizes)

    @property
    def b_matrix(self) -> np.ndarray:
        """B's blocks, assembled on each read like :attr:`a_matrix`."""
        return _toeplitz_blocks(self.b_symbol, self.sizes)


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
    blocks = np.take(symbol, np.abs(diff), axis=1)  # C order, as BLAS reads it
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
    """The lag symbols of A and B for the given lattice, channel and windows.

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
    return KroneckerSystem(a_symbol=a_symbol, b_symbol=b_symbol, lags=lags, Q=cfg.Q,
                           phi_offset=phi_offset, phi_length=phi_length,
                           psi_offset=psi_offset, psi_length=psi_length)


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
    if not sys.lags.size:  # no pairing reaches the windows: 0/0 reads 0
        return 0.0
    first, sizes = _lag_rows(sys.lags, sys.phi_length, sys.psi_length)
    m = sys.a_symbol.shape[1]
    r = np.arange(m)
    i = first[:, None] + r
    inside = r < sizes[:, None]
    chi = np.zeros(inside.shape, dtype=np.complex128)
    chi[inside] = phi[i[inside]] * psi[(i + sys.lags[:, None])[inside]].conj()
    # Each block's form is Re[S(0) c(0) + 2 sum_{d>0} S(d) c(d)] for its symbol S and
    # chi's lag autocorrelation c(d) = sum_r chi[r] conj(chi[r + d]), read off FFTs
    # of length 2m, past every wrap-around.
    corr = np.fft.rfft(np.abs(np.fft.fft(chi, 2 * m)) ** 2)[:, :m] / (2 * m)
    corr[:, 1:] *= 2.0
    ps = float(np.sum((sys.a_symbol * corr).real))
    pi = float(np.sum((sys.b_symbol * corr).real))
    return power_ratio(ps, pi)


def _range_scale(sys: KroneckerSystem) -> float:
    """Largest eigenvalue of A + B over all lag blocks, read off the comb.

    The symbol of A + B is ``Q [d = 0 mod Q]`` times the sum over every delay
    that folds onto the block's lag.  So a block of size s, ordered by its row
    index mod Q, is block diagonal, and its Q diagonal blocks are leading
    sections of the ``ceil(s/Q)``-square Toeplitz matrix of the symbol at
    ``d = 0, Q, 2Q, ...``, the one of row residue 0 itself: that matrix holds
    the block's largest eigenvalue.
    """
    comb = (sys.a_symbol + sys.b_symbol)[:, ::sys.Q]
    return float(np.linalg.eigvalsh(_toeplitz_blocks(comb, -(-sys.sizes // sys.Q)))[:, -1].max())


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
    eigenvalue of A + B over all blocks, read exactly off its comb
    (:func:`_range_scale`).  The dense blocks are built from the symbols for
    the useful lags only.

    Raises
    ------
    SingularInterferenceError
        If snr = inf and B is singular on the range of A + B (some ``chi``
        carries no interference): the SIR bound is infinite.
    """
    if not snr > 0.0:
        raise ValueError(f"snr must be positive, got {snr}")
    # A PSD Toeplitz block with a zero diagonal is zero: it adds nothing.
    useful = np.flatnonzero(sys.a_symbol[:, :1])
    if not useful.size:
        return 0.0
    sizes = sys.sizes[useful]
    a_matrix = _toeplitz_blocks(sys.a_symbol[useful], sizes)
    b_matrix = _toeplitz_blocks(sys.b_symbol[useful], sizes)
    # Directions outside range(A + B) carry neither useful nor interference
    # power (both forms are PSD, so null quadratic form means null vector);
    # they never help the quotient and would fake a singular B on windows
    # larger than the channel's reach or on a block's zero padding.  Work on
    # range(A + B); the threshold is relative to the largest over all blocks.
    lam, U = np.linalg.eigh(a_matrix + b_matrix)
    reference = _range_scale(sys)
    keep = lam > _RANGE_RTOL * reference
    if not keep.any():
        return 0.0
    # In the eigenbasis of A + B, T is diagonal: whiten by it, 0 off the range.
    # Each block stack is built once, scaled in place and dropped as soon as it
    # has been read.
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
