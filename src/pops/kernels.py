"""Hermitian kernels for useful and interference power, stored by their structure.

For a prototype waveform w and a scattering function, the useful kernel KS
and the interference kernel KI are L x L Hermitian PSD forms on a window of
the global time axis such that, for the opposite prototype x aligned on that
window,

    x^H KS x = average useful power,      x^H KI x = average interference power

(up to the 1/||w||^2 ||x||^2 normalization applied by the SINR engine).
Entries follow the quadratic-form convention

    KS(p, q) = sum_k pi_k w(p - p_k) conj(w(q - p_k)) rho_k(p - q),

with rho_k(r) the mean of exp(j theta r) over the tap's Doppler nodes
(:meth:`~pops.channel.PathList.doppler_nodes`): exp(2j pi nu_k Ts r) for an
explicit path, J0(pi Bd Ts r) to 1e-14 for a separable channel.  The
subcarrier sum in KI is folded analytically through
sum_{m=0}^{Q-1} exp(2j pi m r / Q) = Q * [r = 0 mod Q]; the remaining lattice
sum over time shifts n is a fold of the pulse's lag products by N (below).

No L x L product is formed:

* KS = C C^H with the factor C (L x r): per tap, the shifted pulse times the
  phase of each of its G Doppler nodes over sqrt(G) (G = 1 for explicit
  paths, G = 6-7 Jakes nodes at the paper's spreads; real columns on a
  symmetric spectrum, below), so r = K G, or L via a QR when K G > L
  (Doppler spreads near the sample rate).
* T = KS + KIN, KIN = KI + ||w||^2/snr I, is zero off the diagonals r = 0
  (mod Q): it is stored as its Q residue blocks T[c, a, b] = T(c + a Q, c + b Q),
  stacked and zero-padded to (Q, m, m) with m = ceil(L / Q).  The noise term is
  added here, in :func:`build_ks_kin`, and nowhere else; KI is T - C C^H at snr=inf.
* Along each comb diagonal T is N-periodic, because the lattice sum runs over
  every time shift n N (the circulant structure of a periodized sum):

      T(p, p - l Q) = sum_k Q pi_k rho_k(l Q) A_l(p - p_k),
      A_l(t) = sum_n w(t - n N) conj(w(t - l Q - n N)).

  So the m lag products A_l are folded onto N residues, summed over the taps
  there, and read into the blocks; the upper triangle is their conjugate.

Real arithmetic.  When every row of a channel's Doppler nodes is its own
negative (the Jakes nodes of a separable channel come in exact +- pairs; a
path without Doppler has the one node 0), every rho_k is real.  The KS
layout then holds a real phase: each pair +-theta becomes the two columns
sqrt(2) cos(theta r) and sqrt(2) sin(theta r), a node theta = 0 a column of
ones, all over sqrt(G), so C stays L x r and C C^H is unchanged; and T's tap
weights are kept real.  A pulse whose imaginary part is exactly zero is read
as float64, so on such a channel C and the comb blocks are float64, and so is
every half-step solved on them (:mod:`pops.optimizer`).  A complex pulse, or a
path list with any nonzero Doppler (each path is its own tap: +- pairs are
not grouped), keeps complex128 kernels.  :meth:`KernelMatrix.forms` applies
float64 kernels to complex receivers through the receivers' float64 view.

For a pulse of n samples and K taps, assembly costs O(L (r + m) + m (n + K N)),
whatever the number of lattice shifts, a half-step O(L (m^2 + m r + r^2) + r^3),
and the forms of P receivers on the window (:meth:`KernelMatrix.forms`) O(L r P + Q m^2 P).

Only the pulse's samples change from one ping-pong half-step to the next, so
what the kernels take from the geometry is built once and memoized, in an LRU
of 64 layouts per kernel (a round of sync sweeps and closed-form checks asks
for about 30 geometries).  For KS the layout is keyed by (channel, L, window
start, pulse offset, pulse length) and holds the gather index (K, L) of the
taps' rows in the zero-padded pulse, sqrt(pi_k) and the node phases per node.
For T it is keyed by those and the lattice, and holds the gather index
(m, ceil(n/N), N+1) of the pulse folded by N, the residue (K, min(N, L)+1) of
the lag products each tap reads at each window residue, the tap weights
Q pi_k rho_k(l Q) from the Doppler nodes (one code path for both channel
kinds), and the gather index (Q, m, m) of the blocks; none of it grows with
the number of lattice shifts.  Channels and lattices are values, so an equal
channel built anew hits too.  After a hit, KS costs one padded copy of the
pulse, one gather and the products; T one copy of the pulse, three gathers,
the lag products and one batched product over the taps.  The indices are
int32, half the bytes of numpy's default, and read through ``take``.  At
L = 768 (N=256/Q=128, D=3) with 8 taps and 7 Jakes nodes an entry holds
about 68 kB for KS (the real node phases, 8 G L bytes, 16 G L when complex,
and the index, 4 K L) and 46 kB for T (the indices,
4 (m ceil(n/N) (N+1) + K (N+1) + Q m^2) bytes).

Kernels come in one orientation, S(p, nu).  The role-swapped S(-p, -nu)
kernels of w on [s, s+L) are the index-reversed kernels of time_reverse(w) on
[-(s+L-1), -s+1): reversing time negates every delay and Doppler.  So the pong
half-step needs no second orientation: it runs on the time-reversed receiver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import doppler_correlation
from .lattice import LatticeConfig, Waveform

__all__ = ["KernelMatrix", "build_ks", "build_ki", "build_ks_kin", "best_window_start"]

_LAYOUTS = 64
# Appended to the pulse: the sample that every fold index off the pulse reads.
_ZERO = np.zeros(1)
_ZERO.flags.writeable = False
_KEPT = (np.dtype(np.float64), np.dtype(np.complex128))


@dataclass(frozen=True)
class KernelMatrix:
    """Hermitian PSD kernel on the global window [window_start, window_start+L).

    Without a factor it is KS, stored as its factor C (L x r) in ``data``:
    KS = C C^H.  With one it is the denominator kernel: ``data`` holds the comb
    blocks (Q, m, m) of T = KS + KIN and ``factor`` the C of that KS, so that
    KIN = T - C C^H.  :meth:`forms` reads the quadratic forms of a stack of
    receivers aligned on the window in one batch; :meth:`quad` is its
    one-column case.  The arrays are float64 or complex128: one given read-only
    in either dtype is kept as it is; any other input is copied, to complex128
    if it is complex and to float64 if not, and frozen.
    """

    data: np.ndarray
    window_start: int
    factor: np.ndarray | None = None

    def __post_init__(self):
        data, factor = _read_only(self.data), self.factor
        if factor is None:
            if data.ndim != 2:
                raise ValueError(f"a KS factor is L x r, got shape {data.shape}")
        else:
            factor = _read_only(factor)
            if data.shape[1:] != (-(-len(factor) // len(data)),) * 2:
                raise ValueError(f"comb blocks {data.shape} do not tile L={len(factor)}")
            if factor is not self.factor:
                object.__setattr__(self, "factor", factor)
        if data is not self.data:
            object.__setattr__(self, "data", data)
        if type(self.window_start) is not int:
            object.__setattr__(self, "window_start", int(self.window_start))

    @property
    def L(self) -> int:
        return (self.data if self.factor is None else self.factor).shape[0]

    def forms(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(||C^H x||^2, x^H K x) for every column x of the stack X (L x P).

        For KS both are the same; for the denominator kernel the second is
        x^H T x - ||C^H x||^2 = x^H KIN x.  One product C^T conj(X) and one
        batched comb product serve all P columns; a float64 kernel reads a
        complex X through its float64 view.
        """
        C = self.data if self.factor is None else self.factor
        ps = np.sum(np.abs(_product(C.T, X.conj())) ** 2, axis=0)
        if self.factor is None:
            return ps, ps
        xc = to_comb(X, self.data.shape[0])  # (Q, m, P)
        return ps, np.real(np.sum(xc.conj() * _product(self.data, xc), axis=(0, 1))) - ps

    def quad(self, w: Waveform) -> float:
        """Real quadratic form x^H K x with x = w restricted to the window."""
        return float(self.forms(w.dense(self.window_start, self.L)[:, None])[1][0])


def _read_only(arr) -> np.ndarray:
    """arr itself if it is a read-only float64 or complex128 array, else a frozen
    copy: complex128 for complex input, float64 for any other."""
    if isinstance(arr, np.ndarray) and arr.dtype in _KEPT and not arr.flags.writeable:
        return arr
    arr = np.array(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
    arr.flags.writeable = False
    return arr


def _product(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X; a real A is applied to a complex X through X's float64 view (real
    and imaginary parts as adjacent columns), so A is never copied to complex."""
    if A.dtype.kind == "c" or X.dtype.kind != "c":
        return A @ X
    try:
        parts = X.view(np.float64)
    except ValueError:  # X's last axis is strided
        parts = np.ascontiguousarray(X).view(np.float64)
    return (A @ parts).view(np.complex128)


def to_comb(x: np.ndarray, Q: int) -> np.ndarray:
    """Rows of x in comb layout (Q, m, ...): entry [c, a] is row c + a Q, zero past the end.

    Nothing is copied when Q divides the row count and numpy can split x's
    first axis in place: the result is then a view of x."""
    m = -(-x.shape[0] // Q)
    if m * Q != x.shape[0]:
        padded = np.zeros((m * Q,) + x.shape[1:], dtype=x.dtype)
        padded[: x.shape[0]] = x
        x = padded
    return x.reshape((m, Q) + x.shape[1:]).swapaxes(0, 1)


def from_comb(xc: np.ndarray, L: int) -> np.ndarray:
    """Inverse of :func:`to_comb` for a length-L leading axis."""
    return xc.swapaxes(0, 1).reshape((-1,) + xc.shape[2:])[:L]


def best_window_start(w: Waveform, ch, L_out: int) -> int:
    """Start of the length-L_out window maximizing the useful-kernel trace.

    The KS diagonal restricted to a window starting at s has trace
    sum_k pi_k * (energy of w on [s - p_k, s - p_k + L_out)); ties break to
    the smallest s.  (The interference trace is N-periodic in s, so it cannot
    discriminate; maximizing the useful trace simultaneously minimizes the
    interference trace of the window.)
    """
    n = len(w)
    energy = np.abs(w.samples) ** 2
    cum = np.concatenate(([0.0], np.cumsum(energy)))
    d_min, d_max = int(ch.delays.min()), int(ch.delays.max())
    s_vals = np.arange(w.offset + d_min - L_out + 1, w.offset + n + d_max)
    trace = np.zeros(s_vals.size)
    for d, pi_k in zip(ch.delays, ch.powers):
        lo = np.clip(s_vals - int(d) - w.offset, 0, n)
        hi = np.clip(s_vals - int(d) + L_out - w.offset, 0, n)
        trace += pi_k * (cum[hi] - cum[lo])
    return int(s_vals[int(np.argmax(trace))])


@dataclass(frozen=True)
class _UsefulLayout:
    """What KS takes from the geometry: the gather index (K, L) of each tap's
    row in the pulse zero-padded by L on both sides (row k starts at the tap's
    start clipped to [0, n + L]: a start outside reads only padding either
    way), the tap amplitudes sqrt(pi_k) as a (K, 1) column, and the node phases
    exp(j theta r) / sqrt(G), shape (K or 1, G, L), or their real cos/sin
    pairs on a symmetric spectrum (module docstring)."""

    index: np.ndarray
    amp: np.ndarray
    phase: np.ndarray


@dataclass(frozen=True)
class _TotalLayout:
    """What T takes from the geometry, none of it sized by the lattice shifts.

    With m = ceil(L / Q) comb lags and P = min(N, L) window residues: the
    gather index (m, ceil(n/N), N+1) of the pulse folded by N, entry
    [l, j, r] reading sample j N + r - l Q (column N and every index off the
    pulse read the zero appended to it); the residue (K, P+1) of the folded
    lag products that each tap reads at each window residue, column P
    reading their zero column; the tap weights Q pi_k rho_k(l Q), shape
    (m, 1, K), float64 on a symmetric spectrum; and the gather index
    (Q, m, m) of the comb blocks into the summed products (m, P+1), followed
    for m > 1 by their conjugates, which the upper triangle reads.  Comb
    padding reads the zero of column P."""

    fold: np.ndarray
    residues: np.ndarray
    weight: np.ndarray
    comb: np.ndarray


def _frozen(cls, **fields):
    """cls built from the fields, each array made read-only: a cached layout is shared."""
    for value in fields.values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return cls(**fields)


def _symmetric(nodes: np.ndarray) -> bool:
    """Whether each row of Doppler nodes is its own negative: sorted nodes
    come in exact +- pairs, so every rho_k(r) is real."""
    return np.array_equal(nodes, -nodes[:, ::-1])


@functools.lru_cache(maxsize=_LAYOUTS)
def _useful_layout(ch, L: int, s: int, offset: int, n: int) -> _UsefulLayout:
    nodes = ch.doppler_nodes(L)
    G, r = nodes.shape[1], np.arange(L)
    if _symmetric(nodes):
        # A node pair +-theta adds 2 cos(theta (p - q)) = 2 (cos cos + sin sin) to
        # KS(p, q): the real columns sqrt2 cos and sqrt2 sin give the same C C^H.
        theta = nodes[:, (G + 1) // 2 :, None] * r
        parts = [np.ones((len(nodes), G % 2, L)), math.sqrt(2) * np.cos(theta),
                 math.sqrt(2) * np.sin(theta)]
        phase = np.concatenate(parts, axis=1) / math.sqrt(G)
    else:
        phase = np.exp(1j * nodes[:, :, None] * r) / math.sqrt(G)
    starts = np.clip((s - offset + L) - ch.delays, 0, n + L)
    return _frozen(_UsefulLayout, index=(starts[:, None] + np.arange(L)).astype(np.int32),
                   amp=np.sqrt(ch.powers)[:, None], phase=phase)


@functools.lru_cache(maxsize=_LAYOUTS)
def _total_layout(ch, cfg: LatticeConfig, L: int, s: int, offset: int, n: int) -> _TotalLayout:
    if abs(ch.Ts - cfg.Ts) > 0:
        raise ValueError(f"channel Ts={ch.Ts} disagrees with lattice Ts={cfg.Ts}")
    N, Q = cfg.N, cfg.Q
    m, P = -(-L // Q), min(N, L)
    lags = Q * np.arange(m)
    # Row l of the fold holds the samples l Q before row 0's: their product is lag l Q's.
    r = np.arange(N + 1)
    sample = (N * np.arange(-(-n // N)))[:, None] + r - lags[:, None, None]
    fold = np.where((r < N) & (sample >= 0) & (sample < n), sample, n)
    # Window residue t of tap k reads the products at pulse residue t + s - offset - d_k.
    t = np.arange(P + 1)
    residues = np.where(t < P, (t + (s - offset) - ch.delays[:, None]) % N, N)
    nodes = ch.doppler_nodes(L)
    rho = doppler_correlation(nodes, lags)
    weight = Q * ch.powers[:, None] * (rho.real if _symmetric(nodes) else rho)
    # Entry (a, b) of block c is lag |a - b| at window sample c + max(a, b) Q,
    # conjugated above the diagonal.
    a, b = np.arange(m)[:, None], np.arange(m)
    i = np.arange(Q)[:, None, None] + Q * np.maximum(a, b)
    comb = np.where(i < L, abs(a - b) * (P + 1) + i % N + (a < b) * m * (P + 1), P)
    return _frozen(_TotalLayout, fold=fold.astype(np.int32), residues=residues.astype(np.int32),
                   weight=np.ascontiguousarray(weight.T[:, None, :]),
                   comb=comb.astype(np.int32))


def _samples(w: Waveform) -> np.ndarray:
    """The pulse's samples, read as float64 when their imaginary part is exactly zero."""
    x = w.samples
    return x if x.imag.any() else x.real


def _padded(x: np.ndarray, L: int) -> np.ndarray:
    """Samples x zero-padded by L on both sides, which the KS layout's index reads."""
    padded = np.zeros(len(x) + 2 * L, dtype=x.dtype)
    padded[L : L + len(x)] = x
    return padded


def build_ks(w: Waveform, ch, L_out: int, window_start: int | None = None) -> KernelMatrix:
    """Useful-signal kernel of waveform w on a length-L_out window, as its factor C.

    window_start=None selects the maximum-trace window (see
    :func:`best_window_start`).
    """
    if L_out < 1:
        raise ValueError(f"L_out must be >= 1, got {L_out}")
    s = best_window_start(w, ch, L_out) if window_start is None else int(window_start)
    lay = _useful_layout(ch, L_out, s, w.offset, len(w))
    rows = _padded(_samples(w), L_out).take(lay.index) * lay.amp
    rows = (rows[:, None, :] * lay.phase).reshape(-1, L_out)
    if len(rows) > L_out:  # more columns than samples: Doppler spreads near the sample rate
        rows = np.linalg.qr(rows, mode="r")  # C^T = Q R gives C C^H = R^T conj(R)
    rows.flags.writeable = False
    return KernelMatrix(rows.T, s)


def _total(w: Waveform, ch, cfg: LatticeConfig, ks: KernelMatrix,
           noise: float = 0.0) -> KernelMatrix:
    """T = KS + KI + noise I on the window of ks, as comb blocks: the total over
    lattice shifts, plus noise on the window's samples (not on the padding).
    The lag products A_l of the module docstring are folded onto N residues,
    summed over the taps there, and read into the blocks."""
    L, s = ks.L, ks.window_start
    lay = _total_layout(ch, cfg, L, s, w.offset, len(w))
    folded = np.concatenate((_samples(w), _ZERO)).take(lay.fold)  # (m, ceil(n/N), N+1)
    products = folded.conj()
    products *= folded[0]
    sums = lay.weight @ products.sum(axis=1).take(lay.residues, axis=1)  # (m, 1, P+1)
    if noise:
        sums[0, 0, :-1] += noise
    if len(sums) > 1:
        sums = np.concatenate((sums, sums.conj()))
    blocks = sums.take(lay.comb)
    blocks.flags.writeable = False
    return KernelMatrix(blocks, s, ks.data)


def build_ki(w: Waveform, ch, cfg: LatticeConfig, L_out: int,
             window_start: int | None = None) -> KernelMatrix:
    """Interference kernel: comb-folded total over all lattice shifts, minus KS."""
    return _total(w, ch, cfg, build_ks(w, ch, L_out, window_start))


def build_ks_kin(w: Waveform, ch, cfg: LatticeConfig, L_out: int, snr: float,
                 window_start: int | None = None) -> tuple[KernelMatrix, KernelMatrix]:
    """(KS, KIN) sharing one window — the pair a half-step solver consumes.

    KIN = KI + (||w||^2 / snr) I on the window's samples; snr may be math.inf
    (the zero-noise limit, KIN = KI).
    """
    if not snr > 0:
        raise ValueError(f"snr must be positive, got {snr}")
    ks = build_ks(w, ch, L_out, window_start=window_start)
    return ks, _total(w, ch, cfg, ks, w.energy / snr)
