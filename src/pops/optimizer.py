"""Ping-pong alternating SINR maximization of the waveform pair.

Each half-step maximizes the generalized Rayleigh quotient
x^H KS x / x^H KIN x over one prototype with the other held fixed: the top
eigenpair of KS x = m T x with T = KS + KIN, valued mu = m / (1 - m) (m = 1, an
infinite SIR, for an interference-free x).  With KS = C C^H (C is L x r, see
:mod:`pops.kernels`) the nonzero m are those of the r x r matrix C^H T^-1 C,
whose top eigenvector y gives x = T^-1 C y, T^-1 applied per comb block.

T is whitened by its Cholesky factor, T = R R^H per comb block (padding set to
identity), applied through the batched inverse R^-1: W = R^-1 C gives
C^H T^-1 C = W^H W and x = R^-H W y.  Per half-step that costs O(L m^2) for
the factor and its inverse, O(L m r) for W, O(L r^2) for W^H W and O(r^3) for
its top eigenpair.

The dtype comes from the kernels.  On float64 kernels (a real pulse on a
channel whose Doppler nodes come in +- pairs, see :mod:`pops.kernels`) the
same code runs in real arithmetic, W^T W and LAPACK syevr included, at about a
quarter of the complex flops, and returns a real pulse; so a run from a real
start stays real.  Measured on one BLAS thread of a 2-core x86 machine
(median over 5 processes of the best of 7 x 5 calls, on a real Hermite
pulse), a half-step takes 0.21, 0.50 and 4.7 ms in float64 at L = 160, 768
and 3072 (r = 48, 56, 88), against 0.38, 1.00 and 11.4 ms in complex128.

A T that is singular (e.g. the ideal channel at snr=inf) or within rounding
of it, so that Cholesky fails or leaves a pivot^2 of at most L eps times T's
largest diagonal entry, is solved on its range instead, from the comb blocks'
eigendecomposition.  That loses nothing: null(T) = null(KS) & null(KIN).

The ping solves for the receiver on a window selected once by the
maximum-trace rule and then frozen; the pong reuses the same machinery on the
time-reversed receiver (the time-reversal identity makes both orientations
share one SINR), with the transmit window pinned to the initializer support.
Freezing both windows after the first iteration makes every half-step a true
coordinate ascent, so the recorded SINR trajectory is nondecreasing.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .kernels import KernelMatrix, build_ks_kin, from_comb, to_comb
from .lattice import (
    LatticeConfig,
    Waveform,
    load_waveform_csv,
    make_hermite_init,
    normalized,
    phase_fixed,
    save_waveform_csv,
    time_reverse,
)
from .sinr import power_ratio

__all__ = ["PopsConfig", "PopsResult", "half_step", "run_pops",
           "save_pops_result", "load_pops_result"]


@dataclass(frozen=True)
class PopsConfig:
    """Optimizer settings.  Both half-steps maximize the SINR at `snr` (snr = inf
    designs for the SIR); `init` defaults to the order-0 Hermite Gaussian."""

    epsilon: float = 1e-10
    max_iterations: int = 200
    snr: float = math.inf
    init: Waveform | None = None

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.snr > 0:
            raise ValueError(f"snr must be positive, got {self.snr}")


@dataclass(frozen=True)
class PopsResult:
    tx_opt: Waveform
    rx_opt: Waveform
    sinr_trajectory: tuple  # ((iteration, "ping"|"pong", sinr), ...)
    converged: bool
    iterations_used: int
    warnings: tuple = field(default_factory=tuple)

    @property
    def final_sinr(self) -> float:
        return self.sinr_trajectory[-1][2]


# LAPACK's eigensolvers for an index range, the calls scipy.linalg.eigh makes
# for subset_by_index, without its per-call argument handling: heevr for a
# Hermitian matrix, syevr for a real symmetric one.  Each comes with its
# workspace query and the names of the sizes that query returns.
_get = scipy.linalg.lapack.get_lapack_funcs
_EVR = {
    np.dtype(np.complex128): (*_get(("heevr", "heevr_lwork"), dtype=np.complex128),
                              ("lwork", "lrwork", "liwork")),
    np.dtype(np.float64): (*_get(("syevr", "syevr_lwork"), dtype=np.float64),
                           ("lwork", "liwork")),
}
_EPS = np.finfo(float).eps


@functools.lru_cache(maxsize=64)
def _evr_workspace(n: int, dtype: np.dtype) -> dict[str, int]:
    """The eigensolver's workspace sizes for an n x n matrix of the dtype: queried once per size."""
    _, query, names = _EVR[dtype]
    return {name: int(np.real(size)) for name, size in zip(names, query(n, lower=1))}


def _top_eigenvector(A: np.ndarray) -> np.ndarray:
    """Eigenvector of the largest eigenvalue of the Hermitian (or real symmetric)
    matrix A, read from its lower triangle; real for a float64 A."""
    n = len(A)
    solve = _EVR[A.dtype][0]
    _, v, _, _, info = solve(A, compute_v=1, lower=1, range="I", il=n, iu=n,
                             **_evr_workspace(n, A.dtype))
    if info != 0:
        raise np.linalg.LinAlgError(f"LAPACK ?evr on {A.dtype} failed with info={info}")
    return v[:, 0]


def _whitener(T: np.ndarray, L: int) -> tuple[np.ndarray, int]:
    """(A, rank): per comb block a matrix A with A^H A = T^-1 (the pseudo-inverse
    when T is singular), and the rank of T.

    A = R^-1 for the Cholesky factor T = R R^H, the comb padding set to
    identity.  When a block is not positive definite, or a pivot^2 is at most
    L eps times the largest diagonal entry of T (which stands in for the
    largest eigenvalue, at most m times larger), T is taken on its range:
    A = Lambda^(-1/2) U^H over the eigenvalues above L eps times the largest.
    """
    Q, m = T.shape[:2]
    diag = T.reshape(Q, -1)[:, :: m + 1].real  # (Q, m)
    floor = L * _EPS * diag.max(initial=0.0)
    pad = slice(L - (m - 1) * Q, None)  # the blocks whose last entry is comb padding
    padded = np.array(T)
    padded[pad, -1, -1] = 1.0
    try:
        R = np.linalg.cholesky(padded)
    except np.linalg.LinAlgError:
        pass
    else:
        pivots = R.reshape(Q, -1)[:, :: m + 1].real ** 2
        pivots[pad, -1] = np.inf
        if pivots.min() > floor:
            return np.linalg.inv(R), L
    lam, U = np.linalg.eigh(T)
    keep = lam > L * _EPS * lam.max(initial=0.0)
    scale = np.where(keep, lam, np.inf) ** -0.5  # 0 off the range of T
    return scale[..., None] * U.conj().swapaxes(1, 2), int(keep.sum())


def _gram(W: np.ndarray) -> np.ndarray:
    """W^H W for the rows of the stack W (..., r), without a conjugate copy of W
    (at long pulses a second array of W's size costs more in page faults than
    the product itself); W^T W for a float64 W.

    With W = X + iY, the product of W's real view (columns X_j, Y_j
    interleaved) with itself, read as complex pairs, interleaves the rows of
    X^T W and Y^T W; and W^H W = X^T W - i Y^T W.
    """
    flat = W.reshape(-1, W.shape[-1])
    if flat.dtype == np.float64:
        return flat.T @ flat
    real = flat.view(np.float64)
    G = (real.T @ real).view(np.complex128)
    return G[0::2] - 1j * G[1::2]


def half_step(ks: KernelMatrix, kin: KernelMatrix,
              notes: list[str] | None = None) -> tuple[Waveform, float]:
    """Maximizer of x^H KS x / x^H KIN x and its value (see the module docstring).

    When KS + KIN is singular the solve runs on its range, and a note giving
    the rank is appended to ``notes`` if a list is passed.
    """
    L, C, T = ks.L, ks.data, kin.data
    A, rank = _whitener(T, L)
    # W = A C per block: W^H W = C^H T^-1 C, whose top eigenvector is y.
    W = A @ to_comb(C, len(T))
    y = _top_eigenvector(_gram(W))
    xc = A.conj().swapaxes(1, 2) @ (W @ y)[..., None]  # x = T^-1 C y, (Q, m, 1)
    vec = from_comb(xc[..., 0], L)
    mags = np.abs(vec)
    i = mags.argmax()
    if mags[i] == 0:  # KS = 0 on the window: every x has value 0, take x = e_0
        xc[0, 0] = vec[0] = mags[0] = 1.0
    if rank < L and notes is not None:
        notes.append(f"KS + KIN singular (rank {rank} of {L}); solved on its range")
    # normalized() then phase_fixed(), on the array: unit energy, largest sample real positive.
    turn = vec[i].conjugate() / (mags[i] * math.sqrt((mags * mags).sum()))
    vec, xc = vec * turn, xc * turn  # vec may be a view of xc
    # The value from x's forms as KernelMatrix.forms reads them, x^H T x on the comb.
    v = C.T @ vec.conj()
    ps = np.vdot(v, v).real
    total = np.vdot(xc, T @ xc).real
    return Waveform(vec, offset=ks.window_start), power_ratio(float(ps), float(total - ps))


# One-entry solver table: the benchmark's tracer finds the half-step here.
_SOLVERS = {"half_step": half_step}


def run_pops(cfg: LatticeConfig, ch, pcfg: PopsConfig) -> PopsResult:
    """Alternate receive (ping) and transmit (pong) half-steps until both
    waveform changes fall below epsilon or max_iterations is reached."""
    init = pcfg.init if pcfg.init is not None else make_hermite_init(cfg, [1.0])
    if len(init) != cfg.L_phi:
        raise ValueError(f"init length {len(init)} != Dphi*N = {cfg.L_phi}")
    phi = phase_fixed(normalized(init))
    # Pong window chosen so the reversed solution lands exactly on the
    # initializer support; only relative Tx/Rx placement affects the SINR.
    pong_start = 1 - phi.offset - cfg.L_phi
    psi_window: int | None = None
    psi: Waveform | None = None
    trajectory: list[tuple[int, str, float]] = []
    notes: list[str] = []
    converged = False
    iterations = 0

    for it in range(1, pcfg.max_iterations + 1):
        iterations = it
        # Ping: receiver update.
        ks, kin = build_ks_kin(phi, ch, cfg, cfg.L_psi, pcfg.snr, window_start=psi_window)
        psi_window = ks.window_start
        psi_new, value = half_step(ks, kin, notes)
        trajectory.append((it, "ping", value))
        # Both windows are frozen from here on, so each pulse keeps its support.
        e_psi = math.inf if psi is None else float(np.linalg.norm(psi.samples - psi_new.samples))
        psi = psi_new
        # Pong: transmit update via the time-reversal identity.
        ks, kin = build_ks_kin(time_reverse(psi), ch, cfg, cfg.L_phi, pcfg.snr,
                               window_start=pong_start)
        phi_rev, value = half_step(ks, kin, notes)
        trajectory.append((it, "pong", value))
        # phase_fixed(time_reverse(phi_rev)), on the array; it lands on phi's support.
        samples = phi_rev.samples[::-1]
        pivot = samples[np.argmax(np.abs(samples))]
        phi_new = Waveform(samples * (np.conj(pivot) / abs(pivot)), offset=phi.offset)
        e_phi = float(np.linalg.norm(phi.samples - phi_new.samples))
        phi = phi_new
        if e_psi <= pcfg.epsilon and e_phi <= pcfg.epsilon:
            converged = True
            break

    return PopsResult(
        tx_opt=phi,
        rx_opt=psi,
        sinr_trajectory=tuple(trajectory),
        converged=converged,
        iterations_used=iterations,
        warnings=tuple(dict.fromkeys(notes)),  # each distinct note once
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def save_pops_result(res: PopsResult, out_dir, stem: str = "pops", extra: dict | None = None) -> Path:
    """Write <stem>.json plus the transmit/receive waveform CSVs; returns the JSON path.

    ``extra`` entries (e.g. a scenario hash) are merged into the JSON record;
    unknown keys are ignored on load.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tx_csv = out / f"{stem}_tx.csv"
    rx_csv = out / f"{stem}_rx.csv"
    save_waveform_csv(res.tx_opt, tx_csv)
    save_waveform_csv(res.rx_opt, rx_csv)
    record = {
        **(extra or {}),
        "converged": res.converged,
        "iterations_used": res.iterations_used,
        "final_sinr": res.final_sinr,
        "sinr_trajectory": [[it, half, value] for (it, half, value) in res.sinr_trajectory],
        "warnings": list(res.warnings),
        "tx_csv": tx_csv.name,
        "rx_csv": rx_csv.name,
    }
    path = out / f"{stem}.json"
    path.write_text(json.dumps(record, indent=2, allow_nan=True) + "\n")
    return path


def load_pops_result(json_path) -> PopsResult:
    path = Path(json_path)
    record = json.loads(path.read_text())
    tx = load_waveform_csv(path.parent / record["tx_csv"])
    rx = load_waveform_csv(path.parent / record["rx_csv"])
    return PopsResult(
        tx_opt=tx,
        rx_opt=rx,
        sinr_trajectory=tuple((it, half, value) for it, half, value in record["sinr_trajectory"]),
        converged=record["converged"],
        iterations_used=record["iterations_used"],
        warnings=tuple(record["warnings"]),
    )
