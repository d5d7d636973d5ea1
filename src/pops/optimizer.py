"""Ping-pong alternating SINR maximization of the waveform pair.

Each half-step maximizes the generalized Rayleigh quotient
x^H KS x / x^H KIN x over one prototype with the other held fixed.  The
maximizer is the top eigenvector of the Hermitian-definite problem
KS x = m T x with T = KS + KIN, whose value is mu = m / (1 - m); T stays
positive definite when KIN alone is singular (snr=inf), so an
interference-free direction simply reaches m = 1, an infinite SIR.  When T
itself is singular (e.g. the ideal channel at snr=inf) the problem is solved
on the range of T, which loses nothing: null(T) = null(KS) & null(KIN).

The ping solves for the receiver on a window selected once by the
maximum-trace rule and then frozen; the pong reuses the same machinery on the
time-reversed receiver (the time-reversal identity makes both orientations
share one SINR), with the transmit window pinned to the initializer support.
Freezing both windows after the first iteration makes every half-step a true
coordinate ascent, so the recorded SINR trajectory is nondecreasing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .kernels import KernelMatrix, build_ks_kin
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

__all__ = [
    "PopsConfig",
    "PopsResult",
    "half_step",
    "run_pops",
    "save_pops_result",
    "load_pops_result",
]

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class PopsConfig:
    """Optimizer settings; `init` defaults to the order-0 Hermite Gaussian."""

    epsilon: float = 1e-10
    max_iterations: int = 200
    snr: float = math.inf
    init: Waveform | None = None
    paper_literal_gep: bool = False

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


def _quotient(ks: KernelMatrix, kin: KernelMatrix, x: np.ndarray) -> float:
    """x^H KS x / x^H KIN x for unit-norm x.

    Interference below the rounding level of the quadratic form,
    L * eps * trace(KIN), reads as zero: an infinite SIR.
    """
    num = float(np.real(np.vdot(x, ks.data @ x)))
    den = float(np.real(np.vdot(x, kin.data @ x)))
    floor = ks.L * _EPS * float(np.real(np.trace(kin.data)))
    return num / den if den > floor else math.inf


def _package(vec: np.ndarray, ks: KernelMatrix, kin: KernelMatrix) -> tuple[Waveform, float]:
    w = phase_fixed(normalized(Waveform(vec, offset=ks.window_start)))
    return w, _quotient(ks, kin, w.samples)


def half_step(ks: KernelMatrix, kin: KernelMatrix,
              notes: list[str] | None = None) -> tuple[Waveform, float]:
    """Maximizer of x^H KS x / x^H KIN x and its value (see the module docstring).

    When KS + KIN is singular the solve runs on its range, and a note giving
    the rank is appended to ``notes`` if a list is passed.
    """
    L = ks.L
    t = ks.data + kin.data
    try:
        _, vecs = scipy.linalg.eigh(ks.data, t, subset_by_index=[L - 1, L - 1])
        vec = vecs[:, 0]
    except np.linalg.LinAlgError:  # the Cholesky factorization of a singular T
        lam, U = np.linalg.eigh(t)
        keep = lam > L * _EPS * lam[-1]
        white = U[:, keep] / np.sqrt(lam[keep])
        _, vecs = np.linalg.eigh(white.conj().T @ ks.data @ white)
        vec = white @ vecs[:, -1]
        if notes is not None:
            notes.append(f"KS + KIN singular (rank {int(keep.sum())} of {L}); "
                         "solved on its range")
    return _package(vec, ks, kin)


# One-entry solver table: the benchmark's tracer finds the half-step here.
_SOLVERS = {"half_step": half_step}


def _diff_norm(a: Waveform | None, b: Waveform) -> float:
    if a is None:
        return math.inf
    lo = min(a.offset, b.offset)
    hi = max(a.end, b.end)
    return float(np.linalg.norm(a.dense(lo, hi - lo) - b.dense(lo, hi - lo)))


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

    # The literal form of the GEP listing divides by the bare interference
    # kernel, which is exactly the snr=inf denominator.
    den_snr = math.inf if pcfg.paper_literal_gep else pcfg.snr

    for it in range(1, pcfg.max_iterations + 1):
        iterations = it
        # Ping: receiver update.
        ks, kin = build_ks_kin(phi, ch, cfg, cfg.L_psi, den_snr,
                               window_start=psi_window, label="tx")
        psi_window = ks.window_start
        psi_new, value = half_step(ks, kin, notes)
        trajectory.append((it, "ping", value))
        e_psi = _diff_norm(psi, psi_new)
        psi = psi_new
        # Pong: transmit update via the time-reversal identity.
        ks, kin = build_ks_kin(time_reverse(psi), ch, cfg, cfg.L_phi, den_snr,
                               window_start=pong_start, label="rx-reversed")
        phi_rev, value = half_step(ks, kin, notes)
        phi_new = phase_fixed(time_reverse(phi_rev))
        trajectory.append((it, "pong", value))
        e_phi = _diff_norm(phi, phi_new)
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
