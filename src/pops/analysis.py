"""Experiment families: PSD/OOB, robustness sweeps, initialization studies.

Every experiment returns a :class:`SweepResult`: an axis, one or more named
series over that axis, and a metadata snapshot sufficient to re-run the sweep
(``rerun_from_metadata``).  Serialization is CSV (one row per axis value, full
double precision) plus a JSON sidecar holding the metadata; the CSV bytes are
deterministic, timestamps live only in the sidecar.

Series store linear power ratios (SINR/SIR), not dB; conversion to dB is
presentation, and keeping ratios makes cross-checks against the engine and
the closed forms exact.  PSD series are the exception: they are genuinely
logarithmic objects and are stored in dB normalized to a 0 dB peak.

Sweep points are independent; set the environment variable ``POPS_THREADS``
to evaluate them concurrently (row order follows the axis regardless).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bound import SingularInterferenceError, build_kronecker_system, upper_bound
from .channel import PathList, SeparableChannel
from .lattice import LatticeConfig, Waveform, make_conventional_rx, make_conventional_tx, modulate, shift
from .optimizer import PopsConfig, PopsResult, run_pops
from .sinr import sinr, sinr_conventional

__all__ = [
    "SweepResult",
    "psd",
    "oob_level_db",
    "oob_power_fraction",
    "sweep_ft",
    "sweep_doppler_delay",
    "sweep_time_sync",
    "sweep_freq_sync",
    "sweep_mismatch",
    "initialization_study",
    "write_sweep_csv",
    "read_sweep_csv",
    "rerun_from_metadata",
]


@dataclass(frozen=True)
class SweepResult:
    """One experiment's tabular outcome.

    Attributes
    ----------
    axis_name : str
        Name of the swept quantity (first CSV column).
    axis_values : ndarray
        Real axis values, one per row.
    series : dict[str, ndarray]
        Named series, each the same length as the axis.
    metadata : dict
        JSON-serializable snapshot of everything that produced the numbers.
    """

    axis_name: str
    axis_values: np.ndarray
    series: dict[str, np.ndarray]
    metadata: dict

    def __post_init__(self) -> None:
        axis = np.asarray(self.axis_values, dtype=np.float64)
        object.__setattr__(self, "axis_values", axis)
        fixed = {}
        for name, values in self.series.items():
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != axis.shape:
                raise ValueError(
                    f"series {name!r} has length {arr.size}, axis has {axis.size}"
                )
            fixed[name] = arr
        object.__setattr__(self, "series", fixed)


# ---------------------------------------------------------------------------
# serialization helpers (also used by the CLI)


def config_to_dict(cfg: LatticeConfig) -> dict:
    return {"N": cfg.N, "Q": cfg.Q, "Ts": cfg.Ts, "Dphi": cfg.Dphi, "Dpsi": cfg.Dpsi}


def config_from_dict(d: dict) -> LatticeConfig:
    return LatticeConfig(N=d["N"], Q=d["Q"], Ts=d["Ts"], Dphi=d["Dphi"], Dpsi=d["Dpsi"])


def channel_to_dict(ch: PathList | SeparableChannel) -> dict:
    if isinstance(ch, SeparableChannel):
        return {
            "kind": "separable",
            "K": ch.K,
            "b": ch.b,
            "delays": [int(d) for d in ch.delays],
            "Bd": ch.Bd,
            "Ts": ch.Ts,
        }
    return {
        "kind": "paths",
        "delays": [int(d) for d in ch.delays],
        "dopplers": [float(v) for v in ch.dopplers],
        "powers": [float(p) for p in ch.powers],
        "Ts": ch.Ts,
    }


def channel_from_dict(d: dict) -> PathList | SeparableChannel:
    if d["kind"] == "separable":
        return SeparableChannel(
            K=d["K"], b=d["b"], delays=tuple(d["delays"]), Bd=d["Bd"], Ts=d["Ts"]
        )
    if d["kind"] == "paths":
        return PathList(
            delays=np.array(d["delays"], dtype=np.int64),
            dopplers=np.array(d["dopplers"], dtype=np.float64),
            powers=np.array(d["powers"], dtype=np.float64),
            Ts=d["Ts"],
        )
    raise ValueError(f"unknown channel kind {d['kind']!r}")


def waveform_to_dict(w: Waveform) -> dict:
    return {
        "offset": w.offset,
        "re": [float(x) for x in w.samples.real],
        "im": [float(x) for x in w.samples.imag],
    }


def waveform_from_dict(d: dict) -> Waveform:
    samples = np.asarray(d["re"], dtype=np.float64) + 1j * np.asarray(d["im"], dtype=np.float64)
    return Waveform(samples=samples, offset=d["offset"])


def pops_to_dict(pcfg: PopsConfig) -> dict:
    d = {
        "epsilon": pcfg.epsilon,
        "max_iterations": pcfg.max_iterations,
        "snr": "inf" if math.isinf(pcfg.snr) else pcfg.snr,
        "paper_literal_gep": pcfg.paper_literal_gep,
    }
    if pcfg.init is not None:
        d["init"] = waveform_to_dict(pcfg.init)
    return d


def pops_from_dict(d: dict) -> PopsConfig:
    """Inverse of pops_to_dict; other keys, such as the retired ``approach``
    of older sidecars, are ignored."""
    init = waveform_from_dict(d["init"]) if "init" in d else None
    snr = d["snr"]
    return PopsConfig(
        epsilon=d["epsilon"],
        max_iterations=d["max_iterations"],
        snr=math.inf if snr == "inf" else float(snr),
        init=init,
        paper_literal_gep=d["paper_literal_gep"],
    )


def _snr_token(snr: float) -> float | str:
    return "inf" if math.isinf(snr) else float(snr)


def _snr_value(token) -> float:
    return math.inf if token == "inf" else float(token)


def _map_points(fn, items):
    """Evaluate fn over items, optionally in parallel, preserving order."""
    workers = int(os.environ.get("POPS_THREADS", "1"))
    if workers > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _resolve_pops(pops: PopsConfig | None, snr: float) -> PopsConfig:
    if pops is None:
        return PopsConfig(snr=snr, max_iterations=100)
    return dataclasses.replace(pops, snr=snr)


# ---------------------------------------------------------------------------
# power spectral density


def psd(
    w: Waveform,
    cfg: LatticeConfig,
    oversample: int = 16,
    n_subcarriers: int = 1,
) -> SweepResult:
    """Normalized power spectral density of a prototype waveform.

    The waveform is zero-padded to ``oversample * len(w)`` points; the axis is
    frequency in units of the subcarrier spacing ``F = 1/(Q Ts)``, fftshifted
    to be increasing.  For ``n_subcarriers > 1`` the single-pulse PSD is
    replicated at the subcarrier spacing and summed (the aggregate spectrum of
    a fully loaded symbol), with the block centered on zero to within half a
    subcarrier.  The returned series ``psd_db`` is normalized so the peak is
    exactly 0 dB; exact spectral nulls appear as ``-inf``.
    """
    if oversample < 2:
        raise ValueError(f"oversample must be >= 2, got {oversample}")
    if n_subcarriers < 1:
        raise ValueError(f"n_subcarriers must be >= 1, got {n_subcarriers}")
    length = w.samples.size
    m_bins = oversample * length
    power = np.abs(np.fft.fft(w.samples, m_bins)) ** 2
    if n_subcarriers > 1:
        bins_per_f = int(round(m_bins / cfg.Q))
        total = np.zeros_like(power)
        for m in range(n_subcarriers):
            total += np.roll(power, (m - n_subcarriers // 2) * bins_per_f)
        power = total
    power = np.fft.fftshift(power)
    axis = np.fft.fftshift(np.fft.fftfreq(m_bins)) * cfg.Q
    with np.errstate(divide="ignore"):
        psd_db = 10.0 * np.log10(power / power.max())
    return SweepResult(
        axis_name="frequency_in_F",
        axis_values=axis,
        series={"psd_db": psd_db},
        metadata={
            "sweep": "psd",
            "waveform": waveform_to_dict(w),
            "cfg": config_to_dict(cfg),
            "oversample": oversample,
            "n_subcarriers": n_subcarriers,
        },
    )


def oob_level_db(result: SweepResult, min_offset_f: float = 2.0) -> float:
    """Worst (maximum) PSD level at frequency offsets >= min_offset_f.

    The maximum over the tail is the emission envelope level; pointwise
    comparisons are meaningless next to spectral nulls.
    """
    mask = np.abs(result.axis_values) >= min_offset_f
    if not np.any(mask):
        raise ValueError(f"no PSD samples at offsets >= {min_offset_f} F")
    return float(result.series["psd_db"][mask].max())


def oob_power_fraction(
    w: Waveform,
    cfg: LatticeConfig,
    oversample: int = 16,
    band_halfwidth_f: float = 1.0,
) -> float:
    """Fraction of the waveform's total power radiated beyond +-band_halfwidth_f.

    Computed from the raw (unnormalized) oversampled periodogram, so it is a
    genuine power ratio in [0, 1].
    """
    m_bins = oversample * w.samples.size
    power = np.abs(np.fft.fft(w.samples, m_bins)) ** 2
    freqs = np.fft.fftfreq(m_bins) * cfg.Q
    out = power[np.abs(freqs) > band_halfwidth_f].sum()
    return float(out / power.sum())


# ---------------------------------------------------------------------------
# sweeps


def sweep_ft(
    cfg: LatticeConfig,
    ch: PathList | SeparableChannel,
    ft_values,
    durations=((1, 1),),
    snr: float = math.inf,
    pops: PopsConfig | None = None,
) -> SweepResult:
    """SINR of POPS (per duration pair) and conventional OFDM versus FT = N/Q.

    Each FT value must be representable as N/Q with the configured Q; values
    that are not are recorded as NaN rows and listed in
    ``metadata["warnings"]``.  Duration pairs are (D_phi, D_psi) in units of
    the symbol duration T.  Any initializer on ``pops`` is dropped: supports
    change with N, so each point uses the optimizer's default initializer.
    """
    pcfg = dataclasses.replace(_resolve_pops(pops, snr), init=None)
    ft_values = [float(v) for v in ft_values]
    durations = [(int(a), int(b)) for a, b in durations]
    warnings: list[str] = []

    def point(ft: float):
        n_float = ft * cfg.Q
        n_int = round(n_float)
        if abs(n_float - n_int) > 1e-9 or n_int < cfg.Q:
            return None
        row = {}
        for dphi, dpsi in durations:
            cfg_pt = LatticeConfig(N=n_int, Q=cfg.Q, Ts=cfg.Ts, Dphi=dphi, Dpsi=dpsi)
            res = run_pops(cfg_pt, ch, pcfg)
            row[(dphi, dpsi)] = res.final_sinr
        cfg_cv = LatticeConfig(N=n_int, Q=cfg.Q, Ts=cfg.Ts)
        row["conventional"] = sinr_conventional(cfg_cv, ch, snr).sinr
        return row

    rows = _map_points(point, ft_values)
    series: dict[str, list[float]] = {
        f"pops_dphi{a}_dpsi{b}": [] for a, b in durations
    }
    series["conventional"] = []
    for ft, row in zip(ft_values, rows):
        if row is None:
            warnings.append(f"FT={ft:g} is not representable as N/{cfg.Q}; row skipped")
            for key in series:
                series[key].append(math.nan)
            continue
        for a, b in durations:
            series[f"pops_dphi{a}_dpsi{b}"].append(row[(a, b)])
        series["conventional"].append(row["conventional"])
    return SweepResult(
        axis_name="ft",
        axis_values=np.array(ft_values),
        series={k: np.array(v) for k, v in series.items()},
        metadata={
            "sweep": "ft",
            "cfg": config_to_dict(cfg),
            "channel": channel_to_dict(ch),
            "ft_values": ft_values,
            "durations": [list(d) for d in durations],
            "snr": _snr_token(snr),
            "pops": pops_to_dict(pcfg),
            "warnings": warnings,
        },
    )


def sweep_doppler_delay(
    cfg: LatticeConfig,
    spread_product: float,
    grid,
    cp_samples=(8, 32),
    snr: float = math.inf,
    pops: PopsConfig | None = None,
    K: int = 8,
    b: float = 0.5,
) -> SweepResult:
    """Balance a fixed spread factor B_d T_m between Doppler and delay.

    The axis is the Doppler spread as a fraction of the subcarrier spacing,
    ``Bd/F``; each point uses ``Bd Ts = (Bd/F)/Q`` and a delay spread
    ``Tm = spread_product / (Bd Ts)`` samples carrying K exponentially decayed
    paths.  POPS runs on ``cfg``; the conventional baselines use N = Q + CP
    for each CP in ``cp_samples``.
    """
    if not spread_product > 0.0:
        raise ValueError(f"spread_product must be positive, got {spread_product}")
    pcfg = _resolve_pops(pops, snr)
    grid = [float(g) for g in grid]

    def channel_for(bd_over_f: float) -> SeparableChannel:
        bd_ts = bd_over_f / cfg.Q
        tm = spread_product / bd_ts
        return SeparableChannel.with_uniform_delays(
            K=K, b=b, max_delay=max(1, round(tm)), Bd=bd_ts / cfg.Ts, Ts=cfg.Ts
        )

    def point(bd_over_f: float):
        ch = channel_for(bd_over_f)
        row = {"pops": run_pops(cfg, ch, pcfg).final_sinr}
        for cp in cp_samples:
            cfg_cv = LatticeConfig(N=cfg.Q + cp, Q=cfg.Q, Ts=cfg.Ts)
            row[f"conventional_cp{cp}"] = sinr_conventional(cfg_cv, ch, snr).sinr
        return row

    rows = _map_points(point, grid)
    names = ["pops"] + [f"conventional_cp{cp}" for cp in cp_samples]
    return SweepResult(
        axis_name="bd_over_f",
        axis_values=np.array(grid),
        series={name: np.array([r[name] for r in rows]) for name in names},
        metadata={
            "sweep": "doppler-delay",
            "cfg": config_to_dict(cfg),
            "spread_product": spread_product,
            "grid": grid,
            "cp_samples": [int(c) for c in cp_samples],
            "snr": _snr_token(snr),
            "pops": pops_to_dict(pcfg),
            "K": K,
            "b": b,
        },
    )


def _sync_sweep(
    kind: str,
    result: PopsResult,
    ch: PathList | SeparableChannel,
    cfg: LatticeConfig,
    values,
    snr: float,
    cp_baselines,
) -> SweepResult:
    values = [float(v) for v in values]

    def perturbed(rx: Waveform, q: int, v: float) -> Waveform:
        if kind == "time-sync":
            return shift(rx, int(round(v)))
        return modulate(rx, v, q)

    def point(v: float):
        row = {
            "pops": sinr(result.tx_opt, perturbed(result.rx_opt, cfg.Q, v), ch, cfg, snr).sinr
        }
        for cp in cp_baselines:
            cfg_cv = LatticeConfig(N=cfg.Q + cp, Q=cfg.Q, Ts=cfg.Ts)
            tx_cv, rx_cv = make_conventional_tx(cfg_cv), make_conventional_rx(cfg_cv)
            row[f"conventional_cp{cp}"] = sinr(
                tx_cv, perturbed(rx_cv, cfg_cv.Q, v), ch, cfg_cv, snr
            ).sinr
        return row

    rows = _map_points(point, values)
    names = ["pops"] + [f"conventional_cp{cp}" for cp in cp_baselines]
    axis_name = "tau_samples" if kind == "time-sync" else "dfreq_in_F"
    return SweepResult(
        axis_name=axis_name,
        axis_values=np.array(values),
        series={name: np.array([r[name] for r in rows]) for name in names},
        metadata={
            "sweep": kind,
            "cfg": config_to_dict(cfg),
            "channel": channel_to_dict(ch),
            "values": values,
            "cp_baselines": [int(c) for c in cp_baselines],
            "snr": _snr_token(snr),
            "tx_opt": waveform_to_dict(result.tx_opt),
            "rx_opt": waveform_to_dict(result.rx_opt),
        },
    )


def sweep_time_sync(
    result: PopsResult,
    ch: PathList | SeparableChannel,
    cfg: LatticeConfig,
    tau_values,
    snr: float = math.inf,
    cp_baselines=(16, 32),
) -> SweepResult:
    """SINR under a receive-side timing error of tau samples, no reoptimization.

    Evaluates ``sinr(tx_opt, shift(rx_opt, tau))`` per tau, with conventional
    pairs at N = Q + CP perturbed identically as baselines.
    """
    return _sync_sweep("time-sync", result, ch, cfg, tau_values, snr, cp_baselines)


def sweep_freq_sync(
    result: PopsResult,
    ch: PathList | SeparableChannel,
    cfg: LatticeConfig,
    dfreq_values,
    snr: float = math.inf,
    cp_baselines=(16, 32),
) -> SweepResult:
    """SINR under a carrier frequency offset given as a fraction of F.

    The offset is applied as the per-sample phase ramp exp(2j pi df q / Q) on
    the receive prototype (a fractional subcarrier modulation), again without
    reoptimization.
    """
    return _sync_sweep("freq-sync", result, ch, cfg, dfreq_values, snr, cp_baselines)


def sweep_mismatch(
    cfg: LatticeConfig,
    optimize_at,
    evaluate_over,
    snr: float = math.inf,
    pops: PopsConfig | None = None,
    K: int = 8,
    b: float = 0.5,
) -> SweepResult:
    """Sensitivity to an erroneous design spread factor.

    For each value in ``optimize_at``, POPS is run once on the channel built
    for that spread factor; the resulting fixed pair is then evaluated on the
    channels of every ``evaluate_over`` point.  One series per design point.
    """
    pcfg = _resolve_pops(pops, snr)
    optimize_at = [float(v) for v in optimize_at]
    evaluate_over = [float(v) for v in evaluate_over]
    if not optimize_at or not evaluate_over:
        raise ValueError("optimize_at and evaluate_over must be nonempty")

    designs = _map_points(
        lambda v: run_pops(cfg, SeparableChannel.from_spread_product(cfg, v, K=K, b=b), pcfg),
        optimize_at,
    )
    eval_channels = [
        SeparableChannel.from_spread_product(cfg, v, K=K, b=b) for v in evaluate_over
    ]
    series = {}
    for v, res in zip(optimize_at, designs):
        vals = _map_points(
            lambda ch: sinr(res.tx_opt, res.rx_opt, ch, cfg, snr).sinr, eval_channels
        )
        series[f"optimized_at_{v:g}"] = np.array(vals)
    return SweepResult(
        axis_name="spread_product",
        axis_values=np.array(evaluate_over),
        series=series,
        metadata={
            "sweep": "mismatch",
            "cfg": config_to_dict(cfg),
            "optimize_at": optimize_at,
            "evaluate_over": evaluate_over,
            "snr": _snr_token(snr),
            "pops": pops_to_dict(pcfg),
            "K": K,
            "b": b,
        },
    )


def initialization_study(
    cfg: LatticeConfig,
    ch: PathList | SeparableChannel,
    snr: float,
    inits,
    pops: PopsConfig | None = None,
    bound_max_dimension: int = 4096,
) -> SweepResult:
    """Final SINR per named initialization, with bound and baseline.

    ``inits`` is a sequence of (name, Waveform) pairs (at least two).  The
    ``upper_bound`` and ``conventional`` series are constant; the bound is NaN
    when the Kronecker dimension exceeds ``bound_max_dimension`` or the SIR
    bound is infinite, with the reason recorded in ``metadata["warnings"]``.
    """
    inits = list(inits)
    if len(inits) < 2:
        raise ValueError("need at least two initializations to compare")
    pcfg = _resolve_pops(pops, snr)
    warnings: list[str] = []

    finals = _map_points(
        lambda nw: run_pops(cfg, ch, dataclasses.replace(pcfg, init=nw[1])).final_sinr,
        inits,
    )
    conventional = sinr_conventional(cfg, ch, snr).sinr
    paths = ch.to_pathlist() if isinstance(ch, SeparableChannel) else ch
    try:
        sys_ = build_kronecker_system(cfg, paths, max_dimension=bound_max_dimension)
        bound_value = upper_bound(sys_, snr)
    except (ValueError, SingularInterferenceError) as exc:
        warnings.append(f"upper bound unavailable: {exc}")
        bound_value = math.nan

    n = len(inits)
    return SweepResult(
        axis_name="initialization_index",
        axis_values=np.arange(n, dtype=np.float64),
        series={
            "sinr": np.array(finals),
            "upper_bound": np.full(n, bound_value),
            "conventional": np.full(n, conventional),
        },
        metadata={
            "sweep": "init-study",
            "cfg": config_to_dict(cfg),
            "channel": channel_to_dict(ch),
            "snr": _snr_token(snr),
            "pops": pops_to_dict(pcfg),
            "inits": {name: waveform_to_dict(w) for name, w in inits},
            "bound_max_dimension": bound_max_dimension,
            "warnings": warnings,
        },
    )


# ---------------------------------------------------------------------------
# persistence and replay


def write_sweep_csv(result: SweepResult, path: str | Path, scenario_hash: str | None = None) -> None:
    """Write the sweep as CSV plus a JSON metadata sidecar.

    The CSV is deterministic for identical results: optional scenario-hash
    comment, header row, then one row per axis value at full double
    precision.  The sidecar (``<path>.meta.json``) carries the metadata and
    the only timestamp.
    """
    path = Path(path)
    names = list(result.series)
    lines = []
    if scenario_hash is not None:
        lines.append(f"# scenario={scenario_hash}")
    lines.append(",".join([result.axis_name] + names))
    for i, x in enumerate(result.axis_values):
        row = [f"{x:.17g}"] + [f"{result.series[n][i]:.17g}" for n in names]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "written_at": datetime.now(timezone.utc).isoformat(),
        "scenario_hash": scenario_hash,
        "metadata": result.metadata,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def read_sweep_csv(path: str | Path) -> SweepResult:
    """Read back a sweep written by :func:`write_sweep_csv`."""
    path = Path(path)
    rows = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    header = rows[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in rows[1:]])
    if data.size == 0:
        data = data.reshape(0, len(header))
    sidecar_path = Path(str(path) + ".meta.json")
    metadata = {}
    if sidecar_path.exists():
        metadata = json.loads(sidecar_path.read_text())["metadata"]
    return SweepResult(
        axis_name=header[0],
        axis_values=data[:, 0],
        series={name: data[:, 1 + i] for i, name in enumerate(header[1:])},
        metadata=metadata,
    )


def rerun_from_metadata(metadata: dict) -> SweepResult:
    """Re-execute a sweep from its serialized metadata snapshot.

    The returned result carries the same numbers as the original run; this is
    the package's reproducibility contract for analysis artifacts.
    """
    kind = metadata["sweep"]
    if kind == "psd":
        return psd(
            waveform_from_dict(metadata["waveform"]),
            config_from_dict(metadata["cfg"]),
            oversample=metadata["oversample"],
            n_subcarriers=metadata["n_subcarriers"],
        )
    if kind == "ft":
        return sweep_ft(
            config_from_dict(metadata["cfg"]),
            channel_from_dict(metadata["channel"]),
            metadata["ft_values"],
            durations=[tuple(d) for d in metadata["durations"]],
            snr=_snr_value(metadata["snr"]),
            pops=pops_from_dict(metadata["pops"]),
        )
    if kind == "doppler-delay":
        return sweep_doppler_delay(
            config_from_dict(metadata["cfg"]),
            metadata["spread_product"],
            metadata["grid"],
            cp_samples=tuple(metadata["cp_samples"]),
            snr=_snr_value(metadata["snr"]),
            pops=pops_from_dict(metadata["pops"]),
            K=metadata["K"],
            b=metadata["b"],
        )
    if kind in ("time-sync", "freq-sync"):
        stub = PopsResult(
            tx_opt=waveform_from_dict(metadata["tx_opt"]),
            rx_opt=waveform_from_dict(metadata["rx_opt"]),
            sinr_trajectory=(),
            converged=True,
            iterations_used=0,
            warnings=(),
        )
        fn = sweep_time_sync if kind == "time-sync" else sweep_freq_sync
        return fn(
            stub,
            channel_from_dict(metadata["channel"]),
            config_from_dict(metadata["cfg"]),
            metadata["values"],
            snr=_snr_value(metadata["snr"]),
            cp_baselines=tuple(metadata["cp_baselines"]),
        )
    if kind == "mismatch":
        return sweep_mismatch(
            config_from_dict(metadata["cfg"]),
            metadata["optimize_at"],
            metadata["evaluate_over"],
            snr=_snr_value(metadata["snr"]),
            pops=pops_from_dict(metadata["pops"]),
            K=metadata["K"],
            b=metadata["b"],
        )
    if kind == "init-study":
        return initialization_study(
            config_from_dict(metadata["cfg"]),
            channel_from_dict(metadata["channel"]),
            _snr_value(metadata["snr"]),
            [(name, waveform_from_dict(d)) for name, d in metadata["inits"].items()],
            pops=pops_from_dict(metadata["pops"]),
            bound_max_dimension=metadata["bound_max_dimension"],
        )
    raise ValueError(f"unknown sweep kind {kind!r}")
