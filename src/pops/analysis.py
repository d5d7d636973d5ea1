"""Experiment families: PSD/OOB, robustness sweeps, initialization studies.

Every experiment returns a :class:`SweepResult`: an axis, one or more named
series over that axis, and a metadata snapshot sufficient to re-run the sweep.
The metadata is the sweep's inputs passed through :func:`pops.codec.encode`;
``rerun_from_metadata`` decodes them with :func:`pops.codec.decode` and calls
the sweep again.  Serialization is CSV (one row per axis value, full double
precision) plus a JSON sidecar holding the metadata; the CSV bytes are
deterministic, timestamps live only in the sidecar.

Series store linear power ratios (SINR/SIR), not dB; conversion to dB is
presentation, and keeping ratios makes cross-checks against the engine and
the closed forms exact.  PSD series are the exception: they are genuinely
logarithmic objects and are stored in dB normalized to a 0 dB peak.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bound import SingularInterferenceError, build_kronecker_system, upper_bound
from .channel import PathList, SeparableChannel
from .codec import Channel, decode, encode
from .kernels import _samples
from .lattice import LatticeConfig, Waveform, make_conventional_rx, make_conventional_tx
from .optimizer import PopsConfig, PopsResult, run_pops
from .sinr import _received, _sinrs, sinr, sinr_conventional

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

    The waveform is zero-padded to ``oversample * len(w)`` points, rounded up
    to a multiple of Q so that every subcarrier falls on a bin; the axis is
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
    bins_per_f = -(-oversample * w.samples.size // cfg.Q)
    m_bins = bins_per_f * cfg.Q
    power = np.abs(np.fft.fft(w.samples, m_bins)) ** 2
    if n_subcarriers > 1:
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
        metadata=encode({
            "sweep": "psd",
            "waveform": w,
            "cfg": cfg,
            "oversample": oversample,
            "n_subcarriers": n_subcarriers,
        }),
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


def oob_power_fraction(w: Waveform, cfg: LatticeConfig, band_halfwidth_f: float = 1.0) -> float:
    """Fraction of the waveform's total power radiated beyond +-band_halfwidth_f.

    Exact: 1 - x^H P_B x / ||x||^2, with P_B the prolate matrix of the band
    |f| <= beta = band_halfwidth_f / Q cycles per sample, whose entry at lag d
    is 2 beta sinc(2 beta d) (Slepian).  The form is read through the pulse's
    autocorrelation, so it needs no frequency grid.  A band of beta >= 1/2
    holds the whole spectrum and gives 0.
    """
    if not band_halfwidth_f >= 0.0:
        raise ValueError(f"band_halfwidth_f must be nonnegative, got {band_halfwidth_f}")
    energy = w.energy
    if energy == 0:
        raise ValueError("waveform must have nonzero energy")
    beta = band_halfwidth_f / cfg.Q
    if beta >= 0.5:
        return 0.0
    x = w.samples
    lags = np.arange(1 - x.size, x.size)
    inband = np.dot(np.correlate(x, x, "full").real, 2.0 * beta * np.sinc(2.0 * beta * lags))
    return float(min(max(1.0 - inband / energy, 0.0), 1.0))


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
    the symbol duration T; a repeated pair gives one column.  Any initializer
    on ``pops`` is dropped: supports change with N, so each point uses the
    optimizer's default initializer.
    """
    pcfg = dataclasses.replace(_resolve_pops(pops, snr), init=None)
    ft_values = [float(v) for v in ft_values]
    durations = list(dict.fromkeys((int(a), int(b)) for a, b in durations))
    warnings: list[str] = []
    series: dict[str, list[float]] = {
        f"pops_dphi{a}_dpsi{b}": [] for a, b in durations
    }
    series["conventional"] = []
    for ft in ft_values:
        n_float = ft * cfg.Q
        n_int = round(n_float)
        if abs(n_float - n_int) > 1e-9 or n_int < cfg.Q:
            warnings.append(f"FT={ft:g} is not representable as N/{cfg.Q}; row skipped")
            for values in series.values():
                values.append(math.nan)
            continue
        for a, b in durations:
            cfg_pt = LatticeConfig(N=n_int, Q=cfg.Q, Ts=cfg.Ts, Dphi=a, Dpsi=b)
            series[f"pops_dphi{a}_dpsi{b}"].append(run_pops(cfg_pt, ch, pcfg).final_sinr)
        cfg_cv = LatticeConfig(N=n_int, Q=cfg.Q, Ts=cfg.Ts)
        series["conventional"].append(sinr_conventional(cfg_cv, ch, snr).sinr)
    return SweepResult(
        axis_name="ft",
        axis_values=np.array(ft_values),
        series={k: np.array(v) for k, v in series.items()},
        metadata=encode({
            "sweep": "ft",
            "cfg": cfg,
            "channel": ch,
            "ft_values": ft_values,
            "durations": durations,
            "snr": snr,
            "pops": pcfg,
            "warnings": warnings,
        }),
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

    # One column per distinct name: a repeated CP gives one baseline.
    baselines = {f"conventional_cp{cp}": LatticeConfig(N=cfg.Q + cp, Q=cfg.Q, Ts=cfg.Ts)
                 for cp in cp_samples}
    series: dict[str, list[float]] = {name: [] for name in ["pops", *baselines]}
    for g in grid:
        ch = channel_for(g)
        series["pops"].append(run_pops(cfg, ch, pcfg).final_sinr)
        for name, cfg_cv in baselines.items():
            series[name].append(sinr_conventional(cfg_cv, ch, snr).sinr)
    return SweepResult(
        axis_name="bd_over_f",
        axis_values=np.array(grid),
        series=series,
        metadata=encode({
            "sweep": "doppler-delay",
            "cfg": cfg,
            "spread_product": spread_product,
            "grid": grid,
            "cp_samples": cp_samples,
            "snr": snr,
            "pops": pcfg,
            "K": K,
            "b": b,
        }),
    )


def _sync_sweep(
    kind: str,
    tx: Waveform,
    rx: Waveform,
    ch: PathList | SeparableChannel,
    cfg: LatticeConfig,
    values,
    snr: float,
    cp_baselines,
) -> SweepResult:
    values = [float(v) for v in values]
    fractional = [v for v in values if kind == "time-sync" and not v.is_integer()]
    if fractional:
        raise ValueError(f"timing offsets must be whole samples, got {fractional}")
    infinite = [v for v in values if not math.isfinite(v)]
    if infinite:
        raise ValueError(f"carrier offsets must be finite, got {infinite}")
    # One column per distinct offset, so a repeated offset reads the same value.
    column = {v: i for i, v in enumerate(dict.fromkeys(values))}
    points, where = list(column), [column[v] for v in values]

    def series(tx: Waveform, rx: Waveform, cfg: LatticeConfig) -> np.ndarray:
        # The perturbed receivers as the columns of one stack on their union
        # window: one kernel pair of tx serves every point.
        n = len(rx)
        if kind == "time-sync":
            taus = np.array(points, dtype=np.int64)
            lo, hi = int(min(points, default=0)), int(max(points, default=0))
            L = n + hi - lo
            samples = _samples(rx)  # float64 for a real rx, as the kernels read it
            padded = np.zeros(2 * L - n, dtype=samples.dtype)
            padded[L - n : L] = samples
            # Column j is rx shifted by taus[j]: row q reads sample q - (taus[j] - lo).
            X = padded.take(np.arange(L - n + lo, 2 * L - n + lo)[:, None] - taus)
            start = rx.offset + lo
        else:
            q = rx.offset + np.arange(n)
            X = rx.samples[:, None] * np.exp(2j * np.pi * np.array(points) * q[:, None] / cfg.Q)
            start = rx.offset
        # A shift or a phase ramp keeps rx's energy.
        ps, pi = _received(tx, ch, cfg, start, X, rx.energy)
        return _sinrs(ps, pi, snr)[where]

    out = {"pops": series(tx, rx, cfg)}
    for cp in cp_baselines:
        cfg_cv = LatticeConfig(N=cfg.Q + cp, Q=cfg.Q, Ts=cfg.Ts)
        out[f"conventional_cp{cp}"] = series(make_conventional_tx(cfg_cv),
                                             make_conventional_rx(cfg_cv), cfg_cv)
    axis_name = "tau_samples" if kind == "time-sync" else "dfreq_in_F"
    return SweepResult(
        axis_name=axis_name,
        axis_values=np.array(values),
        series=out,
        metadata=encode({
            "sweep": kind,
            "cfg": cfg,
            "channel": ch,
            "values": values,
            "cp_baselines": cp_baselines,
            "snr": snr,
            "tx_opt": tx,
            "rx_opt": rx,
        }),
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

    Gives ``sinr(tx_opt, shift(rx_opt, tau))`` for every tau, with conventional
    pairs at N = Q + CP perturbed identically as baselines.  A shift only
    slides the receiver along the global axis, so each pair is evaluated as
    one stack: the shifted receivers are gathered as the columns of one matrix
    on their union window, and one kernel pair of tx on that window reads
    every column's powers at once.  A repeated tau is evaluated once.
    """
    return _sync_sweep("time-sync", result.tx_opt, result.rx_opt, ch, cfg, tau_values, snr,
                       cp_baselines)


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
    the receive prototype (a fractional subcarrier modulation, as
    :func:`~pops.lattice.modulate`), again without reoptimization.  The offset
    changes the receiver, not the kernels, so each pair is evaluated as one
    stack: rx times the outer product of the ramps, one column per offset on
    rx's own window, read by one kernel pair of tx.  The ramp keeps rx's
    energy, which normalizes every column.  Offsets must be finite; a repeated
    one is evaluated once.
    """
    return _sync_sweep("freq-sync", result.tx_opt, result.rx_opt, ch, cfg, dfreq_values, snr,
                       cp_baselines)


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
    channels of every ``evaluate_over`` point.  One series per distinct design
    point; two values whose ``{v:g}`` column names coincide are refused.
    """
    pcfg = _resolve_pops(pops, snr)
    columns: dict[str, float] = {}
    for v in dict.fromkeys(float(v) for v in optimize_at):
        name = f"optimized_at_{v:g}"
        if columns.setdefault(name, v) != v:
            raise ValueError(f"optimize_at values {columns[name]!r} and {v!r} "
                             f"both give the column {name!r}")
    optimize_at = list(columns.values())
    evaluate_over = [float(v) for v in evaluate_over]
    if not optimize_at or not evaluate_over:
        raise ValueError("optimize_at and evaluate_over must be nonempty")

    designs = [run_pops(cfg, SeparableChannel.from_spread_product(cfg, v, K=K, b=b), pcfg)
               for v in optimize_at]
    eval_channels = [
        SeparableChannel.from_spread_product(cfg, v, K=K, b=b) for v in evaluate_over
    ]
    series = {name: np.array([sinr(res.tx_opt, res.rx_opt, ch, cfg, snr).sinr
                              for ch in eval_channels])
              for name, res in zip(columns, designs)}
    return SweepResult(
        axis_name="spread_product",
        axis_values=np.array(evaluate_over),
        series=series,
        metadata=encode({
            "sweep": "mismatch",
            "cfg": cfg,
            "optimize_at": optimize_at,
            "evaluate_over": evaluate_over,
            "snr": snr,
            "pops": pcfg,
            "K": K,
            "b": b,
        }),
    )


def initialization_study(
    cfg: LatticeConfig,
    ch: PathList | SeparableChannel,
    snr: float,
    inits,
    pops: PopsConfig | None = None,
) -> SweepResult:
    """Final SINR per named initialization, with bound and baseline.

    ``inits`` is a sequence of (name, Waveform) pairs (at least two, with
    distinct names: the metadata keys them by name).  The
    ``upper_bound`` and ``conventional`` series are constant.  The bound is
    taken on the channel itself (a separable channel with its closed-form
    Doppler autocorrelation); it is NaN when the SIR bound is infinite (a
    singular interference operator at snr = inf), with the reason recorded in
    ``metadata["warnings"]``.
    """
    inits = list(inits)
    if len(inits) < 2:
        raise ValueError("need at least two initializations to compare")
    names = [name for name, _ in inits]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"duplicate initialization name {name!r}")
    pcfg = _resolve_pops(pops, snr)
    warnings: list[str] = []

    finals = [run_pops(cfg, ch, dataclasses.replace(pcfg, init=w)).final_sinr
              for _, w in inits]
    conventional = sinr_conventional(cfg, ch, snr).sinr
    try:
        bound_value = upper_bound(build_kronecker_system(cfg, ch), snr)
    except SingularInterferenceError as exc:
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
        metadata=encode({
            "sweep": "init-study",
            "cfg": cfg,
            "channel": ch,
            "snr": snr,
            "pops": pcfg,
            "inits": dict(inits),
            "warnings": warnings,
        }),
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


# Sidecar keys that hold an encoded value, and its type.
_ENCODED = {"cfg": LatticeConfig, "channel": Channel, "snr": float, "pops": PopsConfig,
            "waveform": Waveform, "tx_opt": Waveform, "rx_opt": Waveform}


def rerun_from_metadata(metadata: dict) -> SweepResult:
    """Re-execute a sweep from its serialized metadata snapshot.

    The returned result carries the same numbers as the original run; this is
    the package's reproducibility contract for analysis artifacts.  A sidecar
    whose ``pops`` sets the retired ``paper_literal_gep`` holds results of the
    SIR objective it selected and is refused; the key set to false is ignored.
    """
    if (metadata.get("pops") or {}).get("paper_literal_gep"):
        raise ValueError("pops.paper_literal_gep = true is retired: this sidecar's series "
                         "cannot be reproduced")
    m = {k: decode(_ENCODED[k], v) if k in _ENCODED else v for k, v in metadata.items()}
    kind = m["sweep"]
    if kind == "psd":
        return psd(m["waveform"], m["cfg"], m["oversample"], m["n_subcarriers"])
    if kind == "ft":
        return sweep_ft(m["cfg"], m["channel"], m["ft_values"], m["durations"], m["snr"], m["pops"])
    if kind == "doppler-delay":
        return sweep_doppler_delay(m["cfg"], m["spread_product"], m["grid"], m["cp_samples"],
                                   m["snr"], m["pops"], m["K"], m["b"])
    if kind in ("time-sync", "freq-sync"):
        return _sync_sweep(kind, m["tx_opt"], m["rx_opt"], m["channel"], m["cfg"], m["values"],
                           m["snr"], m["cp_baselines"])
    if kind == "mismatch":
        return sweep_mismatch(m["cfg"], m["optimize_at"], m["evaluate_over"], m["snr"],
                              m["pops"], m["K"], m["b"])
    if kind == "init-study":
        inits = [(name, decode(Waveform, w)) for name, w in m["inits"].items()]
        return initialization_study(m["cfg"], m["channel"], m["snr"], inits, m["pops"])
    raise ValueError(f"unknown sweep kind {kind!r}")
