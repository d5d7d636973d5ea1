"""Command-line frontend: every capability behind one scenario-driven binary.

Usage::

    pops <subcommand> scenario.ini [--set section.key=value ...]

Subcommands: optimize, sinr, conventional, upperbound, psd,
sweep {ft,doppler-delay,time-sync,freq-sync,mismatch,init-study},
montecarlo, validate.

Artifacts (CSV/JSON) go to the scenario's ``run.output_dir``; the scenario
hash is embedded in each artifact and in the single summary line printed on
success.  Exit codes: 0 success, 2 scenario/validation error, 3 numerical
failure (e.g. a singular interference operator at snr=inf).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .bound import build_kronecker_system, upper_bound
from .lattice import (
    LatticeConfig,
    Waveform,
    load_waveform_csv,
    make_conventional_rx,
    make_conventional_tx,
)
from .montecarlo import estimate_sinr
from .optimizer import half_step, run_pops, save_pops_result
from .scenario import INIT_KINDS, Scenario, ScenarioError, load_scenario, make_initializer, section_errors
from .sinr import sinr, sinr_conventional, sinr_time_reversed
from .kernels import build_ks_kin

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.6g}"


def _db(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if x <= 0.0:
        return "-inf"
    return f"{10.0 * math.log10(x):.2f}"


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, allow_nan=True) + "\n")


def _require_list(sc: Scenario, key: str, values) -> list:
    if values is None:
        raise ScenarioError(f"missing required key sweep.{key} for this sweep")
    return values


def _cmd_optimize(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    ch = sc.channel()
    res = run_pops(cfg, ch, sc.pops(cfg))
    out = sc.output_dir
    save_pops_result(res, out, stem="optimize", extra={"scenario": sc.hash})
    return (
        f"scenario={sc.hash} optimize: sinr={_fmt(res.final_sinr)} "
        f"({_db(res.final_sinr)} dB) converged={res.converged} "
        f"iterations={res.iterations_used}"
    )


def _cmd_sinr(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    ch = sc.channel()
    tx, rx = sc.sinr_pair(cfg)
    rep = sinr(tx, rx, ch, cfg, sc.snr)
    _write_json(sc.output_dir / "sinr.json", {"scenario": sc.hash, **dataclasses.asdict(rep)})
    return (
        f"scenario={sc.hash} sinr: sinr={_fmt(rep.sinr)} ({_db(rep.sinr)} dB) "
        f"sir={_fmt(rep.sir)} ps={rep.ps:.6g} pi={rep.pi:.6g} pn={rep.pn:.6g}"
    )


def _cmd_conventional(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    ch = sc.channel()
    rep = sinr_conventional(cfg, ch, sc.snr)
    _write_json(sc.output_dir / "conventional.json",
                {"scenario": sc.hash, **dataclasses.asdict(rep)})
    return (
        f"scenario={sc.hash} conventional: sinr={_fmt(rep.sinr)} "
        f"({_db(rep.sinr)} dB) sir={_fmt(rep.sir)}"
    )


def _cmd_upperbound(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    sys_ = build_kronecker_system(cfg, sc.channel())
    value = upper_bound(sys_, sc.snr)
    _write_json(
        sc.output_dir / "upperbound.json",
        {
            "scenario": sc.hash,
            "bound": value,
            "dimension": sys_.dimension,
            "phi_offset": sys_.phi_offset,
            "phi_length": sys_.phi_length,
            "psi_offset": sys_.psi_offset,
            "psi_length": sys_.psi_length,
        },
    )
    return (
        f"scenario={sc.hash} upperbound: bound={_fmt(value)} ({_db(value)} dB) "
        f"dimension={sys_.dimension}"
    )


def _psd_source(sc: Scenario, cfg: LatticeConfig) -> Waveform:
    source = sc._require("psd", "source")
    if source == "file":
        path = sc.get("psd", "file")
        if path is None:
            raise ScenarioError("psd.source=file requires psd.file")
        with section_errors("psd.file"):
            return load_waveform_csv(path)
    if source in ("conventional-tx", "conventional-rx"):
        make = make_conventional_tx if source.endswith("tx") else make_conventional_rx
        return make(cfg)
    if source in ("optimized-tx", "optimized-rx"):
        res = run_pops(cfg, sc.channel(), sc.pops(cfg))
        return res.tx_opt if source.endswith("tx") else res.rx_opt
    raise ScenarioError(
        "psd.source must be optimized-tx, optimized-rx, conventional-tx, "
        f"conventional-rx or file, got {source!r}"
    )


def _cmd_psd(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    w = _psd_source(sc, cfg)
    result = analysis.psd(
        w,
        cfg,
        oversample=sc._int("psd", "oversample"),
        n_subcarriers=sc._int("psd", "n_subcarriers"),
    )
    out = sc.output_dir / "psd.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    analysis.write_sweep_csv(result, out, scenario_hash=sc.hash)
    level = analysis.oob_level_db(result, 2.0)
    frac = analysis.oob_power_fraction(w, cfg)
    return (
        f"scenario={sc.hash} psd: oob_level_at_2F={level:.2f} dB "
        f"oob_power_fraction={frac:.6g} rows={result.axis_values.size}"
    )


def _study_inits(sc: Scenario, cfg: LatticeConfig) -> list[tuple[str, Waveform]]:
    inits: list[tuple[str, Waveform]] = []
    for token in (t.strip() for t in sc._require("sweep", "inits").split(",")):
        kind, colon, seed = token.partition(":")  # noise, and only noise, takes a seed
        if kind not in INIT_KINDS or (kind == "noise") != bool(colon):
            raise ScenarioError(
                f"sweep.inits: unknown initializer {token!r} (hermite, gaussian, "
                "rrc, noise:<seed>)"
            )
        if token in dict(inits):
            raise ScenarioError(f"sweep.inits: duplicate initializer {token!r}")
        try:
            seed = int(seed) if colon else 0
        except ValueError as exc:
            raise ScenarioError(f"sweep.inits: bad noise seed in {token!r}") from exc
        inits.append((token, make_initializer(cfg, kind, seed=seed)))
    return inits


def _cmd_sweep(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    snr = sc.snr
    kind = args.kind
    pcfg = sc.pops(cfg)
    if kind == "ft":
        result = analysis.sweep_ft(
            cfg,
            sc.channel(),
            _require_list(sc, "ft_values", sc._float_list("sweep", "ft_values")),
            durations=sc.durations(),
            snr=snr,
            pops=pcfg,
        )
    elif kind == "doppler-delay":
        spread = sc._float("channel", "spread_product")
        if spread is None:
            raise ScenarioError(
                "missing required key channel.spread_product for the doppler-delay sweep"
            )
        result = analysis.sweep_doppler_delay(
            cfg,
            spread,
            _require_list(sc, "grid", sc._float_list("sweep", "grid")),
            cp_samples=tuple(sc._int_list("sweep", "cp_samples")),
            snr=snr,
            pops=pcfg,
            K=sc._int("channel", "K"),
            b=sc._float("channel", "b"),
        )
    elif kind in ("time-sync", "freq-sync"):
        ch = sc.channel()
        res = run_pops(cfg, ch, pcfg)
        if kind == "time-sync":
            taus = sc._int_list("sweep", "tau_values")
            if taus is None:
                taus = list(range(-(cfg.N // 2), cfg.N // 2 + 1))
            result = analysis.sweep_time_sync(
                res, ch, cfg, taus, snr=snr,
                cp_baselines=tuple(sc._int_list("sweep", "cp_samples")),
            )
        else:
            dfs = _require_list(sc, "dfreq_values", sc._float_list("sweep", "dfreq_values"))
            result = analysis.sweep_freq_sync(
                res, ch, cfg, dfs, snr=snr,
                cp_baselines=tuple(sc._int_list("sweep", "cp_samples")),
            )
    elif kind == "mismatch":
        result = analysis.sweep_mismatch(
            cfg,
            _require_list(sc, "optimize_at", sc._float_list("sweep", "optimize_at")),
            _require_list(sc, "evaluate_over", sc._float_list("sweep", "evaluate_over")),
            snr=snr,
            pops=pcfg,
            K=sc._int("channel", "K"),
            b=sc._float("channel", "b"),
        )
    else:  # init-study
        result = analysis.initialization_study(
            cfg,
            sc.channel(),
            snr,
            _study_inits(sc, cfg),
            pops=pcfg,
        )
    out = sc.output_dir / f"sweep_{kind}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    analysis.write_sweep_csv(result, out, scenario_hash=sc.hash)
    finite = {
        name: values[np.isfinite(values)]
        for name, values in result.series.items()
    }
    spans = " ".join(
        f"{name}=[{v.min():.6g},{v.max():.6g}]" if v.size else f"{name}=[]"
        for name, v in finite.items()
    )
    return f"scenario={sc.hash} sweep {kind}: rows={result.axis_values.size} {spans}"


def _cmd_montecarlo(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    ch = sc.channel()
    tx, rx = sc.sinr_pair(cfg)
    mc = sc.mc()
    est = estimate_sinr(tx, rx, ch, cfg, sc.snr, mc)
    out = sc.output_dir / "montecarlo.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f"# scenario={sc.hash}",
        "sinr_estimate,standard_error,trials,seed",
        f"{est.sinr:.17g},{est.se:.17g},{est.trials},{mc.rng_seed}",
    ]
    out.write_text("\n".join(lines) + "\n")
    return (
        f"scenario={sc.hash} montecarlo: sinr={_fmt(est.sinr)} se={_fmt(est.se)} "
        f"trials={est.trials}"
    )


def _cmd_validate(sc: Scenario, args) -> str:
    cfg = sc.lattice()
    ch = sc.channel()
    snr = sc.snr
    checks: list[tuple[str, bool, str]] = []

    def rel(a: float, b: float) -> float:
        if math.isinf(a) and math.isinf(b):
            return 0.0
        if math.isinf(a) or math.isinf(b):
            return math.inf
        return abs(a - b) / max(abs(b), 1e-300)

    tx_cv, rx_cv = make_conventional_tx(cfg), make_conventional_rx(cfg)
    engine = sinr(tx_cv, rx_cv, ch, cfg, snr)
    closed = sinr_conventional(cfg, ch, snr)
    # Powers against the pair's budget ps + pi (Q/N for the CP pair): the SIR's
    # own relative error grows like SIR * eps, as pi is a difference of forms.
    budget = closed.ps + closed.pi

    def power_err(a, b) -> float:
        return max(abs(a.ps - b.ps), abs(a.pi - b.pi)) / budget

    err = power_err(engine, closed)
    checks.append(("closed-form-vs-kernel", err <= 1e-8, f"power err {err:.3e} of ps + pi"))

    err = power_err(sinr_time_reversed(tx_cv, rx_cv, ch, cfg, snr), engine)
    checks.append(("time-reversal-identity", err <= 1e-10, f"power err {err:.3e} of ps + pi"))

    phi = sc.pops(cfg).init
    ks, kin = build_ks_kin(phi, ch, cfg, cfg.L_psi, snr)
    psi, value = half_step(ks, kin)
    err = rel(value, sinr(phi, psi, ch, cfg, snr).sinr)
    checks.append(("half-step-vs-engine", err <= 1e-10, f"rel err {err:.3e}"))

    mc = dataclasses.replace(sc.mc(), trials=min(sc.mc().trials, 4000))
    est = estimate_sinr(tx_cv, rx_cv, ch, cfg, snr, mc)
    if math.isinf(engine.sinr):
        ok = est.pi < 1e-9 * est.ps
        detail = f"interference/signal {est.pi / est.ps:.3e}"
    else:
        ok = abs(est.sinr - engine.sinr) <= 4.0 * est.se
        detail = f"|mc - analytic| = {abs(est.sinr - engine.sinr):.3e}, 4*se = {4 * est.se:.3e}"
    checks.append(("monte-carlo-agreement", ok, detail))

    for name, ok, detail in checks:
        print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        raise np.linalg.LinAlgError(f"validation checks failed: {', '.join(failed)}")
    return f"scenario={sc.hash} validate: {len(checks)}/{len(checks)} checks passed"


_COMMANDS = {
    "optimize": _cmd_optimize,
    "sinr": _cmd_sinr,
    "conventional": _cmd_conventional,
    "upperbound": _cmd_upperbound,
    "psd": _cmd_psd,
    "sweep": _cmd_sweep,
    "montecarlo": _cmd_montecarlo,
    "validate": _cmd_validate,
}

_SWEEP_KINDS = ("ft", "doppler-delay", "time-sync", "freq-sync", "mismatch", "init-study")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pops",
        description="Waveform-pair SINR optimization over doubly dispersive channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} subcommand")
        if name == "sweep":
            p.add_argument("kind", choices=_SWEEP_KINDS)
        p.add_argument("scenario", help="scenario INI file")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override a scenario key (repeatable)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        sc = load_scenario(args.scenario, overrides=args.overrides)
        summary = _COMMANDS[args.command](sc, args)
    except np.linalg.LinAlgError as exc:  # SingularInterferenceError among them
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:  # ScenarioError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
