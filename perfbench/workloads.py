"""The benchmark's workloads: seeded inputs, timed operations and their checks.

A workload is a list of operations that every round runs in the same order.
Each operation is one call into `pops` (the public API or the in-process
`pops.cli.main`); only that call is timed.  Its output is then checked against
`reference`, which shares no code with the package, or against a property the
method must have.  Every operation belongs to one metric family (optimize,
sinr, bound, mc), whose time and work units it adds to; an operation of no
family is attempted and checked but enters no metric.

The end-to-end metrics are reported on every workload, so every workload also
runs one small operation of each family it does not stress (the "probes"
below).  Each workload's own operations carry nearly all of its time.

All names in `pops` are looked up at call time (`pops.run_pops`, not a name
bound at import), so the traced run's wrappers on module attributes see the
benchmark's calls as well as the package's internal ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import pops
import pops.cli
import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SMALL_INI = ROOT / "demos" / "scenarios" / "small.ini"
FULL_INI = ROOT / "demos" / "scenarios" / "full_scale.ini"

# The bound and Monte Carlo use this Doppler grid by default (to_pathlist(),
# McConfig); the reference rebuilds it from the Jakes quantile formula.
DOPPLER_GRID = 64


class CheckFailed(Exception):
    """An output disagrees with the reference or breaks a property of the method."""


class OpFailed(Exception):
    """The program refused or failed the operation (a nonzero CLI exit code)."""


@dataclass
class Op:
    name: str
    family: str | None
    call: Callable[[], Any]
    units: Callable[[Any], float] = lambda out: 0.0
    check: Callable[[Any, Any], None] = lambda out, expected: None
    expect: Callable[[], Any] = lambda: None
    collect: Callable[[Any, Any], Any] | None = None


# ---------------------------------------------------------------------------
# helpers


def _wf(w: pops.Waveform):
    return np.asarray(w.samples), w.offset


def _ref_separable(ch: pops.SeparableChannel) -> dict:
    return ref.separable(ch.delays, ref.exp_profile(ch.K, ch.b), ch.Bd * ch.Ts)


def _ref_quantile_paths(ch: pops.SeparableChannel, G: int = DOPPLER_GRID) -> dict:
    nus = ref.jakes_quantiles(ch.Bd * ch.Ts, G)
    taps = ref.exp_profile(ch.K, ch.b)
    return ref.paths(np.repeat(ch.delays, G), np.tile(nus, ch.K), np.repeat(taps / G, G))


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _check_close(got: float, want: float, tol: float, what: str) -> None:
    _require(_rel(got, want) <= tol, f"{what}: {got!r} vs reference {want!r} (tol {tol:g})")


def _check_trajectory(traj, what: str) -> None:
    values = [v for _, _, v in traj]
    _require(bool(values), f"{what}: empty trajectory")
    for a, b in zip(values, values[1:]):
        _require(b - a >= -1e-9 * abs(a), f"{what}: trajectory decreases {a!r} -> {b!r}")


def _cp_reference(ch_ref: dict, N: int, Q: int, snr: float) -> float:
    tx, rx = ref.conventional_pair(N, Q)
    return ref.sinr(tx, rx, ch_ref, N, Q, snr)


def _cli(argv: list[str]) -> str:
    """Run `pops` in process; the summary line is kept, not printed."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = pops.cli.main(argv)
    if rc != 0:
        raise OpFailed(f"pops {argv[0]} exited {rc}: {sink.getvalue().strip()}")
    return sink.getvalue()


def _collect_dir(path: Path, tracer) -> dict:
    """Artifacts of a CLI call, read and then removed."""
    files = {p.name: p.read_bytes() for p in sorted(path.iterdir())}
    shutil.rmtree(path)
    if tracer is not None:
        tracer.count("cli.artifact_bytes", sum(len(b) for b in files.values()))
    return files


# ---------------------------------------------------------------------------
# operations shared by several workloads


def optimize_op(name: str, cfg, ch, pcfg, sir_floor_db: float | None = None) -> Op:
    """`run_pops` with a fixed iteration cap; checked against the reference."""
    ch_ref = _ref_separable(ch)

    def check(res, cp_value):
        _check_trajectory(res.sinr_trajectory, name)
        want = ref.sinr(_wf(res.tx_opt), _wf(res.rx_opt), ch_ref, cfg.N, cfg.Q, pcfg.snr)
        _check_close(res.final_sinr, want, 1e-9, f"{name} final SINR")
        _require(res.final_sinr > cp_value,
                 f"{name}: optimized {res.final_sinr!r} <= CP-OFDM {cp_value!r}")
        if sir_floor_db is not None:
            _require(10.0 * math.log10(res.final_sinr) >= sir_floor_db,
                     f"{name}: SIR {res.final_sinr!r} below {sir_floor_db} dB")

    return Op(name, "optimize",
              call=lambda: pops.run_pops(cfg, ch, pcfg),
              units=lambda res: 2 * res.iterations_used,
              check=check,
              expect=lambda: _cp_reference(ch_ref, cfg.N, cfg.Q, pcfg.snr))


def cli_optimize_small(out_dir: Path) -> Op:
    """`pops optimize demos/scenarios/small.ini`, artifacts reloaded and checked."""
    target = out_dir / "optimize-small"
    cfg = pops.LatticeConfig(N=20, Q=16)
    ch_ref = _ref_separable(pops.SeparableChannel.from_spread_product(cfg, 0.01))
    snr = 10.0

    def collect(summary, tracer):
        res = pops.load_pops_result(target / "optimize.json")
        return res, json.loads(_collect_dir(target, tracer)["optimize.json"])

    def check(out, cp_value):
        res, record = out
        _require(res.converged, "small.ini: optimizer did not converge")
        _check_trajectory(res.sinr_trajectory, "small.ini")
        _require(res.final_sinr == record["final_sinr"], "small.ini: reloaded final SINR differs")
        want = ref.sinr(_wf(res.tx_opt), _wf(res.rx_opt), ch_ref, cfg.N, cfg.Q, snr)
        _check_close(res.final_sinr, want, 1e-9, "small.ini reloaded pair SINR")
        _require(res.final_sinr > cp_value, "small.ini: optimized pair not above CP-OFDM")

    return Op("cli_optimize_small", "optimize",
              call=lambda: _cli(["optimize", str(SMALL_INI), "--set", f"run.output_dir={target}"]),
              units=lambda out: 2 * out[0].iterations_used,
              check=check,
              expect=lambda: _cp_reference(ch_ref, cfg.N, cfg.Q, snr),
              collect=collect)


def closed_form_grid(rng: np.random.Generator) -> Op:
    """CP-OFDM closed form against the kernel engine on a lattice/channel grid."""
    snr = 10.0
    cases = []
    for N, Q in ((20, 16), (12, 8), (36, 32), (160, 128)):
        cfg = pops.LatticeConfig(N=N, Q=Q)
        b = float(rng.uniform(0.4, 0.6))
        channels = [pops.SeparableChannel.from_spread_product(cfg, float(v), b=b)
                    for v in 10.0 ** rng.uniform(-3.0, -1.0, size=3)]
        # Delays past the guard reach the clipped-overlap branch of the closed form.
        channels.append(pops.SeparableChannel.with_uniform_delays(
            K=6, b=b, max_delay=cfg.guard + 5, Bd=float(rng.uniform(0.001, 0.005))))
        tx, rx = pops.make_conventional_tx(cfg), pops.make_conventional_rx(cfg)
        cases += [(cfg, ch, tx, rx) for ch in channels]

    def call():
        return [(pops.sinr_conventional(cfg, ch, snr).sinr, pops.sinr(tx, rx, ch, cfg, snr).sinr)
                for cfg, ch, tx, rx in cases]

    def check(out, expected):
        for (closed, engine), want in zip(out, expected):
            _check_close(closed, engine, 1e-8, "closed form vs kernel engine")
            _check_close(engine, want, 1e-9, "kernel engine CP SINR")

    return Op("closed_form_grid", "sinr", call=call,
              units=lambda out: 2 * len(out),
              check=check,
              expect=lambda: [_cp_reference(_ref_separable(ch), cfg.N, cfg.Q, snr)
                              for cfg, ch, _, _ in cases])


def _window_pairs(cfg, ch, rng, n_random: int):
    """Pairs inside the bound's default windows: seeded random ones and an initializer pair."""
    L_phi, L_psi = cfg.L_phi, cfg.L_psi
    phi_offset = -(L_phi // 2)
    psi_lo = phi_offset + int(ch.delays[0]) - L_psi + 1
    psi_hi = phi_offset + L_phi - 1 + int(ch.delays[-1])
    pairs = []
    for _ in range(n_random):
        tx = rng.standard_normal(L_phi) + 1j * rng.standard_normal(L_phi)
        rx = rng.standard_normal(L_psi) + 1j * rng.standard_normal(L_psi)
        start = int(rng.integers(psi_lo, psi_hi + 1))
        pairs.append((pops.Waveform(tx, phi_offset), pops.Waveform(rx, start)))
    init = pops.make_hermite_init(cfg, [1.0])
    pairs.append((init, pops.shift(init, int(rng.integers(0, int(ch.delays[-1]) + 1)))))
    return pairs


def bound_op(name: str, cfg, ch, snr: float, rng: np.random.Generator, n_random: int = 3) -> Op:
    """Kronecker system and bound; its quotient and dominance checked on seeded pairs."""
    pairs = _window_pairs(cfg, ch, rng, n_random)
    paths_ref = _ref_quantile_paths(ch)

    def call():
        sys_ = pops.build_kronecker_system(cfg, ch.to_pathlist())
        return sys_, pops.upper_bound(sys_, snr)

    def expect():
        out = []
        for tx, rx in pairs:
            ps, pi = ref.powers(_wf(tx), _wf(rx), paths_ref, cfg.N, cfg.Q)
            out.append((ps / pi, ps / (pi + 1.0 / snr)))
        return out

    def check(out, expected):
        sys_, bound = out
        _require(math.isfinite(bound), f"{name}: bound {bound!r} is not finite")
        for (tx, rx), (sir, sinr_value) in zip(pairs, expected):
            _check_close(pops.kronecker_quotient(sys_, tx, rx), sir, 1e-10,
                         f"{name} Kronecker quotient")
            _require(bound >= sinr_value * (1 - 1e-9),
                     f"{name}: bound {bound!r} below a pair's SINR {sinr_value!r}")

    return Op(name, "bound", call=call, units=lambda out: 1, check=check, expect=expect)


def mc_op(name: str, cfg, ch, tx, rx, snr: float, trials: int, seed: int) -> Op:
    """Monte-Carlo estimate; within 4 standard errors of the analytic SINR."""
    mc = pops.McConfig(trials=trials, rng_seed=seed)

    def check(est, want):
        _require(abs(est.sinr - want) <= 4.0 * est.se,
                 f"{name}: estimate {est.sinr!r} +- {est.se!r} vs analytic {want!r}")

    return Op(name, "mc",
              call=lambda: pops.estimate_sinr(tx, rx, ch, cfg, snr, mc),
              units=lambda est: est.trials,
              check=check,
              expect=lambda: ref.sinr(_wf(tx), _wf(rx), _ref_separable(ch), cfg.N, cfg.Q, snr))


def _small_channel(cfg, rng: np.random.Generator, max_delay: int):
    """Separable channel with fixed delays (so the bound's dimension is fixed)."""
    return pops.SeparableChannel.with_uniform_delays(
        K=8, b=float(rng.uniform(0.4, 0.6)), max_delay=max_delay,
        Bd=float(rng.uniform(0.004, 0.006)))


def _probes(rng: np.random.Generator, seed: int, families: set[str], out_dir: Path) -> list[Op]:
    ops = []
    if "optimize" in families:
        cfg = pops.LatticeConfig(N=160, Q=128)
        ch = pops.SeparableChannel.from_spread_product(cfg, 0.01, b=float(rng.uniform(0.4, 0.6)))
        ops += [cli_optimize_small(out_dir),
                optimize_op("probe_run_pops_n160", cfg, ch,
                            pops.PopsConfig(max_iterations=4, snr=10.0))]
    if "sinr" in families:
        ops += sync_sweeps(1, rng, n_tau=41, n_freq=21)
    if "bound" in families:
        cfg = pops.LatticeConfig(N=16, Q=12)
        ops += [bound_op(f"probe_bound_dim752_{i}", cfg, _small_channel(cfg, rng, 1), 10.0, rng, 1)
                for i in range(2)]
    if "mc" in families:
        cfg = pops.LatticeConfig(N=20, Q=16)
        ops.append(mc_op("probe_mc_cp", cfg, _small_channel(cfg, rng, 2),
                         pops.make_conventional_tx(cfg), pops.make_conventional_rx(cfg),
                         10.0, 5000, seed))
    return ops


# ---------------------------------------------------------------------------
# the workloads


def _optimize(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    cfg1 = pops.LatticeConfig(N=160, Q=128)
    ch1 = pops.SeparableChannel.from_spread_product(cfg1, 0.01, b=float(rng.uniform(0.4, 0.6)))
    init1 = pops.make_hermite_init(cfg1, [1.0, 0.0, float(rng.uniform(0.0, 0.1))])
    cfg3 = pops.LatticeConfig(N=256, Q=128, Dphi=3, Dpsi=3)
    ch3 = pops.SeparableChannel.from_spread_product(cfg3, 0.01, bd_over_f=0.05,
                                                    b=float(rng.uniform(0.4, 0.6)))
    init3 = pops.make_hermite_init(cfg3, [1.0, 0.0, float(rng.uniform(0.0, 0.1))])
    return [
        optimize_op("run_pops_n160", cfg1, ch1,
                    pops.PopsConfig(max_iterations=15, snr=math.inf, init=init1),
                    sir_floor_db=20.0),
        optimize_op("run_pops_l768", cfg3, ch3,
                    pops.PopsConfig(max_iterations=1, snr=10.0, init=init3)),
        cli_optimize_small(out_dir),
        *_probes(rng, seed, {"sinr", "bound", "mc"}, out_dir),
    ]


def _sync_ops(tag: str, cfg, ch, tx, rx, taus, dfreqs, snr: float) -> list[Op]:
    ch_ref = _ref_separable(ch)
    baselines = (16, 32)
    stub = pops.PopsResult(tx_opt=tx, rx_opt=rx, sinr_trajectory=(), converged=True,
                           iterations_used=0)

    def expected(perturb):
        def run(values):
            series = {"pops": [ref.sinr(_wf(tx), perturb(_wf(rx), v, cfg.Q), ch_ref,
                                        cfg.N, cfg.Q, snr) for v in values]}
            for cp in baselines:
                cp_tx, cp_rx = ref.conventional_pair(cfg.Q + cp, cfg.Q)
                series[f"conventional_cp{cp}"] = [
                    ref.sinr(cp_tx, perturb(cp_rx, v, cfg.Q), ch_ref, cfg.Q + cp, cfg.Q, snr)
                    for v in values]
            return series
        return run

    def check(result, want):
        _require(set(result.series) == set(want), f"{tag}: series {sorted(result.series)}")
        for key, values in want.items():
            for got, w in zip(result.series[key], values):
                _check_close(float(got), w, 1e-9, f"{tag} {key}")

    time_want = expected(lambda w, v, Q: ref.shifted(w, v))
    freq_want = expected(lambda w, v, Q: ref.modulated(w, v, Q))
    per_point = 1 + len(baselines)
    return [
        Op(f"sweep_time_sync_{tag}", "sinr",
           call=lambda: pops.sweep_time_sync(stub, ch, cfg, taus, snr=snr, cp_baselines=baselines),
           units=lambda res: per_point * len(res.axis_values),
           check=check, expect=lambda: time_want(taus)),
        Op(f"sweep_freq_sync_{tag}", "sinr",
           call=lambda: pops.sweep_freq_sync(stub, ch, cfg, dfreqs, snr=snr, cp_baselines=baselines),
           units=lambda res: per_point * len(res.axis_values),
           check=check, expect=lambda: freq_want(dfreqs)),
    ]


def sync_sweeps(D: int, rng: np.random.Generator, n_tau: int = 21, n_freq: int = 11) -> list[Op]:
    """Timing and frequency sync sweeps of a fixed initializer pair at N=256/Q=128."""
    cfg = pops.LatticeConfig(N=256, Q=128, Dphi=D, Dpsi=D)
    b = float(rng.uniform(0.4, 0.6))
    # D=3 uses the delay-heavy channel of the long-pulse design (Bd/F = 0.05).
    ch = pops.SeparableChannel.from_spread_product(cfg, 0.01, b=b,
                                                   bd_over_f=0.05 if D > 1 else None)
    tx = pops.make_hermite_init(cfg, [1.0, 0.0, float(rng.uniform(0.0, 0.1))])
    sigma = float(rng.uniform(0.25, 0.35)) * math.sqrt(cfg.N * cfg.Q)
    rx = pops.make_gaussian_init(cfg, (cfg.L_psi - 1) / 2.0, sigma)
    taus = sorted(int(t) for t in rng.choice(np.arange(-cfg.N // 4, cfg.N // 4 + 1), n_tau,
                                             replace=False))
    dfreqs = sorted(float(v) for v in rng.uniform(-0.3, 0.3, size=n_freq))
    return _sync_ops(f"d{D}", cfg, ch, tx, rx, taus, dfreqs, 10.0)


def _evaluate(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    return [
        *sync_sweeps(1, rng),
        *sync_sweeps(3, rng),
        closed_form_grid(rng),
        *_probes(rng, seed, {"optimize", "bound", "mc"}, out_dir),
    ]


def cli_upperbound_full_scale(out_dir: Path) -> Op:
    """`pops upperbound demos/scenarios/full_scale.ini` (dimension 78720).

    It runs in every round, like every other operation, so that the share of
    failed operations is the same whatever the number of rounds in a run.
    """
    target = out_dir / "upperbound-full"
    cfg = pops.LatticeConfig(N=160, Q=128)
    ch = pops.SeparableChannel.from_spread_product(cfg, 0.01)
    init = pops.make_hermite_init(cfg, [1.0])

    def collect(summary, tracer):
        return json.loads(_collect_dir(target, tracer)["upperbound.json"])

    def check(record, _):
        ps, pi = ref.powers(_wf(init), _wf(init), _ref_quantile_paths(ch), cfg.N, cfg.Q)
        _require(math.isfinite(record["bound"]) and record["bound"] >= ps / pi * (1 - 1e-9),
                 f"full_scale.ini: bound {record['bound']!r} below a pair's SIR {ps / pi!r}")

    return Op("cli_upperbound_full_scale", None,
              call=lambda: _cli(["upperbound", str(FULL_INI), "--set", f"run.output_dir={target}"]),
              check=check, collect=collect)


def _referee(seed: int, out_dir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    small = pops.LatticeConfig(N=20, Q=16)
    ch_small = _small_channel(small, rng, 2)
    large = pops.LatticeConfig(N=22, Q=18)
    ch_large = _small_channel(large, rng, 2)
    init = pops.make_hermite_init(small, [1.0, 0.0, float(rng.uniform(0.0, 0.1))])
    rx_init = pops.make_gaussian_init(small, (small.L_psi - 1) / 2.0, float(rng.uniform(4.0, 6.0)))
    trials = 10000
    return [
        bound_op("bound_dim1200", small, ch_small, 10.0, rng),
        bound_op("bound_dim1452", large, ch_large, 10.0, rng),
        mc_op("mc_cp", small, ch_small, pops.make_conventional_tx(small),
              pops.make_conventional_rx(small), 10.0, trials, seed),
        mc_op("mc_init", small, ch_small, init, rx_init, 10.0, trials, seed + 1),
        cli_upperbound_full_scale(out_dir),
        *_probes(rng, seed, {"optimize", "sinr"}, out_dir),
    ]


WORKLOADS = {"optimize": _optimize, "evaluate": _evaluate, "referee": _referee}


def build(name: str, seed: int, out_dir: Path) -> list[Op]:
    """The workload's operations on inputs drawn from `seed`."""
    return WORKLOADS[name](seed, out_dir)
