"""Whole-stack acceptance checks, one test per numbered release criterion.

Every test prints a single ``[PASS]``/``[FAIL]`` line with its measured figure
of merit, so running ``pytest -s tests/test_acceptance.py`` doubles as a
checklist.  Tolerances and wall-clock budgets are part of the assertions.
"""

import math
import time

import numpy as np
import scipy.linalg

from helpers import random_kernel_pair, random_pathlist, random_waveform
from pops import (
    LatticeConfig,
    McConfig,
    PopsConfig,
    SeparableChannel,
    build_kronecker_system,
    build_ks,
    build_ks_kin,
    estimate_sinr,
    half_step,
    kronecker_quotient,
    make_conventional_rx,
    make_conventional_tx,
    make_gaussian_init,
    make_hermite_init,
    make_rrc_init,
    noise_correlation,
    oob_level_db,
    oob_power_fraction,
    psd,
    run_pops,
    sinr,
    sinr_conventional,
    sinr_time_reversed,
    sweep_ft,
    sweep_mismatch,
    sweep_time_sync,
    time_reverse,
    upper_bound,
)


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    print(line)
    return line


def _db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def test_criterion_01_closed_form_equivalence():
    """Conventional closed-form SINR matches the kernel engine on a spread grid."""
    t0 = time.monotonic()
    configs = [LatticeConfig(N=20, Q=16), LatticeConfig(N=12, Q=8), LatticeConfig(N=36, Q=32)]
    spreads = [1e-3, 3e-3, 0.01, 0.03, 0.1]
    worst, cases = 0.0, 0
    for cfg in configs:
        channels = [SeparableChannel.from_spread_product(cfg, v) for v in spreads]
        # Uniform-delay profiles past the guard (and, on the first config, past
        # the symbol itself) reach the clipped-overlap branches of the formula.
        channels.append(
            SeparableChannel.with_uniform_delays(K=6, b=0.6, max_delay=cfg.guard + 5, Bd=0.003)
        )
        if cfg.N == 20:
            channels.append(
                SeparableChannel.with_uniform_delays(K=6, b=0.6, max_delay=22, Bd=0.003)
            )
        tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
        for ch in channels:
            closed = sinr_conventional(cfg, ch, 10.0).sinr
            engine = sinr(tx, rx, ch, cfg, 10.0).sinr
            worst = max(worst, abs(closed - engine) / engine)
            cases += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    line = _report(1, ok, f"{cases} channel/lattice cases, worst rel err "
                          f"{worst:.2e} (tol 1e-8), {elapsed:.1f}s")
    assert ok, line


def test_criterion_02_interference_free_baseline():
    """Delays inside the guard and zero Doppler give SINR = snr*Q/N exactly."""
    t0 = time.monotonic()
    cfg = LatticeConfig(N=20, Q=16)
    ch = SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=cfg.guard, Bd=0.0)
    tx, rx = make_conventional_tx(cfg), make_conventional_rx(cfg)
    target = 10.0 * cfg.Q / cfg.N
    closed = sinr_conventional(cfg, ch, 10.0).sinr
    engine = sinr(tx, rx, ch, cfg, 10.0).sinr
    est = estimate_sinr(tx, rx, ch, cfg, 10.0, McConfig(trials=100_000, rng_seed=0))
    elapsed = time.monotonic() - t0
    dev = abs(est.sinr - target) / est.se
    ok = (abs(closed - target) <= 1e-9 and abs(engine - target) <= 1e-9
          and dev <= 3.0 and elapsed < 30.0)
    line = _report(2, ok, f"analytic {closed:.12f} vs {target}, "
                          f"mc {est.sinr:.4f} at {dev:.2f}*se (tol 3*se), {elapsed:.1f}s")
    assert ok, line


def test_criterion_03_solver_agreement():
    """The half-step lands on the optimal SINR of the dense eigensolver."""
    t0 = time.monotonic()
    rng = np.random.default_rng(3003)
    worst = 0.0
    for trial in range(20):
        if trial % 3 == 2:
            # every third pair comes from the physical kernel builder
            cfg = LatticeConfig(N=10, Q=8)
            ch = random_pathlist(rng, max_delay=3, k=3, nu_scale=0.03)
            w = random_waveform(rng, int(rng.integers(8, 13)), offset=-4)
            ks, kin = build_ks_kin(w, ch, cfg, int(rng.integers(6, 11)), 10.0)
        else:
            ks, kin = random_kernel_pair(rng, int(rng.integers(2, 65)),
                                         ridge=float(rng.uniform(0.05, 0.5)))
        want = scipy.linalg.eigh(ks.data, kin.data, eigvals_only=True,
                                 subset_by_index=[ks.L - 1, ks.L - 1])[0]
        worst = max(worst, abs(half_step(ks, kin)[1] - want) / want)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    line = _report(3, ok, f"20 kernel pairs, worst rel err vs dense eigh {worst:.2e} "
                          f"(tol 1e-10), {elapsed:.1f}s")
    assert ok, line


def test_criterion_04_monotone_ping_pong():
    """Every trajectory is nondecreasing and converges within the iteration cap."""
    worst_drop, pieces = 0.0, []
    all_converged = True
    for q, n in ((16, 20), (64, 80), (128, 160)):
        cfg = LatticeConfig(N=n, Q=q)
        ch = SeparableChannel.from_spread_product(cfg, 0.01)
        res = run_pops(cfg, ch, PopsConfig(snr=10.0, epsilon=1e-10, max_iterations=200))
        vals = np.array([v for _, _, v in res.sinr_trajectory])
        worst_drop = min(worst_drop, float(np.diff(vals).min()))
        all_converged = all_converged and res.converged
        pieces.append(f"Q={q}:{res.iterations_used}it")
    ok = worst_drop >= -1e-9 and all_converged
    line = _report(4, ok, f"{' '.join(pieces)} (cap 200), "
                          f"worst step {worst_drop:.1e} (tol -1e-9)")
    assert ok, line


def test_criterion_05_duality_identities():
    """Role-swap quadratic forms and the time-reversal SINR identity."""
    rng = np.random.default_rng(5005)
    worst_quad = 0.0
    for _ in range(10):
        ch = random_pathlist(rng, max_delay=4, k=3, nu_scale=0.05)
        phi = random_waveform(rng, 12, offset=-4)
        psi_w = random_waveform(rng, 9, offset=-2)
        fwd = build_ks(phi, ch, len(psi_w), window_start=psi_w.offset).quad(psi_w)
        rev = build_ks(psi_w, ch, len(phi), window_start=phi.offset, sign=-1).quad(phi)
        worst_quad = max(worst_quad, abs(fwd - rev) / abs(fwd))
    worst_rev = 0.0
    cfg = LatticeConfig(N=10, Q=8)
    for _ in range(10):
        ch = random_pathlist(rng, max_delay=3, k=2, nu_scale=0.02)
        tx = random_waveform(rng, cfg.L_phi, offset=-(cfg.L_phi // 2))
        rx = random_waveform(rng, cfg.L_psi, offset=-2)
        a = sinr(tx, rx, ch, cfg, 10.0).sinr
        b = sinr_time_reversed(tx, rx, ch, cfg, 10.0).sinr
        worst_rev = max(worst_rev, abs(a - b) / a)
    ok = worst_quad <= 1e-10 and worst_rev <= 1e-10
    line = _report(5, ok, f"10+10 instances, quad-form rel err {worst_quad:.2e}, "
                          f"time-reversal rel err {worst_rev:.2e} (tol 1e-10)")
    assert ok, line


def test_criterion_06_kronecker_identity_and_bound():
    """Product-space quotient equals the direct SIR; the relaxation dominates."""
    t0 = time.monotonic()
    rng = np.random.default_rng(6006)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(8, 13))
        q = int(rng.integers(6, n + 1))
        cfg = LatticeConfig(N=n, Q=q)
        ch = random_pathlist(rng, max_delay=4, k=3, nu_scale=0.05)
        tx = random_waveform(rng, int(rng.integers(6, n + 3)), offset=int(rng.integers(-5, 0)))
        rx = random_waveform(rng, int(rng.integers(5, q + 2)), offset=int(rng.integers(-3, 2)))
        sys_ = build_kronecker_system(cfg, ch, phi_offset=tx.offset, phi_length=len(tx),
                                      psi_offset=rx.offset, psi_length=len(rx))
        got = kronecker_quotient(sys_, tx, rx)
        want = sinr(tx, rx, ch, cfg, math.inf).sir
        worst = max(worst, abs(got - want) / want)

    cfg = LatticeConfig(N=10, Q=8)
    ch = SeparableChannel.from_spread_product(cfg, 0.01)
    bound = upper_bound(build_kronecker_system(cfg, ch.to_pathlist(16)), snr=10.0)
    center = (cfg.L_phi - 1) / 2.0
    inits = [
        make_hermite_init(cfg, [1.0]),
        make_hermite_init(cfg, [0.9, 0.0, 0.1]),
        make_gaussian_init(cfg, center, 3.0),
        make_gaussian_init(cfg, center, 6.0),
        make_rrc_init(cfg, 0.25),
        make_rrc_init(cfg, 1.0),
    ] + [random_waveform(rng, cfg.L_phi, offset=-(cfg.L_phi // 2)) for _ in range(4)]
    best = max(
        run_pops(cfg, ch, PopsConfig(snr=10.0, max_iterations=60, init=init)).final_sinr
        for init in inits
    )
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-10 and bound >= best and elapsed < 60.0
    line = _report(6, ok, f"25 quotients rel err {worst:.2e} (tol 1e-10); "
                          f"bound {bound:.2f} >= best-of-10 {best:.2f}, {elapsed:.1f}s")
    assert ok, line


def test_criterion_07_sir_versus_lattice_density():
    """Optimized SIR clears 20 dB at FT=1.25 and beats conventional on the grid."""
    t0 = time.monotonic()
    ref = LatticeConfig(N=160, Q=128)
    ch = SeparableChannel.from_spread_product(ref, 0.01)
    fts = [135 / 128, 141 / 128, 1.25, 1.375, 1.5, 1.75, 2.0]
    sw = sweep_ft(ref, ch, fts, snr=math.inf,
                  pops=PopsConfig(max_iterations=100, snr=math.inf))
    po = np.asarray(sw.series["pops_dphi1_dpsi1"])
    cv = np.asarray(sw.series["conventional"])
    elapsed = time.monotonic() - t0
    at_125 = float(po[fts.index(1.25)])
    margin = float(np.min(_db(po) - _db(cv)))
    ok = at_125 >= 100.0 and bool(np.all(po > cv)) and elapsed < 300.0
    line = _report(7, ok, f"SIR@FT=1.25 {10 * math.log10(at_125):.2f} dB (floor 20), "
                          f"min margin over conventional {margin:+.2f} dB, {elapsed:.0f}s")
    assert ok, line


def test_criterion_08_out_of_band_suppression():
    """Long optimized pulses push spectral tails at least 20 dB under the rect pair."""
    t0 = time.monotonic()
    cfg3 = LatticeConfig(N=256, Q=128, Dphi=3, Dpsi=3)
    cfg1 = LatticeConfig(N=256, Q=128)
    # Delay-heavy split of the spread product: the optimizer must stay smooth
    # and wide in time, which is where the spectral containment comes from.
    ch = SeparableChannel.from_spread_product(cfg3, 0.01, bd_over_f=0.05)
    res = run_pops(cfg3, ch, PopsConfig(max_iterations=25, snr=10.0))
    conv_tx = make_conventional_tx(cfg1)
    lvl_opt = oob_level_db(psd(res.tx_opt, cfg3), 2.0)
    lvl_cv = oob_level_db(psd(conv_tx, cfg1), 2.0)
    fr_opt = oob_power_fraction(res.tx_opt, cfg3)
    fr_cv = oob_power_fraction(conv_tx, cfg1)
    elapsed = time.monotonic() - t0
    ok = lvl_opt <= lvl_cv - 20.0 and fr_opt < fr_cv and elapsed < 60.0
    line = _report(8, ok, f"tail beyond 2F {lvl_opt:.1f} vs {lvl_cv:.1f} dB "
                          f"(need -20); out-of-band fraction {fr_opt:.2e} < {fr_cv:.2e}, "
                          f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_09_synchronization_robustness():
    """Timing-offset dominance over both CP baselines; safer to design for large spread."""
    t0 = time.monotonic()
    cfg = LatticeConfig(N=256, Q=128)
    ch = SeparableChannel.from_spread_product(cfg, 0.01)
    res = run_pops(cfg, ch, PopsConfig(max_iterations=60, snr=math.inf))
    taus = list(range(-cfg.N // 4, cfg.N // 4 + 1))
    ts = sweep_time_sync(res, ch, cfg, taus, snr=math.inf, cp_baselines=(16, 32))
    p = np.asarray(ts.series["pops"])
    margins = {
        cp: float(np.min(_db(p) - _db(ts.series[f"conventional_cp{cp}"])))
        for cp in (16, 32)
    }
    ok_time = all(m >= 0.0 for m in margins.values())

    mm_cfg = LatticeConfig(N=80, Q=64)
    mm = sweep_mismatch(mm_cfg, optimize_at=[0.001, 0.01], evaluate_over=[0.001, 0.01],
                        snr=math.inf, pops=PopsConfig(max_iterations=100, snr=math.inf))
    lo = np.asarray(mm.series["optimized_at_0.001"])
    hi = np.asarray(mm.series["optimized_at_0.01"])
    deficit_hi = float(_db(lo[0]) - _db(hi[0]))  # 0.01 design evaluated at 0.001
    deficit_lo = float(_db(hi[1]) - _db(lo[1]))  # 0.001 design evaluated at 0.01
    elapsed = time.monotonic() - t0
    ok = ok_time and deficit_hi < deficit_lo and elapsed < 300.0
    line = _report(9, ok, f"tau in [-{cfg.N // 4}, {cfg.N // 4}] margins "
                          f"cp16 {margins[16]:+.2f} / cp32 {margins[32]:+.2f} dB; "
                          f"mismatch deficits {deficit_hi:+.2f} < {deficit_lo:+.2f} dB, "
                          f"{elapsed:.0f}s")
    assert ok, line


def test_criterion_10_monte_carlo_grid():
    """Simulation agrees with the analytic SINR on six pair/channel scenarios."""
    t0 = time.monotonic()
    cfg = LatticeConfig(N=20, Q=16)
    channels = [
        SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=cfg.guard, Bd=0.0),
        SeparableChannel.from_spread_product(cfg, 0.005),
        SeparableChannel.from_spread_product(cfg, 0.01),
    ]
    conv = (make_conventional_tx(cfg), make_conventional_rx(cfg))
    worst, scenarios = 0.0, 0
    for ch in channels:
        res = run_pops(cfg, ch, PopsConfig(snr=10.0, max_iterations=100))
        for tx, rx in (conv, (res.tx_opt, res.rx_opt)):
            analytic = sinr(tx, rx, ch, cfg, 10.0).sinr
            est = estimate_sinr(tx, rx, ch, cfg, 10.0, McConfig(trials=100_000, rng_seed=0))
            worst = max(worst, abs(est.sinr - analytic) / est.se)
            scenarios += 1
    elapsed = time.monotonic() - t0
    ok = worst <= 3.0 and scenarios == 6 and elapsed < 600.0
    line = _report(10, ok, f"6 scenarios x 1e5 trials, worst deviation "
                           f"{worst:.2f}*se (tol 3*se), {elapsed:.0f}s")
    assert ok, line


def test_criterion_11_noise_correlation_contrast():
    """Rect receiver leaves noise white; the zero-padding dual correlates it."""
    cfg = LatticeConfig(N=20, Q=16)
    positions = [(m, n) for n in (-1, 0, 1) for m in (0, 1, 2, 5)]
    R = noise_correlation(make_conventional_rx(cfg), cfg, positions)
    off_cp = float(np.abs(R - np.diag(np.diag(R))).max())

    rx_zp = time_reverse(make_conventional_tx(cfg))
    Rz = noise_correlation(rx_zp, cfg, [(m, 0) for m in range(8)])
    upper = np.abs(Rz[np.triu_indices_from(Rz, k=1)]) / float(np.diag(Rz).real[0])
    peak = float(upper.max())
    ok = off_cp < 1e-12 and peak > 0.01
    line = _report(11, ok, f"cp off-diagonals {off_cp:.1e} (< 1e-12); "
                           f"zp same-symbol peak correlation {peak:.3f} (> 0.01)")
    assert ok, line
