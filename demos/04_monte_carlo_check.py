"""Cross-validate the analytic SINR against a link-level simulation.

The kernel-based SINR is a closed quadratic form; the Monte-Carlo estimator
draws random symbols on every lattice atom, random channel realizations and
noise, and measures the same three powers (useful, interference, noise) at
the demodulated (0, 0) symbol, summing each atom's response through each
path.  The two must agree within statistical error -- a strong end-to-end
check, since they share no code path but the channel's Doppler nodes.
"""

import math

from pops import (
    LatticeConfig,
    McConfig,
    PopsConfig,
    SeparableChannel,
    estimate_sinr,
    make_conventional_rx,
    make_conventional_tx,
    run_pops,
    sinr,
)

cfg = LatticeConfig(N=20, Q=16)
snr = 10.0
trials = 20_000

scenarios = [
    ("guard-protected, no Doppler",
     SeparableChannel.with_uniform_delays(K=4, b=0.5, max_delay=cfg.guard, Bd=0.0)),
    ("spread 0.005", SeparableChannel.from_spread_product(cfg, 0.005)),
    ("spread 0.01", SeparableChannel.from_spread_product(cfg, 0.01)),
]

print(f"{trials} trials per scenario, snr={snr} ({10 * math.log10(snr):.0f} dB)\n")
print(f"{'scenario':>28} {'pair':>12} {'analytic':>9} {'simulated':>10} {'dev/se':>7}")
for label, ch in scenarios:
    opt = run_pops(cfg, ch, PopsConfig(snr=snr, max_iterations=100))
    pairs = [
        ("conventional", make_conventional_tx(cfg), make_conventional_rx(cfg)),
        ("optimized", opt.tx_opt, opt.rx_opt),
    ]
    for name, tx, rx in pairs:
        analytic = sinr(tx, rx, ch, cfg, snr).sinr
        est = estimate_sinr(tx, rx, ch, cfg, snr, McConfig(trials=trials, rng_seed=1))
        dev = (est.sinr - analytic) / est.se
        print(f"{label:>28} {name:>12} {analytic:9.4f} "
              f"{est.sinr:7.4f}({est.se:.4f}) {dev:+7.2f}")

print("\nThe first scenario doubles as an exact sanity point: all delays fit")
print(f"inside the guard and Bd=0, so the analytic SINR is snr*Q/N = "
      f"{snr * cfg.Q / cfg.N} with no interference at all.")
