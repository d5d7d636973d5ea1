"""Properties the reference evaluator and the span arithmetic must have.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path[:0] = [str(Path(__file__).resolve().parent), str(Path(__file__).resolve().parents[1] / "src")]

import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

LATTICES = [(20, 16), (12, 8), (36, 32), (160, 128)]


@pytest.mark.parametrize("N,Q", LATTICES)
def test_cp_pair_is_interference_free_inside_the_guard(N, Q):
    rng = np.random.default_rng(N)
    delays = np.unique(rng.integers(0, N - Q + 1, size=4))
    taps = rng.uniform(0.1, 1.0, size=delays.size)
    tx, rx = ref.conventional_pair(N, Q)
    for ch in (ref.paths(delays, np.zeros(delays.size), taps / taps.sum()),
               ref.separable(delays, taps / taps.sum(), 0.0)):
        ps, pi = ref.powers(tx, rx, ch, N, Q)
        assert ps == pytest.approx(Q / N, rel=1e-13)
        assert pi <= 1e-13
        assert ref.sinr(tx, rx, ch, N, Q, 10.0) == pytest.approx(10.0 * Q / N, rel=1e-12)


@pytest.mark.parametrize("N,Q", LATTICES)
def test_cp_pair_powers_sum_to_the_density_on_any_profile(N, Q):
    rng = np.random.default_rng(N + 1)
    K = 6
    delays = np.sort(rng.choice(np.arange(0, 2 * N), size=K, replace=False))
    taps = ref.exp_profile(K, 0.6)
    tx, rx = ref.conventional_pair(N, Q)
    for ch in (ref.paths(delays, rng.uniform(-0.01, 0.01, size=K), taps),
               ref.separable(delays, taps, 0.004)):
        ps, pi = ref.powers(tx, rx, ch, N, Q)
        assert ps < Q / N
        assert ps + pi == pytest.approx(Q / N, rel=1e-12)


def test_separable_channel_is_the_limit_of_its_doppler_quantiles():
    N, Q = 20, 16
    rng = np.random.default_rng(5)
    tx = (rng.standard_normal(N) + 1j * rng.standard_normal(N), -N // 2)
    rx = (rng.standard_normal(N) + 1j * rng.standard_normal(N), -N // 2 + 1)
    delays, taps, bd_ts = np.array([0, 1, 2]), ref.exp_profile(3, 0.5), 0.005
    exact = ref.sinr(tx, rx, ref.separable(delays, taps, bd_ts), N, Q, math.inf)
    G = 64
    quantized = ref.paths(np.repeat(delays, G), np.tile(ref.jakes_quantiles(bd_ts, G), 3),
                          np.repeat(taps / G, G))
    assert ref.sinr(tx, rx, quantized, N, Q, math.inf) == pytest.approx(exact, rel=1e-9)


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.call_counts() == {"a": 1, "b": 2, "c": 1}


def test_installed_wrappers_are_removed_on_exit():
    import pops
    import pops.cli
    import pops.optimizer

    originals = (pops.run_pops, pops.optimizer.build_ks_kin, dict(pops.optimizer._SOLVERS),
                 pops.SeparableChannel.to_pathlist, pops.cli.main)
    tracer = Tracer()
    with tracer.installed():
        assert pops.run_pops is not originals[0]
        cfg = pops.LatticeConfig(N=12, Q=8)
        ch = pops.SeparableChannel.from_spread_product(cfg, 0.01)
        pops.run_pops(cfg, ch, pops.PopsConfig(max_iterations=2))
        ch.to_pathlist()
    assert (pops.run_pops, pops.optimizer.build_ks_kin, dict(pops.optimizer._SOLVERS),
            pops.SeparableChannel.to_pathlist, pops.cli.main) == originals
    counts = tracer.call_counts()
    assert counts["optimizer.run_pops"] == 1
    assert counts["optimizer.half_step"] == counts["kernels.build_ks_kin"] == 4
    assert counts["kernels.build_ks"] == 4
    assert counts["channel.to_pathlist"] == 1
