"""Committed sweep artifacts pin the sidecar format and its replay.

``tests/data/sweep_<kind>.csv`` and its ``.meta.json`` sidecar hold one run of
each sweep kind on the inputs in ``CASES``.  A fresh run on those inputs must
write the committed metadata and reproduce the committed series to 1e-11
relative (NaN and infinities exactly), and replaying the committed sidecar
must give the fresh run's series.  The fixtures were written by running this file as a
script (``PYTHONPATH=src python tests/test_sidecars.py``); rewriting them
moves the pinned format.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from pops import (
    LatticeConfig,
    PathList,
    PopsConfig,
    PopsResult,
    SeparableChannel,
    Waveform,
    initialization_study,
    psd,
    read_sweep_csv,
    rerun_from_metadata,
    sweep_doppler_delay,
    sweep_freq_sync,
    sweep_ft,
    sweep_mismatch,
    sweep_time_sync,
    write_sweep_csv,
)

DATA = Path(__file__).resolve().parent / "data"
CFG = LatticeConfig(N=10, Q=8)
SEPARABLE = SeparableChannel.from_spread_product(CFG, 0.01, K=3)
PATHS = PathList(delays=np.array([0, 1, 3]), dopplers=np.array([0.0, -0.015625, 0.03125]),
                 powers=np.array([0.5, 0.375, 0.125]))


def _pulse(offset: int, turn: int = 0) -> Waveform:
    """Complex test pulse of 10 dyadic samples, exact on every machine."""
    q = np.arange(10)
    return Waveform((q - 3.5 + turn) / 8 + 1j * ((q + turn) % 3) / 4, offset=offset)


def _fixed_pair(tx: Waveform, rx: Waveform) -> PopsResult:
    return PopsResult(tx_opt=tx, rx_opt=rx, sinr_trajectory=(), converged=True,
                      iterations_used=0)


CASES = {
    "psd": lambda: psd(_pulse(-3), CFG, oversample=4, n_subcarriers=3),
    "ft": lambda: sweep_ft(CFG, SEPARABLE, [1.25, 1.3, 1.5], durations=[(1, 1), (1, 2)],
                           snr=10.0, pops=PopsConfig(max_iterations=5)),
    "doppler-delay": lambda: sweep_doppler_delay(
        CFG, 0.01, [0.05, 0.2], cp_samples=(2,), snr=math.inf,
        pops=PopsConfig(max_iterations=5, init=_pulse(-5)), K=4, b=0.5),
    "time-sync": lambda: sweep_time_sync(_fixed_pair(_pulse(0), _pulse(-1, 1)), PATHS, CFG,
                                         [-2, 0, 3], snr=20.0, cp_baselines=(2,)),
    "freq-sync": lambda: sweep_freq_sync(_fixed_pair(_pulse(-2), _pulse(1, 2)), SEPARABLE,
                                         CFG, [-0.25, 0.0, 0.125], snr=math.inf,
                                         cp_baselines=(2, 4)),
    "mismatch": lambda: sweep_mismatch(CFG, [0.005, 0.02], [0.005, 0.01, 0.02], snr=10.0,
                                       pops=PopsConfig(max_iterations=5, epsilon=1e-8),
                                       K=3, b=0.25),
    "init-study": lambda: initialization_study(
        CFG, PATHS, 10.0, [("a", _pulse(-5)), ("b", _pulse(-4, 1)), ("c", _pulse(-5, 2))],
        pops=PopsConfig(max_iterations=5)),
}


@pytest.mark.parametrize("kind", sorted(CASES))
def test_committed_sidecar(kind):
    committed = read_sweep_csv(DATA / f"sweep_{kind}.csv")
    fresh = CASES[kind]()
    assert json.loads(json.dumps(fresh.metadata)) == committed.metadata
    again = rerun_from_metadata(committed.metadata)
    assert again.axis_name == fresh.axis_name == committed.axis_name
    assert list(again.series) == list(fresh.series) == list(committed.series)
    np.testing.assert_array_equal(again.axis_values, committed.axis_values)
    for name in fresh.series:
        np.testing.assert_array_equal(again.series[name], fresh.series[name])
        np.testing.assert_allclose(fresh.series[name], committed.series[name],
                                   rtol=1e-11, atol=0, err_msg=name)


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for kind, run in CASES.items():
        write_sweep_csv(run(), DATA / f"sweep_{kind}.csv")
