"""Property tests of the Kronecker relaxation on drawn lattices, channels and windows."""

import cmath
import dataclasses
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dense_kronecker_forms, dense_upper_bound, random_waveform
from pops import (
    LatticeConfig,
    PathList,
    PopsConfig,
    SingularInterferenceError,
    Waveform,
    build_kronecker_system,
    kronecker_quotient,
    run_pops,
    sinr,
    upper_bound,
)

PROPERTY = settings(max_examples=30, deadline=timedelta(seconds=5), derandomize=True,
                    database=None)


@st.composite
def instances(draw):
    """Lattice, path list, system windows and a pair of waveforms inside them."""
    n = draw(st.integers(6, 12))
    cfg = LatticeConfig(N=n, Q=draw(st.integers(4, n)))
    paths = draw(st.lists(
        st.tuples(st.integers(0, 2 * n), st.floats(-0.05, 0.05), st.floats(0.1, 1.0)),
        min_size=1, max_size=4, unique_by=lambda p: (p[0], p[1]),
    ))
    total = sum(p[2] for p in paths)
    ch = PathList.from_paths([(d, nu, w / total) for d, nu, w in paths])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # tx may be shorter than N: a pair that no pairing reaches has neither useful
    # nor interference power, and both sides read its quotient as 0.
    tx = random_waveform(rng, draw(st.integers(1, n + 2)), offset=draw(st.integers(-6, 0)))
    rx = random_waveform(rng, draw(st.integers(5, cfg.Q + 1)), offset=draw(st.integers(-4, 2)))
    pads = [draw(st.integers(0, 3)) for _ in range(4)]
    sys_ = build_kronecker_system(
        cfg, ch,
        phi_offset=tx.offset - pads[0], phi_length=len(tx) + pads[0] + pads[1],
        psi_offset=rx.offset - pads[2], psi_length=len(rx) + pads[2] + pads[3],
    )
    return cfg, ch, sys_, tx, rx


@PROPERTY
@given(instances())
def test_quotient_equals_sir(inst):
    cfg, ch, sys_, tx, rx = inst
    want = sinr(tx, rx, ch, cfg, math.inf).sir
    assert kronecker_quotient(sys_, tx, rx) == pytest.approx(want, rel=1e-10)


@PROPERTY
@given(instances(), st.floats(0.5, 1000.0))
def test_bound_equals_dense_oracle(inst, snr):
    cfg, ch, sys_, _, _ = inst
    a, b = dense_kronecker_forms(cfg, ch, sys_.phi_offset, sys_.phi_length,
                                 sys_.psi_offset, sys_.psi_length)
    assert upper_bound(sys_, snr) == pytest.approx(dense_upper_bound(a, b, snr), rel=1e-10)


@PROPERTY
@given(instances(), st.floats(0.5, 1000.0))
def test_bound_dominates_drawn_pair(inst, snr):
    cfg, ch, sys_, tx, rx = inst
    assert upper_bound(sys_, snr) >= sinr(tx, rx, ch, cfg, snr).sinr * (1 - 1e-10)


@PROPERTY
@given(instances(), st.floats(0.5, 1000.0))
def test_sir_bound_dominates_finite_snr_bound(inst, snr):
    _, _, sys_, _, _ = inst
    try:
        sir_bound = upper_bound(sys_)
    except SingularInterferenceError:  # the SIR bound is infinite
        return
    assert sir_bound >= upper_bound(sys_, snr) * (1 - 1e-10)


scales = st.builds(lambda r, t: r * cmath.exp(1j * t),
                   st.floats(1e-3, 1e3), st.floats(0, 2 * math.pi))


@PROPERTY
@given(instances(), st.floats(0.5, 1000.0), scales, scales, st.floats(0.01, 100.0))
def test_scale_invariance(inst, snr, a, b, s):
    """Scaling tx by a and rx by b changes no ratio; neither does the time scale
    Ts -> s Ts with every Doppler divided by s, which the bound sees as well."""
    cfg, ch, sys_, tx, rx = inst
    tx_a, rx_b = Waveform(a * tx.samples, tx.offset), Waveform(b * rx.samples, rx.offset)
    cfg_s = dataclasses.replace(cfg, Ts=s * cfg.Ts)
    ch_s = PathList(ch.delays, ch.dopplers / s, ch.powers, Ts=s * ch.Ts)
    sys_s = build_kronecker_system(cfg_s, ch_s, phi_offset=sys_.phi_offset,
                                   phi_length=sys_.phi_length, psi_offset=sys_.psi_offset,
                                   psi_length=sys_.psi_length)
    assert sinr(tx_a, rx_b, ch_s, cfg_s, snr).sinr == pytest.approx(
        sinr(tx, rx, ch, cfg, snr).sinr, rel=1e-12)
    assert kronecker_quotient(sys_s, tx_a, rx_b) == pytest.approx(
        kronecker_quotient(sys_, tx, rx), rel=1e-12)
    assert upper_bound(sys_s, snr) == pytest.approx(upper_bound(sys_, snr), rel=1e-12)


@PROPERTY
@given(instances(), st.floats(0.5, 1000.0), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_bound_dominates_run_pops(inst, snr, iterations, seed):
    cfg, ch, _, _, _ = inst
    init = random_waveform(np.random.default_rng(seed), cfg.L_phi, offset=-(cfg.L_phi // 2))
    res = run_pops(cfg, ch, PopsConfig(snr=snr, max_iterations=iterations, init=init))
    assert upper_bound(build_kronecker_system(cfg, ch), snr) >= res.final_sinr * (1 - 1e-10)
    # The optimizer's value is the SINR at snr of the pair it returns.
    assert res.final_sinr == pytest.approx(sinr(res.tx_opt, res.rx_opt, ch, cfg, snr).sinr,
                                           rel=1e-9)
