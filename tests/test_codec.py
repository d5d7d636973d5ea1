"""The JSON codec: today's layout, bit-exact round trips, tolerance of retired keys."""

import dataclasses
import json
import math
import struct
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pops import LatticeConfig, PathList, PopsConfig, SeparableChannel, Waveform
from pops.codec import Channel, decode, encode

PROPERTY = settings(max_examples=30, deadline=timedelta(seconds=5), derandomize=True,
                    database=None)

numbers = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(1e-9, 1e9)


def bits(value):
    """Everything that tells two values apart, floats and arrays by their bytes."""
    if isinstance(value, Waveform):
        return ("Waveform", value.offset, value.samples.tobytes())
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(bits(getattr(value, f.name))
                                               for f in dataclasses.fields(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tobytes())
    if isinstance(value, float):
        return struct.pack("<d", value)
    return value


@st.composite
def waveforms(draw):
    n = draw(st.integers(1, 12))
    samples = np.empty(n, dtype=np.complex128)
    samples.real = draw(st.lists(numbers, min_size=n, max_size=n))
    samples.imag = draw(st.lists(numbers, min_size=n, max_size=n))
    return Waveform(samples, offset=draw(st.integers(-1000, 1000)))


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 300))
    return LatticeConfig(N=n, Q=draw(st.integers(1, n)), Ts=draw(positive),
                         Dphi=draw(st.integers(1, 4)), Dpsi=draw(st.integers(1, 4)))


@st.composite
def path_lists(draw):
    paths = draw(st.lists(st.tuples(st.integers(0, 500), numbers, st.floats(0.01, 1.0)),
                          min_size=1, max_size=6, unique_by=lambda p: (p[0], p[1])))
    total = sum(p[2] for p in paths)
    return PathList.from_paths([(d, nu, w / total) for d, nu, w in paths], Ts=draw(positive))


@st.composite
def separable_channels(draw):
    delays = sorted(draw(st.sets(st.integers(0, 500), min_size=1, max_size=8)))
    ts = draw(positive)
    return SeparableChannel(K=len(delays), b=draw(st.floats(0.01, 0.99)), delays=delays,
                            Bd=draw(st.floats(0.0, 0.99)) / ts, Ts=ts)


@st.composite
def pops_configs(draw):
    return PopsConfig(epsilon=draw(positive), max_iterations=draw(st.integers(1, 10**6)),
                      snr=draw(st.one_of(st.just(math.inf), positive)),
                      init=draw(st.one_of(st.none(), waveforms())))


@pytest.mark.parametrize("hint, values", [
    (LatticeConfig, lattices()),
    (Channel, path_lists()),
    (Channel, separable_channels()),
    (Waveform, waveforms()),
    (PopsConfig, pops_configs()),
], ids=["lattice", "paths", "separable", "waveform", "pops"])
@PROPERTY
@given(data=st.data())
def test_round_trip_is_bit_exact(hint, values, data):
    value = data.draw(values)
    back = decode(hint, json.loads(json.dumps(encode(value))))
    assert bits(back) == bits(value)
    assert back == value


def test_layout():
    assert encode(LatticeConfig(N=10, Q=8)) == {"N": 10, "Q": 8, "Ts": 1.0, "Dphi": 1, "Dpsi": 1}
    assert encode(Waveform([1 + 2j, -0.5j], offset=-3)) == {
        "offset": -3, "re": [1.0, 0.0], "im": [2.0, -0.5]}
    assert encode(PathList.ideal()) == {
        "kind": "paths", "delays": [0], "dopplers": [0.0], "powers": [1.0], "Ts": 1.0}
    sep = SeparableChannel(K=2, b=0.5, delays=[0, 3], Bd=0.01)
    assert encode(sep) == {"kind": "separable", "K": 2, "b": 0.5, "delays": [0, 3],
                           "Bd": 0.01, "Ts": 1.0}
    # An absent initializer is left out; an infinite SNR is written "inf".
    assert encode(PopsConfig()) == {"epsilon": 1e-10, "max_iterations": 200, "snr": "inf"}
    assert encode(PopsConfig(snr=10.0, init=Waveform([1.0])))["init"] == {
        "offset": 0, "re": [1.0], "im": [0.0]}
    assert decode(float, "inf") == math.inf


@pytest.mark.parametrize("key", ["approach", "bound_max_dimension", "paper_literal_gep"])
def test_unknown_keys_are_ignored(key):
    for hint, value in [(PopsConfig, PopsConfig(snr=3.0, init=Waveform([1j], offset=2))),
                        (LatticeConfig, LatticeConfig(N=12, Q=8, Dpsi=2)),
                        (Channel, SeparableChannel(K=1, b=0.5, delays=[2], Bd=0.1))]:
        assert bits(decode(hint, {**encode(value), key: "retired"})) == bits(value)


def test_unknown_channel_kind_rejected():
    with pytest.raises(ValueError, match="unknown channel kind 'rayleigh'"):
        decode(Channel, {"kind": "rayleigh", "Ts": 1.0})
