"""One JSON codec for the package's value types, derived from their dataclass fields.

:func:`encode` turns a :class:`~pops.lattice.LatticeConfig`,
:class:`~pops.channel.PathList`, :class:`~pops.channel.SeparableChannel`,
:class:`~pops.lattice.Waveform` or :class:`~pops.optimizer.PopsConfig` (and
lists, dicts and scalars holding them) into plain JSON values: one key per
field, arrays as lists, a ``None`` field left out and an infinite float written
as ``"inf"``.  :func:`decode` rebuilds the object from the field type hints.
Two layouts are fixed by the sidecars already written: a waveform is
``offset``/``re``/``im``, and a channel carries a ``kind`` tag (``separable``
or ``paths``) that selects its class on decode.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing

import numpy as np

from .channel import PathList, SeparableChannel
from .lattice import Waveform

__all__ = ["Channel", "encode", "decode"]

Channel = PathList | SeparableChannel
_KINDS = {"separable": SeparableChannel, "paths": PathList}
_TAGS = {cls: kind for kind, cls in _KINDS.items()}


def encode(value):
    """JSON-ready form of ``value`` (see the module docstring)."""
    if isinstance(value, Waveform):
        return {"offset": value.offset, "re": value.samples.real.tolist(),
                "im": value.samples.imag.tolist()}
    if dataclasses.is_dataclass(value):
        out = {"kind": _TAGS[type(value)]} if type(value) in _TAGS else {}
        for f in dataclasses.fields(value):
            if getattr(value, f.name) is not None:
                out[f.name] = encode(getattr(value, f.name))
        return out
    if isinstance(value, (np.ndarray, np.generic)):
        return encode(value.tolist())
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if isinstance(value, dict):
        return {k: encode(v) for k, v in value.items()}
    return "inf" if isinstance(value, float) and value == math.inf else value


def decode(hint, value):
    """Rebuild a value of type ``hint`` from :func:`encode`'s output.

    ``hint`` is a class, ``X | None``, or :data:`Channel`, whose member the
    ``kind`` tag picks.  Keys that name no field, such as the retired
    ``approach``, ``bound_max_dimension`` and ``paper_literal_gep`` of older
    sidecars, are ignored.
    """
    if isinstance(hint, types.UnionType):
        members = [t for t in typing.get_args(hint) if t is not type(None)]
        if len(members) == 1:
            hint = members[0]
        elif value.get("kind") in _KINDS:
            hint = _KINDS[value["kind"]]
        else:
            raise ValueError(f"unknown channel kind {value.get('kind')!r}")
    if hint is Waveform:
        samples = np.empty(len(value["re"]), dtype=np.complex128)
        samples.real, samples.imag = value["re"], value["im"]
        return Waveform(samples, offset=value["offset"])
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return hint(**{f.name: decode(hints[f.name], value[f.name])
                       for f in dataclasses.fields(hint) if f.name in value})
    if hint is float:
        return math.inf if value == "inf" else float(value)
    return value
