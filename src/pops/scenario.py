"""Scenario files: one INI document drives every CLI capability.

A scenario collects the lattice geometry, the channel, the SNR, optimizer
settings, and per-capability sections (sweep, mc, psd, sinr).  Parsing
is strict: unknown sections or keys are rejected by name, every type error
names the offending ``section.key``, and ``--set section.key=value`` overrides
are applied before validation.  The scenario hash -- sha256 over the fully
resolved key/value table -- is embedded in every artifact so outputs can be
traced back to exact inputs.

The token ``inf`` is accepted wherever an SNR is expected: it selects the
noise-free limit, where the SINR degenerates to the pure SIR.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import PathList, SeparableChannel
from .lattice import (
    LatticeConfig,
    Waveform,
    load_waveform_csv,
    make_conventional_rx,
    make_conventional_tx,
    make_gaussian_init,
    make_hermite_init,
    make_rrc_init,
)
from .montecarlo import McConfig
from .optimizer import PopsConfig

__all__ = ["Scenario", "ScenarioError", "load_scenario", "make_initializer", "scenario_from_text"]

INIT_KINDS = ("hermite", "gaussian", "rrc", "noise")


def make_initializer(cfg: LatticeConfig, kind: str, coefficients=(1.0,),
                     sigma: float | None = None, rolloff: float = 0.25,
                     period: int | None = None, seed: int = 0) -> Waveform:
    """Initial transmit pulse of one of the ``INIT_KINDS``.

    ``pops.init`` passes its [pops] keys; a ``sweep.inits`` token keeps these
    defaults.  hermite combines Hermite-Gaussians with ``coefficients``;
    gaussian is centered with width ``sigma`` samples (by default
    sqrt(N Q) / (2 sqrt(pi)), the isotropic spread); rrc takes ``rolloff`` and
    ``period``; noise draws complex Gaussian samples from ``seed``.
    """
    if kind == "hermite":
        return make_hermite_init(cfg, coefficients)
    if kind == "gaussian":
        if sigma is None:
            sigma = math.sqrt(cfg.N * cfg.Q) / (2.0 * math.sqrt(math.pi))
        return make_gaussian_init(cfg, mean_sample=(cfg.L_phi - 1) / 2.0, sigma_samples=sigma)
    if kind == "rrc":
        return make_rrc_init(cfg, rolloff=rolloff, period_samples=period)
    if kind == "noise":
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal(cfg.L_phi) + 1j * rng.standard_normal(cfg.L_phi)
        return Waveform(samples, offset=-(cfg.L_phi // 2))
    raise ValueError(f"unknown initializer {kind!r}; known: {', '.join(INIT_KINDS)}")


class ScenarioError(ValueError):
    """A scenario file failed validation; the message names the key."""


# Known keys and their defaults (None = no default, optional unless listed
# in _REQUIRED).  Values are stored as strings until typed accessors run.
_SCHEMA: dict[str, dict[str, str | None]] = {
    "run": {"output_dir": ".", "snr": "inf"},
    "lattice": {"N": None, "Q": None, "Ts": "1.0", "Dphi": "1", "Dpsi": "1"},
    "channel": {
        "type": None,
        "K": "8",
        "b": "0.5",
        "spread_product": None,
        "bd_over_f": None,
        "max_delay": None,
        "Bd": None,
        "delays": None,
        "dopplers": None,
        "powers": None,
    },
    "pops": {
        "epsilon": "1e-10",
        "max_iterations": "200",
        "init": "hermite",
        "hermite_coefficients": "1.0",
        "gaussian_sigma": None,
        "rrc_rolloff": "0.25",
        "rrc_period": None,
        "init_file": None,
        "init_seed": None,
    },
    "sinr": {"tx_file": None, "rx_file": None},
    "sweep": {
        "ft_values": None,
        "durations": "1x1",
        "grid": None,
        "cp_samples": "8,32",
        "tau_values": None,
        "dfreq_values": None,
        "optimize_at": None,
        "evaluate_over": None,
        "inits": "hermite,gaussian,rrc",
    },
    "mc": {
        "trials": "10000",
        "n_symbols": None,
        "alphabet": "gaussian",
        "doppler_grid_size": "64",
        "rng_seed": "0",
        "chunk_size": "8192",
    },
    "psd": {"oversample": "16", "n_subcarriers": "1", "source": "optimized-tx", "file": None},
}

_REQUIRED = {("lattice", "N"), ("lattice", "Q"), ("channel", "type")}

_CHANNEL_KEYS = {
    "ideal": set(),
    "separable": {"K", "b", "spread_product", "bd_over_f", "max_delay", "Bd"},
    "paths": {"delays", "dopplers", "powers"},
}


@dataclass(frozen=True)
class Scenario:
    """A validated scenario: raw key/value table plus typed accessors.

    ``table`` holds the effective configuration (file, then overrides, then
    schema defaults); ``provided`` records which keys the user actually wrote,
    so conditional validation (e.g. channel-type compatibility) does not
    trip over defaults.
    """

    table: dict[str, dict[str, str]]
    provided: frozenset = frozenset()

    # -- raw access ---------------------------------------------------------

    def get(self, section: str, key: str) -> str | None:
        return self.table.get(section, {}).get(key)

    def _require(self, section: str, key: str) -> str:
        value = self.get(section, key)
        if value is None:
            raise ScenarioError(f"missing required key {section}.{key}")
        return value

    def _typed(self, section: str, key: str, parse, kind: str):
        raw = self.get(section, key)
        if raw is None:
            return None
        try:
            return parse(raw)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(
                f"{section}.{key}: cannot parse {raw!r} as {kind}"
            ) from exc

    def _int(self, section: str, key: str) -> int | None:
        return self._typed(section, key, int, "integer")

    def _float(self, section: str, key: str) -> float | None:
        return self._typed(section, key, float, "number")  # float() reads "inf" itself

    def _float_list(self, section: str, key: str) -> list[float] | None:
        return self._typed(section, key, lambda s: [float(t) for t in s.split(",")],
                           "comma-separated numbers")

    def _int_list(self, section: str, key: str) -> list[int] | None:
        return self._typed(
            section, key, lambda s: [int(t.strip()) for t in s.split(",")], "comma-separated integers"
        )

    # -- typed views --------------------------------------------------------

    @property
    def output_dir(self) -> Path:
        return Path(self._require("run", "output_dir"))

    @property
    def snr(self) -> float:
        value = self._float("run", "snr")
        if not value > 0.0:
            raise ScenarioError(f"run.snr must be positive, got {value}")
        return value

    def lattice(self) -> LatticeConfig:
        try:
            return LatticeConfig(
                N=self._int("lattice", "N"),
                Q=self._int("lattice", "Q"),
                Ts=self._float("lattice", "Ts"),
                Dphi=self._int("lattice", "Dphi"),
                Dpsi=self._int("lattice", "Dpsi"),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"lattice: {exc}") from exc

    def channel(self) -> PathList | SeparableChannel:
        kind = self._require("channel", "type")
        if kind not in _CHANNEL_KEYS:
            raise ScenarioError(
                f"channel.type must be one of {sorted(_CHANNEL_KEYS)}, got {kind!r}"
            )
        for section, key in self.provided:
            if section == "channel" and key != "type" and key not in _CHANNEL_KEYS[kind]:
                raise ScenarioError(
                    f"channel.{key} is not valid for channel.type={kind}"
                )
        ts = self._float("lattice", "Ts")
        if kind == "ideal":
            return PathList.ideal(Ts=ts)
        try:
            if kind == "paths":
                delays = self._int_list("channel", "delays")
                dopplers = self._float_list("channel", "dopplers")
                powers = self._float_list("channel", "powers")
                for key, val in (("delays", delays), ("dopplers", dopplers), ("powers", powers)):
                    if val is None:
                        raise ScenarioError(f"missing required key channel.{key} for type=paths")
                return PathList(
                    delays=np.array(delays, dtype=np.int64),
                    dopplers=np.array(dopplers, dtype=np.float64),
                    powers=np.array(powers, dtype=np.float64),
                    Ts=ts,
                )
            spread = self._float("channel", "spread_product")
            if spread is not None:
                for key in ("max_delay", "Bd"):
                    if self.get("channel", key) is not None:
                        raise ScenarioError(
                            f"channel.{key} conflicts with channel.spread_product"
                        )
                return SeparableChannel.from_spread_product(
                    self.lattice(),
                    spread,
                    K=self._int("channel", "K"),
                    b=self._float("channel", "b"),
                    bd_over_f=self._float("channel", "bd_over_f"),
                )
            max_delay = self._int("channel", "max_delay")
            bd = self._float("channel", "Bd")
            if max_delay is None or bd is None:
                raise ScenarioError(
                    "channel type=separable needs either spread_product or both "
                    "max_delay and Bd"
                )
            return SeparableChannel.with_uniform_delays(
                K=self._int("channel", "K"),
                b=self._float("channel", "b"),
                max_delay=max_delay,
                Bd=bd,
                Ts=ts,
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"channel: {exc}") from exc

    def initializer(self, cfg: LatticeConfig) -> Waveform:
        kind = self._require("pops", "init")
        try:
            if kind in INIT_KINDS:
                return make_initializer(
                    cfg,
                    kind,
                    coefficients=self._float_list("pops", "hermite_coefficients"),
                    sigma=self._float("pops", "gaussian_sigma"),
                    rolloff=self._float("pops", "rrc_rolloff"),
                    period=self._int("pops", "rrc_period"),
                    seed=self._int("pops", "init_seed") or 0,
                )
            if kind == "file":
                path = self.get("pops", "init_file")
                if path is None:
                    raise ScenarioError("pops.init=file requires pops.init_file")
                return load_waveform_csv(path)
        except ScenarioError:
            raise
        except (ValueError, OSError) as exc:
            raise ScenarioError(f"pops.init: {exc}") from exc
        raise ScenarioError(
            f"pops.init must be hermite, gaussian, rrc, noise or file, got {kind!r}"
        )

    def pops(self, cfg: LatticeConfig) -> PopsConfig:
        try:
            return PopsConfig(
                epsilon=self._float("pops", "epsilon"),
                max_iterations=self._int("pops", "max_iterations"),
                snr=self.snr,
                init=self.initializer(cfg),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"pops: {exc}") from exc

    def mc(self) -> McConfig:
        try:
            return McConfig(
                trials=self._int("mc", "trials"),
                n_symbols=self._int("mc", "n_symbols"),
                alphabet=self._require("mc", "alphabet"),
                doppler_grid_size=self._int("mc", "doppler_grid_size"),
                rng_seed=self._int("mc", "rng_seed"),
                chunk_size=self._int("mc", "chunk_size"),
            )
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"mc: {exc}") from exc

    def sinr_pair(self, cfg: LatticeConfig) -> tuple[Waveform, Waveform]:
        """Waveform pair for direct evaluation: files if given, else conventional."""
        tx_file = self.get("sinr", "tx_file")
        rx_file = self.get("sinr", "rx_file")
        try:
            tx = load_waveform_csv(tx_file) if tx_file else make_conventional_tx(cfg)
            rx = load_waveform_csv(rx_file) if rx_file else make_conventional_rx(cfg)
        except (ValueError, OSError) as exc:
            raise ScenarioError(f"sinr.tx_file/rx_file: {exc}") from exc
        return tx, rx

    def durations(self) -> list[tuple[int, int]]:
        raw = self._require("sweep", "durations")
        pairs = []
        for token in raw.split(","):
            parts = token.strip().split("x")
            if len(parts) != 2:
                raise ScenarioError(
                    f"sweep.durations: expected entries like '1x3', got {token.strip()!r}"
                )
            try:
                pairs.append((int(parts[0]), int(parts[1])))
            except ValueError as exc:
                raise ScenarioError(
                    f"sweep.durations: cannot parse {token.strip()!r}"
                ) from exc
        return pairs

    @property
    def hash(self) -> str:
        lines = sorted(
            f"{section}.{key}={value}"
            for section, keys in self.table.items()
            for key, value in keys.items()
        )
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]

    def validate(self) -> None:
        """Instantiate every typed view that the table provides keys for."""
        self.lattice()
        self.channel()
        _ = self.snr
        self.pops(self.lattice())
        self.mc()


def _apply_schema(
    parser: configparser.ConfigParser, overrides
) -> tuple[dict[str, dict[str, str]], frozenset]:
    table: dict[str, dict[str, str]] = {}
    provided: set[tuple[str, str]] = set()
    for section in parser.sections():
        if section not in _SCHEMA:
            keys = ", ".join(f"{section}.{key}" for key in parser[section])
            raise ScenarioError(
                f"unknown section [{section}] ({keys}); known sections: {', '.join(_SCHEMA)}"
            )
        for key, value in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ScenarioError(
                    f"unknown key {section}.{key}; known keys in [{section}]: "
                    f"{', '.join(_SCHEMA[section])}"
                )
            table.setdefault(section, {})[key] = value.strip()
            provided.add((section, key))
    for item in overrides or ():
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ScenarioError(
                f"override {item!r} must look like section.key=value"
            )
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ScenarioError(f"override names unknown key {section}.{key}")
        table.setdefault(section, {})[key] = value.strip()
        provided.add((section, key))
    # overlay defaults for anything not provided
    for section, keys in _SCHEMA.items():
        for key, default in keys.items():
            if default is not None and key not in table.get(section, {}):
                table.setdefault(section, {})[key] = default
    for section, key in _REQUIRED:
        if key not in table.get(section, {}):
            raise ScenarioError(f"missing required key {section}.{key}")
    return table, frozenset(provided)


def scenario_from_text(text: str, overrides=()) -> Scenario:
    """Parse a scenario from INI text; see :func:`load_scenario`."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from exc
    table, provided = _apply_schema(parser, overrides)
    return Scenario(table=table, provided=provided)


def load_scenario(path: str | Path, overrides=()) -> Scenario:
    """Load, override, and validate a scenario file.

    Raises
    ------
    ScenarioError
        Naming the offending section.key for unknown keys, type errors,
        missing requirements, or malformed override strings.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    scenario = scenario_from_text(path.read_text(), overrides)
    scenario.validate()
    return scenario
