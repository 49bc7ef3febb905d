"""Experiment configuration: flat key-value files, validation, seeding.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed.  Each key is read by its parser in ``PARSERS``; unknown keys,
empty values and values out of range are rejected before anything runs,
with one diagnostic per offending key.  Every run echoes its effective
configuration (defaults resolved) so outputs carry full provenance, and a
short hash of that echo tags every CSV row.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable

from .adaptation import default_f_table, load_f_table
from .phy import PhyParams
from .protocols import DEFAULT_BETA

PROTOCOLS = ("dcf", "lbeb", "zc", "lzc", "lmac")
ADAPTATIONS = ("none", "alzc", "almac")

#: Highest per-station arrival rate, one packet per microsecond.  Far above it
#: an arrival gap falls below the resolution of the simulated clock.
MAX_LAMBDA_PPS = 10**6

#: Base length of the adaptive rows a scenario adds: the almac rows of
#: ``delay-vs-n`` and every row of ``adaptive_throughput_vs_n``.
SCENARIO_BASE_LEN = 16


@dataclass(frozen=True)
class Diagnostic:
    key: str
    value: str
    constraint: str

    def __str__(self) -> str:
        return f"{self.key} = {self.value!r}: {self.constraint}"


class ConfigError(Exception):
    def __init__(self, diagnostics: list[Diagnostic]):
        self.diagnostics = diagnostics
        super().__init__("; ".join(str(d) for d in diagnostics))


@dataclass(frozen=True)
class SimConfig:
    """Resolved description of one experiment."""

    protocol: str = "lmac"
    n: int = 16
    c: int | None = 16
    b: int | None = None
    adaptation: str = "none"
    beta: float | None = None
    gamma: float | None = None
    traffic: str = "saturated"
    lambda_pps: float = 0.0
    buffer: int = 50
    error_rate: float = 0.0
    horizon_slots: int | None = None
    horizon_seconds: float | None = None
    horizon_schedules: int | None = None
    payload_bytes: int = 1000
    reps: int = 1
    seed: int = 1
    join_n: int = 0
    join_when: str = "converged"
    coexist_k: int = 0
    coexist_protocol: str | None = None
    probe_period: int = 10
    c_max_exp: int = 10
    f_table: str | None = None
    sweep: str | None = None
    sweep_values: tuple[float, ...] = field(default_factory=tuple)
    n_values: tuple[int, ...] = field(default_factory=tuple)
    error_rates: tuple[float, ...] = field(default_factory=tuple)
    k_values: tuple[int, ...] = field(default_factory=tuple)

    @property
    def schedule_len(self) -> int:
        """Fixed schedule length, or the base length for adaptive runs."""
        if self.adaptation == "none":
            assert self.c is not None
            return self.c
        assert self.b is not None
        return self.b

    @property
    def kinds(self) -> tuple[str | None, ...]:
        """The protocols the stations run, joiners included: the base protocol
        unless every station is a coexist partner, and the partner if any."""
        base = (self.protocol,) if self.coexist_k < self.n or self.join_n > 0 else ()
        return base + ((self.coexist_protocol,) if self.coexist_k > 0 else ())

    @property
    def phy(self) -> PhyParams:
        """Channel timing for the configured payload size."""
        return PhyParams(payload_bytes=self.payload_bytes)

    def echo(self) -> str:
        """Canonical effective-config text used for provenance and hashing."""
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name} = {value}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.echo().encode()).hexdigest()[:12]


def derive_seed(*parts) -> int:
    """Stable 128-bit seed from arbitrary labelled parts.

    Derivations are hierarchical: replication i hashes (base seed, i), and a
    slot-engine station's stream hashes (run seed, station id), so adding
    stations or replications never perturbs existing streams.  A
    schedule-synchronous run seeds one generator with its run seed.
    """
    text = "\x1f".join(repr(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:32], 16)


Parser = Callable[[str], object]


def _float(raw: str) -> float:
    """``raw`` as a float; NaN, which fails every bound, when it is no number."""
    try:
        return float(raw)
    except ValueError:
        return math.nan


def _integer(lo: int | None) -> Parser:
    """Integer of at least ``lo`` (unbounded when None)."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise ValueError("must be an integer") from None
        if lo is not None and value < lo:
            raise ValueError(f"must be at least {lo}")
        return value

    return parse


def _number(lo: float, hi: float = math.inf) -> Parser:
    """Finite number in the closed interval [lo, hi]."""

    def parse(raw: str) -> float:
        value = _float(raw)
        if not (lo <= value <= hi and math.isfinite(value)):
            raise ValueError(f"must be a finite number in [{lo}, {hi}]")
        return value

    return parse


def _unit(raw: str) -> float:
    """Number in the open interval (0, 1)."""
    value = _float(raw)
    if not 0.0 < value < 1.0:
        raise ValueError("must be in the open interval (0, 1)")
    return value


def _gamma(raw: str) -> float | None:
    """Stay probability; ``auto`` gives None, resolved to 1 / (c - n + 2)."""
    return None if raw == "auto" else _unit(raw)


def _choice(*options: str) -> Parser:
    """One of ``options``, kept as written."""

    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"must be one of {options}")
        return raw

    return parse


def _list(item: Parser) -> Parser:
    """Comma-separated values, each read by ``item``."""

    def parse(raw: str) -> tuple:
        values = []
        for text in (part.strip() for part in raw.split(",")):
            try:
                values.append(item(text))
            except ValueError as err:
                raise ValueError(f"item {text!r} {err}") from None
        return tuple(values)

    return parse


def _join_when(raw: str) -> str:
    """``converged`` or a join time in seconds, kept as written."""
    if raw != "converged" and not 0.0 <= _float(raw) < math.inf:
        raise ValueError("must be 'converged' or a finite time in seconds >= 0")
    return raw


#: How each config key is read; exactly the fields of ``SimConfig``.
PARSERS: dict[str, Parser] = {
    "protocol": _choice(*PROTOCOLS),
    "n": _integer(1),
    "c": _integer(1),
    "b": _integer(1),
    "adaptation": _choice(*ADAPTATIONS),
    "beta": _unit,
    "gamma": _gamma,
    "traffic": _choice("saturated", "poisson"),
    "lambda_pps": _number(0, MAX_LAMBDA_PPS),
    "buffer": _integer(1),
    "error_rate": _number(0, 1),
    "horizon_slots": _integer(1),
    "horizon_seconds": _number(0),
    "horizon_schedules": _integer(1),
    "payload_bytes": _integer(1),
    "reps": _integer(1),
    "seed": _integer(None),
    "join_n": _integer(0),
    "join_when": _join_when,
    "coexist_k": _integer(0),
    "coexist_protocol": _choice(*PROTOCOLS),
    "probe_period": _integer(1),
    "c_max_exp": _integer(0),
    "f_table": str,
    "sweep": _choice("gamma", "beta"),
    "sweep_values": _list(_unit),
    "n_values": _list(_integer(1)),
    "error_rates": _list(_number(0, 1)),
    "k_values": _list(_integer(1)),
}


def validate_config(text: str) -> SimConfig:
    """Parse and validate a flat key-value config; raises ConfigError.

    Every value goes through its key's parser in ``PARSERS``; an empty value
    is rejected.  A config without a horizon runs 20000 slots, and ``resolve``
    fills in the learning parameters.
    """
    diags: list[Diagnostic] = []
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            diags.append(
                Diagnostic(f"line {lineno}", stripped, "expected 'key = value'")
            )
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            diags.append(Diagnostic(key, value, "duplicate key"))
            continue
        raw[key] = value

    values: dict[str, object] = {}
    for key, value in raw.items():
        parse = PARSERS.get(key)
        if parse is None:
            diags.append(Diagnostic(key, value, "unknown key"))
        elif not value:
            diags.append(Diagnostic(key, value, "must not be empty"))
        else:
            try:
                values[key] = parse(value)
            except ValueError as err:
                diags.append(Diagnostic(key, value, str(err)))
    if diags:
        raise ConfigError(diags)

    if not {"horizon_slots", "horizon_seconds", "horizon_schedules"} & values.keys():
        values["horizon_slots"] = 20000
    cfg = SimConfig(**values)
    diags = _cross_validate(cfg) or _f_table_diagnostics(cfg)
    if diags:
        raise ConfigError(diags)
    return resolve(cfg)


def _cross_validate(cfg: SimConfig) -> list[Diagnostic]:
    """Diagnostics for values that are valid alone but do not fit together."""
    length_key = "c" if cfg.adaptation == "none" else "b"
    length = getattr(cfg, length_key)
    runs_lmac, runs_lzc = "lmac" in cfg.kinds, "lzc" in cfg.kinds
    checks = (
        (cfg.adaptation != "none" and cfg.b is None, "b", "adaptive runs need a base length b"),
        (cfg.adaptation == "almac" and cfg.protocol != "lmac",
         "adaptation", "requires protocol lmac"),
        (cfg.adaptation == "alzc" and cfg.protocol not in ("lzc", "zc"),
         "adaptation", "requires protocol lzc or zc"),
        (runs_lmac and length is not None and length < 2,
         length_key, "lmac needs a schedule length of at least 2"),
        (cfg.beta is not None and not runs_lmac, "beta", "only meaningful for lmac"),
        (cfg.gamma is not None and not runs_lzc, "gamma", "only meaningful for lzc"),
        (cfg.sweep == "gamma" and cfg.protocol != "lzc", "sweep", "gamma sweeps need protocol lzc"),
        (cfg.sweep == "beta" and cfg.protocol != "lmac", "sweep", "beta sweeps need protocol lmac"),
        (cfg.coexist_k > 0 and cfg.coexist_protocol is None,
         "coexist_protocol", "coexist_k > 0 needs a partner protocol"),
        (cfg.coexist_k > cfg.n, "coexist_k", f"must be at most n = {cfg.n}"),
        (cfg.join_n > 0 and cfg.join_when == "converged" and "dcf" in cfg.kinds,
         "join_when", "DCF never converges; give a time"),
        (cfg.horizon_seconds == 0.0, "horizon_seconds", "must be greater than 0"),
        (cfg.traffic == "poisson" and cfg.lambda_pps <= 0.0,
         "lambda_pps", "poisson traffic needs a rate"),
        (runs_lzc and cfg.adaptation == "none" and cfg.gamma is None and cfg.n > cfg.c,
         "gamma", "auto stay probability needs n <= c; set gamma explicitly"),
    )
    return [Diagnostic(key, str(getattr(cfg, key)), text) for bad, key, text in checks if bad]


def _f_table_diagnostics(cfg: SimConfig) -> list[Diagnostic]:
    """The f-table of the config's almac runs (``f_table``, else the packaged
    one) must load and cover their base length: ``b`` for an almac config,
    ``SCENARIO_BASE_LEN`` for the almac rows a scenario adds."""
    if cfg.f_table is None and cfg.adaptation != "almac":
        return []
    try:
        table = load_f_table(cfg.f_table) if cfg.f_table else default_f_table()
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [Diagnostic("f_table", cfg.f_table, f"cannot be read as an f-table: {err}")]
    base = cfg.b if cfg.adaptation == "almac" else SCENARIO_BASE_LEN
    if table.covers(base):
        return []
    if cfg.f_table:
        return [Diagnostic("f_table", cfg.f_table, f"does not cover base length {base}")]
    return [Diagnostic("b", str(base), "not covered by the packaged f-table; set f_table")]


def resolve(cfg: SimConfig) -> SimConfig:
    """``cfg`` with the learning parameter of every station it runs filled in:
    each lmac station learns with ``DEFAULT_BETA`` and each lzc station stays
    with 1 / (C - N + 2) on a fixed length C >= N, else with 0.5.  The only
    place these defaults are decided."""
    updates: dict[str, object] = {}
    if "lmac" in cfg.kinds and cfg.beta is None:
        updates["beta"] = DEFAULT_BETA
    if "lzc" in cfg.kinds and cfg.gamma is None:
        fixed = cfg.adaptation == "none" and cfg.n <= cfg.c
        updates["gamma"] = auto_gamma(cfg.c, cfg.n) if fixed else 0.5
    return replace(cfg, **updates)


def auto_gamma(schedule_len: int, n_stations: int) -> float:
    """Stay probability tuned to the expected number of spare slots."""
    if n_stations > schedule_len:
        raise ValueError("auto stay probability needs n <= c")
    return 1.0 / (schedule_len - n_stations + 2)


def load_config(path: str) -> SimConfig:
    with open(path) as fh:
        return validate_config(fh.read())
