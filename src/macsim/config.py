"""Experiment configuration: flat key-value files, validation, seeding.

Config files are plain text, one ``key = value`` per line, ``#`` comments
allowed.  Unknown keys are rejected.  Every run echoes its effective
configuration (defaults resolved) so outputs carry full provenance, and a
short hash of that echo tags every CSV row.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

PROTOCOLS = ("dcf", "lbeb", "zc", "lzc", "lmac")
ADAPTATIONS = ("none", "alzc", "almac")


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
    def runs_dcf(self) -> bool:
        """Whether any station, joiners included, runs DCF."""
        base = self.coexist_k < self.n or self.join_n > 0
        partner = self.coexist_k > 0
        return (base and self.protocol == "dcf") or (
            partner and self.coexist_protocol == "dcf"
        )

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
    station's stream hashes (run seed, station id), so adding stations or
    replications never perturbs existing streams.
    """
    text = "\x1f".join(repr(p) for p in parts)
    return int(hashlib.sha256(text.encode()).hexdigest()[:32], 16)


def _parse_bool_free_float(key, raw, diags, lo=None, hi=None, open_lo=False, open_hi=False):
    try:
        value = float(raw)
    except ValueError:
        diags.append(Diagnostic(key, raw, "must be a number"))
        return None
    if lo is not None and (value <= lo if open_lo else value < lo):
        bound = "(" if open_lo else "["
        diags.append(Diagnostic(key, raw, f"must be in {bound}{lo}, ...]"))
        return None
    if hi is not None and (value >= hi if open_hi else value > hi):
        diags.append(Diagnostic(key, raw, f"must be at most {hi}" if not open_hi else f"must be below {hi}"))
        return None
    return value


def _parse_int(key, raw, diags, lo=None):
    try:
        value = int(raw)
    except ValueError:
        diags.append(Diagnostic(key, raw, "must be an integer"))
        return None
    if lo is not None and value < lo:
        diags.append(Diagnostic(key, raw, f"must be at least {lo}"))
        return None
    return value


def validate_config(text: str) -> SimConfig:
    """Parse and validate a flat key-value config; raises ConfigError.

    Applies the documented defaults: the learning strength defaults to 0.95,
    and a missing stay probability for the jump-to-idle learner is derived
    as 1 / (C - N + 2) when the geometry allows it.
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

    known = {f.name for f in fields(SimConfig)}
    for key in raw:
        if key not in known:
            diags.append(Diagnostic(key, raw[key], "unknown key"))
    if diags:
        raise ConfigError(diags)

    out: dict[str, object] = {}

    def take(key):
        return raw.pop(key, None)

    protocol = take("protocol") or "lmac"
    if protocol not in PROTOCOLS:
        diags.append(Diagnostic("protocol", protocol, f"must be one of {PROTOCOLS}"))
    out["protocol"] = protocol

    adaptation = take("adaptation") or "none"
    if adaptation not in ADAPTATIONS:
        diags.append(
            Diagnostic("adaptation", adaptation, f"must be one of {ADAPTATIONS}")
        )
    out["adaptation"] = adaptation

    for key, lo in (("n", 1), ("buffer", 1), ("reps", 1), ("probe_period", 1),
                    ("c_max_exp", 0), ("join_n", 0), ("coexist_k", 0),
                    ("payload_bytes", 1)):
        value = take(key)
        if value is not None:
            parsed = _parse_int(key, value, diags, lo=lo)
            if parsed is not None:
                out[key] = parsed

    for key in ("c", "b", "horizon_slots", "horizon_schedules", "seed"):
        value = take(key)
        if value is not None:
            parsed = _parse_int(key, value, diags, lo=1 if key != "seed" else None)
            if parsed is not None:
                out[key] = parsed

    def open_unit(key: str, raw_value: str) -> float | None:
        try:
            value = float(raw_value)
        except ValueError:
            value = None
        if value is None or not 0.0 < value < 1.0:
            diags.append(
                Diagnostic(key, raw_value, "must be in the open interval (0, 1)")
            )
            return None
        return value

    beta_raw = take("beta")
    if beta_raw is not None:
        parsed = open_unit("beta", beta_raw)
        if parsed is not None:
            out["beta"] = parsed

    gamma_raw = take("gamma")
    gamma_auto = gamma_raw is None or gamma_raw == "auto"
    if not gamma_auto:
        parsed = open_unit("gamma", gamma_raw)
        if parsed is not None:
            out["gamma"] = parsed

    traffic = take("traffic") or "saturated"
    if traffic not in ("saturated", "poisson"):
        diags.append(Diagnostic("traffic", traffic, "must be saturated or poisson"))
    out["traffic"] = traffic

    for key in ("lambda_pps", "error_rate", "horizon_seconds"):
        value = take(key)
        if value is not None:
            lo, hi = (0.0, 1.0) if key == "error_rate" else (0.0, None)
            parsed = _parse_bool_free_float(key, value, diags, lo=lo, hi=hi)
            if parsed is not None:
                out[key] = parsed

    join_when = take("join_when")
    if join_when is not None:
        if join_when != "converged":
            try:
                float(join_when)
            except ValueError:
                diags.append(
                    Diagnostic(
                        "join_when", join_when, "must be 'converged' or a time in seconds"
                    )
                )
        out["join_when"] = join_when

    coexist_protocol = take("coexist_protocol")
    if coexist_protocol is not None:
        if coexist_protocol not in PROTOCOLS:
            diags.append(
                Diagnostic(
                    "coexist_protocol", coexist_protocol, f"must be one of {PROTOCOLS}"
                )
            )
        out["coexist_protocol"] = coexist_protocol

    sweep = take("sweep")
    if sweep is not None:
        if sweep not in ("gamma", "beta"):
            diags.append(Diagnostic("sweep", sweep, "must be gamma or beta"))
        out["sweep"] = sweep

    for key, caster in (
        ("sweep_values", float),
        ("error_rates", float),
        ("n_values", int),
        ("k_values", int),
    ):
        value = take(key)
        if value is not None:
            try:
                out[key] = tuple(caster(v.strip()) for v in value.split(",") if v.strip())
            except ValueError:
                diags.append(Diagnostic(key, value, "must be a comma-separated list"))

    f_table = take("f_table")
    if f_table is not None:
        out["f_table"] = f_table

    if diags:
        raise ConfigError(diags)

    cfg = SimConfig(**out)
    diags.extend(_cross_validate(cfg, gamma_auto))
    if diags:
        raise ConfigError(diags)
    return _resolve_defaults(cfg, gamma_auto)


def _cross_validate(cfg: SimConfig, gamma_auto: bool) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    if cfg.adaptation == "none":
        if cfg.c is None:
            diags.append(Diagnostic("c", "None", "fixed-length runs need c"))
    else:
        if cfg.b is None:
            diags.append(Diagnostic("b", "None", "adaptive runs need a base length b"))
        if cfg.protocol not in ("lzc", "lmac", "zc"):
            diags.append(
                Diagnostic(
                    "adaptation", cfg.adaptation, f"not available for {cfg.protocol}"
                )
            )
        if cfg.adaptation == "almac" and cfg.protocol != "lmac":
            diags.append(Diagnostic("adaptation", "almac", "requires protocol lmac"))
        if cfg.adaptation == "alzc" and cfg.protocol not in ("lzc", "zc"):
            diags.append(Diagnostic("adaptation", "alzc", "requires protocol lzc or zc"))
    if cfg.beta is not None and cfg.protocol not in ("lmac",):
        diags.append(Diagnostic("beta", str(cfg.beta), "only meaningful for lmac"))
    if cfg.gamma is not None and cfg.protocol != "lzc":
        diags.append(Diagnostic("gamma", str(cfg.gamma), "only meaningful for lzc"))
    if cfg.sweep == "gamma" and cfg.protocol != "lzc":
        diags.append(Diagnostic("sweep", "gamma", "gamma sweeps need protocol lzc"))
    if cfg.sweep == "beta" and cfg.protocol != "lmac":
        diags.append(Diagnostic("sweep", "beta", "beta sweeps need protocol lmac"))
    if cfg.join_n > 0 and cfg.join_when == "converged" and cfg.runs_dcf:
        diags.append(
            Diagnostic("join_when", "converged", "DCF never converges; give a time")
        )
    if cfg.traffic == "poisson" and cfg.lambda_pps <= 0.0:
        diags.append(
            Diagnostic("lambda_pps", str(cfg.lambda_pps), "poisson traffic needs a rate")
        )
    if cfg.protocol == "lzc" and cfg.adaptation == "none" and gamma_auto:
        assert cfg.c is not None
        if cfg.n > cfg.c:
            diags.append(
                Diagnostic(
                    "gamma",
                    "auto",
                    "auto stay probability needs n <= c; set gamma explicitly",
                )
            )
    return diags


def _resolve_defaults(cfg: SimConfig, gamma_auto: bool) -> SimConfig:
    updates: dict[str, object] = {}
    if cfg.protocol == "lmac" and cfg.beta is None:
        updates["beta"] = 0.95
    if cfg.protocol == "lzc" and cfg.gamma is None:
        if cfg.adaptation == "none" and gamma_auto:
            updates["gamma"] = auto_gamma(cfg.c, cfg.n)
        else:
            updates["gamma"] = 0.5
    if (
        cfg.horizon_slots is None
        and cfg.horizon_seconds is None
        and cfg.horizon_schedules is None
    ):
        updates["horizon_slots"] = 20000
    if updates:
        from dataclasses import replace

        cfg = replace(cfg, **updates)
    return cfg


def auto_gamma(schedule_len: int, n_stations: int) -> float:
    """Stay probability tuned to the expected number of spare slots."""
    if n_stations > schedule_len:
        raise ValueError("auto stay probability needs n <= c")
    return 1.0 / (schedule_len - n_stations + 2)


def load_config(path: str) -> SimConfig:
    with open(path) as fh:
        return validate_config(fh.read())
