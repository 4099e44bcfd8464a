"""Run configuration: flat key=value sections, round-trip safe (values are taken literally: no % interpolation)."""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .problem import ProblemSpec, no_nonlinearity, power_nonlinearity

__all__ = ["RunConfig", "parse_config", "serialize_config", "load_config"]

_SECTIONS = {
    "problem": ("s", "delta", "beta", "coeff", "nonlinearity", "p", "c", "lam"),
    "grid": ("half_width", "n"),
    "tolerances": ("newton_tol",),
    "output": ("out_dir", "seed"),
    "verify": ("suites",),
}


@dataclass
class RunConfig:
    """Every field has a working default; the file format is INI-style."""

    s: float = 0.4
    delta: float = 0.5
    beta: float = 0.0
    coeff: float = 1.0
    nonlinearity: str = "power"
    p: float = 2.0
    c: float = 1.0
    lam: float = 0.1
    half_width: float = 1.0
    n: int = 511
    newton_tol: float = 1e-8
    out_dir: str = "out"
    seed: int = 0
    suites: str = "all"

    def __post_init__(self):
        if not 0.0 < self.newton_tol < math.inf:
            raise ValueError(f"newton_tol must be positive and finite, got {self.newton_tol!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")

    def problem_spec(self) -> ProblemSpec:
        if self.nonlinearity == "power":
            nl = power_nonlinearity(self.p, self.c)
        elif self.nonlinearity == "none":
            nl = no_nonlinearity()
        else:
            raise ValueError(f"config supports nonlinearity 'power' or 'none', got {self.nonlinearity!r}")
        return ProblemSpec(
            s=self.s, delta=self.delta, beta=self.beta, coeff=self.coeff, nonlinearity=nl, lam=self.lam
        )


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(section: str, name: str, raw: str):
    kind = _FIELD_TYPES[name]
    parse = {"float": float, "int": int}.get(kind)
    if parse is None:
        return raw
    try:
        return parse(raw)
    except ValueError:
        expected = "an integer" if parse is int else "a float"
        raise ValueError(f"[{section}] {name} must be {expected}, got {raw!r}") from None


def serialize_config(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    for section, names in _SECTIONS.items():
        parser[section] = {name: _format_value(getattr(cfg, name)) for name in names}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        parser.read_string(text)
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:  # no section header, a key given twice
        raise ValueError(f"malformed config: {exc}") from exc
    values = {}
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        for name, raw in items.items():
            if name not in _SECTIONS[section]:
                raise ValueError(f"unknown key {name!r} in section [{section}]")
            values[name] = _parse_value(section, name, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
