"""Run configuration: flat key=value sections, round-trip safe."""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields

from .continuation import FoldPolicy, TracePolicy
from .problem import ProblemSpec, no_nonlinearity, power_nonlinearity

__all__ = ["RunConfig", "parse_config", "serialize_config", "load_config"]

_SECTIONS = {
    "problem": ("s", "delta", "beta", "coeff", "nonlinearity", "p", "c", "lam"),
    "grid": ("half_width", "n"),
    "tolerances": ("newton_tol",),
    "continuation": ("lambda_init", "max_points", "arc_step", "fold_steps"),
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
    lambda_init: float = 0.0
    max_points: int = 48
    arc_step: float = 0.02
    fold_steps: int = 60
    out_dir: str = "out"
    seed: int = 0
    suites: str = "all"

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

    def trace_policy(self) -> TracePolicy:
        lambda_init = self.lambda_init if self.lambda_init > 0.0 else None
        return TracePolicy(lambda_init=lambda_init, max_points=self.max_points, tol=self.newton_tol)

    def fold_policy(self) -> FoldPolicy:
        return FoldPolicy(ds=self.arc_step, steps=self.fold_steps, tol=self.newton_tol)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind in ("float", float):
        return float(raw)
    if kind in ("int", int):
        return int(raw)
    return raw


def serialize_config(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser()
    for section, names in _SECTIONS.items():
        parser[section] = {name: _format_value(getattr(cfg, name)) for name in names}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    try:
        parser.read_string(text)
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:  # no section header, a key given twice, a bad % interpolation
        raise ValueError(f"malformed config: {exc}") from exc
    values = {}
    for section, items in sections.items():
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section [{section}]")
        for name, raw in items.items():
            if name not in _SECTIONS[section]:
                raise ValueError(f"unknown key {name!r} in section [{section}]")
            values[name] = _parse_value(name, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
