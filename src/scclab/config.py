"""One flat configuration for every experiment kind, and its validator.

`validate` collects every violated constraint, so a run reports them all
at once and writes nothing.  Constraints the library also enforces when
it is called directly (aspect ratios, sampler laws) are taken from the
module that enforces them, so both routes apply the same rule.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

from .errors import ParameterError
from .sampler import LAWS
from .spectral_model import SpectralModel, aspect_ratio_violations, make_model

__all__ = ["KINDS", "ExperimentConfig", "build_config", "validate"]

KINDS = (
    "density-table",
    "quantiles",
    "spectrum",
    "local-law-sweep",
    "tw-edge",
    "rigidity-scaling",
)

_INTEGER_FIELDS = ("n", "q", "trials", "k_max", "seed", "n_goe", "n0",
                   "x_points", "e_points", "eta_points")
_REAL_FIELDS = ("c1", "c2", "beta", "c_phi", "e_min", "e_max", "eta_min", "eta_max",
                "epsilon")
_OPTIONAL_FIELDS = ("n_goe", "beta", "c_phi")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat configuration covering every experiment kind.

    Fields not used by a kind are ignored by it; validate() checks the
    type of every numeric field but the range only of what the requested
    kind will consume.
    """

    kind: str
    c1: float = 0.3
    c2: float = 0.2
    n: int = 200
    q: int = 100                      # quantile count for kind=quantiles
    law: str = "gaussian"
    beta: float | None = None
    c_phi: float | None = None
    trials: int = 100
    k_max: int = 3
    seed: int = 0
    n_goe: int | None = None
    n0: int = 200                     # rigidity base size
    factors: tuple = (1, 2, 4)
    x_points: int = 201               # density table resolution
    e_min: float = 0.3
    e_max: float = 0.9
    e_points: int = 3
    eta_min: float = 0.1
    eta_max: float = 1.0
    eta_points: int = 3
    eta_scale: str = "log"
    epsilon: float = 0.05

    def dims(self, n: int | None = None) -> tuple[int, int]:
        """Row counts (p, q) = (round(c1 n), round(c2 n)); n defaults to the config's."""
        n = self.n if n is None else n
        return round(self.c1 * n), round(self.c2 * n)

    def model(self, n: int | None = None) -> SpectralModel:
        """Limit model at the finite-n ratios p/n, q/n, not the nominal c1, c2."""
        n = self.n if n is None else n
        p, q = self.dims(n)
        return make_model(p / n, q / n)


def build_config(kind: str, raw: dict) -> ExperimentConfig:
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    raw = dict(raw)
    raw["kind"] = kind
    if "factors" in raw:
        raw["factors"] = tuple(raw["factors"])
    return ExperimentConfig(**raw)


def _is_number(value, kind) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _type_violations(config: ExperimentConfig) -> list[str]:
    v = []
    for kind, what, names in ((numbers.Integral, "an integer", _INTEGER_FIELDS),
                              (numbers.Real, "a real number", _REAL_FIELDS)):
        for name in names:
            value = getattr(config, name)
            if not _is_number(value, kind) and not (value is None and name in _OPTIONAL_FIELDS):
                v.append(f"{name} must be {what}, got {value!r}")
    if not all(_is_number(f, numbers.Integral) for f in config.factors):
        v.append(f"factors must be integers, got {list(config.factors)}")
    return v


def validate(config: ExperimentConfig) -> list[str]:
    """Collect every violated constraint; an empty list means runnable."""
    if config.kind not in KINDS:
        return [f"kind {config.kind!r} is not one of {KINDS}"]
    v = _type_violations(config)
    if v:
        # the range checks below compare numbers and would fail on these
        return v
    v = aspect_ratio_violations(config.c1, config.c2)
    if not (0 <= config.seed < 2 ** 64):
        v.append(f"seed must be an unsigned 64-bit integer, got {config.seed}")
    if config.law not in LAWS:
        v.append(f"law {config.law!r} is not one of {LAWS}")
    if config.law == "pareto":
        if config.beta is None:
            v.append("law 'pareto' requires beta")
        elif not config.beta > 2.0:
            v.append(f"tail exponent must satisfy beta > 2, got beta={config.beta}")
    if config.c_phi is not None and not (0.0 < config.c_phi < 0.5):
        v.append(f"truncation exponent must satisfy 0 < c_phi < 1/2, got {config.c_phi}")

    if config.kind in ("spectrum", "local-law-sweep", "tw-edge"):
        p, q = config.dims()
        if config.n < 4 or p < 1 or q < 1 or p >= config.n or q >= config.n:
            v.append(
                f"dimensions must satisfy 0 < p, q < n, got p={p}, q={q}, n={config.n}"
            )
        elif config.kind == "tw-edge" and not (1 <= config.k_max <= q):
            v.append(f"k_max must lie in [1, q={q}], got {config.k_max}")
    if config.kind == "tw-edge":
        if config.trials < 2:
            v.append(f"tw-edge needs trials >= 2, got {config.trials}")
        if config.n_goe is not None and config.n_goe < config.k_max + 1:
            v.append(f"n_goe = {config.n_goe} too small for k_max = {config.k_max}")
    if config.kind == "rigidity-scaling":
        if config.trials < 3:
            v.append(f"rigidity-scaling needs trials >= 3, got {config.trials}")
        if config.n0 < 4 or config.dims(config.n0)[1] < 2:
            v.append(f"rigidity base size n0={config.n0} too small for c2={config.c2}")
        if any(f < 1 for f in config.factors):
            v.append(f"factors must be positive integers, got {list(config.factors)}")
        elif len(set(config.factors)) < 2:
            v.append(f"rigidity-scaling fits a slope, so it needs at least two distinct "
                     f"sizes n0 * f, got factors {list(config.factors)}")
    if config.kind == "quantiles" and config.q < 1:
        v.append(f"quantile count must be >= 1, got {config.q}")
    if config.kind == "density-table" and config.x_points < 2:
        v.append(f"density table needs at least 2 points, got {config.x_points}")
    if config.kind == "local-law-sweep":
        if not (0.0 < config.epsilon < 1.0):
            v.append(f"spectral window parameter must lie in (0, 1), got {config.epsilon}")
        else:
            eta_floor = config.n ** (-1.0 + config.epsilon)
            if config.eta_min < eta_floor:
                v.append(
                    f"eta_min = {config.eta_min} below the admissible floor "
                    f"n^(-1+eps) = {eta_floor:.4e} of the spectral window"
                )
            if config.eta_max > 1.0 / config.epsilon:
                v.append(
                    f"eta_max = {config.eta_max} above the admissible ceiling "
                    f"1/eps = {1.0 / config.epsilon:.4e} of the spectral window"
                )
            if not (config.epsilon <= config.e_min <= config.e_max <= 1.0):
                v.append(
                    f"energy range [{config.e_min}, {config.e_max}] must lie inside "
                    f"[eps, 1] = [{config.epsilon}, 1]"
                )
        if config.eta_min > config.eta_max:
            v.append(f"eta_min {config.eta_min} exceeds eta_max {config.eta_max}")
        if config.e_points < 1 or config.eta_points < 1:
            v.append("grid needs at least one point per axis")
        if config.eta_scale not in ("log", "linear"):
            v.append(f"eta_scale must be 'log' or 'linear', got {config.eta_scale!r}")
        if config.trials < 1:
            v.append(f"local-law-sweep needs trials >= 1, got {config.trials}")
    return v
