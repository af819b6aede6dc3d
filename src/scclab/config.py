"""One flat configuration for every experiment kind, and its validator.

`validate` collects every violated constraint, so a run reports them all
at once and writes nothing.  Each constraint is one function returning
its violation messages, kept in the module that enforces it when the
library is called directly, and `validate` only concatenates their lists:

- entry law, tail exponent beta, dimensions 0 < p, q < n, seed and
  truncation exponent c_phi: `sampler`;
- aspect ratios (at the nominal c1, c2 and at p/n, q/n for every size n
  a kind samples) and the local law's spectral window: `spectral_model`;
- edge depth k_max: this module, for `edge_stats`.

The remaining rules (kind, field types, trial counts, rigidity sizes and
grids) concern configs only and are written here, inside `validate`.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

from .errors import ParameterError
from .sampler import dims_violations, law_violations, seed_violations, truncation_violations
from .spectral_model import SpectralModel, aspect_ratio_violations, make_model, window_violations

__all__ = ["KINDS", "ExperimentConfig", "build_config", "validate"]

KINDS = (
    "density-table",
    "quantiles",
    "spectrum",
    "local-law-sweep",
    "tw-edge",
    "rigidity-scaling",
)

_INTEGER_FIELDS = ("n", "q", "trials", "k_max", "seed", "n0",
                   "x_points", "e_points", "eta_points")
_REAL_FIELDS = ("c1", "c2", "beta", "c_phi", "e_min", "e_max", "eta_min", "eta_max",
                "epsilon")
_OPTIONAL_FIELDS = ("beta", "c_phi")


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
    """The config of the given kind with raw's fields; a kind in raw must be the same."""
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ParameterError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("kind", kind) != kind:
        raise ParameterError(f"config kind {raw['kind']!r} does not match the "
                             f"requested kind {kind!r}")
    raw = dict(raw, kind=kind)
    if isinstance(raw.get("factors"), list):
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
    factors = config.factors
    if not isinstance(factors, (list, tuple)):
        v.append(f"factors must be a list of integers, got {factors!r}")
    elif not all(_is_number(f, numbers.Integral) for f in factors):
        v.append(f"factors must be a list of integers, got {list(factors)}")
    return v


def k_max_violations(k_max: int, q: int) -> list[str]:
    """The violated edge-depth constraint 1 <= k_max <= q, if any."""
    return [] if 1 <= k_max <= q else [f"k_max must lie in [1, q={q}], got {k_max}"]


def _size_violations(config: ExperimentConfig) -> list[str]:
    """Dimension and aspect-ratio violations at every size n the kind samples at.

    Runs build their limit model at p/n, q/n, so the aspect-ratio rule
    must hold there as well as at the nominal c1, c2.
    """
    if config.kind == "rigidity-scaling":
        sizes = [config.n0 * f for f in config.factors]
    elif config.kind in ("spectrum", "local-law-sweep", "tw-edge"):
        sizes = [config.n]
    else:
        return []
    v = []
    for n in sizes:
        p, q = config.dims(n)
        v += dims_violations(p, q, n) or [
            f"at n = {n}, p = {p}, q = {q}: {m}" for m in aspect_ratio_violations(p / n, q / n)]
    return v


def validate(config: ExperimentConfig) -> list[str]:
    """Collect every violated constraint; an empty list means runnable."""
    if config.kind not in KINDS:
        return [f"kind {config.kind!r} is not one of {KINDS}"]
    v = _type_violations(config)
    if v:
        # the range checks below compare numbers and would fail on these
        return v
    # the rules that need sizes p, q run only at admissible ratios: round(c n)
    # raises on a NaN or infinite c
    ratios = aspect_ratio_violations(config.c1, config.c2)
    v = ratios or _size_violations(config)
    v += seed_violations(config.seed) + law_violations(config.law, config.beta)
    if config.c_phi is not None:
        v += truncation_violations(config.c_phi)

    if config.kind == "tw-edge":
        if not ratios:
            v += k_max_violations(config.k_max, config.dims()[1])
        if config.trials < 2:
            v.append(f"tw-edge needs trials >= 2, got {config.trials}")
    if config.kind == "rigidity-scaling":
        if config.trials < 3:
            v.append(f"rigidity-scaling needs trials >= 3, got {config.trials}")
        if config.n0 < 4 or (not ratios and config.dims(config.n0)[1] < 2):
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
        v += window_violations(config.n, config.epsilon, config.e_min, config.e_max,
                               config.eta_min, config.eta_max)
        if config.e_min > config.e_max:
            v.append(f"e_min {config.e_min} exceeds e_max {config.e_max}")
        if config.eta_min > config.eta_max:
            v.append(f"eta_min {config.eta_min} exceeds eta_max {config.eta_max}")
        if config.e_points < 1 or config.eta_points < 1:
            v.append("grid needs at least one point per axis")
        if config.eta_scale not in ("log", "linear"):
            v.append(f"eta_scale must be 'log' or 'linear', got {config.eta_scale!r}")
        if config.trials < 1:
            v.append(f"local-law-sweep needs trials >= 1, got {config.trials}")
    return v
