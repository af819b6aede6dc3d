"""Span tracing around the calls into scclab's layers, plus exact oracles.

The tracer replaces every public function of the layer modules at each
name it is bound to inside the package: the defining module (so calls
within a layer, such as `tw_experiment` -> `goe_reference`, are seen) and
every module that imported it (so calls across layers are seen).  A span
records its name, start, end, parent span and the invocation's run id,
plus a few attributes taken from the call (sizes, the law, a residual).
Spans stay in memory and are written once, when the invocation ends.

Oracles are exact properties of the values the wrapped calls return.
They run after the span has closed, so their cost shows up as tracing
overhead, never as a layer's time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("sampler", "scc_core", "spectral_model", "linearized_resolvent", "edge_stats")

# `density` is evaluated at every quadrature node of every tail mass
# (hundreds of thousands of scalar calls on a cold `classical_locations`);
# a span per call would measure the tracer, not the layer.
_UNTRACED = {"spectral_model.density"}

_RESIDUAL_LIMIT = 1e-6
_TRACE_IDENTITY_LIMIT = 1e-10


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _sample_pair(args, kwargs, result, attrs, problems):
    attrs["law"] = _arg(args, kwargs, 0, "law")
    attrs["n"] = _arg(args, kwargs, 3, "n")


def _sampler(args, kwargs, result, attrs, problems):
    attrs["bytes"] = result.X.nbytes + result.Y.nbytes


def _ccc_eigenvalues(args, kwargs, result, attrs, problems):
    lam = result.eigenvalues
    attrs["n"] = result.n
    if not (np.all(lam >= 0.0) and np.all(lam <= 1.0) and np.all(np.diff(lam) <= 0.0)):
        problems.append(f"ccc_eigenvalues at n={result.n}: spectrum not descending in [0, 1]")


def _goe_reference(args, kwargs, result, attrs, problems):
    attrs["trials"] = _arg(args, kwargs, 1, "trials")


def _classical_locations(args, kwargs, result, attrs, problems):
    model, q = _arg(args, kwargs, 0, "model"), _arg(args, kwargs, 1, "q")
    attrs["q"] = q
    if result[0] != model.lambda_plus or not np.all(np.diff(result) < 0.0):
        problems.append(f"classical_locations q={q}: not strictly decreasing from lambda_plus")


def _blocks_via_schur(args, kwargs, result, attrs, problems):
    z, c1, c2 = result.z, result.c1, result.c2
    identity = max(
        abs(result.m3 - result.m4 - (1.0 - z) * (c1 - c2)),
        abs(result.m3 - (c2 * z * (1.0 - z) * result.m + (1.0 - c1 - c2) * z)),
    )
    attrs["residual"] = result.identity_residual
    attrs["trace_identity"] = identity
    if not result.identity_residual <= _RESIDUAL_LIMIT:
        problems.append(f"blocks_via_schur at z={z}: identity residual "
                        f"{result.identity_residual:.3e} > {_RESIDUAL_LIMIT:.0e}")
    if not identity <= _TRACE_IDENTITY_LIMIT:
        problems.append(f"blocks_via_schur at z={z}: trace identity residual "
                        f"{identity:.3e} > {_TRACE_IDENTITY_LIMIT:.0e}")


_HOOKS = {
    "edge_stats.sample_pair": _sample_pair,
    "edge_stats.goe_reference": _goe_reference,
    "sampler.sample_gaussian": _sampler,
    "sampler.sample_bounded": _sampler,
    "sampler.sample_heavy_tail": _sampler,
    "scc_core.ccc_eigenvalues": _ccc_eigenvalues,
    "spectral_model.classical_locations": _classical_locations,
    "linearized_resolvent.blocks_via_schur": _blocks_via_schur,
}


class Tracer:
    """Spans and oracle findings of one CLI invocation."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start_ns, end_ns, parent, run_id, attrs]
        self.problems: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            attrs: dict = {}
            span = [name, 0, 0, self._stack[-1] if self._stack else -1, self.run_id, attrs]
            self.spans.append(span)
            self._stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                attrs["error"] = True
                raise
            finally:
                span[1], span[2] = start, time.perf_counter_ns()
                self._stack.pop()
            if hook is not None:
                hook(args, kwargs, result, attrs, self.problems)
            return result

        return traced

    def install(self) -> None:
        """Wrap each layer's public functions wherever the package binds them."""
        modules = [m for key, m in sys.modules.items()
                   if key == "scclab" or key.startswith("scclab.")]
        for layer in LAYERS:
            module = importlib.import_module(f"scclab.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if not inspect.isfunction(fn) or name in _UNTRACED:
                    continue
                traced = self.wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, traced)

    def report(self) -> dict:
        return {"spans": self.spans, "problems": self.problems}
