"""Spans and counters around sharpcert's layers, installed from outside the package.

``install`` replaces functions where their callers look them up: a module
that did ``from .x import f`` holds its own binding of ``f``, so that binding
is the one wrapped.  Spans (name, start, end, parent) stay in memory until
the measured process ends; a layer's self time is its spans' durations minus
the part covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

# span name -> (module attribute paths wrapped for it)
SPANS = {
    "cli": ("cli.main",),
    "scheme.compute": ("cli.compute_a_star",),
    "scheme.verify": ("cli.verify_certificate",),
    "scheme.ladder": ("scheme.build_weights",),
    "scheme.json": ("scheme.Certificate.to_json", "scheme.Certificate.from_json"),
    "specfun.delta_eigen": ("scheme.eigen_delta_weight",),
    "specfun.funk_hecke": ("scheme.funk_hecke_eigen",),
    "specfun.gegenbauer": ("specfun.GegenbauerBasis.poly",),
    "kernels.kernel_poly": ("scheme.magical_kernel_poly", "scheme.nonmagical_kernel_poly"),
    "kernels.moment": ("kernels.MomentTable.get",),
    "polys.nonneg": ("scheme.nonneg_on", "polys.nonneg_on"),
    "polys.min_shift": ("scheme.minimal_shift",),
    "scalars.decimal": ("scalars.ExactScalar.decimal",),
}

# A request to the eigenvalue table is a hit when neither of these ran under it.
COMPUTATIONS = ("specfun.delta_eigen", "specfun.funk_hecke")

RAT_MODULES = ("backend", "scalars", "polys", "specfun", "kernels", "scheme", "oracle", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.sturm_chain_len_max = 0
        self._stack: list[int] = []

    def span(self, name, fn):
        spans, stack, clock, counts = self.spans, self._stack, time.perf_counter, self.counts
        is_computation = name in COMPUTATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if is_computation:
                counts["computations"] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return wrapper

    def counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def table_request(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = counts["computations"]
            out = fn(*args, **kwargs)
            counts["eigen_table.requests"] += 1
            if counts["computations"] == before:
                counts["eigen_table.hits"] += 1
            return out

        return wrapper

    def sturm(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            chain = fn(*args, **kwargs)
            self.counts["sturm.calls"] += 1
            self.sturm_chain_len_max = max(self.sturm_chain_len_max, len(chain))
            return chain

        return wrapper

    def summary(self) -> dict:
        """Per-span-name call counts and self seconds, plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        root_s = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if parent < 0:
                root_s += end - start
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "root_s": root_s,
            "counts": dict(self.counts),
            "sturm_chain_len_max": self.sturm_chain_len_max,
        }


def _replace(modules, path, make):
    mod, *attrs = path.split(".")
    owner = modules[mod]
    for a in attrs[:-1]:
        owner = getattr(owner, a)
    raw = owner.__dict__[attrs[-1]] if isinstance(owner, type) else getattr(owner, attrs[-1])
    if isinstance(raw, classmethod):
        setattr(owner, attrs[-1], classmethod(make(raw.__func__)))
    else:
        setattr(owner, attrs[-1], make(raw))


def install(tracer: Tracer) -> None:
    from sharpcert import backend, cli, kernels, oracle, polys, scalars, scheme, specfun

    modules = {"backend": backend, "cli": cli, "kernels": kernels, "oracle": oracle,
               "polys": polys, "scalars": scalars, "scheme": scheme, "specfun": specfun}
    for name, paths in SPANS.items():
        for path in paths:
            _replace(modules, path, functools.partial(tracer.span, name))
    for method in ("delta", "mag", "nonmag"):
        _replace(modules, f"scheme.EigenTable.{method}", tracer.table_request)
    _replace(modules, "polys.sturm_chain", tracer.sturm)
    _replace(modules, "scalars.gamma_half_int", functools.partial(tracer.counted, "gamma.calls"))
    _replace(modules, "scalars.ExactScalar.__init__",
             functools.partial(tracer.counted, "exact_scalar.created"))
    for mod in RAT_MODULES:
        _replace(modules, f"{mod}.rat", functools.partial(tracer.counted, "rat.calls"))
