"""Spans and counters at genprod's module boundaries, installed from outside.

``Tracer.install()`` replaces public functions (and two methods) with
wrappers in every ``genprod`` module that binds them, so calls made inside
the library are traced too; ``uninstall()`` puts the originals back.  Spans
nest on one stack: a span's self time is its duration minus the time its
child spans cover.  Nothing under ``src/`` is edited.
"""
from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack: list[list] = []      # [key, start, child_time]
        self._patches: list[tuple] = []   # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def reset(self):
        self.self_s.clear()
        self.total_s.clear()
        self.counts.clear()

    def _enter(self, key):
        self._stack.append([key, _now(), 0.0])

    def _exit(self, key=None):
        frame = self._stack.pop()
        dur = _now() - frame[1]
        key = key or frame[0]
        self.self_s[key] += dur - frame[2]
        self.total_s[key] += dur
        if self._stack:
            self._stack[-1][2] += dur
        return dur

    def inside(self, key) -> bool:
        return any(f[0] == key for f in self._stack)

    # -- wrappers ------------------------------------------------------------

    def span_wrapper(self, fn, key, *, route=None, after=None, reentrant=True):
        """Time ``fn`` as span ``key``.

        ``route(result)`` renames the span after the call (closed or sampled
        partial norms); ``after(result, args, kwargs)`` updates counters;
        with ``reentrant=False`` a call made from inside the same span (a
        recursion) runs untraced.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if not reentrant and tracer._stack and tracer._stack[-1][0] == key:
                return fn(*args, **kwargs)
            tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit()
                raise
            name = route(result) if route else key
            tracer._exit(name)
            tracer.counts[name + ".calls"] += 1
            if after:
                after(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count_wrapper(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_wrapper(self, fn, key):
        """Time every ``next()`` of a generator function as span ``key``."""
        tracer = self

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer._enter(key)
                try:
                    item = next(it)
                except StopIteration:
                    tracer._exit()
                    return
                except BaseException:
                    tracer._exit()
                    raise
                tracer._exit()
                tracer.counts[key + ".steps"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def patch_function(self, fn, wrapper):
        """Rebind ``fn`` to ``wrapper`` in every genprod module that holds it."""
        for name, mod in list(sys.modules.items()):
            if name != "genprod" and not name.startswith("genprod."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def install(self):
        from genprod import cli, contraction, matio, norms, products, spectral, stochastic

        def f(mod, name, key, **kw):
            fn = getattr(mod, name)
            self.patch_function(fn, self.span_wrapper(fn, key, **kw))

        f(norms, "operator_norm", "norms.operator_norm")

        def pn_route(res):
            return ("norms.partial_norm.sampled" if res.method == "optimized"
                    else "norms.partial_norm.closed")

        def pn_after(res, args, kwargs):
            self.counts["norms.partial_norm.sampled.probes"] += res.samples

        f(norms, "partial_norm", "norms.partial_norm", route=pn_route,
          after=pn_after)
        for name in ("fixed_point_space", "range_complement", "complementary_pair"):
            f(norms, name, "norms.splits")

        stream = products.stream_general_product
        self.patch_function(stream, self.generator_wrapper(stream, "products.stream"))
        self.patch_method(products.Permutation, "index_at", self.count_wrapper(
            products.Permutation.index_at, "products.index_at.calls"))
        self.patch_method(products.MatrixSequence, "factor", self.count_wrapper(
            products.MatrixSequence.factor, "products.factor.calls"))
        f(products, "monitor_convergence", "products.monitor")

        f(stochastic, "weak_ergodicity_experiment", "stochastic.experiment")
        f(stochastic, "ergodicity_coefficient_l1", "stochastic.coefficient")
        f(stochastic, "validate_stochastic", "stochastic.validate")

        def verdict(res, args, kwargs):
            self.counts["contraction.verdicts." + res.kind.value] += 1

        for name, key in (("is_nonexpansive", "nonexpansive"),
                          ("check_paracontracting", "paracontracting"),
                          ("check_l_paracontracting", "l_paracontracting"),
                          ("check_H_contractor", "h_contractor")):
            f(contraction, name, "contraction." + key, after=verdict)
        f(contraction, "equiv_theorem_audit", "contraction.audit")

        for name in ("multiplicities", "eigenvalue_one_semisimple",
                     "check_multiplicity_bounds", "high_modulus_bound",
                     "stochastic_simple_one"):
            f(spectral, name, "spectral")

        for name in ("matrix_from_config", "matrix_from_jsonable", "norm_from_config",
                     "subspace_from_config", "tail_model_from_config",
                     "sequence_from_config", "schedule_from_config"):
            f(matio, name, "matio.parse")
        f(matio, "to_jsonable", "matio.to_jsonable", reentrant=False)

        f(cli, "run_config", "cli.run_config")

        def report_bytes(path, args, kwargs):
            report, out_dir, name, fmt = args
            size = Path(path).stat().st_size
            if fmt == "csv":
                for tname in report.get("traces", {}):
                    size += (Path(out_dir) / f"{name}-{tname}.csv").stat().st_size
            self.counts["cli.report_bytes"] += size

        f(cli, "_write_outputs", "cli.write", after=report_bytes)
        f(cli, "_cmd_replay", "cli.replay")
        canonical = cli._canonical_json
        span = self.span_wrapper(canonical, "cli.canonical_json")

        def compare(*args, **kwargs):
            if not self.inside("cli.replay"):
                return canonical(*args, **kwargs)
            return span(*args, **kwargs)

        self.patch_function(canonical, compare)
        return self
