"""Span tracer that times dmimo's layers from outside the library.

Each traced function is replaced, at every dmimo module attribute that
refers to it, by a wrapper that records a span (name, start, end, parent,
item id). Callers look the function up by module attribute at call time,
so the wrapper sees calls made from inside the library as well. Classes
are traced by wrapping ``__init__``. A name that the library no longer
defines is skipped, so its metrics drop out instead of breaking the run.

Spans are kept in memory and written once, by ``write``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Every traced layer, as "<module>.<attribute>" under the dmimo package.
TRACED = (
    "scenario.build_scenario",
    "channel.sample_channel",
    "channel.sample_channel_batch",
    "estimation.scenario_estimation_stats",
    "estimation.estimate_batch",
    "rate.RateContext",
    "rate.sinr_lower_bound",
    "rate.sum_rate",
    "rate.ergodic_rate_mc",
    "rate.monte_carlo_terms",
    "scheduler.correlation_matrix_rho",
    "scheduler.dsatur_color",
    "scheduler.schedule_users",
    "gp.solve_gp",
    "optimizer.scheduling_estimates",
    "optimizer.feasibility_check",
    "optimizer.build_sca_subproblem",
    "optimizer.optimize_power_weights",
    "optimizer.optimize_bandwidth",
    "optimizer.alternating_optimize",
    "optimizer.benchmark_allocation",
    "harness.run_experiment",
    "harness.build_identifier",
)

SAMPLERS = ("channel.sample_channel", "channel.sample_channel_batch")

# Counts read from return values as they pass through a wrapper. Each
# reader returns the amount to add to its counter.
COUNTERS = {
    "gp.solve_gp": ("gp.solve_gp.iterations", lambda r: r.iterations),
    "optimizer.optimize_power_weights":
        ("optimizer.sca_iterations", lambda r: r[1].iterations),
    "optimizer.optimize_bandwidth":
        ("optimizer.bandwidth_iterations", lambda r: r.iterations),
    "optimizer.alternating_optimize":
        ("optimizer.ao_rounds", lambda r: len(r.round_rates)),
    # complex samples per draw, T*M*K*N: computed from the array shape
    "channel.sample_channel_batch":
        ("channel.samples_drawn", lambda r: r[0].size),
    "channel.sample_channel": ("channel.samples_drawn", lambda r: r.h.size),
}


class Tracer:
    """Records spans of the traced layers while an item is open."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, item id, error]
        self.counts = {}
        self.item = None
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.item, None])
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item_id):
        self.item = item_id
        return self._open("item")

    def end_item(self, span):
        self._close(span)
        self.item = None

    def _count(self, name, result):
        reader = COUNTERS.get(name)
        if reader is None:
            return
        if name in SAMPLERS and self._inside(SAMPLERS):
            return  # a sampler built on another sampler draws once
        key, read = reader
        try:
            n = read(result)
        except (AttributeError, IndexError, TypeError):
            return  # the return type changed; that count drops out
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def _inside(self, names):
        return any(self.spans[i][0] in names for i in self._stack)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.item is None:
                return fn(*args, **kwargs)
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # attribute the error to the innermost span it left
                if not getattr(exc, "_traced", False):
                    span[5] = type(exc).__name__
                    try:
                        exc._traced = True
                    except AttributeError:
                        pass
                raise
            finally:
                tracer._close(span)
            tracer._count(name, result)
            return result

        return traced

    # -- installing ------------------------------------------------------

    def install(self):
        """Wrap every traced name the library still defines; return the
        names found."""
        originals = {}
        for target in TRACED:
            modname, attr = target.split(".")
            try:
                module = importlib.import_module(f"dmimo.{modname}")
            except ImportError:
                continue
            if getattr(module, attr, None) is not None:
                originals[target] = getattr(module, attr)
        dmimo_mods = [m for n, m in sys.modules.items()
                      if (n == "dmimo" or n.startswith("dmimo.")) and m]
        for target, original in originals.items():
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(target, init))
                continue
            wrapper = self._wrap(target, original)
            for mod in dmimo_mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        return list(originals)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self seconds, errors)} over every closed span."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _, error) in enumerate(self.spans):
            calls, self_s, errors = out.get(name, (0, 0.0, 0))
            out[name] = (calls + 1, self_s + (end - start) - child[i],
                         errors + (error is not None))
        return out

    def error_counts(self):
        """{exception type name: spans where it was raised}."""
        out = {}
        for span in self.spans:
            if span[5] is not None:
                out[span[5]] = out.get(span[5], 0) + 1
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent", "item",
                                  "error"],
                       "spans": self.spans}, f, separators=(",", ":"))
            f.write("\n")
