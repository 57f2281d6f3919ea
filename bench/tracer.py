"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the `latres` package from outside the
package: each wrapper is bound under every `latres.*` module attribute (and
class attribute) that refers to the original, so calls made inside the
package are recorded too.  A span is `[name, wall start, wall end, CPU
start, CPU end, parent]`; spans stay in memory until `uninstall()` and are
summarised by `layer_stats`.

Layer times are the calling thread's CPU time.  The CLI scan runs its grid
rows on a thread pool whose threads take turns holding the interpreter
lock; wall-clock spans there would count each thread's wait for the lock
as time spent in the library.  Each thread keeps its own span stack, so a
span's children ran on its thread and its self time is its CPU time minus
theirs.  Only `cli.main` latency is wall time, as the caller sees it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (module, attribute) of every traced callable, and how its time is reported:
# "us" for fine-grained calls (µs per call), "total" for coarse calls
# (seconds per pass).  `self` marks callables whose body calls other traced
# callables, so their self time is reported as well.
TARGETS = (
    ("structure", "classify_harmonics", "us", False),
    ("structure", "waveguide_band_matrix", "us", False),
    ("structure", "region_diagram", "us", False),
    ("scattering", "solve_scattering", "us", True),
    ("scattering", "scan_transmission", "total", True),
    ("scattering", "reconstruct_field", "us", False),
    ("dtn", "solve_truncated", "us", True),
    ("dtn", "cross_validate", "us", True),
    ("guided", "sigma_min", "us", False),
    ("guided", "find_guided_modes", "total", True),
    ("guided", "null_vector", "us", False),
    ("guided", "EigenvalueTracker.value", "us", False),
    ("guided", "EigenvalueTracker.solve_omega", "us", True),
    ("guided", "continue_and_fit_dispersion", "total", True),
    ("resonance", "fit_anomaly", "total", True),
    ("resonance", "peak_dip_curves", "total", True),
    ("resonance", "enhancement_scan", "total", True),
    ("resonance", "trace_branch", "total", False),
    ("timedomain", "rk4_step", "us", True),
    ("timedomain", "apply_omega", "us", True),
    ("timedomain", "evolve", "total", True),
    ("discrete", "identity_residuals", "us", False),
)

# subcommands the workloads send through `latres.cli.main`
CLI_SUBCOMMANDS = ("scan", "scatter", "bands", "regions", "validate",
                   "bifurcate")

RESONANCE_SPANS = frozenset(f"resonance.{attr}" for mod, attr, *_ in TARGETS
                            if mod == "resonance")


class Tracer:
    """Records a span around every call of the traced callables."""

    def __init__(self):
        self.spans = []
        self.outcomes = {}          # span name -> list of result sizes
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name_of, fn, count_result=False):
        spans, outcomes = self.spans, self.outcomes

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name_of(args), time.perf_counter(), None,
                    time.thread_time(), None, stack[-1] if stack else None]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.thread_time()
                span[2] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if count_result:
                outcomes.setdefault(span[0], []).append(len(result))
            return result

        return traced

    def _bind_everywhere(self, original, wrapper):
        for modname, module in list(sys.modules.items()):
            if modname != "latres" and not modname.startswith("latres."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        """Wrap every target and the CLI entry point."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        for mod, attr, _, _ in TARGETS:
            module = importlib.import_module(f"latres.{mod}")
            name = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth,
                        self._wrap(lambda args, n=name: n, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(lambda args, n=name: n, original,
                                 count_result=(attr == "find_guided_modes"))
            self._bind_everywhere(original, wrapper)

        cli = importlib.import_module("latres.cli")

        def cli_name(args):
            argv = args[0] if args else None
            sub = argv[0] if argv else "none"
            return f"cli.main.{sub}"

        self._bind_everywhere(cli.main, self._wrap(cli_name, cli.main))

    def uninstall(self):
        """Put every original callable back, in reverse order of binding."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _cpu(span):
    return span[4] - span[3]


def _under(span, names):
    parent = span[5]
    while parent is not None:
        if parent[0] in names:
            return True
        parent = parent[5]
    return False


def layer_stats(spans, outcomes, passes):
    """Per-layer metrics from the spans of `passes` traced passes.

    Counts and seconds are per pass; µs per call is over all calls.  Every
    metric of `per_layer_names()` is present, 0 where the workload does not
    call the function.
    """
    by_name = {}
    child_cpu = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)
        if span[5] is not None:
            key = id(span[5])
            child_cpu[key] = child_cpu.get(key, 0.0) + _cpu(span)

    def self_time(group):
        return sum(_cpu(s) - child_cpu.get(id(s), 0.0) for s in group)

    out = {}
    for mod, attr, kind, has_self in TARGETS:
        name = f"{mod}.{attr}"
        group = by_name.get(name, [])
        total = sum(_cpu(s) for s in group)
        out[f"{name}.calls"] = (len(group) / passes, "count")
        if kind == "us":
            out[f"{name}.us_per_call"] = (
                total / len(group) * 1e6 if group else 0.0, "us")
        else:
            out[f"{name}.total_s"] = (total / passes, "s")
        if has_self:
            out[f"{name}.self_s"] = (self_time(group) / passes, "s")

    solve_calls = by_name.get("guided.EigenvalueTracker.solve_omega", [])
    values_in_solve = sum(
        1 for s in by_name.get("guided.EigenvalueTracker.value", [])
        if s[5] is not None
        and s[5][0] == "guided.EigenvalueTracker.solve_omega")
    out["guided.solve_omega.value_calls_per_solve"] = (
        values_in_solve / len(solve_calls) if solve_calls else 0.0, "ratio")
    modes_found = sum(outcomes.get("guided.find_guided_modes", ()))
    sigma_calls = len(by_name.get("guided.sigma_min", ()))
    out["guided.sigma_calls_per_mode"] = (
        sigma_calls / modes_found if modes_found else 0.0, "ratio")
    out["resonance.solve_scattering_calls"] = (
        sum(1 for s in by_name.get("scattering.solve_scattering", ())
            if _under(s, RESONANCE_SPANS)) / passes, "count")

    cli_spans = []
    for sub in CLI_SUBCOMMANDS:
        group = by_name.get(f"cli.main.{sub}", [])
        cli_spans.extend(group)
        out[f"cli.main.{sub}.calls"] = (len(group) / passes, "count")
        out[f"cli.main.{sub}.us_per_call"] = (
            sum(s[2] - s[1] for s in group) / len(group) * 1e6
            if group else 0.0, "us")
    out["cli.self_s"] = (self_time(cli_spans) / passes, "s")
    return out


def per_layer_names():
    """Names of every per-layer metric `layer_stats` reports, in order."""
    return list(layer_stats([], {}, 1))
