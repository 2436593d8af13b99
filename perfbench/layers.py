"""Per-layer tracing of the engine from outside it.

``Tracer.install`` replaces public engine functions, at every module global
that resolves to them, with wrappers that record a span (name, start, end,
parent span, scenario id) or bump a counter; ``uninstall`` puts the
originals back.  Spans are kept in flat arrays in memory and written out by
``write_spans`` when the benchmark ends.  A span's self time is its
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import Counter

#: (module, function) pairs traced as spans, named ``<module>.<function>``.
SPANS = (
    ("cli", "load_config"),
    ("cli", "run_scenario"),
    ("cli", "emit_report"),
    ("graded", "cone_bounds"),
    ("graded", "convolve_interval"),
    ("twists", "ext_growth_series"),
    ("twists", "spherical_twist_series"),
    ("lattice", "char_poly"),
    ("lattice", "is_unipotent"),
    ("lattice", "spectral_radius"),
    ("words", "induced_matrix"),
    ("words", "log_rho_is_exact_zero"),
    ("descent", "integer_kernel_basis"),
    ("descent", "quotient_verdict"),
    ("hilbert", "hilbert_lift_verdict"),
)
#: Functions whose calls are counted without a span.
COUNTED = (("twists", "verify_iterate_contract"),)
#: The memoized profile functions, whose keys feed ``twists.repeat_share``.
MEMOIZED = ("correction_profile", "eval_twist_cone_profile", "iterate_profile")


class Tracer:
    def __init__(self, catent_modules: dict):
        self.mods = catent_modules  # short name -> module, e.g. "twists"
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.name = array("l")
        self.scenario_of = array("l")
        self.stack: list[int] = []
        self.scenario = -1
        self.counts: Counter = Counter()
        self.memo_keys: set = set()  # keys computed in the current scenario
        self._patches: list = []

    # -- installing wrappers ------------------------------------------------

    def _patch(self, original, wrapper):
        """Point every catent global that resolves to ``original`` at
        ``wrapper``."""
        for mod in self.mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_attr(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        for mod, fn in SPANS:
            original = getattr(self.mods[mod], fn)
            after = self._after_cone if fn == "cone_bounds" else (
                self._after_exact_zero if fn == "log_rho_is_exact_zero" else None)
            self._patch(original, self._span(f"{mod}.{fn}", original, after))
        for mod, fn in COUNTED:
            original = getattr(self.mods[mod], fn)
            self._patch(original, self._counter(f"{mod}.{fn}.calls", original))
        for fn in MEMOIZED:
            original = getattr(self.mods["twists"], fn)
            self._patch(original, self._memo_recorder(fn, original))
        lattice = self.mods["lattice"]
        mpmath = lattice.mpmath
        self._patch_attr(mpmath, "polyroots",
                         self._span("lattice.polyroots", mpmath.polyroots))
        matrix_cls = lattice.SquareIntMatrix
        self._patch_attr(matrix_cls, "__matmul__",
                         self._counter("lattice.matmul.calls", matrix_cls.__matmul__))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        nid = len(self.names)
        self.names.append(name)
        start, end, parent = self.start, self.end, self.parent
        names, scen, stack, clock = self.name, self.scenario_of, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            scen.append(self.scenario)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _memo_recorder(self, fn_name, fn):
        def wrapper(*args):
            self.memo_keys.add((fn_name, args))
            return fn(*args)

        wrapper.__wrapped__ = fn
        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _after_cone(self, result):
        self.counts["graded.cone_out_entries"] += len(result.entries)
        self.counts["graded.open_entries"] += sum(
            1 for _, _, hi in result.entries if hi is None)

    def _after_exact_zero(self, result):
        self.counts["words.exact_zero_true"] += bool(result)

    # -- aggregation --------------------------------------------------------

    def span_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg["calls"] += 1
            agg["s"] += dur[i]
            agg["self_s"] += dur[i] - child[i]
        return out

    def write_spans(self, path):
        """Write every span as CSV: name, start_us, end_us, parent, scenario."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_us,end_us,parent,scenario\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.names[self.name[i]]},"
                    f"{(self.start[i] - t0) * 1e6:.1f},{(self.end[i] - t0) * 1e6:.1f},"
                    f"{self.parent[i]},{self.scenario_of[i]}\n"
                )


def catent_modules() -> dict:
    """The imported catent submodules, by short name."""
    return {
        name.split(".", 1)[1]: mod
        for name, mod in sys.modules.items()
        if name.startswith("catent.") and mod is not None
    }
