"""In-memory spans and counters around degenlab's public functions.

A span records (name, start, end, parent) for one call; a counter only
counts calls, for functions hot enough that a span would distort the run.
Each wrapped function is replaced in its defining module and in every
loaded `degenlab*` module namespace that imported it by name, so calls
made through any of those names are seen.  The program's own files are
not edited.
"""

from __future__ import annotations

import json
import math
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, how): "span" records a span, "count" only counts.
TARGETS = (
    ("exactnum", "parse_rational_function", "span"),
    ("exactnum", "poly_gcd", "count"),
    ("linalg", "invert", "span"),
    ("linalg", "power_rank_sequence", "span"),
    ("linalg", "rank", "span"),
    ("linalg", "kernel_basis", "span"),
    ("algebra", "change_basis", "span"),
    ("algebra", "product", "count"),
    ("algebra", "left_mult_matrix", "span"),
    ("algebra", "identity_flags", "span"),
    ("algebra", "engel_degree", "span"),
    ("algebra", "power_ideal", "span"),
    ("algebra", "annihilator", "span"),
    ("contraction", "iw_max", "span"),
    ("contraction", "rank_sequence", "span"),
    ("degeneration", "verify_degeneration", "span"),
    ("degeneration", "verify_nondegeneration", "span"),
    ("degeneration", "randomized_orbit_refute", "span"),
    ("degeneration", "random_invertible", "span"),
    ("degeneration", "lower_triangular_invariance_probe", "span"),
    ("catalog", "instantiate", "span"),
    ("catalog", "classify_T22", "span"),
    ("catalog", "level_lookup", "span"),
    ("verification_db", "load_ledger", "span"),
    ("verification_db", "run_ledger", "span"),
    ("verification_db", "separator_check", "span"),
    ("verification_db", "report_to_json_bytes", "span"),
    ("verification_db", "hasse_dot", "span"),
    ("cli", "main", "span"),
)

SEPARATOR_KINDS = ("dim_square", "ann_dim", "nilindex", "jacobi", "classifier",
                   "pfaffian_conic", "paper", "centralizer_square")


def _span_name(module: str, attr: str, args) -> str:
    """Span name; two functions are split by an argument."""
    if attr == "invert":
        # Fraction matrices versus matrices over Q(t)
        return "linalg.invert." + ("qt" if args[0].kind == "ratfun" else "q")
    if attr == "separator_check":
        return f"verification_db.separator_check.{args[0]}"
    return f"{module}.{attr}"


class Tracer:
    """Spans and counters of one traced pass; install() patches degenlab."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = Counter()
        self.instantiated = Counter()  # (family key, dim) -> calls

    def _span(self, module, attr, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            name = _span_name(module, attr, args)
            if attr == "instantiate":
                key = (str(args[0]), args[1] if len(args) > 1 else kwargs["n"])
                self.instantiated[key] += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every target in all loaded degenlab module namespaces."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "degenlab" or key.startswith("degenlab."))]
        for module, attr, how in TARGETS:
            original = getattr(sys.modules[f"degenlab.{module}"], attr)
            if how == "span":
                wrapped = self._span(module, attr, original)
            else:
                wrapped = self._counter(f"{module}.{attr}", original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        ref = sys.modules["degenlab.degeneration"].AlgebraRef
        ref.resolve = self._counter("degeneration.resolve", ref.resolve)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)

    def metrics(self) -> dict:
        """Per-layer metrics of the traced pass, as {name: value}."""
        spans = self.spans
        calls, incl, self_s = Counter(), Counter(), Counter()
        durations = {}
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            self_s[name] += dur - child_time[index]
            durations.setdefault(name, []).append(dur)
            # inclusive time counts only the outermost call of a name
            up = parent
            while up >= 0 and spans[up][0] != name:
                up = spans[up][3]
            if up < 0:
                incl[name] += dur

        draws = sum(1 for name, _, _, parent in spans
                    if parent >= 0 and name.startswith("linalg.invert.")
                    and spans[parent][0] == "degeneration.random_invertible")
        accepted = calls["degeneration.random_invertible"]
        inst_calls = sum(self.instantiated.values())
        inst_repeats = inst_calls - len(self.instantiated)
        verify = durations.get("degeneration.verify_degeneration", [])

        out = {}
        for key in ("exactnum.parse_rational_function", "linalg.invert.q",
                    "linalg.invert.qt", "linalg.power_rank_sequence",
                    "linalg.rank", "linalg.kernel_basis",
                    "algebra.change_basis", "algebra.left_mult_matrix",
                    "algebra.identity_flags", "algebra.engel_degree",
                    "contraction.iw_max", "contraction.rank_sequence",
                    "degeneration.verify_degeneration",
                    "degeneration.verify_nondegeneration",
                    "degeneration.randomized_orbit_refute",
                    "degeneration.lower_triangular_invariance_probe",
                    "catalog.instantiate", "catalog.classify_T22",
                    "catalog.level_lookup"):
            out[f"{key}.calls"] = calls[key]
            out[f"{key}.s"] = incl[key]
        for key in ("algebra.power_ideal", "algebra.annihilator",
                    "verification_db.load_ledger", "verification_db.run_ledger",
                    "verification_db.report_to_json_bytes",
                    "verification_db.hasse_dot"):
            out[f"{key}.s"] = incl[key]
        for kind in SEPARATOR_KINDS:
            key = f"verification_db.separator_check.{kind}"
            out[f"{key}.s"] = incl[key]
        for key in ("algebra.change_basis", "contraction.iw_max",
                    "verification_db.run_ledger", "cli.main"):
            out[f"{key}.self_s"] = self_s[key]
        for key in ("exactnum.poly_gcd", "algebra.product",
                    "degeneration.resolve"):
            out[f"{key}.calls"] = self.counts[key]
        out["contraction.rank_sequence_per_iw_max"] = (
            calls["contraction.rank_sequence"] / calls["contraction.iw_max"]
            if calls["contraction.iw_max"] else 0.0)
        out["degeneration.orbit_draws"] = draws
        out["degeneration.orbit_draw_yield"] = accepted / draws if draws else 0.0
        out["catalog.instantiate.repeat_share"] = (
            inst_repeats / inst_calls if inst_calls else 0.0)
        out["degeneration.verify_degeneration.p50_s"] = quantile(verify, 0.5)
        out["degeneration.verify_degeneration.p90_s"] = quantile(verify, 0.9)
        return out


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile; 0.0 when the sample is empty.

    A weighted mean of all order statistics, with the weights of the
    Beta(q (n + 1), (1 - q) (n + 1)) distribution over [0, 1] split into n
    equal parts (integrated by Simpson's rule).  Unlike a single order
    statistic it does not jump when a few latencies near a gap in the
    sample trade places, which small samples of uneven claims often have.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1

    def density(t):  # unnormalised; at most 1, so it cannot overflow
        return math.exp(a * math.log(t) + b * math.log1p(-t)) if 0 < t < 1 else 0.0

    steps = 16  # even, per part
    weights = []
    for i in range(n):
        low, width = i / n, 1 / (n * steps)
        inner = sum((4 if k % 2 else 2) * density(low + k * width) for k in range(1, steps))
        weights.append(density(low) + inner + density(low + steps * width))
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total
