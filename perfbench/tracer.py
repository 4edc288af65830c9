"""Spans around the calls into each auction_lab module's public functions.

The tracer replaces each traced function in every auction_lab namespace that
binds it (``from .revenue import estimate_mc`` makes its own binding), keeps
the spans in memory, and puts every original back on `restore`.  Metrics are
named ``<module>.<function>.<stat>``; a duration stat is the span total and
``self_s`` is that total minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

ROOT = "workload"

TRACED = (
    ("experiments", "run_experiment"),
    ("revenue", "estimate_mc"),
    ("revenue", "discriminating_benchmark"),
    ("revenue", "commensurateness_check"),
    ("revenue", "expected_revenue_quadrature"),
    ("planner", "select_anonymous_reserve"),
    ("planner", "plan_hr_dominant"),
    ("mixtures", "build_market"),
    ("mixtures", "enumerate_profiles"),
    ("distributions", "regularity_check"),
    ("distributions", "hr_crossing"),
    ("streams", "substream"),
    ("reports", "emit_report"),
)
TRACED_METHODS = (("mixtures", "MixtureDistribution", "sample_with_coin"),)

# counters the hooks below add to; zero when the workload never calls them
COUNTERS = (
    "revenue.estimate_mc.samples",
    "revenue.estimate_mc.repeats",
    "revenue.discriminating_benchmark.samples",
    "revenue.commensurateness_check.samples",
    "revenue.commensurateness_check.divergence_samples",
    "revenue.expected_revenue_quadrature.bidders_max",
    "mixtures.enumerate_profiles.profiles",
    "mixtures.sample_with_coin.draws",
    "distributions.regularity_check.repeats",
    "reports.emit_report.bytes",
)


def _market_key(market):
    return (repr(market.components), market.weights.shape, market.weights.tobytes())


def _estimate_mc(tracer, args, result):
    key = (
        _market_key(args["market"]),
        repr(args["mech"]),
        repr(args["extras"]),
        repr(args["cfg"]),
    )
    tracer.count_repeat("revenue.estimate_mc", key)
    tracer.add("revenue.estimate_mc.samples", result.n_samples)


def _discriminating_benchmark(tracer, args, result):
    tracer.add("revenue.discriminating_benchmark.samples", result.n_samples)


def _commensurateness_check(tracer, args, result):
    tracer.add("revenue.commensurateness_check.samples", result.n_samples)
    tracer.add("revenue.commensurateness_check.divergence_samples", result.divergence_count)


def _expected_revenue_quadrature(tracer, args, result):
    name = "revenue.expected_revenue_quadrature.bidders_max"
    tracer.stats[name] = max(tracer.stats[name], len(args["dists"]))


def _enumerate_profiles(tracer, args, result):
    tracer.add("mixtures.enumerate_profiles.profiles", len(result))


def _regularity_check(tracer, args, result):
    tracer.count_repeat("distributions.regularity_check", (repr(args["d"]), args["grid_size"]))


def _emit_report(tracer, args, result):
    tracer.add("reports.emit_report.bytes", len(result))


def _sample_with_coin(tracer, args, result):
    size = args["size"]
    tracer.add("mixtures.sample_with_coin.draws", 1 if size is None else size)


HOOKS = {
    "revenue.estimate_mc": _estimate_mc,
    "revenue.discriminating_benchmark": _discriminating_benchmark,
    "revenue.commensurateness_check": _commensurateness_check,
    "revenue.expected_revenue_quadrature": _expected_revenue_quadrature,
    "mixtures.enumerate_profiles": _enumerate_profiles,
    "distributions.regularity_check": _regularity_check,
    "reports.emit_report": _emit_report,
    "mixtures.sample_with_coin": _sample_with_coin,
}


def _share(part, whole):
    return part / whole if whole else 0.0


class Tracer:
    """In-memory spans plus per-function counters for one worker process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = []
        self.stats = dict.fromkeys(COUNTERS, 0)
        self.seen = defaultdict(set)
        self.bindings = []  # (namespace, attribute, original)

    # -- recording ----------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def add(self, name, amount):
        self.stats[name] += amount

    def count_repeat(self, prefix, key):
        if key in self.seen[prefix]:
            self.stats[prefix + ".repeats"] += 1
        self.seen[prefix].add(key)

    def _wrap(self, name, fn):
        signature = inspect.signature(fn)
        hook = HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(tracer, bound.arguments, result)
            return result

        return traced

    # -- installing ---------------------------------------------------------

    def install(self):
        """Wrap every traced function wherever an auction_lab module binds it."""
        namespaces = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "auction_lab" or key.startswith("auction_lab.")
        ]
        for module, func in TRACED:
            original = getattr(sys.modules[f"auction_lab.{module}"], func)
            wrapper = self._wrap(f"{module}.{func}", original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        self.bindings.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        for module, cls_name, method in TRACED_METHODS:
            cls = getattr(sys.modules[f"auction_lab.{module}"], cls_name)
            original = cls.__dict__[method]
            self.bindings.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{module}.{method}", original))

    def restore(self):
        """Put every original back; True when all of them are in place."""
        for ns, attr, original in reversed(self.bindings):
            setattr(ns, attr, original)
        return all(vars(ns)[attr] is original for ns, attr, original in self.bindings)

    # -- metrics ------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics, zero for functions the workload never called."""
        calls = defaultdict(int)
        total = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[idx]

        out = dict(self.stats)
        names = [ROOT] + [f"{m}.{f}" for m, f in TRACED]
        names += [f"{m}.{f}" for m, _, f in TRACED_METHODS]
        for name in names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.total_s"] = total[name]
            out[f"{name}.self_s"] = self_time[name]
        for name in ("revenue.estimate_mc", "distributions.regularity_check"):
            out[f"{name}.repeat_frac"] = _share(out[f"{name}.repeats"], calls[name])
        out["revenue.commensurateness_check.divergence_frac"] = _share(
            out["revenue.commensurateness_check.divergence_samples"],
            out["revenue.commensurateness_check.samples"],
        )
        out["trace.coverage"] = self.coverage()
        return out

    def coverage(self):
        """Share of the root span covered by the outermost layer spans.

        A layer span is a span of any module but `experiments`, whose sweep
        loops are the glue between layers.
        """

        def is_layer(idx):
            name = self.spans[idx][0]
            return name != ROOT and not name.startswith("experiments.")

        root = self.spans[0]
        covered = 0.0
        for idx, (name, start, end, parent) in enumerate(self.spans):
            if not is_layer(idx):
                continue
            while parent >= 0 and not is_layer(parent):
                parent = self.spans[parent][3]
            if parent < 0:
                covered += end - start
        return covered / (root[2] - root[1])
