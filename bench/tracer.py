"""Span tracing of chen3 from outside the package.

`Tracer.install()` replaces every public function of the six chen3 layers, in
every chen3 namespace that binds it (the defining module, modules that
imported it, the package root), and the `ExpSumEvaluator` methods, with a
wrapper that records a span: name, start, end, parent span and job id.
`Tracer.remove()` puts the original objects back, so untraced runs execute
unwrapped code.  Spans stay in memory until `dump()`.

Work counters are computed from each call's arguments and result by the
hooks below, never from inside chen3.
"""

from __future__ import annotations

import bisect
import functools
import inspect
import json
import sys
import time
import weakref
from dataclasses import dataclass, field
from statistics import median

LAYERS = (
    "arith_core",
    "rosser_sieve",
    "circle_method",
    "selberg_sieve",
    "transference",
    "goldbach_verify",
)
METHODS = {("circle_method", "ExpSumEvaluator"): ("__init__", "inner_weights", "exp_sum", "at_zero")}
HARNESS = "harness"  # prefix of the job spans the benchmark opens itself
PACKAGE = "chen3"
CLOCK = time.perf_counter


@dataclass
class Span:
    name: str
    parent: int | None
    job: int | None
    start: float
    end: float = 0.0
    info: object = None


def public_functions(module) -> dict:
    """Functions (plain or lru-cached) defined in `module` without a leading underscore."""
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            out[name] = obj
    return out


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    job: int | None = None
    _stack: list = field(default_factory=list)
    _installed: list = field(default_factory=list)
    _built: object = field(default_factory=weakref.WeakKeyDictionary)

    # ---- install / remove -------------------------------------------------

    def install(self) -> int:
        """Wrap every public layer function and traced method; returns the
        number of bindings replaced."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        namespaces = [m for key, m in sys.modules.items()
                      if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._installed.append((module, attr, obj))
        for (layer, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name)
            for name in names:
                original = cls.__dict__[name]
                setattr(cls, name, self._wrap(f"{layer}.{cls_name}.{name}", original))
                self._installed.append((cls, name, original))
        return len(self._installed)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = Span(name, stack[-1] if stack else None, self.job, 0.0)
            pre = hook.before(self, signature.bind(*args, **kwargs).arguments) if hook else None
            stack.append(len(self.spans))
            self.spans.append(span)
            span.start = CLOCK()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = CLOCK()
                stack.pop()
            if hook:
                span.info = hook.after(pre, out)
            return out

        return traced

    # ---- job spans opened by the benchmark ---------------------------------

    def open_job(self, job: int, name: str) -> Span:
        self.job = job
        span = Span(f"{HARNESS}.{name}", None, job, CLOCK())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close_job(self, span: Span) -> None:
        span.end = CLOCK()
        self._stack.pop()
        self.job = None

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._built = weakref.WeakKeyDictionary()

    def dump(self, path) -> None:
        names = sorted({s.name for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[s.name], s.start, s.end, s.parent, s.job] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "names": names, "spans": rows}, fh)


# ---- counters from arguments and results -----------------------------------


def _arguments(tracer, args):
    return args


def _table_built(tracer, args):
    """True when this (evaluator, mode) pair has not been asked for before,
    i.e. the call builds the subset table rather than reading it."""
    ev = args["self"]
    seen = tracer._built.setdefault(ev, set())
    first = args["mode"] not in seen
    seen.add(args["mode"])
    return (first, 1 << len(ev.small_primes))


@dataclass
class Hook:
    """`after(before(tracer, arguments), result)` becomes the span's info."""

    after: object
    before: object = _arguments


HOOKS = {
    "arith_core.build_factor_table": Hook(lambda a, out: out.hi - out.lo + 1),
    "transference.pollard_check": Hook(lambda a, out: len(a["X1"]) * a["N"]),
    "transference.spectrum": Hook(lambda a, out: len(out.members)),
    "transference.bohr_set": Hook(lambda a, out: (out.size, out.N)),
    "rosser_sieve.build_rosser": Hook(lambda a, out: len(out.support)),
    "selberg_sieve.build_selberg": Hook(lambda a, out: len(out.lam)),
    "goldbach_verify.range_survey": Hook(lambda a, out: [r.n for r in out.rows]),
    "circle_method.ExpSumEvaluator.inner_weights": Hook(lambda built, out: built, before=_table_built),
}


# ---- per-layer metrics ------------------------------------------------------

TIME_METRICS = {
    "arith_core.build_factor_table_s": ("arith_core.build_factor_table",),
    "arith_core.primes_up_to_s": ("arith_core.primes_up_to",),
    "goldbach_verify.range_survey_s": ("goldbach_verify.range_survey",),
    "goldbach_verify.representation_count_s": ("goldbach_verify.representation_count",),
    "transference.triple_sum_s": ("transference.triple_sum",),
    "transference.pollard_check_s": ("transference.pollard_check",),
    "transference.spectrum_s": ("transference.spectrum",),
    "transference.bohr_set_s": ("transference.bohr_set",),
    "transference.smooth_and_bound_s": ("transference.smooth_and_bound",),
    "transference.build_weights_s": ("transference.build_weights",),
    "transference.choose_parameters_s": ("transference.choose_parameters",),
    "circle_method.evaluator_init_s": ("circle_method.ExpSumEvaluator.__init__",),
    "circle_method.inner_weights_s": ("circle_method.ExpSumEvaluator.inner_weights",),
    "circle_method.exp_sum_s": ("circle_method.ExpSumEvaluator.exp_sum", "circle_method.exp_sum"),
    "circle_method.major_arc_model_s": ("circle_method.major_arc_model",),
    "circle_method.tau_star_s": ("circle_method.tau_star",),
    "rosser_sieve.build_rosser_s": ("rosser_sieve.build_rosser",),
    "rosser_sieve.divisor_sum_table_s": ("rosser_sieve.divisor_sum_table",),
    "selberg_sieve.pair_count_bound_s": ("selberg_sieve.pair_count_bound",),
    "selberg_sieve.quadratic_form_s": ("selberg_sieve.quadratic_form",),
    "selberg_sieve.build_selberg_s": ("selberg_sieve.build_selberg",),
}
CALL_METRICS = {
    "arith_core.build_factor_table_calls": "arith_core.build_factor_table",
    "transference.triple_sum_calls": "transference.triple_sum",
    "circle_method.exp_sum_calls": "circle_method.ExpSumEvaluator.exp_sum",
    "circle_method.major_arc_model_calls": "circle_method.major_arc_model",
    "circle_method.tau_star_calls": "circle_method.tau_star",
    "rosser_sieve.linear_sieve_F_f_calls": "rosser_sieve.linear_sieve_F_f",
}


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children.

    Spans come from one thread, so children are nested inside their parent
    and do not overlap each other."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def layer_times(spans: list[Span]) -> dict[str, float]:
    """Self time per function name and per layer (`<layer>.self_s`)."""
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        by_name[s.name] = by_name.get(s.name, 0.0) + t
    out = {metric: sum(by_name.get(n, 0.0) for n in names) for metric, names in TIME_METRICS.items()}
    for layer in LAYERS + (HARNESS,):
        out[f"{layer}.self_s"] = sum(t for n, t in by_name.items() if n.split(".")[0] == layer)
    return out


def work_counts(spans: list[Span], primes_upto) -> dict[str, float]:
    """Counters from the hooks' records; `primes_upto(x)` lists the primes <= x."""
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    out: dict[str, float] = {m: calls.get(n, 0) for m, n in CALL_METRICS.items()}

    def infos(name):
        return [s.info for s in spans if s.name == name]

    out["arith_core.table_entries"] = sum(infos("arith_core.build_factor_table"))
    surveyed = [n for ns in infos("goldbach_verify.range_survey") for n in ns]
    primes = list(primes_upto(max(surveyed))) if surveyed else []
    out["goldbach_verify.prime_probes"] = sum(bisect.bisect_right(primes, n - 4) for n in surveyed)
    out["transference.pollard_pairs"] = sum(infos("transference.pollard_check"))
    out["transference.spectrum_members"] = sum(infos("transference.spectrum"))
    bohr = infos("transference.bohr_set")
    out["transference.bohr_fraction"] = (
        sum(b for b, _ in bohr) / sum(n for _, n in bohr) if bohr else 0.0)
    out["rosser_sieve.support_entries"] = sum(infos("rosser_sieve.build_rosser"))
    out["selberg_sieve.lambda_support"] = sum(infos("selberg_sieve.build_selberg"))

    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    entries = useful = 0
    remainder = 0
    for i, s in enumerate(spans):
        kids = children.get(i, [])
        if s.name == "circle_method.ExpSumEvaluator.inner_weights" and s.info[0]:
            entries += s.info[1]
            rosser = [k.info for k in kids if k.name == "rosser_sieve.build_rosser"]
            useful += sum(rosser) if rosser else 1  # the sieve indicator uses d = 1 only
        elif s.name == "selberg_sieve.pair_count_bound":
            lam = [k.info for k in kids if k.name == "selberg_sieve.build_selberg"]
            if len(lam) == 2:
                remainder += lam[0] ** 2 * lam[1] ** 2
    out["circle_method.subset_table_entries"] = entries
    out["circle_method.subset_useful_ratio"] = useful / entries if entries else 0.0
    out["selberg_sieve.remainder_terms"] = remainder
    return out


COUNT_METRICS = (
    "arith_core.table_entries",
    "goldbach_verify.prime_probes",
    "transference.pollard_pairs",
    "transference.spectrum_members",
    "transference.bohr_fraction",
    "rosser_sieve.support_entries",
    "selberg_sieve.lambda_support",
    "circle_method.subset_table_entries",
    "circle_method.subset_useful_ratio",
    "selberg_sieve.remainder_terms",
)
RUN_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports."""
    return (list(TIME_METRICS)
            + [f"{layer}.self_s" for layer in LAYERS + (HARNESS,)]
            + [f"{layer}.share" for layer in LAYERS]
            + list(CALL_METRICS) + list(COUNT_METRICS) + list(RUN_METRICS))


def summarize(per_iteration: list[dict], key_order) -> dict[str, float]:
    """Median over traced iterations of each per-iteration value."""
    return {k: median(it[k] for it in per_iteration) for k in key_order}
