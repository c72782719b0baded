"""Spans around contactps layers, recorded from outside the program.

Tracer.install() replaces public functions by timing wrappers in the module
that calls them (for example contactps.typecalc.pullback, which is what
sing_type_search looks up), and restore() puts the originals back.  Spans
stay in memory; a layer's self time is its spans' duration minus the part
covered by their child spans.  Generators (the candidate enumerations) get
one span per produced candidate.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import time
from collections import Counter, defaultdict

perf = time.perf_counter

# (module that calls the function, attribute, span name)
WRAP_SITES = [
    ("contactps.cli", "build_report", "report.build_report"),
    ("contactps.cli", "machine_json", "report.machine_json"),
    ("contactps.cli", "render_report", "report.render_report"),
    ("contactps.cli", "verify_report", "report.verify_report"),
    ("contactps.report", "build_report", "report.build_report"),
    ("contactps.report", "machine_json", "report.machine_json"),
    ("contactps.report", "parse_problem", "expr.parse_problem"),
    ("contactps.report", "parse_curve", "expr.parse_curve"),
    ("contactps.report", "format_polynomial", "expr.format_polynomial"),
    ("contactps.report", "format_curve", "expr.format_curve"),
    ("contactps.report", "normalize_to_graph", "germ.normalize_to_graph"),
    ("contactps.report", "gram_certificate", "germ.gram_certificate"),
    ("contactps.report", "ps_search", "germ.ps_search"),
    ("contactps.report", "germ_ps_check", "germ.germ_ps_check"),
    ("contactps.report", "reg_type", "typecalc.reg_type"),
    ("contactps.report", "sing_type_search", "typecalc.sing_type_search"),
    ("contactps.report", "desingularize", "typecalc.desingularize"),
    ("contactps.report", "infer_type", "typecalc.infer_type"),
    ("contactps.report", "pullback", "curve.pullback"),
    ("contactps.report", "contact_order", "curve.contact_order"),
    ("contactps.report", "laplacian_power_forms", "fdb.laplacian_power_forms"),
    ("contactps.typecalc", "pullback", "curve.pullback"),
    ("contactps.typecalc", "ps_test_single", "curve.ps_test_single"),
    ("contactps.typecalc", "gram_certificate", "germ.gram_certificate"),
    ("contactps.typecalc", "gaussian_common_roots", "typecalc.gaussian_common_roots"),
    ("contactps.germ", "ps_test_single", "curve.ps_test_single"),
    ("contactps.germ", "gram_certificate", "germ.gram_certificate"),
    ("contactps.germ", "gram_matrix", "germ.gram_matrix"),
    ("contactps.germ", "solve_graph", "germ.solve_graph"),
    ("contactps.germ", "restrict", "germ.restrict"),
    ("contactps.germ", "ps_search", "germ.ps_search"),
    ("contactps.curve", "pullback", "curve.pullback"),
    ("contactps.fdb", "pullback", "curve.pullback"),
]
GENERATOR_SITES = [
    ("contactps.typecalc", "monomial_curves"),
    ("contactps.typecalc", "cancellation_scan_curves"),
    ("contactps.typecalc", "random_curves"),
    ("contactps.germ", "monomial_curves"),
    ("contactps.germ", "cancellation_scan_curves"),
    ("contactps.report", "random_curves"),
]
ENUMERATE = "search.enumerate"
SING = "typecalc.sing_type_search"
# Stages of the report pipeline; report.stage_calls_per_op counts the calls
# the report module makes to them.
STAGES = {
    "expr.parse_problem", "germ.normalize_to_graph", "germ.gram_certificate",
    "germ.ps_search", "germ.germ_ps_check", "typecalc.reg_type", SING,
    "typecalc.infer_type",
}


class Tracer:
    """Spans as (name, id, parent id, start, end, primary, site)."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []
        self.primary = True  # False while a verify-report re-runs an op
        self.gram_dims: list[int] = []
        self.candidates_tested = 0  # by sing_type_search, primary commands
        self.generated_in_sing = 0  # candidates enumerated inside it
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name, site, on_return=None):
        spans, stack, ids = self.spans, self.stack, self._ids

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else None
            stack.append((sid, name))
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans.append((name, sid, parent, t0, t1, self.primary, site))
            if on_return is not None:
                on_return(out)
            return out

        return wrapper

    def _wrap_generator(self, fn, site):
        spans, stack, ids = self.spans, self.stack, self._ids

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            in_sing = any(n == SING for _i, n in stack)
            while True:
                sid = next(ids)
                parent = stack[-1][0] if stack else None
                stack.append((sid, ENUMERATE))
                t0 = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = perf()
                    stack.pop()
                    spans.append((ENUMERATE, sid, parent, t0, t1, self.primary, site))
                if in_sing and self.primary:
                    self.generated_in_sing += 1
                yield item

        return wrapper

    def install(self):
        def gram_dim(out):
            self.gram_dims.append(len(out[0]))

        def tested(out):
            if self.primary:
                self.candidates_tested += out.candidates_tested

        for modname, attr, name in WRAP_SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            hook = gram_dim if name == "germ.gram_matrix" else (
                tested if name == SING else None)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name, modname.split(".")[-1], hook))
        for modname, attr in GENERATOR_SITES:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap_generator(fn, modname.split(".")[-1]))

    def restore(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a CLI invocation."""
        sid = next(self._ids)
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append((sid, name))
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            self.stack.pop()
            self.spans.append((name, sid, parent, t0, t1, self.primary, "bench"))

    # -- summaries --------------------------------------------------------

    def summary(self):
        """Per span name: self seconds and primary calls; plus the number
        of stage calls made by the report module."""
        child = defaultdict(float)
        for name, sid, parent, t0, t1, _p, _s in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        calls = Counter()
        stage_calls = 0
        for name, sid, parent, t0, t1, primary, site in self.spans:
            self_s[name] += (t1 - t0) - child.get(sid, 0.0)
            if primary:
                calls[name] += 1
                if site == "report" and name in STAGES:
                    stage_calls += 1
        return self_s, calls, stage_calls
