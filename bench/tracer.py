"""Span tracer for the traced benchmark run.

The tracer wraps, from outside the package, every public function of the
seven ``spo_bounds`` modules, the oracle methods of every region class and
the two ``RiskEvaluator`` stages.  Each wrapped call records one span
(name, start, end, parent, work) in memory; scalar oracle calls only bump a
counter, because the per-row fallback makes hundreds of thousands of them.
Nothing runs concurrently, so every span blocks its parent and no wait time
exists to record.  ``install`` rebinds the wrappers wherever a module
imported the original, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("geometry", "losses", "complexity", "bounds", "harness", "audits", "cli")
REGION_KINDS = ("LqBall", "UnitSimplex", "VertexPolytope", "DagPathPolytope")
LOSS_KERNELS = ("spo_loss_batch", "margin_spo_loss_batch", "hard_margin_spo_loss_batch")
MC_ESTIMATORS = ("rademacher_spo_mc", "rademacher_multivariate_mc")
SEARCHES = ("count_restrictions", "oracle_label_table", "natarajan_dim_bruteforce")

ROOT_SPAN = "bench.pass"
FINGERPRINT_SPAN = "trace.fingerprint"
TRIAL_SPAN = "harness.run_trial"


def _first_arg_rows(args, kwargs) -> int:
    return len(args[1]) if len(args) > 1 else 0


def _draws(signature):
    def work(args, kwargs) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["m_draws"])
    return work


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._scopes: list[set] = [set()]
        self._trial_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float, work: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1], span[2], span[4] = start, end, work

    def span(self, name: str, fn, work=None, scope: bool = False):
        """Wrap ``fn`` so each call records one span named ``name``.

        ``scope`` marks a trial, an audit or a CLI command: exact oracle
        batches repeated inside one such span count as repeats.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            if scope:
                tracer._scopes.append(set())
            if name == TRIAL_SPAN:
                tracer._trial_depth += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                if name == TRIAL_SPAN:
                    tracer._trial_depth -= 1
                if scope:
                    tracer._scopes.pop()
                tracer._close(idx, start, end, work(args, kwargs) if work else 0)
        return traced

    def _region_batch(self, op: str, fn):
        """Span per region batch call, named by the concrete region kind."""
        tracer = self

        @functools.wraps(fn)
        def traced(region, C, *args, **kwargs):
            idx = tracer._open(f"geometry.{op}.{type(region).__name__}")
            start = perf_counter()
            try:
                return fn(region, C, *args, **kwargs)
            finally:
                end = perf_counter()
                rows = len(C)
                tracer._close(idx, start, end, rows)
                if op == "linopt_batch":
                    tracer._count_repeat(region, C, rows, end)
        return traced

    def _count_repeat(self, region, C, rows: int, t0: float) -> None:
        """Fingerprint an oracle batch and count its rows as repeated if the
        same region already solved the same batch in this scope.  The
        fingerprint's cost is a span of its own, so no layer carries it."""
        if self._trial_depth:
            self.counts["harness.trial_rows"] += rows
        A = np.asarray(C, dtype=float)
        # the full sum plus 32 evenly spaced rows tell distinct batches apart
        key = (id(region), A.shape, float(A.sum()), A[::max(1, len(A) // 32)].tobytes())
        scope = self._scopes[-1]
        if key in scope:
            self.counts["geometry.linopt_batch.repeat_rows"] += rows
        scope.add(key)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([FINGERPRINT_SPAN, t0, perf_counter(), parent, 0])

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- patching ----------------------------------------------------------
    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the public surface of ``package`` (the imported spo_bounds)."""
        modules = {name: getattr(package, name) for name in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for name, fn in inspect.getmembers(module, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != module.__name__:
                    continue
                work = None
                if layer == "losses" and (name in LOSS_KERNELS or name == "predict_batch"):
                    work = _first_arg_rows
                elif name in MC_ESTIMATORS:
                    work = _draws(inspect.signature(fn))
                scope = (layer == "audits" and name.startswith("audit_")) or \
                    name == "run_trial" or (layer == "cli" and name == "main")
                wrappers[id(fn)] = self.span(f"{layer}.{name}", fn, work, scope)
        for module in (package, *modules.values()):
            for name, value in list(vars(module).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._set(module, name, wrappers[id(value)])
        audits = modules["audits"]
        self._set(audits, "AUDITS", tuple(getattr(audits, fn.__name__)
                                          for fn in audits.AUDITS))

        geometry = modules["geometry"]
        for cls in (geometry.FeasibleRegion, *(getattr(geometry, k) for k in REGION_KINDS)):
            for op in ("linopt_batch", "gap_batch"):
                if op in cls.__dict__:
                    self._set(cls, op, self._region_batch(op, cls.__dict__[op]))
            for op in ("linopt", "gap"):
                if op in cls.__dict__:
                    self._set(cls, op, self._counter(f"geometry.{op}.calls", cls.__dict__[op]))
        evaluator = modules["harness"].RiskEvaluator
        self._set(evaluator, "__init__",
                  self.span("harness.RiskEvaluator.init", evaluator.__init__))
        self._set(evaluator, "true_risk",
                  self.span("harness.RiskEvaluator.true_risk", evaluator.true_risk))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output ------------------------------------------------------------
    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, work."""
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds and work."""
        n = len(self.spans)
        start = np.array([s[1] for s in self.spans])
        end = np.array([s[2] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        dur = end - start
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        for i, span in enumerate(self.spans):
            row = out[span[0]]
            row["calls"] += 1
            row["total_s"] += float(dur[i])
            row["self_s"] += float(self_s[i])
            row["work"] += span[4]
        return dict(out)


def layer_metric_names(audit_names: list[str]) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names: list[tuple[str, str]] = []
    for kind in REGION_KINDS:
        names += [(f"geometry.linopt_batch.rows.{kind}", "rows"),
                  (f"geometry.linopt_batch.self_s.{kind}", "s"),
                  (f"geometry.linopt_batch.rows_per_s.{kind}", "rows/s")]
    names += [("geometry.gap_batch.rows", "rows"), ("geometry.gap_batch.self_s", "s"),
              ("geometry.linopt.calls", "count"), ("geometry.gap.calls", "count"),
              ("geometry.linopt_batch.rows", "rows"),
              ("geometry.linopt_batch.repeat_frac", "ratio"), ("geometry.self_s", "s")]
    for kernel in LOSS_KERNELS:
        names += [(f"losses.{kernel}.calls", "count"), (f"losses.{kernel}.rows", "rows"),
                  (f"losses.{kernel}.self_s", "s")]
    names += [("losses.predict_batch.rows", "rows"), ("losses.predict_batch.self_s", "s"),
              ("losses.empirical_risk.calls", "count"),
              ("losses.empirical_risk.self_s", "s"), ("losses.self_s", "s")]
    for est in MC_ESTIMATORS:
        names += [(f"complexity.{est}.calls", "count"), (f"complexity.{est}.draws", "count"),
                  (f"complexity.{est}.self_s", "s")]
    for search in SEARCHES:
        names += [(f"complexity.{search}.calls", "count"),
                  (f"complexity.{search}.self_s", "s")]
    names += [("complexity.self_s", "s"),
              ("bounds.calls", "count"), ("bounds.self_s", "s"), ("bounds.us_per_call", "us"),
              ("harness.generate_sample.self_s", "s"),
              ("harness.fit_least_squares.self_s", "s"),
              ("harness.RiskEvaluator.init_s", "s"),
              ("harness.RiskEvaluator.true_risk.calls", "count"),
              ("harness.RiskEvaluator.true_risk.self_s", "s"),
              ("harness.RiskEvaluator.true_risk.share", "ratio"),
              ("harness.run_trial.calls", "count"), ("harness.run_trial.self_s", "s"),
              ("harness.oracle_rows_per_trial", "rows"),
              ("harness.run_lipschitz_audit.self_s", "s"), ("harness.self_s", "s")]
    names += [(f"audits.audit_{name}.s", "s") for name in audit_names]
    names += [("audits.self_s", "s"), ("cli.main.self_s", "s"), ("cli.output_bytes", "bytes"),
              ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_s", "s"), ("trace.layer_self_frac", "ratio"),
              ("trace.spans", "count")]
    return names


def layer_metrics(tracer: Tracer, audit_names: list[str], untraced_wall_s: float,
                  output_bytes: int) -> dict[str, dict]:
    """Derive every per-layer metric of the traced pass."""
    summary = tracer.summary()
    counts = tracer.counts

    def get(name: str, field: str) -> float:
        return summary.get(name, {}).get(field, 0)

    def layer_sum(prefix: str, field: str) -> float:
        return sum(row[field] for name, row in summary.items() if name.startswith(prefix))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    wall = get(ROOT_SPAN, "total_s")
    values: dict[str, float] = {}
    for kind in REGION_KINDS:
        name = f"geometry.linopt_batch.{kind}"
        values[f"geometry.linopt_batch.rows.{kind}"] = get(name, "work")
        values[f"geometry.linopt_batch.self_s.{kind}"] = get(name, "self_s")
        values[f"geometry.linopt_batch.rows_per_s.{kind}"] = ratio(get(name, "work"),
                                                                    get(name, "self_s"))
    values["geometry.gap_batch.rows"] = layer_sum("geometry.gap_batch.", "work")
    values["geometry.gap_batch.self_s"] = layer_sum("geometry.gap_batch.", "self_s")
    values["geometry.linopt.calls"] = counts["geometry.linopt.calls"]
    values["geometry.gap.calls"] = counts["geometry.gap.calls"]
    rows = layer_sum("geometry.linopt_batch.", "work")
    values["geometry.linopt_batch.rows"] = rows
    values["geometry.linopt_batch.repeat_frac"] = ratio(
        counts["geometry.linopt_batch.repeat_rows"], rows)
    for kernel in LOSS_KERNELS:
        name = f"losses.{kernel}"
        values[f"{name}.calls"] = get(name, "calls")
        values[f"{name}.rows"] = get(name, "work")
        values[f"{name}.self_s"] = get(name, "self_s")
    values["losses.predict_batch.rows"] = get("losses.predict_batch", "work")
    values["losses.predict_batch.self_s"] = get("losses.predict_batch", "self_s")
    values["losses.empirical_risk.calls"] = get("losses.empirical_risk", "calls")
    values["losses.empirical_risk.self_s"] = get("losses.empirical_risk", "self_s")
    for est in MC_ESTIMATORS:
        name = f"complexity.{est}"
        values[f"{name}.calls"] = get(name, "calls")
        values[f"{name}.draws"] = get(name, "work")
        values[f"{name}.self_s"] = get(name, "self_s")
    for search in SEARCHES:
        values[f"complexity.{search}.calls"] = get(f"complexity.{search}", "calls")
        values[f"complexity.{search}.self_s"] = get(f"complexity.{search}", "self_s")
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_sum(f"{layer}.", "self_s")
    values["bounds.calls"] = layer_sum("bounds.", "calls")
    values["bounds.us_per_call"] = 1e6 * ratio(values["bounds.self_s"], values["bounds.calls"])
    values["harness.generate_sample.self_s"] = get("harness.generate_sample", "self_s")
    values["harness.fit_least_squares.self_s"] = get("harness.fit_least_squares", "self_s")
    values["harness.RiskEvaluator.init_s"] = get("harness.RiskEvaluator.init", "total_s")
    risk = "harness.RiskEvaluator.true_risk"
    values[f"{risk}.calls"] = get(risk, "calls")
    values[f"{risk}.self_s"] = get(risk, "self_s")
    values[f"{risk}.share"] = ratio(get(risk, "total_s"), wall)
    values["harness.run_trial.calls"] = get(TRIAL_SPAN, "calls")
    values["harness.run_trial.self_s"] = get(TRIAL_SPAN, "self_s")
    values["harness.oracle_rows_per_trial"] = ratio(counts["harness.trial_rows"],
                                                    get(TRIAL_SPAN, "calls"))
    values["harness.run_lipschitz_audit.self_s"] = get("harness.run_lipschitz_audit", "self_s")
    for name in audit_names:
        values[f"audits.audit_{name}.s"] = get(f"audits.audit_{name}", "total_s")
    values["cli.main.self_s"] = get("cli.main", "self_s")
    values["cli.output_bytes"] = output_bytes
    values["trace.wall_s"] = wall
    values["trace.untraced_wall_s"] = untraced_wall_s
    values["trace.overhead_s"] = wall - untraced_wall_s
    values["trace.layer_self_frac"] = ratio(sum(values[f"{layer}.self_s"] for layer in LAYERS),
                                            wall)
    values["trace.spans"] = len(tracer.spans)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in layer_metric_names(audit_names)}
