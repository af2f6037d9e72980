"""In-memory span tracer that wraps qelm_lab's public functions from outside.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the operation that caused it. Spans
are recorded only while an operation is active (``Tracer.op`` is set), so
correctness checks that call the program between operations stay out of the
trace.

Each traced name is patched wherever a caller looks it up: every module of
the package whose attribute *is* the original function gets the wrapper
(``qelm_lab.qelm.run_noisy`` and ``qelm_lab.mitigation.run_noisy`` alike),
and methods are patched on their class. A name that no longer exists is
reported as absent instead of failing the run.
"""

from __future__ import annotations

import contextlib
import sys
import time
import warnings
from collections import Counter

# (span name, module, attribute path) for every traced public function.
SPANS = (
    ("cli.main", "cli", "main"),
    ("harness.run_scenario", "harness", "run_scenario"),
    ("harness.run_uq", "harness", "run_uq"),
    ("harness.mann_whitney_u", "harness", "mann_whitney_u"),
    ("harness.emit_report", "harness", "emit_report"),
    ("qelm.feature_matrix", "qelm", "feature_matrix"),
    ("qelm.extract_features", "qelm", "extract_features"),
    ("qelm.distribution_features", "qelm", "distribution_features"),
    ("simulator.run_noisy", "simulator", "run_noisy"),
    ("simulator.validate", "simulator", "DensityMatrix.validate"),
    ("simulator.run_ideal", "simulator", "run_ideal"),
    ("simulator.measure_distribution", "simulator", "measure_distribution"),
    ("simulator.sample", "simulator", "sample"),
    ("noise.channel_for_gate", "noise", "channel_for_gate"),
    ("circuit.fold_to_scale", "circuit", "fold_to_scale"),
    ("readout.fit_readout", "readout", "fit_readout"),
    ("readout.bagged_trees.fit", "readout", "BaggedTrees.fit"),
    ("readout.bagged_trees.predict", "readout", "BaggedTrees.predict"),
    ("mitigation.zne", "mitigation", "ZneMitigator.circuit_features"),
    ("mitigation.extrapolate", "mitigation", "extrapolate"),
    ("mitigation.qlear_train", "mitigation", "qlear_train"),
    ("mitigation.qlear_correct", "mitigation", "qlear_correct"),
    ("uq.bootstrap_distribution", "uq", "bootstrap_distribution"),
    ("uq.scoring", "uq", "regression_uq_metrics"),
    ("uq.scoring", "uq", "classification_uq_metrics"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# counter name -> unit
COUNTERS = {
    "simulator.run_noisy.gates": "count",
    "simulator.run_noisy.bytes_computed": "B",
    "simulator.run_ideal.gates": "count",
    "circuit.fold_to_scale.gates_out": "count",
    "qelm.feature_cache.hits": "count",
    "qelm.feature_cache.misses": "count",
    "readout.logistic.not_converged": "count",
    "mitigation.extrapolate.fallbacks": "count",
    "uq.bootstrap_distribution.refits": "count",
    "harness.emit_report.bytes": "B",
}


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _count_run_noisy(tracer, args, kwargs, result):
    gates = len(_first_arg(args, kwargs, "circuit").gates)
    tracer.counters["simulator.run_noisy.gates"] += gates
    # one superoperator contraction reads and writes the 4^n complex tensor
    tracer.counters["simulator.run_noisy.bytes_computed"] += gates * 2 * 16 * 4**result.n_qubits


def _count_run_ideal(tracer, args, kwargs, result):
    tracer.counters["simulator.run_ideal.gates"] += len(_first_arg(args, kwargs, "circuit").gates)


def _count_fold(tracer, args, kwargs, result):
    tracer.counters["circuit.fold_to_scale.gates_out"] += len(result.gates)


def _count_report_bytes(tracer, args, kwargs, result):
    tracer.counters["harness.emit_report.bytes"] += sum(p.stat().st_size for p in result)


ON_RESULT = {
    "simulator.run_noisy": _count_run_noisy,
    "simulator.run_ideal": _count_run_ideal,
    "circuit.fold_to_scale": _count_fold,
    "harness.emit_report": _count_report_bytes,
}


class Tracer:
    """Records spans and counters around the package's public functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, on_result=None):
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, self.clock(), None, self._stack[-1] if self._stack else -1, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def operation(self, op: int):
        """Record spans for operation ``op``; ``ExtrapolationFallback``
        warnings raised meanwhile are counted, others are shown as usual."""
        self.op = op
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                yield
        finally:
            self.op = None
        for w in caught:
            if w.category.__name__ == "ExtrapolationFallback":
                self.counters["mitigation.extrapolate.fallbacks"] += 1
            else:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package: str = "qelm_lab") -> None:
        """Patch every traced name; names that do not exist are recorded in
        ``absent``."""
        modules = {
            name: mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for span_name, module_name, path in SPANS:
            module = modules.get(f"{package}.{module_name}")
            owner, _, attr = path.rpartition(".")
            target = module
            for part in filter(None, owner.split(".")):
                target = getattr(target, part, None)
            original = getattr(target, attr, None) if target is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self.wrap(span_name, original, ON_RESULT.get(span_name))
            if owner:  # a method: patch it on its class
                self._set(target, attr, wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        self._install_counters(modules.get(f"{package}.qelm"), modules.get(f"{package}.readout"))

    def _install_counters(self, qelm, readout):
        cache_cls = getattr(qelm, "FeatureCache", None)
        row_features = getattr(cache_cls, "row_features", None)
        if row_features is None:
            self.absent.append("qelm.FeatureCache.row_features")
        else:
            def counted_row_features(cache, *args, **kwargs):
                hits = cache.hits
                value = row_features(cache, *args, **kwargs)
                if self.op is not None:
                    kind = "hits" if cache.hits > hits else "misses"
                    self.counters[f"qelm.feature_cache.{kind}"] += 1
                return value

            self._set(cache_cls, "row_features", counted_row_features)
        fit_logistic = getattr(readout, "fit_logistic", None)
        if fit_logistic is None:
            self.absent.append("readout.fit_logistic")
        else:
            def counted_fit_logistic(*args, **kwargs):
                model = fit_logistic(*args, **kwargs)
                if self.op is not None and not model.converged:
                    self.counters["readout.logistic.not_converged"] += 1
                return model

            self._set(readout, "fit_logistic", counted_fit_logistic)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- summaries -------------------------------------------------------

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Totals over every recorded span: ``<span>.calls``, ``<span>.s``
        (inclusive time, counting a recursive call once) and
        ``<span>.self_s``, plus the counters."""
        totals: dict[str, tuple[float, str]] = {}
        own = self_times(self.spans)
        for name in SPAN_NAMES:
            totals[f"{name}.calls"] = (0, "count")
            totals[f"{name}.s"] = (0.0, "s")
            totals[f"{name}.self_s"] = (0.0, "s")
        for index, (name, start, end, _, _) in enumerate(self.spans):
            calls, _ = totals[f"{name}.calls"]
            totals[f"{name}.calls"] = (calls + 1, "count")
            totals[f"{name}.self_s"] = (totals[f"{name}.self_s"][0] + own[index], "s")
            if not _has_ancestor_named(self.spans, index, name):
                totals[f"{name}.s"] = (totals[f"{name}.s"][0] + (end - start), "s")
        counters = Counter(self.counters)
        counters["uq.bootstrap_distribution.refits"] = sum(
            1
            for name, _, _, parent, _ in self.spans
            if name == "readout.fit_readout"
            and parent >= 0
            and self.spans[parent][0] == "uq.bootstrap_distribution"
        )
        for name, unit in COUNTERS.items():
            totals[name] = (counters[name], unit)
        return totals

    def dump(self) -> dict:
        return {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "absent": self.absent,
        }


def _has_ancestor_named(spans, index, name) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged, and children are
    clipped to the parent)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result
