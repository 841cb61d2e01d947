"""Spans around calls into the package's public functions.

``from .x import y`` binds a second name for ``y`` in the importing module,
and a caller looks up the name in its own module.  So each function is
wrapped under the name its caller uses, e.g. ``fedcoreset.federation.sgd_epochs``
rather than ``fedcoreset.model.sgd_epochs``; several bindings of one function
share one span name.  Spans stay in memory and are summarised at the end.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# (module, attribute the caller looks up, span name)
COARSE = (
    ("fedcoreset.cli", "prepare_experiment", "federation.prepare_experiment"),
    ("fedcoreset.cli", "run_training", "federation.run_training"),
)

FULL = COARSE + (
    ("fedcoreset.cli", "run", "cli.run"),
    ("fedcoreset.cli", "write_round_log", "metrics.write_round_log"),
    ("fedcoreset.cli", "write_summary", "metrics.write_summary"),
    ("fedcoreset.federation", "make_blobs", "data.make_blobs"),
    ("fedcoreset.federation", "split_train_val_test", "data.split_train_val_test"),
    ("fedcoreset.federation", "dirichlet_partition", "data.dirichlet_partition"),
    ("fedcoreset.federation", "inject_closed_set", "data.inject"),
    ("fedcoreset.federation", "inject_attribute", "data.inject"),
    ("fedcoreset.federation", "inject_open_set", "data.inject"),
    ("fedcoreset.federation", "dataset_fingerprint", "metrics.dataset_fingerprint"),
    ("fedcoreset.federation", "init_params", "model.init_params"),
    ("fedcoreset.federation", "sgd_epochs", "model.sgd_epochs"),
    ("fedcoreset.federation", "loss", "model.loss"),
    ("fedcoreset.federation", "labelwise_validation_grads", "model.labelwise_validation_grads"),
    ("fedcoreset.federation", "labelwise_omp_select", "coreset.labelwise_omp_select"),
    ("fedcoreset.federation", "random_select", "coreset.random_select"),
    ("fedcoreset.federation", "facility_location_select", "coreset.facility_location_select"),
    ("fedcoreset.federation", "evaluate_accuracy", "metrics.evaluate_accuracy"),
    ("fedcoreset.federation", "derive_seed", "seeding.derive_seed"),
    ("fedcoreset.federation", "spawn_rng", "seeding.spawn_rng"),
    ("fedcoreset.federation", "run_round", "federation.run_round"),
    ("fedcoreset.federation", "client_update", "federation.client_update"),
    ("fedcoreset.federation", "aggregate", "federation.aggregate"),
    ("fedcoreset.coreset", "omp_select", "coreset.omp_select"),
    ("fedcoreset.coreset", "last_layer_grad_stack", "model.last_layer_grad_stack"),
    ("fedcoreset.model", "last_layer_grad_stack", "model.last_layer_grad_stack"),
)


class Tracer:
    """Records one span per call of each wrapped function.

    A span is ``(name, start, end, parent)``, with ``parent`` the index of
    the enclosing span or -1.  Use as a context manager: the original
    functions are put back on exit.

    ``probe``, when given, is called just before each call of a function
    whose span name is in ``probe_before``.  Its calls are spans named
    ``probe``, so they count in no other span's self time.
    """

    def __init__(self, targets=FULL, probe=None, probe_before=()):
        self.targets = targets
        self.probe = probe
        self.probe_before = frozenset(probe_before)
        self._probe = None
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = self._probe if name in self.probe_before else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def __enter__(self) -> "Tracer":
        if self.probe is not None:
            self._probe = self._wrap(self.probe, "probe")
        for mod_name, attr, name in self.targets:
            module = importlib.import_module(mod_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def durations(self, name: str) -> list[float]:
        """Durations of the spans called ``name``, in call order."""
        return [s[2] - s[1] for s in self.spans if s is not None and s[0] == name]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: busy time ``s``, ``calls`` and ``self_s``, the busy
        time minus the part of each span's interval its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            entry["s"] += end - start
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[i]
        return out


def _noop() -> None:
    return None


def call_overhead_s(calls: int = 20000, samples: int = 5) -> float:
    """Median extra wall time of one call through a ``Tracer`` wrapper.

    A traced run minus an untraced one cannot show this: the tracing cost
    is far below the run-to-run swing of the host.
    """
    costs = []
    for _ in range(samples):
        traced = Tracer(())._wrap(_noop, "noop")
        start = time.perf_counter()
        for _ in range(calls):
            _noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        costs.append((time.perf_counter() - start - plain) / calls)
    return statistics.median(costs)
