"""Small differentiable classifiers with last-layer gradient extraction.

Two architectures share one parameter layout: parameters live in a flat
float64 vector split into named ``[out, fan_in + 1]`` blocks whose last
column is the bias.  The output block is always last, so the "last layer"
(the softmax layer) is a contiguous slice of exactly
``num_classes * (h + 1)`` values, where ``h`` is the penultimate width.

For ``softmax_regression`` the penultimate activation is the raw input
(h = input_dim); for ``one_hidden`` it is ``tanh(W1 x + b1)``
(h = hidden_dim).  All math is float64.

There are two forward paths.  Evaluation (:func:`loss` and
:func:`evaluate_accuracy`) runs class-major: logits are ``[classes, n]``, so
each per-sample reduction over the classes is a vector operation across the
samples.  Gradients and SGD run sample-major, ``[n, classes]``, the layout
whose bits the coreset selection and the training were recorded with.

:func:`sgd_epochs` trains many models at once, in lock-step, on a plan
(:func:`lockstep_plan`): their training rows copied into one row table with
a bias column of ones, and the batch schedule.  Each stacked step gathers
its batches with one ``take`` of table rows and one of labels, and the
step's softmax and update run in place.  A caller that trains on the same
rows again keeps the plan in a :class:`PlanCache`, so the rows are copied
again only when they change.  Partial
last batches are stepped alone, never zero-padded into a stacked step,
whose BLAS remainder path would change their bits.  The trained models come
back as the rows of one ``[runs, P]`` array, not as one
:class:`ParamVector` each: a round's callers only add and average them.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigurationError

__all__ = [
    "ARCHS",
    "ModelConfig",
    "ParamVector",
    "init_params",
    "loss",
    "evaluate_accuracy",
    "last_layer_grad_stack",
    "own_class_grads",
    "labelwise_validation_grads",
    "LockStepPlan",
    "lockstep_plan",
    "PlanCache",
    "sgd_epochs",
]

ARCHS = ("softmax_regression", "one_hidden")


@dataclass(frozen=True)
class ModelConfig:
    """The client model; ``hidden_dim`` is ignored for softmax_regression."""

    arch: str = "softmax_regression"
    hidden_dim: int = 32

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.arch not in ARCHS:
            raise ConfigurationError(f"model.arch must be one of {ARCHS}, got {self.arch!r}")
        if self.arch == "one_hidden" and self.hidden_dim < 1:
            raise ConfigurationError("model.hidden_dim must be >= 1 for one_hidden")


@dataclass
class ParamVector:
    """Flat parameter vector with named layer blocks.

    ``layout`` lists ``(name, (rows, cols))`` blocks in storage order; each
    block reshapes to ``[rows, cols]`` with the bias in the final column.
    The output block is the last one; a ``hidden`` block, if any, is first.
    """

    values: np.ndarray
    layout: tuple[tuple[str, tuple[int, int]], ...]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        total = sum(r * c for _, (r, c) in self.layout)
        if total != self.values.size:
            raise ValueError("layout does not cover the parameter vector")

    @property
    def last_layer_slice(self) -> tuple[int, int]:
        """(offset, length) of the output block."""
        rows, cols = self.layout[-1][1]
        return self.values.size - rows * cols, rows * cols

    def block(self, name: str) -> np.ndarray:
        off = 0
        for bname, (r, c) in self.layout:
            if bname == name:
                return self.values[off : off + r * c].reshape(r, c)
            off += r * c
        raise KeyError(name)

    def last_layer(self) -> np.ndarray:
        off, length = self.last_layer_slice
        rows, cols = self.layout[-1][1]
        return self.values[off : off + length].reshape(rows, cols)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.layout)


def init_params(model: ModelConfig, input_dim: int, num_classes: int, seed: int) -> ParamVector:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero.  The
    dimensions come from a :class:`Dataset`, which keeps both positive."""
    rng = np.random.default_rng(seed)
    if model.arch == "softmax_regression":
        blocks = [("output", (num_classes, input_dim + 1))]
    else:
        blocks = [
            ("hidden", (model.hidden_dim, input_dim + 1)),
            ("output", (num_classes, model.hidden_dim + 1)),
        ]
    parts = []
    for _, (rows, cols) in blocks:
        fan_in = cols - 1
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(rows, fan_in))
        parts.append(np.concatenate([w, np.zeros((rows, 1))], axis=1).ravel())
    return ParamVector(np.concatenate(parts), tuple(blocks))


def _penultimate(params: ParamVector, x: np.ndarray) -> np.ndarray:
    if params.layout[0][0] == "hidden":
        w1 = params.block("hidden")
        return np.tanh(x @ w1[:, :-1].T + w1[:, -1])
    return x


def _logits(params: ParamVector, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    act = _penultimate(params, x)
    out = params.last_layer()
    z = act @ out[:, :-1].T
    z += out[:, -1]
    return z, act


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _class_logits(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Logits of the samples ``x`` (``[n, d]``) class-major, ``[classes, n]``."""
    if params.layout[0][0] == "hidden":
        w1 = params.block("hidden")
        act = w1[:, :-1] @ x.T
        act += w1[:, -1:]
        np.tanh(act, out=act)
    else:
        act = x.T
    out = params.last_layer()
    z = out[:, :-1] @ act
    z += out[:, -1:]
    return z


def loss(params: ParamVector, ds: Dataset) -> float:
    """Mean cross-entropy over the non-empty dataset."""
    z = _class_logits(params, ds.features)
    own = z[ds.labels, np.arange(ds.n)]
    zmax = z.max(axis=0)
    z -= zmax
    np.exp(z, out=z)
    return float((np.log(z.sum(axis=0)) + zmax - own).mean())


def evaluate_accuracy(params: ParamVector, test: Dataset) -> float:
    """Fraction of samples whose largest logit is their label's.

    The prediction is the argmax of the logits, ties to the lowest class; a
    sample whose logits hold a NaN or whose largest is infinite has no
    defined softmax and is predicted class 0.  The set is non-empty.
    """
    z = _class_logits(params, test.features)
    pred = np.argmax(z, axis=0)
    pred[~np.isfinite(z[pred, np.arange(test.n)])] = 0
    return float(np.mean(pred == test.labels))


def last_layer_grad_stack(params: ParamVector, ds: Dataset) -> np.ndarray:
    """Per-sample output-layer gradients as one [n, num_classes, h+1] array.

    Row c of sample (x, y) is (softmax(z)_c - 1{c==y}) * [h(x); 1].
    """
    z, act = _logits(params, ds.features)
    probs = _softmax(z)
    probs[np.arange(ds.n), ds.labels] -= 1.0
    act1 = np.concatenate([act, np.ones((ds.n, 1))], axis=1)
    return probs[:, :, None] * act1[:, None, :]


def own_class_grads(params: ParamVector, ds: Dataset) -> np.ndarray:
    """Each sample's output-layer gradient row of its own class, [n, h+1].

    Row i is (softmax(z)_y - 1) * [h(x); 1] for sample (x, y), equal bit for
    bit to ``last_layer_grad_stack(params, ds)[i, y]`` (the same operations
    on the same values) in O(n (h+1)) memory instead of O(n C (h+1)).  The
    softmax runs in place in the logits, and the rows are written straight
    into the result, so the [n, C] logits are the only temporary.
    """
    z, act = _logits(params, ds.features)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    own = z[np.arange(ds.n), ds.labels] - 1.0
    del z
    grads = np.empty((ds.n, act.shape[1] + 1))
    np.multiply(own[:, None], act, out=grads[:, :-1])
    grads[:, -1] = own
    return grads


def labelwise_validation_grads(
    params: ParamVector, val: Dataset
) -> dict[int, np.ndarray]:
    """Per-class target rows for label-wise selection.

    For each class present in ``val``, the mean last-layer gradient over
    that class's samples restricted to its own output row (length h + 1):
    the mean of the class's :func:`own_class_grads` rows, so the validation
    set's gradients take O(n (h+1)) memory, never the O(n C (h+1)) of
    :func:`last_layer_grad_stack`, whose class-filtered mean it equals bit
    for bit.  Absent classes are simply missing from the map.  The
    concatenation of all rows has the same size as one full last-layer
    gradient, which is what keeps the label-wise broadcast no larger than
    the plain one.  The pre-flight keeps ``val`` non-empty for gcfl.
    """
    rows = own_class_grads(params, val)
    return {int(c): rows[val.labels == c].mean(axis=0) for c in np.unique(val.labels)}


def _descend(
    theta: np.ndarray, anchor: np.ndarray, grad: np.ndarray, lr: float, mu: float
) -> None:
    """``theta -= lr * (grad + mu * (theta - anchor))`` on one layer block of
    c stacked models, in place, so no [c, P] array is allocated; IEEE
    products commute, so the in-place order is still a lone step's
    arithmetic."""
    grad = grad.reshape(theta.shape)
    if mu:
        pull = theta - anchor
        pull *= mu
        grad += pull
    grad *= lr
    theta -= grad


def _sgd_step(
    theta: np.ndarray,
    layout: tuple[tuple[str, tuple[int, int]], ...],
    anchor: np.ndarray,
    x1: np.ndarray,
    y: np.ndarray,
    hot: np.ndarray,
    lr: float,
    mu: float,
) -> None:
    """One SGD step on mean cross-entropy for each of c stacked models, in
    place.

    ``theta`` is ``[c, P]``, one model per row; row i steps on the batch
    ``x1[i]`` (``[b, d + 1]``, last column 1) with labels ``y[i]``.
    ``hot[:c, :b]`` holds ``(i * b + j) * classes``, the flat index of
    sample j of model i's class-0 entry in the ``[c, b, classes]`` softmax,
    so adding ``y`` gives the entries the one-hot is subtracted at; it is
    made once per :func:`sgd_epochs` call.

    Every product is a stacked matmul, which runs one BLAS call per model
    on operands of the shapes a lone model's step would use, so each row
    comes out bit for bit as if it had been stepped alone; the elementwise
    work runs in place.  ``mu > 0`` adds the FedProx pull
    ``mu * (theta - anchor)`` to the gradient.
    """
    c, b = y.shape
    rows, cols = layout[-1][1]
    off = theta.shape[1] - rows * cols
    w_out = theta[:, off:].reshape(c, rows, cols)
    x = x1[:, :, :-1]
    if off:
        w1 = theta[:, :off].reshape(c, *layout[0][1])
        act = x @ w1[:, :, :-1].transpose(0, 2, 1)
        act += w1[:, None, :, -1]
        np.tanh(act, out=act)
        act1 = np.concatenate([act, np.ones((c, b, 1))], axis=2)
    else:
        act, act1 = x, x1
    z = act @ w_out[:, :, :-1].transpose(0, 2, 1)
    z += w_out[:, None, :, -1]
    # each sample's largest logit, reduced over a class-major copy: a max is
    # exact in any order, and a short last axis reduces slowly
    z -= np.ascontiguousarray(z.transpose(2, 0, 1)).max(axis=0)[:, :, None]
    np.exp(z, out=z)
    z /= z.sum(axis=2, keepdims=True)
    delta = z
    delta.reshape(-1)[hot[:c, :b] + y] -= 1.0
    delta /= b

    # drop each activation once used, as a step of c stacked models holds c
    # lone steps' worth of them; the hidden gradient needs the output
    # weights before their update
    g_out = delta.transpose(0, 2, 1) @ act1
    del act1
    if off:
        d_z1 = delta @ w_out[:, :, :-1]
    _descend(theta[:, off:], anchor[off:], g_out, lr, mu)
    del g_out
    if off:
        act *= act
        np.subtract(1.0, act, out=act)
        d_z1 *= act
        del act
        g_hid = d_z1.transpose(0, 2, 1) @ x1
        del d_z1
        _descend(theta[:, :off], anchor[:off], g_hid, lr, mu)




@dataclass(eq=False)
class LockStepPlan:
    """What lock-step SGD needs of its runs that no step changes, built by
    :func:`lockstep_plan`: the stack order and batch schedule, and every
    run's training rows in one row table with a bias column of ones, beside
    one label vector.  Stacked run i is run ``stack[i]`` of the plan's
    datasets; its rows are ``table[starts[i] : starts[i] + sizes[i]]``."""

    batch_size: int
    stack: np.ndarray  # runs by full-batch count, largest first (stable)
    sizes: np.ndarray  # each stacked run's rows
    full: np.ndarray  # and its full batches
    starts: np.ndarray  # and its first row in the table
    live: np.ndarray  # step k of an epoch steps the first live[k] stacked runs
    table: np.ndarray  # [sum n, d + 1], last column 1
    labels: np.ndarray  # [sum n]


def lockstep_plan(
    datasets: Sequence[Dataset],
    batch_size: int,
    indices: Sequence[np.ndarray] | None = None,
) -> LockStepPlan:
    """The lock-step plan of one run per dataset, run i on the rows
    ``indices[i]`` of ``datasets[i]`` (all its rows when ``indices`` is
    None), at least one run and each with at least one row; the rows are
    copied, so the plan shares no memory with the datasets."""
    if indices is None:
        indices = [np.arange(ds.n) for ds in datasets]
    sizes = np.array([len(idx) for idx in indices], dtype=np.int64)

    stack = np.argsort(-(sizes // batch_size), kind="stable")
    sizes = sizes[stack]
    full = sizes // batch_size
    live = np.searchsorted(-full, -np.arange(full[0]))
    starts = np.cumsum(sizes) - sizes

    table = np.empty((sizes.sum(), datasets[0].dim + 1))
    table[:, -1] = 1.0
    labels = np.empty(sizes.sum(), dtype=np.int64)
    for i, start, n in zip(stack, starts, sizes):
        table[start : start + n, :-1] = datasets[i].features.take(indices[i], axis=0)
        labels[start : start + n] = datasets[i].labels.take(indices[i])
    return LockStepPlan(batch_size, stack, sizes, full, starts, live, table, labels)


class PlanCache:
    """Keeps one :class:`LockStepPlan` across :func:`sgd_epochs` calls.

    :meth:`get` returns the kept plan when the call's batch size and its
    datasets and index vectors, compared by identity, are the ones the
    plan was built for; so a caller must not modify a cached index vector
    in place.  Otherwise it drops the kept plan, then builds and keeps the
    call's, so no two plans are alive at once.
    """

    def __init__(self) -> None:
        self.clear()

    def get(
        self,
        datasets: Sequence[Dataset],
        batch_size: int,
        indices: Sequence[np.ndarray] | None = None,
    ) -> LockStepPlan:
        runs = (*datasets, *(() if indices is None else indices))
        kept = self.plan is not None and self.plan.batch_size == batch_size
        if not (kept and len(runs) == len(self._runs) and all(map(operator.is_, runs, self._runs))):
            self.clear()
            self.plan = lockstep_plan(datasets, batch_size, indices)
            self._runs = runs
        return self.plan

    def clear(self) -> None:
        self.plan: LockStepPlan | None = None
        self._runs: tuple = ()


def _run_plan(
    params: ParamVector,
    plan: LockStepPlan,
    epochs: int,
    lr: float,
    seeds: Sequence[int],
    mu: float,
) -> np.ndarray:
    """``epochs`` epochs of lock-step SGD from ``params`` on the runs of
    ``plan``, run i shuffled with the generator of ``seeds[i]``; returns the
    trained values as the rows of one ``[runs, P]`` array, in run order.
    The order matrix and the models are the call's own, so a kept plan
    holds only its rows."""
    batch_size, sizes, starts = plan.batch_size, plan.sizes, plan.starts
    rngs = [np.random.default_rng(seeds[i]) for i in plan.stack]

    layout, anchor = params.layout, params.values
    m, width = len(sizes), min(batch_size, sizes.max())
    theta = np.tile(params.values, (m, 1))
    order = np.empty((m, sizes.max()), dtype=np.int64)
    # stacked batches are full and a partial one is a lone run's, so every
    # step's hot[:c, :b] is (i * b + j) * classes
    hot = np.arange(m * width).reshape(m, width) * layout[-1][1][0]
    for _ in range(epochs):
        for i, (rng, start, n) in enumerate(zip(rngs, starts, sizes)):
            np.add(rng.permutation(n), start, out=order[i, :n])
        for k, c in enumerate(plan.live):
            rows = order[:c, k * batch_size : (k + 1) * batch_size]
            x1, y = plan.table.take(rows, axis=0), plan.labels.take(rows)
            _sgd_step(theta[:c], layout, anchor, x1, y, hot, lr, mu)
        for i, (n, k) in enumerate(zip(sizes, plan.full)):
            if k * batch_size < n:
                rows = order[i : i + 1, k * batch_size : n]
                x1, y = plan.table.take(rows, axis=0), plan.labels.take(rows)
                _sgd_step(theta[i : i + 1], layout, anchor, x1, y, hot, lr, mu)
    return theta[np.argsort(plan.stack)]


def sgd_epochs(
    params: ParamVector,
    datasets: Sequence[Dataset],
    epochs: int,
    lr: float,
    batch_size: int,
    seeds: Sequence[int],
    mu: float = 0.0,
    indices: Sequence[np.ndarray] | None = None,
    cache: PlanCache | None = None,
) -> np.ndarray:
    """Shuffled mini-batch SGD on mean cross-entropy from ``params``, one
    run per dataset, each step ``theta - lr * grad``.  Returns the trained
    parameter values as one C-contiguous ``[runs, P]`` float64 array, row i
    the run of ``datasets[i]``; with ``epochs == 0`` every row is
    ``params.values``, and no datasets give a ``(0, P)`` array.

    Run i trains on the rows ``indices[i]`` of ``datasets[i]`` (all its
    rows, in order, when ``indices`` is None), shuffling them with the generator of
    ``seeds[i]`` each epoch and stepping on its batches in that order.
    The runs advance in lock-step: step k of every run whose k-th batch of
    the epoch is full is one stacked step (see :func:`_sgd_step`), and each
    run's partial last batch, if any, is a step of that run alone, never
    padded into a stacked one (BLAS takes a different path for the
    remainder rows of a padded batch, which changes the forward bits).  A
    run's arithmetic does not depend on the others, so it is bit for bit
    the run on its rows alone.  Runs are stacked in order of their
    full-batch counts, largest first, so the runs taking step k are a
    prefix of the stack.

    A call builds its :class:`LockStepPlan` (:func:`lockstep_plan`), which
    copies all runs' rows into one ``[sum n, d + 1]`` row table whose bias
    column is set once, then runs the epochs on it.  With a ``cache`` the
    plan is taken from it, and built only when the cache holds none for
    these runs (:meth:`PlanCache.get`): a plan holds no seed, parameter or
    hyperparameter but the batch size, so one serves every call on the
    same rows.  Each epoch writes every run's permutation, shifted by the
    run's offset in the table, into one ``[runs, largest n]`` order matrix,
    so a step's batch is one gather of table rows and one of labels.

    With ``mu > 0`` the objective gains the FedProx term
    mu/2 * ||theta - params||^2, a pull toward the parameters SGD started
    from.  Deterministic given (params, datasets, indices, seeds,
    hyperparameters), which are values ``ExperimentConfig`` has checked:
    epochs >= 0, lr > 0, batch_size >= 1.  The datasets share one feature
    dimension, and each has a seed and at least one row to train on.
    Neither ``params`` nor the datasets are modified.
    """
    if epochs == 0 or not datasets:
        return np.tile(params.values, (len(datasets), 1))
    if cache is None:
        plan = lockstep_plan(datasets, batch_size, indices)
    else:
        plan = cache.get(datasets, batch_size, indices)
    return _run_plan(params, plan, epochs, lr, seeds, mu)
