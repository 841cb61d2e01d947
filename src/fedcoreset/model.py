"""Small differentiable classifiers with last-layer gradient extraction.

Two architectures share one parameter layout: parameters live in a flat
float64 vector split into ``[out, fan_in + 1]`` blocks whose last column is
the bias, the hidden block (if any) first and the output block last, so
the "last layer" (the softmax layer) is a contiguous slice of exactly
``num_classes * (h + 1)`` values, where ``h`` is the penultimate width.
One reader, :func:`_blocks`, turns a layout into block views; every other
piece of code takes the views, and a hidden block of None is the only test
for a hidden layer.

For ``softmax_regression`` the penultimate activation is the raw input
(h = input_dim); for ``one_hidden`` it is ``tanh(W1 x + b1)``
(h = hidden_dim).  All math is float64.

There are two forward paths.  Evaluation (:func:`loss` and
:func:`evaluate_accuracy`) runs class-major: logits are ``[classes, n]``, so
each per-sample reduction over the classes is a vector operation across the
samples.  Gradients and SGD run sample-major through one pass,
:func:`_forward`, ``[n, classes]``, the layout whose bits the coreset
selection and the training were recorded with: the gradient rows the
selection matches are computed by the same arithmetic that local SGD trains
with.

:func:`sgd_epochs` trains many models at once, in lock-step, on a plan
(:func:`lockstep_plan`): their training rows copied into one row table with
a bias column of ones, and the batch schedule.  Each stacked step gathers
its batches with one ``take`` of table rows and one of labels, and the
step's softmax and update run in place.  A caller that trains on the same
rows again keeps the plan in a :class:`PlanCache`, so the rows are copied
again only when they change.  The runs' partial last batches, of unequal
sizes, share one fused step per epoch (:func:`_tail_step`): each run keeps
its lone step's matmuls, and the elementwise work runs once over all their
rows.  They are never zero-padded into a stacked step, whose BLAS
remainder path would change their bits.  Each run's generator is built
from its precomputed PCG64 seed words (:func:`~fedcoreset.seeding.words_rngs`).
The trained models come back as the rows of one ``[runs, P]`` array, not
as one :class:`ParamVector` each: a round's callers only add and average
them.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .seeding import words_rngs

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
        if self.arch not in ARCHS:
            raise ConfigurationError(f"model.arch must be one of {ARCHS}, got {self.arch!r}")
        if self.arch == "one_hidden" and self.hidden_dim < 1:
            raise ConfigurationError("model.hidden_dim must be >= 1 for one_hidden")


def _blocks(
    theta: np.ndarray, layout: tuple[tuple[int, int], ...]
) -> tuple[np.ndarray | None, np.ndarray]:
    """``(hidden, output)``: the layer blocks of the parameters ``theta``
    (``[..., P]``, one model per row when stacked) as views of shape
    ``[..., rows, cols]``, ``hidden`` None for a model without a hidden
    layer.  The one code that turns a layout into offsets."""
    lead, views, off = theta.shape[:-1], [None], 0
    for rows, cols in layout:
        views.append(theta[..., off : off + rows * cols].reshape(*lead, rows, cols))
        off += rows * cols
    return views[-2], views[-1]


@dataclass
class ParamVector:
    """Flat parameter vector and its layout.

    ``layout`` lists the ``(rows, cols)`` shape of each layer block in
    storage order: the hidden block, if any, then the output block.  Each
    block holds a layer's weights with the bias in the final column;
    :meth:`blocks` returns them as views of ``values``.
    """

    values: np.ndarray
    layout: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64).ravel()
        total = sum(r * c for r, c in self.layout)
        if total != self.values.size:
            raise ValueError("layout does not cover the parameter vector")

    def blocks(self) -> tuple[np.ndarray | None, np.ndarray]:
        """``(hidden, output)`` as ``[rows, cols]`` views of ``values``;
        ``hidden`` is None for softmax regression."""
        return _blocks(self.values, self.layout)

    def with_values(self, values: np.ndarray) -> "ParamVector":
        return ParamVector(values, self.layout)


def init_params(model: ModelConfig, input_dim: int, num_classes: int, seed: int) -> ParamVector:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), biases zero.  The
    dimensions come from a :class:`Dataset`, which keeps both positive."""
    rng = np.random.default_rng(seed)
    if model.arch == "softmax_regression":
        layout = ((num_classes, input_dim + 1),)
    else:
        layout = ((model.hidden_dim, input_dim + 1), (num_classes, model.hidden_dim + 1))
    parts = []
    for rows, cols in layout:
        fan_in = cols - 1
        bound = 1.0 / np.sqrt(fan_in)
        w = rng.uniform(-bound, bound, size=(rows, fan_in))
        parts.append(np.concatenate([w, np.zeros((rows, 1))], axis=1).ravel())
    return ParamVector(np.concatenate(parts), layout)


def _forward(
    w1: np.ndarray | None, w_out: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The sample-major forward pass of c stacked models, model i on the
    samples ``x[i]`` (``x`` is ``[c, n, d]``, ``w1`` and ``w_out`` the
    ``[c, rows, cols]`` blocks of :func:`_blocks`).

    Returns ``(act, probs)``: the penultimate activations ``[c, n, h]``
    (``x`` itself without a hidden layer) and the softmax ``[c, n,
    classes]``, computed in place in the logits.  Every product is a stacked
    matmul, which runs one BLAS call per model on operands of the shapes a
    lone model's pass would use, so each model's bits are those of its pass
    alone.
    """
    act = x
    if w1 is not None:
        act = x @ w1[:, :, :-1].transpose(0, 2, 1)
        act += w1[:, None, :, -1]
        np.tanh(act, out=act)
    z = act @ w_out[:, :, :-1].transpose(0, 2, 1)
    z += w_out[:, None, :, -1]
    _softmax(z)
    return act, z


def _softmax(z: np.ndarray) -> None:
    """The softmax over the last axis of the sample-major logits ``z``, in
    place."""
    # each sample's largest logit, reduced over a class-major copy: a max is
    # exact in any order, and a short last axis reduces slowly
    z -= np.ascontiguousarray(z.transpose(-1, *range(z.ndim - 1))).max(axis=0)[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)


def _class_logits(params: ParamVector, x: np.ndarray) -> np.ndarray:
    """Logits of the samples ``x`` (``[n, d]``) class-major, ``[classes, n]``."""
    w1, out = params.blocks()
    act = x.T
    if w1 is not None:
        act = w1[:, :-1] @ x.T
        act += w1[:, -1:]
        np.tanh(act, out=act)
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
    act, probs = _forward(*_blocks(params.values[None], params.layout), ds.features[None])
    probs, act = probs[0], act[0]
    probs[np.arange(ds.n), ds.labels] -= 1.0
    act1 = np.concatenate([act, np.ones((ds.n, 1))], axis=1)
    return probs[:, :, None] * act1[:, None, :]


def own_class_grads(params: ParamVector, ds: Dataset) -> np.ndarray:
    """Each sample's output-layer gradient row of its own class, [n, h+1].

    Row i is (softmax(z)_y - 1) * [h(x); 1] for sample (x, y), equal bit for
    bit to ``last_layer_grad_stack(params, ds)[i, y]`` (the same operations
    on the same values) in O(n (h+1)) memory instead of O(n C (h+1)).  The
    softmax runs in place in the logits, and the rows are written straight
    into the result, so the [n, C] logits and the class-major copy
    :func:`_forward` takes their maximum over are the only temporaries.
    """
    act, probs = _forward(*_blocks(params.values[None], params.layout), ds.features[None])
    own = probs[0, np.arange(ds.n), ds.labels] - 1.0
    del probs
    grads = np.empty((ds.n, act.shape[2] + 1))
    np.multiply(own[:, None], act[0], out=grads[:, :-1])
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
    if mu:
        pull = theta - anchor
        pull *= mu
        grad += pull
    grad *= lr
    theta -= grad


def _sgd_step(
    w1: np.ndarray | None,
    w_out: np.ndarray,
    anchor: tuple[np.ndarray | None, np.ndarray],
    x1: np.ndarray,
    y: np.ndarray,
    hot: np.ndarray,
    lr: float,
    mu: float,
) -> None:
    """One SGD step on mean cross-entropy for each of c stacked models, in
    place.

    ``w1`` and ``w_out`` are the layer blocks of the c models
    (:func:`_blocks`), which the step updates; model i steps on the batch
    ``x1[i]`` (``[b, d + 1]``, last column 1) with labels ``y[i]``.
    ``hot[:c, :b]`` holds ``(i * b + j) * classes``, the flat index of
    sample j of model i's class-0 entry in the ``[c, b, classes]`` softmax,
    so adding ``y`` gives the entries the one-hot is subtracted at; it is
    made once per :func:`sgd_epochs` call.

    The forward pass is :func:`_forward`, and the backward pass's products
    are stacked matmuls too, so each model comes out bit for bit as if it
    had been stepped alone; the elementwise work runs in place.  ``mu > 0``
    adds the FedProx pull ``mu * (theta - anchor)`` to the gradient, with
    ``anchor`` the blocks of the parameters SGD started from.
    """
    c, b = y.shape
    act, delta = _forward(w1, w_out, x1[:, :, :-1])
    delta.reshape(-1)[hot[:c, :b] + y] -= 1.0
    delta /= b
    if w1 is None:
        _descend(w_out, anchor[1], delta.transpose(0, 2, 1) @ x1, lr, mu)
        return

    # drop each array once used, as a step of c stacked models holds c lone
    # steps' worth of them; the hidden gradient needs the output weights
    # before their update
    g_out = delta.transpose(0, 2, 1) @ np.concatenate([act, np.ones((c, b, 1))], axis=2)
    d_z1 = delta @ w_out[:, :, :-1]
    del delta
    _descend(w_out, anchor[1], g_out, lr, mu)
    del g_out
    act *= act
    np.subtract(1.0, act, out=act)
    d_z1 *= act
    del act
    g_hid = d_z1.transpose(0, 2, 1) @ x1
    del d_z1
    _descend(w1, anchor[0], g_hid, lr, mu)


def _tail_step(
    w1: np.ndarray | None,
    w_out: np.ndarray,
    runs: np.ndarray,
    anchor: tuple[np.ndarray | None, np.ndarray],
    x1: np.ndarray,
    y: np.ndarray,
    sizes: np.ndarray,
    hot: np.ndarray,
    lr: float,
    mu: float,
) -> None:
    """One SGD step for each of the stacked models ``runs`` on batches of
    unequal sizes, in place: model ``runs[i]`` (its blocks ``w1[runs[i]]``
    and ``w_out[runs[i]]``) steps on the next ``sizes[i]`` rows of ``x1``
    (``[sum sizes, d + 1]``, last column 1) and of ``y``; ``hot`` is
    :func:`_sgd_step`'s.

    Each model's products are those of its lone :func:`_sgd_step`: 2-D
    matmuls of the same shapes, strides and transposes, written into the
    model's rows of one buffer.  The elementwise work (bias add, softmax,
    one-hot, the mean's division, the update) runs once over all models'
    rows; its bits depend on neither the array's length nor its other rows,
    so each model comes out bit for bit as from its lone step.  Zero-padding
    the batches to one size for a stacked step instead would change the
    bits of the padded products.  The update copies the models' blocks out
    and back one layer at a time, so the step holds about what a stacked
    step of as many models holds, and no copy of their parameters.
    """
    ends = np.cumsum(sizes).tolist()
    spans = [(run, slice(end - n, end)) for run, end, n in zip(runs.tolist(), ends, sizes.tolist())]
    owner = np.repeat(runs, sizes)  # each row's model

    def rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Each model's rows of ``a`` times its matrix of ``w``."""
        out = np.empty((len(a), w.shape[2]))
        for run, span in spans:
            np.matmul(a[span], w[run], out=out[span])
        return out

    def grads(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a[rows].T @ b[rows]`` over each model's rows, ``[len(runs), ., .]``."""
        out = np.empty((len(spans), a.shape[1], b.shape[1]))
        for i, (_, span) in enumerate(spans):
            np.matmul(a[span].T, b[span], out=out[i])
        return out

    def descend(block: np.ndarray, start: np.ndarray, grad: np.ndarray) -> None:
        """:func:`_descend` on the models' rows of ``block``, which the
        fancy index copies out and writes back."""
        if mu:
            pull = block[runs]
            pull -= start
            pull *= mu
            grad += pull
            del pull
        grad *= lr
        block[runs] -= grad

    act = x1[:, :-1]
    if w1 is not None:
        act = rows(act, w1[:, :, :-1].transpose(0, 2, 1))
        act += w1[owner, :, -1]
        np.tanh(act, out=act)
    delta = rows(act, w_out[:, :, :-1].transpose(0, 2, 1))
    delta += w_out[owner, :, -1]
    _softmax(delta)
    delta.reshape(-1)[hot.reshape(-1)[: len(y)] + y] -= 1.0
    delta /= sizes.repeat(sizes)[:, None]
    if w1 is None:
        descend(w_out, anchor[1], grads(delta, x1))
        return

    # the order of _sgd_step's hidden-layer backward pass
    g_out = grads(delta, np.concatenate([act, np.ones((len(y), 1))], axis=1))
    d_z1 = rows(delta, w_out[:, :, :-1])
    del delta
    descend(w_out, anchor[1], g_out)
    del g_out
    act *= act
    np.subtract(1.0, act, out=act)
    d_z1 *= act
    del act
    g_hid = grads(d_z1, x1)
    del d_z1
    descend(w1, anchor[0], g_hid)


@dataclass(eq=False)
class LockStepPlan:
    """What lock-step SGD needs of its runs that no step changes, built by
    :func:`lockstep_plan`: the stack order and batch schedule, with the
    places of the partial last batches' rows that the tail step gathers,
    and every run's training rows in one row table with a bias column of
    ones, beside one label vector.  Stacked run i is run ``stack[i]`` of the plan's
    datasets; its rows are ``table[starts[i] : starts[i] + sizes[i]]``."""

    batch_size: int
    stack: np.ndarray  # runs by full-batch count, largest first (stable)
    sizes: np.ndarray  # each stacked run's rows
    full: np.ndarray  # and its full batches
    starts: np.ndarray  # and its first row in the table
    live: np.ndarray  # step k of an epoch steps the first live[k] stacked runs
    tail: np.ndarray  # the stacked runs with a partial last batch
    tail_sizes: np.ndarray  # and its partial batch's rows
    tail_rows: np.ndarray  # those rows' places in the flat [runs, largest n] order matrix
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
    rest = sizes - full * batch_size
    tail = np.flatnonzero(rest)
    cols = np.arange(sizes.max())
    tail_rows = np.flatnonzero((cols >= (full * batch_size)[:, None]) & (cols < sizes[:, None]))

    table = np.empty((sizes.sum(), datasets[0].dim + 1))
    table[:, -1] = 1.0
    labels = np.empty(sizes.sum(), dtype=np.int64)
    for i, start, n in zip(stack, starts, sizes):
        table[start : start + n, :-1] = datasets[i].features.take(indices[i], axis=0)
        labels[start : start + n] = datasets[i].labels.take(indices[i])
    return LockStepPlan(
        batch_size, stack, sizes, full, starts, live, tail, rest[tail], tail_rows, table, labels
    )


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


def sgd_epochs(
    params: ParamVector,
    datasets: Sequence[Dataset],
    epochs: int,
    lr: float,
    batch_size: int,
    seeds: np.ndarray,
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
    rows, in order, when ``indices`` is None), shuffling them each epoch
    with the generator whose PCG64 seed words are ``seeds[i]`` and stepping
    on its batches in that order; ``seeds`` is a ``[runs, 4]`` uint64 array
    (:func:`~fedcoreset.seeding.seed_words` turns an int seed, and
    :func:`~fedcoreset.seeding.client_seed_words` a client's round, into
    its row), so run i shuffles as ``np.random.default_rng`` would on the
    seed its words come from.
    The runs advance in lock-step: step k of every run whose k-th batch of
    the epoch is full is one stacked step (see :func:`_sgd_step`), and the
    runs' partial last batches, of unequal sizes, are one fused step after
    them (:func:`_tail_step`), never padded into a stacked one (BLAS takes a
    different path for the remainder rows of a padded batch, which changes
    the forward bits).  A run's arithmetic does not depend on the others,
    so it is bit for bit the run on its rows alone.  Runs are stacked in
    order of their full-batch counts, largest first, so the runs taking
    step k are a prefix of the stack.

    A call builds its :class:`LockStepPlan` (:func:`lockstep_plan`), which
    copies all runs' rows into one ``[sum n, d + 1]`` row table whose bias
    column is set once, then runs the epochs on it.  With a ``cache`` the
    plan is taken from it, and built only when the cache holds none for
    these runs (:meth:`PlanCache.get`): a plan holds no seed, parameter or
    hyperparameter but the batch size, so one serves every call on the
    same rows.  The generators, the models, their block views and the
    order matrix are the call's own, so a kept plan holds only its rows.
    Each epoch writes every run's permutation, shifted by the
    run's offset in the table, into one ``[runs, largest n]`` order matrix,
    so a step's batch is one gather of table rows and one of labels (the
    tail step reads its rows' places off the matrix with one more).

    With ``mu > 0`` the objective gains the FedProx term
    mu/2 * ||theta - params||^2, a pull toward the parameters SGD started
    from.  Deterministic given (params, datasets, indices, seeds,
    hyperparameters), which are values ``ExperimentConfig`` has checked:
    epochs >= 0, lr > 0, batch_size >= 1.  The datasets share one feature
    dimension, and each has a row of seed words and at least one row to
    train on.
    Neither ``params`` nor the datasets are modified.
    """
    if epochs == 0 or not datasets:
        return np.tile(params.values, (len(datasets), 1))
    if cache is None:
        plan = lockstep_plan(datasets, batch_size, indices)
    else:
        plan = cache.get(datasets, batch_size, indices)
    sizes, starts = plan.sizes, plan.starts
    rngs = words_rngs(np.asarray(seeds)[plan.stack])

    m, width = len(sizes), min(batch_size, sizes.max())
    theta = np.tile(params.values, (m, 1))
    w1, w_out = _blocks(theta, params.layout)
    anchor = params.blocks()
    order = np.empty((m, sizes.max()), dtype=np.int64)
    # stacked batches are full, so every stacked step's hot[:c, :b] is
    # (i * b + j) * classes; the tail step's rows, fewer than b a run, are
    # no more than hot's entries, and it reads hot flat
    hot = np.arange(m * width).reshape(m, width) * w_out.shape[1]

    for _ in range(epochs):
        for i, (rng, start, n) in enumerate(zip(rngs, starts, sizes)):
            np.add(rng.permutation(n), start, out=order[i, :n])
        for k, c in enumerate(plan.live):
            rows = order[:c, k * batch_size : (k + 1) * batch_size]
            x1, y = plan.table.take(rows, axis=0), plan.labels.take(rows)
            _sgd_step(None if w1 is None else w1[:c], w_out[:c], anchor, x1, y, hot, lr, mu)
        if plan.tail.size:
            rows = order.take(plan.tail_rows)
            x1, y = plan.table.take(rows, axis=0), plan.labels.take(rows)
            _tail_step(w1, w_out, plan.tail, anchor, x1, y, plan.tail_sizes, hot, lr, mu)
    return theta[np.argsort(plan.stack)]
