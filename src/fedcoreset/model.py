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

Gradients and SGD run sample-major through one forward pass,
:func:`_forward`, ``[n, classes]``, the layout whose bits the coreset
selection and the training were recorded with: the gradient rows the
selection matches are computed by the same arithmetic that local SGD trains
with.  Scoring runs class-major, in :mod:`~fedcoreset.scoring`.

:func:`sgd_epochs` trains many models at once, in lock-step, on a plan
(:func:`lockstep_plan`): their training rows copied into one row table with
a bias column of ones, and the batch schedule.  Each stacked step gathers
its batches with one ``take`` of table rows and one of labels, and the
step's softmax and update run in place.  A caller that trains on the same
rows again keeps the plan in a :class:`PlanCache`, so the rows are copied
again only when they change.  One step function, :func:`_sgd_step`, takes
every step.  The runs whose next batch is full step on equal batches, each
product one stacked matmul on views of the stack; the runs' partial last
batches, of unequal sizes, share one step per epoch, in which each run's
products are 2-D matmuls into its rows of one buffer.  Either way the
elementwise work runs once over all the step's rows.  Partial batches are
never zero-padded into a stacked step, whose BLAS remainder path would
change their bits.  Each run's generator is built
from its precomputed PCG64 seed words (:func:`~fedcoreset.seeding.words_rngs`).
The trained models come back as the rows of one ``[runs, P]`` array, not
as one :class:`ParamVector` each: a round's callers only add and average
them.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from types import EllipsisType
from typing import Any, TypeVar

import numpy as np

from .data import Dataset
from .errors import ConfigurationError
from .seeding import words_rngs

T = TypeVar("T")

__all__ = [
    "ARCHS",
    "ModelConfig",
    "ParamVector",
    "init_params",
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


def _product(a: np.ndarray, w: np.ndarray, spans: list[tuple[int, slice]] | None) -> np.ndarray:
    """``a @ w`` for each model, ``w`` holding one ``[k, m]`` matrix per
    model.  Without ``spans``, ``a`` is ``[c, n, k]``, model i's rows
    ``a[i]``, and the product is one stacked matmul, which runs one BLAS
    call per model on operands of the shapes a lone model's product would
    use.  With them, ``a`` is ``[rows, k]``, model ``run`` owns the rows
    ``a[span]`` of each ``(run, span)``, and their 2-D product with
    ``w[run]`` is written into the same rows of one ``[rows, m]`` buffer.
    Either way each model's bits are those of its product alone."""
    if spans is None:
        return a @ w
    out = np.empty((len(a), w.shape[2]))
    for run, span in spans:
        np.matmul(a[span], w[run], out=out[span])
    return out


def _gradient(a: np.ndarray, b: np.ndarray, spans: list[tuple[int, slice]] | None) -> np.ndarray:
    """``a.T @ b`` over each model's rows of ``a`` and ``b``, laid out as
    :func:`_product`'s ``a``: one ``[k, m]`` matrix per model, with
    ``spans`` in their order."""
    if spans is None:
        return a.transpose(0, 2, 1) @ b
    out = np.empty((len(spans), a.shape[1], b.shape[1]))
    for i, (_, span) in enumerate(spans):
        np.matmul(a[span].T, b[span], out=out[i])
    return out


def _forward(
    w1: np.ndarray | None,
    w_out: np.ndarray,
    x: np.ndarray,
    spans: list[tuple[int, slice]] | None = None,
    owner: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The sample-major forward pass of c stacked models (``w1`` and
    ``w_out`` their ``[c, rows, cols]`` layer blocks, as :func:`_blocks`
    lays them out), model i on the samples ``x[i]`` (``x`` is ``[c, n,
    d]``).  With ``spans``, ``x`` is ``[rows, d]``, split among the models
    as :func:`_product` splits its ``a``, and ``owner`` names each row's
    model.

    Returns ``(act, probs)``: the penultimate activations ``[..., h]``
    (``x`` itself without a hidden layer) and the softmax ``[...,
    classes]``, computed in place in the logits.  Every product is a lone
    model's (:func:`_product`), and the elementwise bits depend on neither
    the array's length nor its other rows, so each model's bits are those
    of its pass alone.
    """
    act = x
    if w1 is not None:
        act = _product(x, w1[:, :, :-1].transpose(0, 2, 1), spans)
        act += w1[:, None, :, -1] if spans is None else w1[owner, :, -1]
        np.tanh(act, out=act)
    z = _product(act, w_out[:, :, :-1].transpose(0, 2, 1), spans)
    z += w_out[:, None, :, -1] if spans is None else w_out[owner, :, -1]
    # each sample's largest logit, reduced over a class-major copy: a max is
    # exact in any order, and a short last axis reduces slowly
    z -= np.ascontiguousarray(z.transpose(-1, *range(z.ndim - 1))).max(axis=0)[..., None]
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return act, z


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
    present = np.flatnonzero(np.bincount(val.labels)).tolist()  # np.unique imports numpy.ma
    return {c: rows[val.labels == c].mean(axis=0) for c in present}


def _sgd_step(
    w1: np.ndarray | None,
    w_out: np.ndarray,
    runs: EllipsisType | np.ndarray,
    anchor: tuple[np.ndarray | None, np.ndarray],
    x1: np.ndarray,
    y: np.ndarray,
    hot: np.ndarray,
    lr: float,
    mu: float,
    spans: list[tuple[int, slice]] | None = None,
) -> None:
    """One SGD step on mean cross-entropy for each of the models ``runs``
    of the stacked layer blocks ``w1`` and ``w_out`` (``[models, rows,
    cols]``, as :func:`_blocks` lays them out), in place.

    Without ``spans``, ``runs`` is ``...``: every model of the blocks
    steps, model i on the batch ``x1[i]`` (``x1`` is ``[c, b, d + 1]``,
    last column 1) with labels ``y[i]``.  With them, ``runs`` holds
    the models of ``spans`` in order, and model ``run`` steps on the rows
    ``x1[span]`` (``x1`` is ``[rows, d + 1]``) and ``y[span]``: batches of
    unequal sizes, never zero-padded to one size, as BLAS takes a
    different path for the remainder rows of a padded batch.  ``hot[j]``
    is ``j * classes``, so ``hot[:y.size] + y`` are the flat indices of
    the softmax entries the one-hot is subtracted at; it is made once per
    :func:`sgd_epochs` call.

    The forward pass is :func:`_forward`, and the backward pass's products
    are a lone model's too (:func:`_product`, :func:`_gradient`), so each
    model comes out bit for bit as if it had been stepped alone; the
    elementwise work runs in place, once over all the step's rows.  ``mu >
    0`` adds the FedProx pull ``mu * (theta - anchor)`` to the gradient,
    with ``anchor`` the blocks of the parameters SGD started from.  The
    update reads and writes ``block[runs]``: a view for ``...``, whose
    write-back numpy skips, and for an index array a copy of the models'
    layer, out and back one layer at a time, so the step copies no model's
    whole parameters.
    """
    n, owner = float(y.shape[-1]), None
    if spans is not None:
        sizes = np.array([span.stop - span.start for _, span in spans])
        n, owner = np.repeat(sizes, sizes)[:, None], np.repeat(runs, sizes)
    act, delta = _forward(w1, w_out, x1[..., :-1], spans, owner)
    delta.reshape(-1)[hot[: y.size] + y.reshape(-1)] -= 1.0
    delta /= n
    if w1 is None:
        grad = _gradient(delta, x1, spans)
    else:
        # drop each array once used, as a step of c models holds c lone
        # steps' worth of them
        ones = np.ones((*act.shape[:-1], 1))
        grad = _gradient(delta, np.concatenate([act, ones], axis=-1), spans)
        d_z1 = _product(delta, w_out[:, :, :-1], spans)
        del delta
        act *= act
        np.subtract(1.0, act, out=act)
        d_z1 *= act
        del act
    # the output layer first, as d_z1 read its weights before their update;
    # the hidden gradient is made once the output one is dropped
    for block, start in ((w_out, anchor[1]), (w1, anchor[0])):
        if block is None:
            break
        if block is w1:
            grad = _gradient(d_z1, x1, spans)
            del d_z1
        if mu:
            if runs is ...:
                pull = block[runs] - start  # block[...] is the block itself
            else:
                pull = block[runs]  # a copy: the pull is made in it
                pull -= start
            pull *= mu
            grad += pull
            del pull
        grad *= lr
        block[runs] -= grad
        del grad


@dataclass(eq=False)
class LockStepPlan:
    """What lock-step SGD needs of its runs that no step changes, built by
    :func:`lockstep_plan`: the stack order and batch schedule, the partial
    last batches' row spans and the places of their rows, and every run's
    training rows in one row table with a bias column of ones, beside one
    label vector.  Stacked run i is run ``stack[i]`` of the plan's
    datasets; its rows are ``table[starts[i] : starts[i] + sizes[i]]``."""

    batch_size: int
    stack: np.ndarray  # runs by full-batch count, largest first (stable)
    sizes: np.ndarray  # each stacked run's rows
    starts: np.ndarray  # and its first row in the table
    live: np.ndarray  # step k of an epoch steps the first live[k] stacked runs
    tail: np.ndarray  # the stacked runs with a partial last batch
    spans: list[tuple[int, slice]]  # and each one's rows of the tail batch
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
    ends = np.cumsum(rest[tail]).tolist()
    spans = [(r, slice(e - n, e)) for r, n, e in zip(tail.tolist(), rest[tail].tolist(), ends)]
    cols = np.arange(sizes.max())
    tail_rows = np.flatnonzero((cols >= (full * batch_size)[:, None]) & (cols < sizes[:, None]))

    table = np.empty((sizes.sum(), datasets[0].dim + 1))
    table[:, -1] = 1.0
    labels = np.empty(sizes.sum(), dtype=np.int64)
    for i, start, n in zip(stack, starts, sizes):
        table[start : start + n, :-1] = datasets[i].features.take(indices[i], axis=0)
        labels[start : start + n] = datasets[i].labels.take(indices[i])
    return LockStepPlan(
        batch_size, stack, sizes, starts, live, tail, spans, tail_rows, table, labels
    )


class PlanCache:
    """Keeps a run's plans from round to round, one per slot: local SGD's
    :class:`LockStepPlan` (``"lockstep"``), the round's
    :class:`~fedcoreset.scoring.ScoringPlan` (``"scoring"``) and the
    refresh's :class:`~fedcoreset.coreset.SelectionPlan` (``"selection"``).
    ``plans`` maps each slot to its kept plan.

    :meth:`keep` returns a slot's kept plan when the call's ``same``
    objects, compared by identity, and ``equal`` values, compared by value,
    are the ones the plan was built for; so a caller must not modify a
    keyed object, such as an index vector, in place.  Otherwise it drops the
    kept plan, then builds and keeps the call's, so no two plans of a slot
    are alive at once.
    """

    def __init__(self) -> None:
        self.plans: dict[str, Any] = {}
        self._keys: dict[str, tuple[tuple, tuple]] = {}

    def keep(self, slot: str, build: Callable[[], T], *, same: tuple = (), equal: tuple = ()) -> T:
        key = self._keys.get(slot)
        if key is None or key[1] != equal or not _same(same, key[0]):
            self.drop(slot)  # before the build: one plan of a slot alive at a time
            self.plans[slot] = build()
            self._keys[slot] = (same, equal)
        return self.plans[slot]

    def drop(self, slot: str) -> None:
        """Drop the plan kept in ``slot``, if any."""
        self.plans.pop(slot, None)
        self._keys.pop(slot, None)

    def clear(self) -> None:
        """Drop every plan."""
        self.plans.clear()
        self._keys.clear()


def _same(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(map(operator.is_, a, b))


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
    The runs advance in lock-step (:func:`_sgd_step`): step k of every run
    whose k-th batch of the epoch is full is one step on equal batches, and
    the runs' partial last batches, of unequal sizes, are one step after
    them.  A run's arithmetic does not depend on the others, so it is bit
    for bit the run on its rows alone.  Runs are stacked in order of their
    full-batch counts, largest first, so the runs taking step k are a
    prefix of the stack.

    A call builds its :class:`LockStepPlan` (:func:`lockstep_plan`), which
    copies all runs' rows into one ``[sum n, d + 1]`` row table whose bias
    column is set once, then runs the epochs on it.  With a ``cache`` the
    plan is taken from its ``"lockstep"`` slot, and built only when the
    cache holds none for these datasets and index vectors, compared by
    identity, and this batch size (:meth:`PlanCache.keep`): a plan holds
    no seed, parameter or hyperparameter but the batch size, so one serves
    every call on the same rows.  The generators, the models (one
    contiguous stack per layer) and the order matrix are the call's own, so
    a kept plan holds only its rows.
    Each epoch writes every run's permutation, shifted by the
    run's offset in the table, into one ``[runs, largest n]`` order matrix,
    so a step's batch is one gather of table rows and one of labels (the
    partial batches' step reads its rows' places off the matrix with one
    more).

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
        runs = (*datasets, *(() if indices is None else indices))
        plan = cache.keep("lockstep", lambda: lockstep_plan(datasets, batch_size, indices),
                          same=runs, equal=(batch_size,))
    sizes, starts = plan.sizes, plan.starts
    rngs = words_rngs(np.asarray(seeds)[plan.stack])

    m, width = len(sizes), min(batch_size, sizes.max())
    anchor = params.blocks()
    # each layer's stack is contiguous: numpy copies a strided 3-D operand
    # of an in-place ufunc, such as the update's
    w1, w_out = (None if w is None else np.tile(w, (m, 1, 1)) for w in anchor)
    order = np.empty((m, sizes.max()), dtype=np.int64)
    # a step's rows, at most b of each of its runs, are no more than hot's
    hot = np.arange(m * width) * w_out.shape[1]

    for _ in range(epochs):
        for i, (rng, start, n) in enumerate(zip(rngs, starts, sizes)):
            np.add(rng.permutation(n), start, out=order[i, :n])
        for k, c in enumerate(plan.live):
            rows = order[:c, k * batch_size : (k + 1) * batch_size]
            x1, y = plan.table.take(rows, axis=0), plan.labels.take(rows)
            _sgd_step(None if w1 is None else w1[:c], w_out[:c], ..., anchor, x1, y, hot, lr, mu)
        if plan.spans:
            rows = order.take(plan.tail_rows)
            x1, y = plan.table.take(rows, axis=0), plan.labels.take(rows)
            _sgd_step(w1, w_out, plan.tail, anchor, x1, y, hot, lr, mu, plan.spans)
    trained = np.empty((m, params.values.size))
    for block, w in zip(_blocks(trained, params.layout), (w1, w_out)):
        if w is not None:
            block[plan.stack] = w
    return trained
