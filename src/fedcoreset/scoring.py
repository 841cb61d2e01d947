"""A round's scoring: the mean train loss of its sampled chunks and the
test accuracy, from one class-major pass over a kept plan.

:func:`scoring_plan` precomputes what no parameter changes, and the round
engine keeps the plan in its :class:`~fedcoreset.model.PlanCache` while
the scored chunks stay the same.  A partition's chunks are consecutive row
ranges of its client-major table
(:func:`~fedcoreset.data.dirichlet_partition`), so sampled chunks with no
other non-empty chunk between them are one run of rows, scored with one
BLAS product per layer.  Logits are class-major, ``[classes, rows]``, so
each per-sample reduction over the classes is a vector operation across
the samples.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import TYPE_CHECKING

import numpy as np

from .data import Dataset

if TYPE_CHECKING:
    from .model import ParamVector

__all__ = ["LOSS_BLOCK", "ScoringPlan", "scoring_plan", "loss", "evaluate_accuracy"]

# rows scored per class-major pass of loss: enough for a blob round's chunks
# and test set to share one pass, few enough that its temporaries stay
# those of one large dataset's pass
LOSS_BLOCK = 8192


def _address(x: np.ndarray) -> int:
    return x.__array_interface__["data"][0]


def _row_runs(arrays: list[np.ndarray]) -> list[np.ndarray]:
    """The C-contiguous ``[n, d]`` arrays, each stretch of consecutive ones
    that are consecutive row ranges of one ``[rows, d]`` array, as a
    partition's chunks are of its table, merged into one view of it."""
    groups: list[list[np.ndarray]] = []
    end = None  # the address just past the last array's rows
    for x in arrays:
        at = _address(x)
        prev, base = groups[-1][-1] if groups else x, x.base
        if (
            at == end
            and base is not None
            and base is prev.base
            and base.ndim == 2
            and base.shape[1] == x.shape[1] == prev.shape[1]
            and base.strides == x.strides == prev.strides
        ):
            groups[-1].append(x)
        else:
            groups.append([x])
        end = at + x.nbytes
    runs = []
    for group in groups:
        if len(group) == 1:
            runs += group
            continue
        x = group[0]
        first = (_address(x) - _address(x.base)) // x.strides[0]
        runs.append(x.base[first : first + sum(map(len, group))])
    return runs


@dataclass(eq=False)
class _Pass:
    """One class-major pass of a :class:`ScoringPlan`: the ``[classes,
    cols]`` logits of its rows, the scored datasets' columns first and
    then the test set's, if it is in this pass."""

    runs: list[tuple[np.ndarray, slice]]  # [rows, d] feature runs and their columns
    cols: int
    scored: int  # the scored datasets' columns
    own: np.ndarray  # each scored column's own-class logit, a flat index into the logits
    spans: list[slice]  # each scored dataset's columns
    singles: list[int]  # the columns of one-row datasets


@dataclass(eq=False)
class ScoringPlan:
    """What a round's scoring pass (:func:`loss`) needs that no parameter
    changes, built by :func:`scoring_plan`: its passes, each dataset's size
    as the weight of its mean, and the test set, whose columns ``test_at``
    are the last pass's last."""

    passes: list[_Pass]
    sizes: np.ndarray  # float64
    total: float
    test: Dataset | None
    test_at: np.ndarray  # the test columns' flat index in the logits of class 0


def scoring_plan(datasets: Sequence[Dataset], test: Dataset | None = None) -> ScoringPlan:
    """The plan of scoring the non-empty ``datasets`` and then ``test``.

    The datasets, then the test set, are taken in order in passes of at
    most ``LOSS_BLOCK`` rows, or one larger dataset alone.  In a pass each
    run of consecutive datasets whose features are consecutive rows of one
    array (:func:`_row_runs`), as a round's sampled chunks are of their
    partition's table where no other non-empty chunk lies between them,
    takes one product per layer; the test set takes its own.  The plan
    holds views of the datasets' rows, not copies."""
    parts = [*datasets, *(() if test is None else (test,))]
    groups: list[list[Dataset]] = []
    rows = 0
    for ds in parts:
        if not groups or rows + ds.n > LOSS_BLOCK:
            groups.append([])
            rows = 0
        groups[-1].append(ds)
        rows += ds.n
    passes = []
    for group in groups:
        scored = group[:-1] if test is not None and group is groups[-1] else group
        ends = list(accumulate(ds.n for ds in scored))
        n = ends[-1] if ends else 0
        runs = []
        for x in _row_runs([ds.features for ds in scored]):
            start = runs[-1][1].stop if runs else 0
            runs.append((x, slice(start, start + len(x))))
        cols = n if scored is group else n + test.n
        if scored is not group:
            runs.append((test.features, slice(n, cols)))
        labels = np.concatenate([ds.labels for ds in scored]) if scored else np.empty(0, np.int64)
        spans = [slice(e - ds.n, e) for ds, e in zip(scored, ends)]
        singles = [span.start for span in spans if span.stop - span.start == 1]
        passes.append(_Pass(runs, cols, n, labels * cols + np.arange(n), spans, singles))
    sizes = np.array([ds.n for ds in datasets], dtype=np.float64)
    test_at = np.empty(0, np.int64) if test is None else np.arange(passes[-1].scored, passes[-1].cols)
    return ScoringPlan(passes, sizes, float(sizes.sum()), test, test_at)


def _pass_logits(w1: np.ndarray | None, out: np.ndarray, p: _Pass) -> np.ndarray:
    """The class-major ``[classes, cols]`` logits of the pass ``p``: each
    run's products are one BLAS call per layer on its rows, the last
    written into its columns, and the rest is elementwise, so each column's
    logits are those of a pass over its run alone (a product's bits depend
    on how its rows are batched).  A run's hidden activations live until
    its logits are written."""
    z = np.empty((out.shape[0], p.cols))
    for x, span in p.runs:
        act = x.T
        if w1 is not None:
            act = w1[:, :-1] @ act
            act += w1[:, -1:]
            np.tanh(act, out=act)
        np.matmul(out[:, :-1], act, out=z[:, span])
    z += out[:, -1:]
    return z


def loss(params: ParamVector, plan: ScoringPlan) -> tuple[float, float]:
    """``(mean loss, accuracy)`` of ``params`` on the plan's datasets, one
    class-major pass a pass of the plan (:func:`_pass_logits`,
    :func:`_pass_means`): the mean cross-entropy over the scored datasets'
    samples, each dataset's mean weighted by its size (bit for bit
    ``np.average``; NaN without datasets), and the fraction of the test set
    whose largest logit is their label's (NaN without a test set).  The
    prediction is the argmax of the logits, ties to the lowest class; a
    sample whose logits hold a NaN or whose largest is infinite has no
    defined softmax and is predicted class 0.
    """
    w1, out = params.blocks()
    means, accuracy = [], float("nan")
    for p in plan.passes:
        z = _pass_logits(w1, out, p)
        means += _pass_means(z, p)
    if plan.test is not None:
        pred = z[:, p.scored :].argmax(axis=0)
        pred[~np.isfinite(z.take(pred * p.cols + plan.test_at))] = 0
        accuracy = int(np.count_nonzero(pred == plan.test.labels)) / plan.test.n
    if not means:
        return float("nan"), accuracy
    return float(np.multiply(means, plan.sizes).sum() / plan.total), accuracy


def _pass_means(z: np.ndarray, p: _Pass) -> list[float]:
    """Each scored dataset's mean cross-entropy from the logits ``z`` of
    the pass ``p``, whose scored columns it overwrites: the reductions over
    the classes run once over all those columns, and each dataset's mean is
    the sum of its rows' losses divided by its size.  A one-row dataset's
    classes are summed as a lone vector, pairwise, as a pass over that row
    alone sums them; down the columns of a wider array they add in order."""
    if not p.scored:
        return []
    scored = z[:, : p.scored]
    own = z.take(p.own)
    zmax = scored.max(axis=0)
    scored -= zmax
    np.exp(scored, out=scored)
    per = scored.sum(axis=0)
    for j in p.singles:
        per[j] = scored[:, j].sum()
    np.log(per, out=per)
    per += zmax
    per -= own
    return [np.add.reduce(per[span]) / (span.stop - span.start) for span in p.spans]


def evaluate_accuracy(params: ParamVector, test: Dataset) -> float:
    """Fraction of the non-empty ``test`` whose largest logit is their
    label's: :func:`loss`'s accuracy on a plan of ``test`` alone."""
    return loss(params, scoring_plan((), test))[1]
