"""A round's scoring: the mean train loss of its sampled chunks and the
test accuracy, from one class-major pass over a kept plan.

:func:`scoring_plan` precomputes what no parameter changes, and the round
engine keeps the plan in its :class:`~fedcoreset.model.PlanCache` while
the scored chunks stay the same.  Each scored dataset takes its own BLAS
product per layer, so its mean keeps the bits of scoring it alone.
Logits are class-major, ``[classes, rows]``, so each per-sample reduction
over the classes is a vector operation across the samples.
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


@dataclass(eq=False)
class _Pass:
    """One class-major pass of a :class:`ScoringPlan`: the ``[classes,
    cols]`` logits of its rows, the scored datasets' columns first and
    then the test set's, if it is in this pass."""

    parts: list[tuple[np.ndarray, slice]]  # each dataset's [n, d] rows and columns, test last
    cols: int
    scored: int  # the scored datasets' columns
    own: np.ndarray  # each scored column's own-class logit, a flat index into the logits
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
    test: Dataset
    test_at: np.ndarray  # the test columns' flat index in the logits of class 0


def scoring_plan(datasets: Sequence[Dataset], test: Dataset) -> ScoringPlan:
    """The plan of scoring the non-empty ``datasets`` and then ``test``.

    The datasets, then the test set, are taken in order in passes of at
    most ``LOSS_BLOCK`` rows, or one larger dataset alone, and each dataset
    takes one product per layer.  The plan holds views of the datasets'
    rows, not copies."""
    groups: list[list[Dataset]] = []
    rows = 0
    for ds in (*datasets, test):
        if not groups or rows + ds.n > LOSS_BLOCK:
            groups.append([])
            rows = 0
        groups[-1].append(ds)
        rows += ds.n
    passes = []
    for group in groups:
        scored = group[:-1] if group is groups[-1] else group
        ends = list(accumulate(ds.n for ds in group))
        parts = [(ds.features, slice(e - ds.n, e)) for ds, e in zip(group, ends)]
        cols, n = ends[-1], sum(ds.n for ds in scored)
        labels = np.concatenate([ds.labels for ds in scored]) if scored else np.empty(0, np.int64)
        singles = [span.start for x, span in parts[: len(scored)] if len(x) == 1]
        # the smallest type that holds every flat index: the plan is kept under the selector
        own = (labels * cols + np.arange(n)).astype(np.min_scalar_type(test.num_classes * cols))
        passes.append(_Pass(parts, cols, n, own, singles))
    sizes = np.array([ds.n for ds in datasets], dtype=np.float64)
    test_at = np.arange(passes[-1].scored, passes[-1].cols)
    return ScoringPlan(passes, sizes, float(sizes.sum()), test, test_at)


def _pass_logits(w1: np.ndarray | None, out: np.ndarray, p: _Pass) -> np.ndarray:
    """The class-major ``[classes, cols]`` logits of the pass ``p``: each
    dataset's products are one BLAS call per layer on its rows, the last
    written into its columns, and the rest is elementwise, so each column's
    logits are those of a pass over its dataset alone (a product's bits
    depend on how its rows are batched).  A dataset's hidden activations
    live until its logits are written."""
    z = np.empty((out.shape[0], p.cols))
    for x, span in p.parts:
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
    whose largest logit is their label's.  The prediction is the argmax of
    the logits, ties to the lowest class; a sample whose logits hold a NaN
    or whose largest is infinite has no defined softmax and is predicted
    class 0.
    """
    w1, out = params.blocks()
    means = []
    for p in plan.passes:
        z = _pass_logits(w1, out, p)
        means += _pass_means(z, p)
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
    return [np.add.reduce(per[span]) / len(x) for x, span in p.parts if span.start < p.scored]


def evaluate_accuracy(params: ParamVector, test: Dataset) -> float:
    """Fraction of the non-empty ``test`` whose largest logit is their
    label's: :func:`loss`'s accuracy on a plan of ``test`` alone."""
    return loss(params, scoring_plan((), test))[1]
