"""Coreset selection: greedy gradient matching plus the two baselines.

The matching-pursuit selector greedily grows a support, at each step adding
the candidate gradient closest to the current residual and re-solving a
ridge least-squares problem over the whole support.  For lambda > 0 that
solve is done in the smaller of the support size k and the gradient length
d: a k x k system while k <= d, and once k > d the d x d system given by
(C^T C + lam I)^-1 C^T = C^T (C C^T + lam I)^-1, so the solve at each pick
costs O(d^3) rather than O(k^3) however large the support grows (cf.
Batch-OMP, Rubinstein, Zibulevsky & Elad 2008).  The residual that drives
selection and stopping comes from the unclipped solve (this is what makes
its norm non-increasing); the nonnegativity clip is applied to the weights
that are returned.  Weights only steer selection: local training on a
coreset is unweighted.

The facility-location baseline is a lazy greedy (Minoux 1978; used for
coresets in CRAIG, Mirzasoleiman et al. 2020) whose picks equal the dense
greedy's bit for bit, ties to the lowest index.  Gains can only fall, so a
candidate's last computed gain, plus a rounding slack of 4 n^2 eps, bounds
its gain now; a pick computes the gains of the few candidates whose bound
reaches the best gain found, O(16 n) on most picks instead of O(n^2).
Exactness rests on two numpy facts the tests pin: ``A @ A.T`` is exactly
symmetric, and the column sums are added in the dense reduction's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import ClientChunk
from .model import ParamVector, last_layer_grad_stack

__all__ = [
    "Coreset",
    "omp_select",
    "labelwise_omp_select",
    "random_select",
    "facility_location_select",
]


@dataclass
class Coreset:
    """Selected sample indices with nonnegative importance weights.

    ``residual_norms`` traces the matching residual after each weight
    re-solve, for diagnostics.
    """

    indices: np.ndarray
    weights: np.ndarray
    residual_norms: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64).ravel()
        self.weights = np.asarray(self.weights, dtype=np.float64).ravel()
        if self.indices.size != self.weights.size:
            raise ValueError("weights must align with indices")
        if self.indices.size != np.unique(self.indices).size:
            raise ValueError("coreset indices must be distinct")
        if np.any(self.weights < 0):
            raise ValueError("coreset weights must be non-negative")

    @property
    def size(self) -> int:
        return self.indices.size


def _solve_ridge(columns: np.ndarray, target: np.ndarray, lam: float) -> np.ndarray:
    """argmin_w lam*||w||^2 + ||columns @ w - target||^2 for columns of shape (d, k).

    For lam > 0 the system is solved in min(k, d) unknowns: the k x k normal
    equations while k <= d, else w = columns^T (columns columns^T + lam I_d)^-1
    target.  lam = 0 solves the (possibly singular) k x k normal equations by
    least squares, as does a lam > 0 below the rounding of the gram entries
    when duplicate columns leave the system exactly singular.
    """
    d, k = columns.shape
    wide = lam > 0 and k > d
    gram = columns @ columns.T if wide else columns.T @ columns
    rhs = target if wide else columns.T @ target
    gram += lam * np.eye(len(gram))
    x = None
    if lam > 0:
        try:
            x = np.linalg.solve(gram, rhs)
        except np.linalg.LinAlgError:
            pass
    if x is None:
        x, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return columns.T @ x if wide else x


def omp_select(
    candidate_grads: np.ndarray | list[np.ndarray],
    target: np.ndarray,
    budget: int,
    lam: float,
) -> Coreset:
    """Match ``target`` with a sparse nonnegative combination of candidates.

    Iterates a greedy pick of the candidate nearest the residual followed
    by a ridge re-solve over the support, until the budget is reached or
    the residual norm is exactly 0.  A zero target therefore yields an
    empty coreset.  Ties in the greedy argmin go to the lowest index.
    ``lam >= 0`` is the ridge ``lambda`` that ``ExperimentConfig`` checks.
    """
    cands = np.atleast_2d(np.asarray(candidate_grads, dtype=np.float64))
    target = np.asarray(target, dtype=np.float64).ravel()
    if cands.size == 0:
        raise ValueError("candidate list is empty")
    if cands.shape[1] != target.size:
        raise ValueError(
            f"candidate dim {cands.shape[1]} != target dim {target.size}"
        )
    if budget < 1:
        raise ValueError("budget must be >= 1")

    selected: list[int] = []
    weights = np.empty(0)
    residual = target
    norm = float(np.linalg.norm(residual))
    norms: list[float] = []
    while len(selected) < min(budget, len(cands)) and norm > 0:
        dist = np.linalg.norm(cands - residual, axis=1)
        dist[selected] = np.inf
        selected.append(int(np.argmin(dist)))  # first minimum: lowest index
        columns = cands[selected].T
        weights = _solve_ridge(columns, target, lam)
        residual = target - columns @ weights
        norm = float(np.linalg.norm(residual))
        norms.append(norm)
    return Coreset(
        np.asarray(selected, dtype=np.int64),
        np.maximum(weights, 0.0),
        residual_norms=tuple(norms),
    )


def _split_budget(budget: int, class_counts: dict[int, int]) -> dict[int, int]:
    """floor(budget/k) per class, remainder going to the largest classes."""
    classes = sorted(class_counts)
    k = len(classes)
    base = budget // k
    shares = {c: base for c in classes}
    by_size = sorted(classes, key=lambda c: (-class_counts[c], c))
    for c in by_size[: budget % k]:
        shares[c] += 1
    return shares


def labelwise_omp_select(
    chunk: ClientChunk,
    params: ParamVector,
    server_rows: dict[int, np.ndarray],
    budget: int,
    *,
    lam: float,
) -> Coreset:
    """Run one matching-pursuit instance per class the client shares with
    the server, each against that class's broadcast gradient row, with the
    ridge ``lam`` of :func:`omp_select`.

    The budget splits as floor(budget/|shared|) per class with the
    remainder allotted to the largest classes; classes the server did not
    broadcast are skipped and their share flows back into the split.  The
    indices, weights and ``residual_norms`` of the per-class selections are
    concatenated in class order (classes with a zero share contribute
    nothing), so ``residual_norms`` holds each class's residual trace in
    turn.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    labels = chunk.dataset.labels
    present = set(int(c) for c in np.unique(labels))
    shared = sorted(present & set(server_rows))
    if not shared:
        raise ValueError("client and server share no classes")

    stack = last_layer_grad_stack(params, chunk.dataset)
    counts = {c: int((labels == c).sum()) for c in shared}
    shares = _split_budget(budget, counts)

    all_idx: list[np.ndarray] = []
    all_w: list[np.ndarray] = []
    norms: list[float] = []
    for c in shared:
        if shares[c] == 0:
            continue
        local = np.flatnonzero(labels == c)
        sub = omp_select(stack[local, c, :], server_rows[c], shares[c], lam=lam)
        idx = local[sub.indices]
        all_idx.append(idx)
        all_w.append(sub.weights)
        norms.extend(sub.residual_norms)

    indices = np.concatenate(all_idx) if all_idx else np.empty(0, dtype=np.int64)
    weights = np.concatenate(all_w) if all_w else np.empty(0)
    return Coreset(indices, weights, residual_norms=tuple(norms))


def random_select(chunk: ClientChunk, budget: int, seed: int) -> Coreset:
    """Uniform sample without replacement, unit weights.

    A budget above the chunk size is clamped to it, so empty chunks yield
    empty coresets.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    size = min(budget, chunk.n)
    idx = rng.choice(chunk.n, size=size, replace=False) if size else np.empty(0)
    return Coreset(np.sort(idx.astype(np.int64)), np.ones(size))


def _column_coverage(sim: np.ndarray, best: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``np.maximum(sim, best[:, None]).sum(axis=0)[cols]``, bit for bit, in
    O(len(cols) * n) time and one len(cols) x n buffer.

    ``sim`` is exactly symmetric, so row j is column j.  The dense reduction
    over axis 0 of a C-ordered array adds each column's entries in row order;
    ``cumsum`` along the gathered rows adds in that same order, whatever the
    number of rows (a plain ``sum`` along a row would be pairwise).  The
    maximum and the running sums are taken in place in the gathered rows.
    """
    rows = sim[cols]
    np.maximum(rows, best, out=rows)
    np.cumsum(rows, axis=1, out=rows)
    return rows[:, -1]


def _coverage(sim: np.ndarray, best: np.ndarray, block: int = 64) -> np.ndarray:
    """``np.maximum(sim, best[:, None]).sum(axis=0)``, bit for bit, holding
    one ``block`` x n slab of the maximum at a time instead of a second
    n x n array.

    The dense reduction adds each column's rows in order; carrying the
    running sum into the first row of the next slab continues that order.
    """
    acc = None
    for s in range(0, len(best), block):
        slab = np.maximum(sim[s : s + block], best[s : s + block, None])
        if acc is not None:
            slab[0] += acc
        acc = slab.sum(axis=0)
    return acc


def facility_location_select(chunk: ClientChunk, budget: int) -> Coreset:
    """Greedy facility-location maximization on shifted cosine similarity.

    Similarity is (1 + cos(v, s)) / 2 over raw features.  Each pick is the
    argmax, ties to the lowest index, of the gains
    ``np.maximum(sim, best[:, None]).sum(axis=0) - best.sum()`` over the
    unselected candidates, where ``best`` holds each point's similarity to
    its nearest pick so far.  Each selected point's weight is the number of
    ground-set points it represents (their best-similarity selected point,
    earliest selection winning ties).

    The picks are found lazily (Minoux 1978) and equal the dense greedy's
    bit for bit.  A gain is a sum of terms max(sim_ij - best_i, 0) that can
    only fall as ``best`` grows, and each computed gain is within about
    2 n^2 u (u = eps / 2) of the exact one, so a candidate's last computed
    gain plus ``slack`` = 4 n^2 eps bounds its computed gain now.  Each step
    computes the 16 highest stale gains, then every candidate whose bound
    reaches the best gain computed so far, until none is left; the others
    cannot reach the maximum, not even as a tie.  A step that would compute
    more than n / 4 gains computes them all at once, in O(n^2); the first
    step always does, and the next few often do while the stale gains are
    far off.  Later picks usually compute about 16 gains, O(16 n).  The
    n x n similarity matrix sets the memory: the selector peaks at about
    1.2 x 8 n^2 bytes (traced: 9.7 MB at n = 1000, 438 MB at n = 6724).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    n = chunk.n
    if n == 0:
        return Coreset(np.empty(0, dtype=np.int64), np.empty(0))

    feats = chunk.dataset.features
    norms = np.linalg.norm(feats, axis=1)
    unit = feats / np.maximum(norms, 1e-300)[:, None]
    sim = 0.5 * (1.0 + unit @ unit.T)

    size = min(budget, n)
    slack = 4.0 * n * n * np.finfo(np.float64).eps
    first = min(16, n)
    selected: list[int] = []
    best = np.zeros(n)
    # last computed gain of each candidate (inf before the first, -inf once
    # selected): an upper bound on its gain now, up to slack
    stale = np.full(n, np.inf)
    for _ in range(size):
        base = best.sum()
        gains = np.full(n, -np.inf)  # computed this step, -inf elsewhere
        todo = np.argpartition(stale, n - first)[n - first :]
        todo = todo[stale[todo] > -np.inf]
        computed = 0
        while todo.size:
            computed += todo.size
            if computed > n / 4:
                gains = _coverage(sim, best) - base
                gains[selected] = -np.inf
                stale = gains.copy()
                break
            gains[todo] = stale[todo] = _column_coverage(sim, best, todo) - base
            todo = np.flatnonzero((stale + slack >= gains.max()) & (gains == -np.inf))
        j = int(np.argmax(gains))  # argmax ties -> lowest index
        selected.append(j)
        stale[j] = -np.inf
        best = np.maximum(best, sim[:, j])

    # weight = size of the cluster each selected point represents
    sel_sim = sim[:, selected]
    rep = np.argmax(sel_sim, axis=1)  # earliest selected wins ties
    weights = np.bincount(rep, minlength=size).astype(np.float64)
    return Coreset(np.asarray(selected, dtype=np.int64), weights)
