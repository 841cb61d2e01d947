"""Coreset selection: greedy gradient matching plus the two baselines.

The matching-pursuit selector greedily grows a support, at each step adding
the candidate gradient closest to the current residual and re-solving a
ridge least-squares problem over the whole support.  For lambda > 0 that
solve is done in the smaller of the support size k and the gradient length
d: a k x k system while k <= d, and once k > d the d x d system given by
(C^T C + lam I)^-1 C^T = C^T (C C^T + lam I)^-1, so the solve at each pick
costs O(d^3) rather than O(k^3) however large the support grows (cf.
Batch-OMP, Rubinstein, Zibulevsky & Elad 2008).  The residual that drives
selection and stopping comes from the unclipped solve; the nonnegativity
clip is applied to the weights that are returned.  Over the growing
support the ridge objective lam ||w||^2 + ||r||^2 never increases, so at
lambda = 0 neither does the residual norm; at lambda > 0 the residual norm
alone can rise.  Weights only steer selection: local training on a coreset
is unweighted.  The cost ledger meters a refresh as one per-sample gradient
per chunk sample; the pursuit's own arithmetic is not counted.

Label-wise selection (one pursuit per class, as in GRAD-MATCH, Killamsetty
et al. 2021) runs once per refresh round for all of the round's clients:
every client's classes advance together in one lockstep loop.  The classes
are sorted by size and packed into a few zero-padded [classes, rows, d]
candidate pools, a pool taking the next class while its padding stays at
most a quarter of its real rows, so the packed block holds at most 1.25
times the real rows however skewed the classes are.  What no parameter
changes, the (client, class) entries, their packing and each client's
per-label offsets into the block, is a ``SelectionPlan``, which the round
engine keeps while the selecting chunks, their budgets and the broadcast
classes stay the same: once per arm under full participation.  The plan
holds nothing per chunk row.  A refresh computes each client's gradient
rows, scatters them into a fresh block with one assignment per client,
through a map from chunk rows to block rows it builds from the client's
labels, and runs the pursuit.
Each step scores every class's candidates with one matmul per pool,
||c||^2 / 2 - c.r, the expansion of ||c - r||^2 with ||c||^2 cached
(Batch-OMP's trick), and re-solves every class's weights with one stacked
solve.  The expansion rounds differently from the distance itself, so
candidates within its rounding bound of the best score are re-ranked by
||c - r||: the picks are those of the per-class loop with the direct
distance, ties to the lowest index, and the weights are bit for bit that
loop's, whichever classes and clients share the loop.  ``omp_select`` is
the same kernel on one class.

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

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .data import ClientChunk
from .model import ParamVector, PlanCache, own_class_grads
from .model import last_layer_grad_stack  # noqa: F401  perfbench/tracing.py wraps this name

__all__ = [
    "Coreset",
    "omp_select",
    "labelwise_omp_select",
    "SelectionPlan",
    "selection_plan",
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


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ad,ad->a", rows, rows))


def _solve_stacked(supports: np.ndarray, targets: np.ndarray, lam: float) -> np.ndarray:
    """:func:`_solve_ridge` of every stacked support, one [A, k] weight array.

    ``supports[a]`` holds class a's k picked candidates as rows.  For
    lam > 0 one stacked ``np.linalg.solve`` takes the A systems of size
    min(k, d); each system is the one ``_solve_ridge`` builds, and numpy
    runs the stacked matmuls and solves one system at a time, so the
    weights are bit for bit ``_solve_ridge``'s.  lam = 0, or a singular
    system (``LinAlgError``), sends every class of the step through
    ``_solve_ridge``.
    """
    k, d = supports.shape[1:]
    if lam > 0:
        wide = k > d
        flipped = supports.transpose(0, 2, 1)
        gram = flipped @ supports if wide else supports @ flipped
        gram += lam * np.eye(len(gram[0]))
        rhs = targets[:, :, None]
        try:
            x = np.linalg.solve(gram, rhs if wide else supports @ rhs)
        except np.linalg.LinAlgError:
            pass
        else:
            return (supports @ x if wide else x)[..., 0]
    return np.stack([_solve_ridge(s.T, t, lam) for s, t in zip(supports, targets)])


# A pool takes the next class while its zero padding stays at most this
# share of its real rows, so the packed block holds at most 1.25 times them.
_PAD_SHARE = 0.25


def _pack(counts: np.ndarray) -> list[np.ndarray]:
    """The classes of each pool, as indices into ``counts``.

    The classes are sorted by count, largest first (stable), and cut into
    runs: a run takes the next class while the zero rows that pad its
    classes to its first (largest) count stay at most ``_PAD_SHARE`` of
    their real rows.
    """
    order = np.argsort(-counts, kind="stable")
    sizes = counts[order].tolist()
    groups, first, real = [], 0, 0
    for j, n in enumerate(sizes):
        real += n
        if (j + 1 - first) * sizes[first] - real > _PAD_SHARE * real:
            groups.append(order[first:j])
            first, real = j, n
    return groups + [order[first:]] if sizes else groups


def _compact(stack: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """``stack[kept]`` for ascending ``kept``, moved to the front of ``stack``
    in place; returns that prefix as a view, so no copy of the stack is made."""
    for j, a in enumerate(kept.tolist()):
        if j != a:
            stack[j] = stack[a]
    return stack[: len(kept)]


def _kept(x: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``x[keep]``, as a view of ``x`` when the kept rows come first."""
    n = np.count_nonzero(keep)
    return x[:n] if keep[:n].all() else x[keep]


def _matching_pursuits(
    stacks: list[np.ndarray],
    counts: np.ndarray,
    targets: np.ndarray,
    limits: np.ndarray,
    lam: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One matching pursuit per class, all advanced in one loop.

    The A classes are numbered through ``stacks`` in order; stack s is
    [A_s, n_s, d], and class a of it fills rows [0, counts[a]) of its
    block, the rest being zero padding.  Class a matches ``targets[a]``
    with at most ``limits[a]`` <= counts[a] picks.  Each step scores every
    live class's candidates c against its residual r with one matmul per
    stack, s = ||c||^2 / 2 - c.r (half of ||c - r||^2 less the class's
    constant ||r||^2), with ||c||^2 / 2 cached and +inf on padding and
    picked rows.  The pick is the candidate nearest by ||c - r|| itself,
    first minimum (so lowest index) on ties: only candidates whose s lies
    within the rounding bound ``tol`` of the least s can be nearest, and
    where more than one does (duplicate rows, near-ties) they are ranked
    by ||c - r||.  So the bits of s, which depend on the stack a class
    sits in, never choose a pick.  The picked rows go to one support
    buffer, and :func:`_solve_stacked` re-solves the ridge weights of every
    live class at once.  A class drops out at its limit or at an exactly
    zero residual; only its stack is compacted, in place, and a stack
    whose classes are all done leaves the loop.  The stacks are the
    kernel's to overwrite.

    Returns ``(picks, weights, traces, made)``: class a's picks (row
    indices in its block), clipped weights and residual norms after each
    re-solve are ``picks[a, :made[a]]``, ``weights[a, :made[a]]`` and
    ``traces[a, :made[a]]``.

    ``tol`` bounds how far the two orders can disagree.  The computed
    ||c - r||^2 and 2 s are each within gamma (||c|| + ||r||)^2 of their
    exact values, gamma = (d + 4) eps / 2 (the rounding bound of a sum of
    d terms, Higham 2002, plus the few roundings around it), so the
    nearest candidate's s is within 2 gamma (||c|| + ||r||)^2 of the least
    s.  ``tol`` is twice that, with ||c|| the class's largest row norm.
    """
    A, d = targets.shape
    width = int(limits.max(initial=0))
    picks = np.zeros((A, width), dtype=np.int64)
    weights = np.zeros((A, width))
    traces = np.zeros((A, width))
    made = np.zeros(A, dtype=np.int64)
    slack = 2.0 * (d + 4) * np.finfo(np.float64).eps

    # The solve takes the live classes largest limit first: classes leave at
    # their limits, so the ones that stay come first and the support buffer
    # and the other per-class arrays are cut to them, not copied.
    order = np.argsort(-limits, kind="stable")
    rank = np.empty(A, dtype=np.int64)
    rank[order] = np.arange(A)
    # per stack: its live classes' candidates, cached ||c||^2 / 2, row
    # numbers and places in the solve's order
    pools, first = [], 0
    reach = np.empty(A)  # each class's largest row norm
    for cand in stacks:
        at = rank[first : first + len(cand)]
        half = np.einsum("and,and->an", cand, cand)
        half /= 2
        reach[at] = np.sqrt(2 * half.max(axis=1))  # padding rows are zero
        half[np.arange(cand.shape[1]) >= counts[first : first + len(cand), None]] = np.inf
        pools.append((cand, half, np.arange(len(cand)), at))
        first += len(cand)
    live = order
    goal = residual = targets[order]
    norms = _row_norms(goal)
    support = np.empty((A, width, d))
    step = np.empty(A, dtype=np.int64)
    keep = (limits[order] > 0) & (norms > 0)
    k = 0
    while True:
        if not keep.all():
            moved = np.cumsum(keep) - 1  # a kept class's new place
            kept_pools = []
            for cand, half, rows, at in pools:
                kept = np.flatnonzero(keep[at])
                if kept.size == len(cand):
                    kept_pools.append((cand, half, rows, moved[at]))
                elif kept.size:
                    kept_pools.append(
                        (_compact(cand, kept), _compact(half, kept), rows[: kept.size],
                         moved[at[kept]])
                    )
            pools = kept_pools
            live, goal, residual, norms, reach, support, step = (
                _kept(x, keep) for x in (live, goal, residual, norms, reach, support, step)
            )
        if not live.size:
            break
        k += 1
        tol = slack * (reach + norms) ** 2
        for cand, half, rows, at in pools:
            r = residual[at]
            scores = (cand @ r[:, :, None])[..., 0]
            np.subtract(half, scores, out=scores)
            pick = scores.argmin(axis=1)
            best = scores[rows, pick]
            bound = best + tol[at]
            # a class with a second candidate within the bound re-ranks them
            scores[rows, pick] = np.inf
            for a in (np.fmin.reduce(scores, axis=1) <= bound).nonzero()[0]:
                scores[a, pick[a]] = best[a]
                ties = np.flatnonzero(scores[a] <= bound[a])
                dist = np.linalg.norm(cand[a, ties] - r[a], axis=1)
                pick[a] = ties[np.argmin(dist)]  # first minimum: lowest index
            half[rows, pick] = np.inf
            support[at, k - 1] = cand[rows, pick]
            step[at] = pick
        picks[live, k - 1] = step
        chosen = support[:, :k]
        w = _solve_stacked(chosen, goal, lam)
        residual = goal - (chosen.transpose(0, 2, 1) @ w[:, :, None])[..., 0]
        norms = _row_norms(residual)
        weights[live, :k] = w
        traces[live, k - 1] = norms
        made[live] = k
        keep = (k < limits[live]) & (norms > 0)
    np.maximum(weights, 0.0, out=weights)
    return picks, weights, traces, made


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
    This is the kernel of :func:`labelwise_omp_select` run on one class.
    """
    cands = np.atleast_2d(np.asarray(candidate_grads, dtype=np.float64))
    target = np.asarray(target, dtype=np.float64).ravel()
    n = len(cands)
    # one class: the kernel never moves a block, so cands is only read
    picks, weights, traces, made = _matching_pursuits(
        [cands[None]], np.array([n]), target[None], np.array([min(budget, n)]), lam
    )
    m = made[0]
    return Coreset(picks[0, :m], weights[0, :m], residual_norms=tuple(traces[0, :m].tolist()))


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


@dataclass(eq=False)
class SelectionPlan:
    """What a refresh's label-wise selection needs that no parameter
    changes, built by :func:`selection_plan`.  Its entries are the (client,
    broadcast class) pairs with a nonzero share, client-major and in class
    order; the pools hold them in pack order, pool s as the rows of a
    [classes, rows] stack of the packed block, one after another.  Entry
    e's rows are its class's rows of its chunk in ascending order, which
    are the chunk's rows ``offsets[e]`` onward in label order
    (:func:`_label_order`).  The plan keeps nothing per chunk row: each
    call sorts a chunk's labels to map its rows to block rows and back."""

    classes: tuple[int, ...]  # the broadcast classes, ascending
    pools: list[tuple[int, int]]  # each pool's classes and rows
    rows: int  # the packed block's rows; one more, the last, takes the rows of no entry
    rank: np.ndarray  # each entry's place in pack order
    counts: np.ndarray  # in pack order: each entry's rows,
    limits: np.ndarray  # its pick limit, min(share, rows),
    place: np.ndarray  # and its class's place in classes
    offsets: np.ndarray  # each entry's first row in its chunk's label order
    bounds: np.ndarray  # client i's entries are [bounds[i], bounds[i + 1])
    sizes: list[np.ndarray]  # each client's rows per label,
    leads: list[np.ndarray]  # and per label, its first block row less its offset in label order


def selection_plan(
    chunks: Sequence[ClientChunk], budgets: Sequence[int], classes: Sequence[int]
) -> SelectionPlan:
    """The plan of selecting each chunk's coreset, at most its ``budgets``
    entry (>= 1) of samples, against the server rows of ``classes``; every
    chunk shares one of them.  A client's budget splits as
    floor(budget/|shared|) per shared class, the remainder to its largest
    classes.  The entries are packed into pools by :func:`_pack`."""
    classes = tuple(sorted(classes))
    place = {c: i for i, c in enumerate(classes)}
    bounds, counts, limits, places, owned = [0], [], [], [], []
    for chunk, budget in zip(chunks, budgets):
        sizes = np.bincount(chunk.dataset.labels)  # np.unique imports numpy.ma
        shared = {c: n for c, n in enumerate(sizes.tolist()) if n and c in place}
        split = _split_budget(budget, shared)
        mine = [c for c in shared if split[c]]
        owned.append((sizes, mine))
        counts += [shared[c] for c in mine]
        limits += [min(split[c], shared[c]) for c in mine]
        places += [place[c] for c in mine]
        bounds.append(len(counts))
    counts = np.array(counts, dtype=np.int64)
    groups = _pack(counts)
    order = np.concatenate([np.empty(0, dtype=np.int64), *groups])
    pools = [(len(g), int(counts[g[0]])) for g in groups]
    # in pack order each entry takes its pool's rows of the block
    widths = np.repeat([n for _, n in pools], [a for a, _ in pools]).astype(np.int64)
    starts = np.empty(len(counts), dtype=np.int64)
    starts[order] = np.cumsum(widths) - widths
    rows = int(widths.sum())
    rank = np.empty(len(counts), dtype=np.int64)
    rank[order] = np.arange(len(counts))
    offsets = np.concatenate([(np.cumsum(sizes) - sizes)[mine] for sizes, mine in owned])
    leads = []
    for (sizes, mine), lo, hi in zip(owned, bounds, bounds[1:]):
        lead = np.full(len(sizes), rows, dtype=np.int64)
        lead[mine] = starts[lo:hi] - offsets[lo:hi]
        leads.append(lead)
    return SelectionPlan(
        classes, pools, rows, rank, counts[order], np.array(limits, dtype=np.int64)[order],
        np.array(places, dtype=np.int64)[order], offsets, np.array(bounds),
        [sizes for sizes, _ in owned], leads,
    )


def _label_order(chunk: ClientChunk, sizes: np.ndarray) -> np.ndarray:
    """A chunk's rows in label order, ascending within a label; ``sizes``
    counts its rows per label."""
    # a stable sort of an integer type of 16 bits or fewer is a radix sort
    return np.argsort(chunk.dataset.labels.astype(np.min_scalar_type(len(sizes))), kind="stable")


def labelwise_omp_select(
    chunks: Sequence[ClientChunk],
    params: ParamVector,
    server_rows: dict[int, np.ndarray],
    budgets: Sequence[int],
    *,
    lam: float,
    cache: PlanCache,
) -> list[Coreset]:
    """Select the coreset of every client of a refresh round: one
    matching-pursuit instance per class a client shares with the server,
    each against that class's broadcast gradient row, with the ridge
    ``lam`` of :func:`omp_select`.  Returns one coreset per chunk, in the
    order of ``chunks``, each with at most its ``budgets`` entry (>= 1)
    of samples; every chunk shares a class with ``server_rows``.

    A sample's candidate row is its own-class output-layer gradient
    (:func:`~fedcoreset.model.own_class_grads`).  A client's budget splits
    as floor(budget/|shared|) per class with the remainder allotted to its
    largest classes; classes the server did not broadcast are skipped and
    their share flows back into the split.  All the round's classes, every
    client's, advance together, one pick each per step
    (:func:`_matching_pursuits`), packed into a few zero-padded [classes,
    rows, h+1] pools (:func:`_pack`).

    What no parameter changes is a :class:`SelectionPlan`, kept in the
    ``"selection"`` slot of ``cache`` while the chunks, compared by
    identity, and their budgets and the broadcast classes, by value, stay
    the same (:meth:`~fedcoreset.model.PlanCache.keep`).  A call computes
    each client's gradient rows with its own product (a product's bits
    depend on how its rows are batched), scatters them into a fresh zeroed
    block with one assignment per client and runs the pursuit, which drops
    the entries whose server row is zero, so the plan never depends on the
    rows' values.  The maps between chunk rows and block rows are the
    call's own, one chunk at a time, from a sort of its labels.

    Each class's picks, weights and residual trace equal those of
    :func:`omp_select` on that class alone, so a client's coreset is the
    same whichever clients are selected with it.  A client's indices,
    weights and ``residual_norms`` are its per-class selections
    concatenated in class order (classes with a zero share contribute
    nothing), so ``residual_norms`` holds each class's residual trace in
    turn.
    """
    if not chunks:
        return []
    classes = sorted(server_rows)
    plan = cache.keep("selection", lambda: selection_plan(chunks, budgets, classes),
                      same=tuple(chunks), equal=(tuple(budgets), tuple(classes)))
    targets = np.array([server_rows[c] for c in plan.classes], dtype=np.float64)
    targets = targets.take(plan.place, axis=0)
    d = targets.shape[1]
    block = np.zeros((plan.rows + 1, d))
    for chunk, sizes, lead in zip(chunks, plan.sizes, plan.leads):
        to = np.repeat(lead, sizes)  # rows in label order to block rows,
        to += np.arange(len(to))
        np.minimum(to, plan.rows, out=to)  # the rows of no entry to the last
        dest = np.empty_like(to)
        dest[_label_order(chunk, sizes)] = to
        block[dest] = own_class_grads(params, chunk.dataset)
    # the pools are views of one block, so freeing them leaves one hole in
    # the heap for later allocations, not one per pool
    ends = np.cumsum([a * n for a, n in plan.pools])
    stacks = [x.reshape(a, n, d) for x, (a, n) in zip(np.split(block, ends), plan.pools)]
    del block
    found = _matching_pursuits(stacks, plan.counts, targets, plan.limits, lam)
    del stacks

    # back to entry order, each client's picks one run of the flat arrays
    picks, weights, traces, made = (x[plan.rank] for x in found)
    taken = np.arange(picks.shape[1]) < made[:, None]
    picks += plan.offsets[:, None]  # places in the chunk's label order
    places, weights, traces = picks[taken], weights[taken], traces[taken].tolist()
    cuts = np.concatenate([[0], np.cumsum(made)])[plan.bounds].tolist()
    return [
        Coreset(_label_order(chunk, sizes)[places[lo:hi]], weights[lo:hi],
                residual_norms=tuple(traces[lo:hi]))
        for chunk, sizes, lo, hi in zip(chunks, plan.sizes, cuts, cuts[1:])
    ]


def random_select(chunk: ClientChunk, budget: int, seed: int) -> Coreset:
    """Uniform sample without replacement of ``budget`` rows, unit weights,
    for 1 <= budget <= chunk.n."""
    idx = np.random.default_rng(seed).choice(chunk.n, size=budget, replace=False)
    return Coreset(np.sort(idx), np.ones(budget))


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
    earliest selection winning ties).  Takes ``budget >= 1``, ``n >= 1``.

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
    n = chunk.n
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
