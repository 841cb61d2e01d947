"""The round's scoring pass (``fedcoreset.scoring``) against the plain
oracle: each round's train loss and test accuracy bit for bit those of
``reference._train_loss`` and a class-major argmax over the same products,
and the memory the pass and its world may use."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fedcoreset.scoring as scoring_module
from fedcoreset import federation
from fedcoreset.config import DatasetConfig, ExperimentConfig, ModelConfig
from fedcoreset.data import NOISE_KINDS, Dataset, NoiseSpec
from fedcoreset.errors import ConfigurationError
from fedcoreset.federation import prepare_experiment
from fedcoreset.model import ARCHS, PlanCache, init_params
from fedcoreset.scoring import loss
from reference import _train_loss, chunk_losses, class_major_logits

def oracle_accuracy(params, test) -> float:
    """The argmax of the test set's class-major logits, ties to the lowest
    class and class 0 where the largest logit is NaN or infinite."""
    z = class_major_logits(params, test.features)
    pred = np.argmax(z, axis=0)
    pred[~np.isfinite(z[pred, np.arange(test.n)])] = 0
    return float(np.mean(pred == test.labels))


def scored_means(params, datasets, test, cache):
    """``loss`` of ``datasets`` and ``test`` and each scored dataset's mean
    in it."""
    means, one_pass = [], scoring_module._pass_means

    def spy(z, p):
        got = one_pass(z, p)
        means.extend(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scoring_module, "_pass_means", spy)
        return loss(params, datasets, test, cache=cache), means


@st.composite
def scored_worlds(draw):
    """A world of every noise kind, with skewed partitions that leave empty
    and one-row chunks, some of 8 or more classes, under full or partial
    participation; a small row bound for the passes; and parameters that
    may overflow the logits or hold a NaN."""
    num_clients = draw(st.integers(1, 9))
    cfg = ExperimentConfig(
        dataset=DatasetConfig(num_blobs=draw(st.one_of(st.integers(2, 4), st.integers(8, 11))),
                              dim=draw(st.integers(1, 6)),
                              samples_per_blob=draw(st.integers(3, 40))),
        noise=NoiseSpec(draw(st.sampled_from(NOISE_KINDS)), draw(st.sampled_from((0.2, 0.5))), 2.0),
        model=ModelConfig(draw(st.sampled_from(ARCHS)), draw(st.integers(1, 6))),
        num_clients=num_clients,
        clients_per_round=draw(st.one_of(st.none(), st.integers(1, num_clients))),
        dirichlet_alpha=draw(st.sampled_from((0.05, 0.2, 1.0, 100.0))),
        val_frac=0.1,
        test_frac=draw(st.sampled_from((0.1, 0.3))),
        seed=draw(st.integers(0, 10_000)),
    )
    block = draw(st.one_of(st.none(), st.integers(1, 60)))
    scale = draw(st.sampled_from((0.3, 1.0, 3.0, 1e306)))
    poison = draw(st.sampled_from((None, np.nan, np.inf)))
    return cfg, block, scale, poison


def check_rounds(cfg, block, scale, poison, reached):
    try:
        prepared = prepare_experiment(cfg)
    except ConfigurationError:
        assume(False)
    chunks, test = prepared.chunks, prepared.test
    params = init_params(cfg.model, test.dim, test.num_classes, seed=cfg.seed)
    params.values[:] = np.random.default_rng(cfg.seed).normal(scale=scale, size=params.values.size)
    if poison is not None:
        params.blocks()[1][-1, 0] = poison
    cache = PlanCache()
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        if block is not None:
            patch.setattr(scoring_module, "LOSS_BLOCK", block)
        for t in range(3):
            sampled = federation._sample(cfg, len(chunks), t)
            ids = [c for c in sampled if chunks[c].n]
            scored = [chunks[c].dataset for c in ids]
            (mean, accuracy), means = scored_means(params, scored, test, cache)
            plan = cache.plans["scoring"]
            # each chunk's mean, as the weighting can hide an ulp of a small one's
            assert [m.hex() for m in means] == [m.hex() for m in chunk_losses(params, chunks, sampled)]
            assert float(mean).hex() == _train_loss(params, chunks, sampled).hex()
            assert accuracy == oracle_accuracy(params, test)

            reached["no scored chunk"] += not scored
            reached["one-row chunk"] += any(ds.n == 1 for ds in scored)
            reached["one-row chunk of 8 or more classes"] += any(
                ds.n == 1 and ds.num_classes >= 8 for ds in scored)
            reached["empty chunk sampled"] += len(scored) < len(sampled)
            reached["adjacent sampled chunks"] += any(
                not any(chunks[b].n for b in range(a + 1, c)) for a, c in zip(ids, ids[1:]))
            reached["several passes"] += len(plan.passes) > 1
            reached["non-finite logits"] += not np.isfinite(class_major_logits(params, test.features)).all()
            reached["partial participation"] += len(sampled) < len(chunks)
    reached[cfg.noise.kind] += 1
    reached[cfg.model.arch] += 1
    reached["8 or more classes"] += test.num_classes >= 8


# one hand-picked world pins the cases whose reach turns on Hypothesis's
# draws: seed 5's Dirichlet(0.05) split of 8 classes gives chunks of 2, 4,
# 0, 1, 0, 0, 1, 8 and 8 rows, round 0 samples clients 0, 3, 7 and 8 (7 and
# 8 adjacent in the partition's table, and each a pass of its own under
# the row bound of 4), once with finite logits (where a one-row chunk sums
# its classes otherwise in a wider pass) and once with the NaN poisoning
# every logit of the last class; one client a round, round 2 samples only
# the empty client 4
EDGE = ExperimentConfig(
    dataset=DatasetConfig(num_blobs=8, dim=3, samples_per_blob=6),
    noise=NoiseSpec("attribute", 0.5, 2.0), model=ModelConfig("one_hidden", 4),
    num_clients=9, clients_per_round=4, dirichlet_alpha=0.05, val_frac=0.1, test_frac=0.3, seed=5,
)

# chunks of 5, 1, 5, 4 and 5 rows: one product over the one-row chunk 1
# and its neighbours in the partition's table moves chunk 1's mean by an
# ulp against the product of its row alone
ADJACENT = ExperimentConfig(
    dataset=DatasetConfig(num_blobs=2, dim=2, samples_per_blob=13),
    model=ModelConfig("one_hidden", 7), num_clients=5, dirichlet_alpha=1.0, seed=233,
)


class TestScoringPlan:
    def test_each_round_equals_the_reference(self):
        reached = Counter()

        # derandomized: the same worlds on every run keep tier-1 reproducible
        @given(world=scored_worlds())
        @example(world=(EDGE, 4, 1.0, None))
        @example(world=(EDGE, 4, 3.0, np.nan))
        @example(world=(replace(EDGE, clients_per_round=1), None, 3.0, None))
        @settings(max_examples=60, deadline=None, derandomize=True)
        def every_round_equals_the_reference(world):
            check_rounds(*world, reached)

        every_round_equals_the_reference()
        cases = ["no scored chunk", "one-row chunk of 8 or more classes", "empty chunk sampled",
                 "adjacent sampled chunks",
                 "several passes", "non-finite logits", "partial participation",
                 "8 or more classes", *NOISE_KINDS, *ARCHS]
        assert all(reached[case] for case in cases), reached

    @pytest.mark.parametrize("cfg", [EDGE, ADJACENT], ids=["edge", "adjacent"])
    def test_a_chunk_scores_as_in_its_own_plan(self, cfg):
        """Each sampled chunk's mean is bit for bit that of its own plan,
        ``scoring_plan([ds], test)``, whichever chunks are sampled beside
        it: every set of the non-empty chunks is scored."""
        prepared = prepare_experiment(cfg)
        chunks, test = prepared.chunks, prepared.test
        params = init_params(cfg.model, test.dim, test.num_classes, seed=cfg.seed)
        params.values[:] = np.random.default_rng(cfg.seed).normal(size=params.values.size)
        ids = [c for c, chunk in enumerate(chunks) if chunk.n]
        own = {c: scored_means(params, [chunks[c].dataset], test, PlanCache())[1][0].hex()
               for c in ids}
        for k in range(2, len(ids) + 1):
            for sample in combinations(ids, k):
                scored = [chunks[c].dataset for c in sample]
                means = scored_means(params, scored, test, PlanCache())[1]
                assert [m.hex() for m in means] == [own[c] for c in sample]

    def test_no_datasets(self):
        params = init_params(ModelConfig(), 3, 2, seed=0)
        params.values[:] = 0.0  # equal logits: every test sample is predicted class 0
        test = Dataset(np.ones((4, 3)), np.array([0, 1, 1, 0]), 2)
        mean, accuracy = loss(params, (), test, cache=PlanCache())
        assert np.isnan(mean) and accuracy == 0.5


class TestNoCopy:
    @pytest.mark.parametrize("kind", NOISE_KINDS)
    def test_chunks_are_consecutive_views_of_one_table(self, kind):
        cfg = ExperimentConfig(dataset=DatasetConfig(num_blobs=5, dim=4, samples_per_blob=40),
                               noise=NoiseSpec(kind, 0.4, 3.0), num_clients=7,
                               dirichlet_alpha=0.1, seed=2)
        chunks = prepare_experiment(cfg).chunks
        table = chunks[0].dataset.features.base
        assert table is not None and len(table) == sum(chunk.n for chunk in chunks)
        start = 0
        for chunk in chunks:
            rows = chunk.dataset.features
            assert rows.base is table
            assert chunk.n == 0 or np.shares_memory(rows, table)
            assert np.array_equal(rows, table[start : start + chunk.n])
            start += chunk.n
        if kind == "attribute":
            clean = prepare_experiment(ExperimentConfig(**{**cfg.__dict__, "noise": NoiseSpec()}))
            moved = [not np.array_equal(a.dataset.features, b.dataset.features)
                     for a, b in zip(chunks, clean.chunks)]
            assert any(moved)

    @pytest.mark.parametrize("arch, hidden", [("softmax_regression", 0), ("one_hidden", 5)])
    def test_a_pass_holds_its_logits_and_row_vectors_only(self, arch, hidden):
        """One scoring call of a round over a kept plan allocates at most
        its largest pass's ``[classes, rows]`` logits, a few per-row vectors
        of it and a dataset's hidden activations: never a copy of the rows,
        which at dim 60 would be larger than all of them."""
        cfg = ExperimentConfig(dataset=DatasetConfig(num_blobs=3, dim=60, samples_per_blob=900),
                               model=ModelConfig(arch, hidden), num_clients=6, seed=4)
        prepared = prepare_experiment(cfg)
        scored = [chunk.dataset for chunk in prepared.chunks if chunk.n]
        params, cache = init_params(cfg.model, 60, 3, seed=0), PlanCache()
        loss(params, scored, prepared.test, cache=cache)  # builds the kept plan
        plan = cache.plans["scoring"]
        table = prepared.chunks[0].dataset.features.base
        assert all(np.shares_memory(x, table) for p in plan.passes for x, _ in p.parts
                   if x is not prepared.test.features)
        tracemalloc.start()
        loss(params, scored, prepared.test, cache=cache)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        cols = max(p.cols for p in plan.passes)
        rows = max(len(x) for p in plan.passes for x, _ in p.parts)
        assert peak <= 8 * (cols * (3 + 6) + rows * hidden) + 16384
