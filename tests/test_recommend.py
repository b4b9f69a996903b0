import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamper.corpus import FeatureCatalog
from pamper.errors import (
    InvalidValueError,
    PamperError,
    UnknownMethodError,
    VectorWidthMismatchError,
)
from pamper import recommend
from pamper.recommend import (
    ModelArena,
    Recommendation,
    as_vector,
    batch_rank_method,
    batch_why_method,
    rank_method,
    render_explanation,
    render_rank,
    render_recommendation,
    which_method,
    why_method,
    write_which,
)
from pamper.trees import Internal, Leaf, ModelSet

from oracles import (
    random_model,
    ranking,
    reference_which_text,
    reference_why,
    top_k_by_argsort,
    walk_tree,
)


def _hand_model():
    trees = {
        "simp": Internal(0, Leaf(0.2, 5), Leaf(0.9, 5)),
        "auto": Leaf(0.4119, 7),
        "blast": Leaf(0.05, 3),
    }
    return ModelSet(2, trees, max_depth=1)


def test_as_vector_rejections():
    with pytest.raises(ValueError):
        as_vector([[1, 0]])
    with pytest.raises(ValueError):
        as_vector([0, 2, 1])
    with pytest.raises(ValueError, match="0 or 1"):
        as_vector(np.array([256, 1]))  # would wrap to 0 as uint8
    with pytest.raises(ValueError, match="0 or 1"):
        as_vector([0.5, 1.0])
    assert as_vector([True, False, 1.0]).tolist() == [1, 0, 1]


@pytest.mark.parametrize("bad", [[2, 0], [-1, 0]], ids=["two", "minus-one"])
def test_which_rejects_entries_other_than_0_and_1(bad):
    with pytest.raises(ValueError, match="0 or 1"):
        which_method(_hand_model(), np.array(bad, dtype=np.int64))


def test_which_ordering_and_name_ties():
    trees = {
        "auto": Leaf(0.5, 1),
        "blast": Leaf(0.5, 1),
        "simp": Leaf(0.9, 1),
        "zap": Leaf(0.1, 1),
    }
    model = ModelSet(1, trees, max_depth=1)
    rec = which_method(model, [0], k=4)
    assert [name for name, _ in rec.ranked] == ["simp", "auto", "blast", "zap"]
    assert rec.total_methods == 4


def test_which_truncation_and_prefix():
    model = _hand_model()
    full = which_method(model, [1, 0], k=10)
    assert [name for name, _ in full.ranked] == ["simp", "auto", "blast"]
    short = which_method(model, [1, 0], k=2)
    assert short.ranked == full.ranked[:2]
    assert short.total_methods == 3
    with pytest.raises(ValueError):
        which_method(model, [1, 0], k=0)


def test_queries_check_vector_width():
    with pytest.raises(VectorWidthMismatchError):
        which_method(_hand_model(), [1], k=1)
    with pytest.raises(VectorWidthMismatchError):
        rank_method(_hand_model(), [1, 0, 0], "auto")
    with pytest.raises(VectorWidthMismatchError):
        why_method(_hand_model(), [1], "simp")


# Leaves drawn from three values make most rankings hold ties broken by name.
TIED = pytest.mark.parametrize("values", [None, (0.0, 0.5, 1.0)], ids=["uniform", "ties"])


@TIED
def test_rank_consistent_with_full_ranking(values):
    rng = np.random.default_rng(23)
    for _ in range(60):
        model = random_model(rng, values=values)
        v = rng.integers(0, 2, model.feature_count).astype(np.uint8)
        full = which_method(model, v, k=len(model.trees))
        assert list(full.ranked) == ranking(model, v.tolist())
        for pos, (name, _) in enumerate(full.ranked):
            rank, total = rank_method(model, v, name)
            assert rank == pos + 1
            assert total == len(model.trees)


def test_why_path_matches_oracle_walk():
    rng = np.random.default_rng(31)
    for _ in range(60):
        model = random_model(rng)
        v = rng.integers(0, 2, model.feature_count).astype(np.uint8)
        for name, tree in model.trees.items():
            expl = why_method(model, v, name)
            assert expl.expectation == walk_tree(tree, v.tolist())
            node = tree
            for step in expl.steps:
                assert step.feature == node.feature
                assert step.value is bool(v[node.feature])
                node = node.when_true if step.value else node.when_false
            assert isinstance(node, Leaf)


def test_rank_unknown_method():
    with pytest.raises(UnknownMethodError, match="unknown method: zap"):
        rank_method(_hand_model(), [1, 0], "zap")


def _catalog14():
    return FeatureCatalog({14: "the context has locally defined assumptions"})


def test_why_negated_sentence():
    trees = {"simp": Internal(14, Leaf(0.1, 3), Leaf(0.7, 3))}
    model = ModelSet(15, trees, _catalog14(), max_depth=1)
    expl = why_method(model, [0] * 15, "simp")
    assert expl.steps == (
        (14, False, "the context has locally defined assumptions"),
    )
    assert expl.expectation == 0.1
    assert render_explanation(expl) == (
        "Because it is not true that the context has locally defined assumptions."
    )


def test_why_positive_sentence():
    trees = {"simp": Internal(14, Leaf(0.1, 3), Leaf(0.7, 3))}
    model = ModelSet(15, trees, _catalog14(), max_depth=1)
    v = [0] * 15
    v[14] = 1
    expl = why_method(model, v, "simp")
    assert expl.steps[0].value is True
    assert expl.expectation == 0.7
    assert render_explanation(expl) == (
        "Because the context has locally defined assumptions."
    )


def test_why_multi_step_path_order():
    tree = Internal(0, Leaf(0.0, 1), Internal(2, Leaf(0.3, 1), Leaf(0.8, 1)))
    model = ModelSet(3, {"m": tree}, max_depth=2)
    expl = why_method(model, [1, 0, 0], "m")
    assert [s.feature for s in expl.steps] == [0, 2]
    assert [s.value for s in expl.steps] == [True, False]
    assert render_explanation(expl) == (
        "Because feature #0 holds.\n"
        "Because it is not true that feature #2 holds."
    )


def test_why_leaf_only_baseline():
    model = ModelSet(4, {"auto": Leaf(0.4119, 7)}, max_depth=1)
    expl = why_method(model, [0, 0, 0, 0], "auto")
    assert expl.steps == ()
    assert render_explanation(expl) == (
        "No branching features; baseline expectation 0.4119."
    )


def test_why_unknown_method():
    with pytest.raises(UnknownMethodError):
        why_method(_hand_model(), [1, 0], "zap")


def test_render_recommendation_golden():
    rec = which_method(_hand_model(), [1, 0], k=15)
    assert render_recommendation(rec) == (
        "Promising methods for this proof goal are:\n"
        "  simp with expectation of 0.9000\n"
        "  auto with expectation of 0.4119\n"
        "  blast with expectation of 0.05000"
    )


def test_render_rank_golden():
    rank, total = rank_method(_hand_model(), [1, 0], "simp")
    assert render_rank("simp", rank, total) == "simp 1 out of 3"


def _random_batch(rng, model, max_rows: int = 12):
    rows = int(rng.integers(1, max_rows + 1))
    return rng.integers(0, 2, (rows, model.feature_count)).astype(np.uint8)


def test_arena_expectations_match_oracle_walk():
    rng = np.random.default_rng(37)
    for _ in range(60):
        model = random_model(rng)
        arena = ModelArena(model)
        V = _random_batch(rng, model)
        E = arena.expectations(V)
        assert E.shape == (V.shape[0], len(model.trees))
        for i in range(V.shape[0]):
            for t, name in enumerate(arena.names):
                assert E[i, t] == walk_tree(model.trees[name], V[i].tolist())


@TIED
def test_arena_batch_which_matches_oracle_ranking(values):
    rng = np.random.default_rng(41)
    for _ in range(40):
        model = random_model(rng, values=values)
        arena = ModelArena(model)
        V = _random_batch(rng, model)
        k = int(rng.integers(1, len(model.trees) + 3))
        got = arena.batch_which(V, k=k)
        for i, rec in enumerate(got):
            want = ranking(model, V[i].tolist())
            assert rec == Recommendation(tuple(want[:k]), len(want))


@TIED
def test_arena_batch_rank_matches_oracle_ranking(values):
    rng = np.random.default_rng(43)
    for _ in range(40):
        model = random_model(rng, values=values)
        arena = ModelArena(model)
        col_of = {name: i for i, name in enumerate(arena.names)}
        V = _random_batch(rng, model)
        picks = [arena.names[int(rng.integers(0, len(arena.names)))] for _ in V]
        cols = np.asarray([col_of[name] for name in picks])
        ranks = arena.batch_rank(V, cols)
        for i, name in enumerate(picks):
            want = [method for method, _ in ranking(model, V[i].tolist())]
            assert ranks[i] == 1 + want.index(name)


def test_arena_batch_rank_checks_method_cols():
    # A negative column once wrapped to a method at the far end, and one
    # column for two rows broadcast that method over both.
    arena = ModelArena(_hand_model())
    one, two = np.zeros((1, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8)
    bad = [
        (one, [-1]), (one, [-3]), (one, [3]), (two, [0]), (two, [0, 1, 2]),
        (two, [[0], [1]]), (two, [0.0, 1.0]), (two, [True, False]),
    ]
    for V, cols in bad:
        with pytest.raises(ValueError, match="method_cols"):
            arena.batch_rank(V, np.asarray(cols))
    # Names order auto, blast, simp; a zero vector ranks auto, simp, blast.
    assert arena.batch_rank(two, np.array([0, 2])).tolist() == [1, 2]
    assert arena.batch_rank(one, np.array([1], dtype=np.uint8)).tolist() == [3]
    none = np.zeros((0, 2), dtype=np.uint8)
    assert arena.batch_rank(none, np.array([], dtype=int)).tolist() == []


@pytest.mark.parametrize("error", [InvalidValueError, PamperError, ValueError])
def test_arena_batch_which_admits_only_a_positive_integer_k(error):
    arena = ModelArena(_hand_model())
    V = np.zeros((2, 2), dtype=np.uint8)
    for k in (2.5, 0, True):
        with pytest.raises(error, match=f"k must be a positive integer, got {k!r}"):
            arena.batch_which(V, k)
    assert len(arena.batch_which(V, np.int64(2))[0].ranked) == 2


def test_arena_width_mismatch():
    arena = ModelArena(_hand_model())
    with pytest.raises(VectorWidthMismatchError):
        arena.expectations(np.zeros((2, 3), dtype=np.uint8))
    with pytest.raises(ValueError):
        arena.expectations(np.zeros(2, dtype=np.uint8))
    # The batch queries check the whole matrix before their block loop,
    # which a 0-row matrix never enters.
    queries = (
        arena.expectations,
        lambda V: arena.batch_which(V, k=2),
        lambda V: arena.batch_rank(V, np.zeros(len(V), dtype=int)),
    )
    for query in queries:
        with pytest.raises(VectorWidthMismatchError):
            query(np.zeros((0, 3), dtype=np.uint8))
        with pytest.raises(ValueError, match="0 or 1"):
            query(np.array([[0, 1], [1, 2]]))


def _two_tree_model():
    # Tree "a" sits in slot 0 and tree "b" in slot 1; a's children follow.
    return ModelSet(
        2, {"a": Internal(0, Leaf(0.25, 1), Leaf(0.75, 1)), "b": Leaf(0.1, 1)}, max_depth=1
    )


def test_arena_rejects_entry_2():
    # A 2 once stepped to child[2*slot + 2], the next slot's child.
    arena = ModelArena(_two_tree_model())
    with pytest.raises(ValueError, match="0 or 1"):
        arena.expectations(np.array([[2, 0]]))
    assert arena.expectations(np.array([[1, 0]])).tolist() == [[0.75, 0.1]]


def test_arena_rejects_entry_minus_one():
    # An int64 -1 once wrapped to 255 as uint8 and indexed past the table.
    arena = ModelArena(_two_tree_model())
    with pytest.raises(ValueError, match="0 or 1"):
        arena.expectations(np.array([[-1, 0]], dtype=np.int64))


def test_arena_k_below_one():
    arena = ModelArena(_hand_model())
    with pytest.raises(ValueError):
        arena.batch_which(np.zeros((1, 2), dtype=np.uint8), k=0)


def test_arena_columns_are_name_sorted():
    arena = ModelArena(_hand_model())
    assert arena.names == ["auto", "blast", "simp"]
    assert arena.table[3] == 1


def test_arena_across_row_blocks():
    # Row counts around the block size, plus an empty batch, all agree with
    # a plain walk of each tree, float for float, and with its ranking.
    rng = np.random.default_rng(47)
    model = random_model(rng, max_methods=8, max_features=12)
    arena = ModelArena(model)
    block = recommend._BLOCK_ROWS
    for rows in (0, 1, block - 1, block, block + 1, 2 * block + 3):
        V = rng.integers(0, 2, (rows, model.feature_count)).astype(np.uint8)
        E = arena.expectations(V)
        assert E.shape == (rows, len(model.trees))
        want = np.array(
            [[walk_tree(model.trees[name], row) for name in arena.names] for row in V]
        ).reshape(rows, len(model.trees))
        assert np.array_equal(E.view(np.uint64), want.view(np.uint64))
        assert [rec.ranked for rec in arena.batch_which(V, k=3)] == [
            tuple(ranking(model, row)[:3]) for row in V
        ]
        cols = rng.integers(0, len(arena.names), rows)
        assert arena.batch_rank(V, cols).tolist() == [
            1 + [name for name, _ in ranking(model, row)].index(arena.names[col])
            for row, col in zip(V, cols)
        ]


def test_batch_queries_hand_expectations_one_block_at_a_time(monkeypatch):
    rng = np.random.default_rng(53)
    model = random_model(rng, max_methods=8, max_features=12)
    arena = ModelArena(model)
    block = recommend._BLOCK_ROWS
    seen = []
    expectations = ModelArena.expectations

    def recording(self, matrix):
        seen.append(len(matrix))
        return expectations(self, matrix)

    monkeypatch.setattr(ModelArena, "expectations", recording)
    rows = 2 * block + 3
    V = rng.integers(0, 2, (rows, model.feature_count)).astype(np.uint8)
    for query in (
        lambda: arena.batch_which(V, k=3),
        lambda: arena.batch_rank(V, np.zeros(rows, dtype=int)),
    ):
        seen.clear()
        query()
        assert max(seen) <= block
        assert sum(seen) == rows


def test_arena_steps_only_as_deep_as_the_trees():
    model = ModelSet(
        3,
        {"a": Internal(2, Leaf(0.25, 1), Internal(0, Leaf(0.5, 1), Leaf(0.75, 1))),
         "b": Leaf(0.125, 4)},
        max_depth=9,
    )
    arena = ModelArena(model)
    assert arena.table[3] == 2
    E = arena.expectations(np.array([[0, 0, 0], [1, 0, 1], [0, 1, 1]], dtype=np.uint8))
    assert E.tolist() == [[0.25, 0.125], [0.75, 0.125], [0.5, 0.125]]


def test_arena_of_an_empty_model():
    arena = ModelArena(ModelSet(2, {}))
    assert arena.expectations(np.zeros((3, 2), dtype=np.uint8)).shape == (3, 0)


def test_arenas_share_the_models_table_and_cannot_change_it():
    rng = np.random.default_rng(59)
    model = random_model(rng)
    first, second = ModelArena(model), ModelArena(model)
    feature, child, value, _ = first.table
    for array, written in ((value, 1.0), (child, 0), (feature, 0)):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = written
    assert first.table is second.table is model.table
    V = _random_batch(rng, model)
    assert second.expectations(V).tolist() == [
        [walk_tree(model.trees[name], row) for name in second.names] for row in V.tolist()
    ]
    assert [rec.ranked for rec in second.batch_which(V, k=len(second.names))] == [
        tuple(ranking(model, row)) for row in V.tolist()
    ]


# A few levels per matrix, -0.0 among them, make most rows tie across the k-th value.
LEVELS = st.lists(
    st.sampled_from((0.0, -0.0, 0.05, 0.5, 1.0)) | st.floats(0.0, 1.0), min_size=1, max_size=4
)


@settings(max_examples=300, deadline=None)
@given(
    levels=LEVELS,
    shape=st.tuples(st.integers(1, 9), st.integers(1, 14)),
    data=st.data(),
)
def test_top_k_matches_the_stable_argsort(levels, shape, data):
    picks = data.draw(
        st.lists(st.integers(0, len(levels) - 1), min_size=shape[0] * shape[1],
                 max_size=shape[0] * shape[1])
    )
    E = np.array(levels, dtype=np.float64)[np.array(picks).reshape(shape)]
    k = data.draw(st.integers(1, shape[1]))
    columns, values = recommend._top_k(E, k)
    want_columns, want_values = top_k_by_argsort(E, k)
    assert np.array_equal(columns, want_columns)
    assert np.array_equal(values.view(np.uint64), want_values.view(np.uint64))


def _signed_zero_model():
    # Equal leaves around the k-th place, and a -0.0 leaf that prints apart from 0.0.
    trees = {
        "a": Leaf(0.0, 2), "b": Leaf(-0.0, 2), "c": Internal(0, Leaf(0.5, 1), Leaf(-0.0, 1)),
        "d": Leaf(0.5, 4), "e": Internal(1, Leaf(0.0, 1), Leaf(0.5, 1)), "f": Leaf(0.25, 1),
    }
    return ModelSet(2, trees, max_depth=1)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_write_which_matches_the_per_row_answers(as_json):
    model = _signed_zero_model()
    V = np.array([[0, 0], [1, 0], [0, 1], [1, 1]] * 3, dtype=np.uint8)
    for k in range(1, len(model.trees) + 2):
        out = io.StringIO()
        write_which(model, V, out, k, as_json=as_json)
        want = "".join(
            reference_which_text(ranking(model, row)[:k], len(model.trees), as_json)
            for row in V.tolist()
        )
        assert out.getvalue() == want
        if not as_json:
            assert want == "".join(
                render_recommendation(which_method(model, row, k)) + "\n" for row in V
            )
    zeros = (" -0.0}", " 0.0}") if as_json else (" -0.000\n", " 0.000\n")
    assert all(zero in want for zero in zeros)


def test_write_which_of_an_empty_model():
    for as_json, want in ((False, "Promising methods for this proof goal are:\n"),
                          (True, '{"ranked": [], "total_methods": 0}\n')):
        out = io.StringIO()
        write_which(ModelSet(2, {}), np.zeros((2, 2), dtype=np.uint8), out, 3, as_json)
        assert out.getvalue() == 2 * want


def test_render_recommendation_prints_signed_zero_and_any_given_values():
    rec = Recommendation((("b", 0.5), ("a", -0.0), ("c", 0.0), ("a", 1)), 9)
    assert render_recommendation(rec) == reference_which_text(rec.ranked, 9)[:-1]
    header = "Promising methods for this proof goal are:"
    assert render_recommendation(Recommendation((), 0)) == header


def test_batch_rank_method_matches_rank_method():
    rng = np.random.default_rng(61)
    block = recommend._BLOCK_ROWS
    for values in (None, (0.0, -0.0, 0.5)):
        model = random_model(rng, values=values)
        V = rng.integers(0, 2, (block + 7, model.feature_count)).astype(np.uint8)
        for name in model.trees:
            ranks, total = batch_rank_method(model, V, name)
            assert total == len(model.trees)
            assert ranks[:40].tolist() == [rank_method(model, row, name)[0] for row in V[:40]]
            assert ranks[40:].tolist() == [
                1 + [method for method, _ in ranking(model, row)].index(name)
                for row in V[40:].tolist()
            ]
    # An unknown method is reported before a bad vector or matrix.
    with pytest.raises(UnknownMethodError):
        batch_rank_method(model, np.zeros((1, 3, 1), dtype=np.uint8), "zap")
    with pytest.raises(UnknownMethodError):
        rank_method(model, [[2]], "zap")
    with pytest.raises(VectorWidthMismatchError):
        batch_rank_method(model, np.zeros((1, model.feature_count + 1), dtype=np.uint8), name)


@TIED
def test_batch_why_method_matches_the_slot_walk(values):
    # Random trees, a root leaf and a path that tests feature 0 twice, under a
    # catalog that describes every other feature.
    rng = np.random.default_rng(67)
    for _ in range(12):
        base = random_model(rng, max_features=4, values=values)
        F = base.feature_count
        trees = dict(base.trees)
        trees["root-leaf"] = Leaf(0.375, 2)
        again = Internal(0, Leaf(0.25, 1), Leaf(0.5, 1))
        trees["twice"] = Internal(0, again, Internal(F - 1, Leaf(0.75, 1), Leaf(1.0, 1)))
        catalog = FeatureCatalog({j: f"goal property {j} holds" for j in range(0, F, 2)})
        model = ModelSet(F, trees, catalog, max_depth=max(base.max_depth, 2))
        V = rng.integers(0, 2, (300, F)).astype(np.uint8)
        for name in model.trees:
            answer, explanations = batch_why_method(model, V, name)
            want = [reference_why(model, row, name) for row in V]
            assert [explanations[i] for i in answer.tolist()] == want
            # One explanation per distinct leaf reached, and each one is some row's.
            assert len(set(explanations)) == len(explanations)
            assert sorted(set(answer.tolist())) == list(range(len(explanations)))
            assert [why_method(model, row, name) for row in V[:20]] == want[:20]
        assert ((0, False, "goal property 0 holds"),) * 2 in {e.steps for e in want}
        assert reference_why(model, V[0], "root-leaf").steps == ()


def test_batch_why_method_checks_like_batch_rank_method():
    model = _hand_model()
    # An unknown method is reported before a bad vector or matrix.
    with pytest.raises(UnknownMethodError):
        batch_why_method(model, np.zeros((1, 3, 1), dtype=np.uint8), "zap")
    with pytest.raises(UnknownMethodError):
        why_method(model, [[2]], "zap")
    for bad in (np.zeros((1, 2, 1)), np.zeros(2), [[0, 2]], [[1, -1]], np.zeros((2, 3))):
        with pytest.raises((ValueError, PamperError)) as want:
            batch_rank_method(model, bad, "simp")
        with pytest.raises((ValueError, PamperError)) as got:
            batch_why_method(model, bad, "simp")
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    answer, explanations = batch_why_method(model, np.zeros((0, 2), dtype=np.uint8), "simp")
    assert answer.shape == (0,) and explanations == []
