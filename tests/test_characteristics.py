from __future__ import annotations

import random

from malbehave import (
    EnduranceConfig,
    GroupCharacteristics,
    Grouping,
    characteristics_from_report,
    characteristics_report,
    classification_scores,
    classify,
    common_set,
    cut_tree,
    distinct_characteristics,
    upgma,
)
from _oracles import brute_force_characteristics
from _pipeline import TIE_GRID, ZERO_TIE_GRID, matrix_from_sets, random_matrix


def _setup(sets_by_label, threshold, alpha=0.0, min_score=0.5):
    labels = sorted(sets_by_label)
    tree = upgma(matrix_from_sets(labels, sets_by_label))
    grouping = cut_tree(tree, threshold)
    config = EnduranceConfig(alpha=alpha, min_score=min_score)
    chars = distinct_characteristics(tree, grouping, sets_by_label, config)
    return tree, grouping, chars, config


class TestCommonSet:
    MEMBERS = [frozenset("abc"), frozenset("ab"), frozenset("ac")]

    def test_alpha_zero_is_intersection(self):
        assert common_set(self.MEMBERS, 0.0) == {"a"}

    def test_alpha_tolerates_outliers(self):
        assert common_set(self.MEMBERS, 0.4) == {"a", "b", "c"}

    def test_single_member(self):
        assert common_set([frozenset("xy")], 0.0) == {"x", "y"}
        assert common_set([frozenset("xy")], 0.9) == {"x", "y"}


class TestDistinct:
    def test_subtracts_parent_common(self):
        sets = {
            "x1": frozenset("ab"),
            "x2": frozenset("ab"),
            "y": frozenset("a"),
        }
        _, grouping, chars, _ = _setup(sets, 0.3)
        pair_group = grouping.group_of("x1")
        assert chars[pair_group].common == {"a", "b"}
        assert chars[pair_group].distinct == {"b"}

    def test_empty_distinct_when_common_equals_parent(self):
        sets = {
            "z1": frozenset("a"),
            "z2": frozenset("a"),
            "w": frozenset("ac"),
        }
        _, grouping, chars, _ = _setup(sets, 0.3)
        pair_group = grouping.group_of("z1")
        assert chars[pair_group].common == {"a"}
        assert chars[pair_group].distinct == frozenset()

    def test_whole_tree_group_keeps_common(self):
        sets = {"x1": frozenset("ab"), "x2": frozenset("ab"), "y": frozenset("a")}
        _, _, chars, _ = _setup(sets, 1.0)
        assert len(chars) == 1
        assert chars[0].distinct == chars[0].common == {"a"}

    def test_matches_brute_force_oracle(self):
        # Tie-heavy random trees with shuffled labels, element sets drawn
        # independently of the tree, and both tree cuts and arbitrary
        # partitions (whose groups need not be subtrees).
        rng = random.Random(4104)
        universe = "abcdefghij"
        for trial in range(120):
            n = rng.randint(1, 30)
            matrix = random_matrix(rng, n, (TIE_GRID, ZERO_TIE_GRID)[trial % 2], shuffled=True)
            tree = upgma(matrix, size_weighted=trial % 3 == 0)
            sets = {label: frozenset(rng.sample(universe, rng.randint(2, 8))) for label in matrix.labels}
            labels = list(matrix.labels)
            rng.shuffle(labels)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
            partition = Grouping(0.5, [labels[a:b] for a, b in zip([0] + cuts, cuts + [n])])
            groupings = [cut_tree(tree, threshold) for threshold in (0.25, 0.5, rng.choice(TIE_GRID))]
            for grouping in groupings + [partition]:
                alpha = rng.choice((0.0, 0.1, 0.25, 0.5))
                chars = distinct_characteristics(tree, grouping, sets, EnduranceConfig(alpha=alpha))
                expected = brute_force_characteristics(tree, grouping.groups, sets, alpha)
                assert {index: (item.common, item.distinct) for index, item in chars.items()} == expected
                assert [chars[index].size for index in sorted(chars)] == [len(g) for g in grouping.groups]

    def test_alpha_zero_invariants_on_random_trees(self):
        rng = random.Random(314)
        universe = "abcdefgh"
        for _ in range(40):
            labels = [f"s{i}" for i in range(rng.randint(2, 8))]
            sets = {
                label: frozenset(rng.sample(universe, rng.randint(1, 6))) for label in labels
            }
            tree = upgma(matrix_from_sets(labels, sets))
            grouping = cut_tree(tree, rng.choice([0.2, 0.4, 0.6, 0.8]))
            config = EnduranceConfig(alpha=0.0)
            chars = distinct_characteristics(tree, grouping, sets, config)
            parents = tree.parents()
            for group_id, group in enumerate(grouping.groups):
                item = chars[group_id]
                assert item.distinct <= item.common
                node_id = _find_subtree(tree, frozenset(group))
                if node_id != tree.root:
                    parent = tree.nodes[parents[node_id]]
                    parent_common = common_set([sets[l] for l in sorted(tree.leaf_labels(parent.id))], 0.0)
                    assert not (item.distinct & parent_common)

    def test_training_members_score_one_with_alpha_zero(self):
        sets = {
            "x1": frozenset("abc"),
            "x2": frozenset("abcd"),
            "y1": frozenset("ef"),
            "y2": frozenset("efg"),
        }
        _, grouping, chars, config = _setup(sets, 0.6, alpha=0.0, min_score=1.0)
        for label, elements in sets.items():
            own = grouping.group_of(label)
            scores = classification_scores(elements, chars)
            assert scores[own] == 1.0
            assert classify(elements, chars, config) == own


def _find_subtree(tree, members):
    node_id = tree.root
    while True:
        node = tree.nodes[node_id]
        if node.children is None:
            return node_id
        for child in node.children:
            if members <= frozenset(tree.leaf_labels(child)):
                node_id = child
                break
        else:
            return node_id


class TestClassify:
    CHARS = {
        0: GroupCharacteristics(0, frozenset("abcd"), frozenset("abcd"), 3),
        1: GroupCharacteristics(1, frozenset("ef"), frozenset("ef"), 2),
    }

    def test_full_containment(self):
        config = EnduranceConfig()
        assert classify(frozenset("efz"), self.CHARS, config) == 1

    def test_disjoint_sample_is_unclassified(self):
        config = EnduranceConfig()
        assert classify(frozenset("zq"), self.CHARS, config) is None

    def test_tie_goes_to_smallest_group_id(self):
        # scores: group 0 -> 2/4, group 1 -> 1/2; tie at 0.5
        config = EnduranceConfig(min_score=0.5)
        assert classify(frozenset("abe"), self.CHARS, config) == 0

    def test_empty_distinct_scores_zero(self):
        chars = {0: GroupCharacteristics(0, frozenset("ab"), frozenset(), 2)}
        assert classification_scores(frozenset("ab"), chars) == {0: 0.0}
        assert classify(frozenset("ab"), chars, EnduranceConfig()) is None


class TestReport:
    def test_report_round_trip(self):
        sets = {"x1": frozenset("ab"), "x2": frozenset("ab"), "y": frozenset("a")}
        _, grouping, chars, _ = _setup(sets, 0.3)
        rows = characteristics_report(chars, grouping, include_sets=True)
        rebuilt = characteristics_from_report(rows)
        assert rebuilt == chars

    def test_report_columns(self):
        # Group {x1, x2} has 7 distinct tokens, b..h; the report shows the first 5.
        sets = {"x1": frozenset("abcdefgh"), "x2": frozenset("abcdefgh"), "y": frozenset("a")}
        _, grouping, chars, _ = _setup(sets, 0.3)
        rows = characteristics_report(chars, grouping)
        assert [(row["members"], row["distinct_count"], row["distinct_samples"]) for row in rows] == [
            (["x1", "x2"], 7, list("bcdef")),
            (["y"], 0, []),
        ]
        for row in rows:
            assert set(row) == {
                "id",
                "size",
                "members",
                "common_count",
                "distinct_count",
                "distinct_samples",
            }
