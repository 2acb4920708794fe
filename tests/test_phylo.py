from __future__ import annotations

import hashlib
import random
import tracemalloc

import pytest

from malbehave import DistanceMatrix, Grouping, cut_tree, jaccard_matrix, rand_index, to_newick, upgma
from malbehave.phylo import _collapsible
from _oracles import dense_upgma, naive_upgma_merges, tree_merges
from _pipeline import TIE_GRID, ZERO_TIE_GRID, random_matrix


def _matrix(labels, pairs):
    n = len(labels)
    rows = [[0.0] * n for _ in range(n)]
    for (a, b), value in pairs.items():
        i, j = labels.index(a), labels.index(b)
        rows[i][j] = value
        rows[j][i] = value
    return DistanceMatrix(tuple(labels), tuple(tuple(row) for row in rows))


WORKED = _matrix(["A", "B", "C"], {("A", "B"): 0.2, ("A", "C"): 0.6, ("B", "C"): 0.4})

# Newick of the test_golden_newick matrix, computed with the earlier
# pair-dict tree builder.
PLAIN_GOLDEN = (
    "((((((L0:0,L1:0):0,L4:0):0.20625,((L12:0,L7:0):0,L9:0):0.20625):0.05625,L8:0.2625):0.1,"
    "L13:0.3625):0.130859375,(((L10:0,L11:0):0,L2:0):0.1875,((L3:0,L5:0):0,L6:0):0.1875):0.305859375);"
)
WEIGHTED_GOLDEN = (
    "((((((L0:0,L1:0):0,L4:0):0.2,((L12:0,L7:0):0,L9:0):0.2):0.05,L8:0.25):0.15,"
    "L13:0.4):0.0604166667,(((L10:0,L11:0):0,L2:0):0.1666666667,((L3:0,L5:0):0,L6:0):0.1666666667):0.29375);"
)
# Size-weighted Newick of the test_cached_minimum_rounding matrix, computed
# with the earlier full-scan tree builder.
ROUNDING_GOLDEN = (
    "((((((L0:0.1,L6:0.1):0,L7:0.1):0.0666666667,L9:0.1666666667):0.0583333333,"
    "(((L1:0.1,L13:0.1):0,L4:0.1):0.0666666667,((L10:0.1,L12:0.1):0.05,L3:0.15):0.0166666667):0.0583333333):0.005,"
    "((L11:0.1,L8:0.1):0.1,L2:0.2):0.03):0.0084615385,L5:0.2384615385);"
)

# sha256 prefix of every node as (id, height.hex(), children, label), for
# 300-leaf matrices with shuffled labels, from the tree builder whose merge
# update visited every row of the working matrix, retired rows included.
ALL_ROWS_DIGESTS = {
    ("continuous", False): "230ae6563bde7be3",
    ("continuous", True): "d310042a2661bd39",
    ("ties", False): "edc84e0f2d63bf68",
    ("ties", True): "e42d49b9cc717f69",
    ("zero-ties", False): "3d661989d42b7628",
    ("zero-ties", True): "fdc847895c5de0e9",
}
GRIDS = {"continuous": None, "ties": TIE_GRID, "zero-ties": ZERO_TIE_GRID}


class TestUpgma:
    def test_single_leaf(self):
        tree = upgma(DistanceMatrix(("A",), ((0.0,),)))
        assert len(tree.nodes) == 1
        root = tree.nodes[tree.root]
        assert root.is_leaf
        assert root.height == 0.0

    def test_two_leaves(self):
        tree = upgma(_matrix(["A", "B"], {("A", "B"): 0.3}))
        root = tree.nodes[tree.root]
        assert root.height == 0.3
        assert {frozenset(tree.leaf_labels(c)) for c in root.children} == {
            frozenset({"A"}),
            frozenset({"B"}),
        }

    def test_worked_three_leaf_example(self):
        tree = upgma(WORKED)
        heights = [node.height for node in tree.nodes if not node.is_leaf]
        assert heights == [0.2, 0.5]
        first = next(n for n in tree.nodes if not n.is_leaf and n.height == 0.2)
        assert frozenset(tree.leaf_labels(first.id)) == {"A", "B"}
        assert frozenset(tree.leaf_labels(tree.root)) == {"A", "B", "C"}

    def test_matches_naive_oracle(self):
        rng = random.Random(2024)
        grids = (TIE_GRID, ZERO_TIE_GRID, None)
        for trial in range(150):
            n = rng.randint(1, 30)
            matrix = random_matrix(rng, n, grids[trial % 3], shuffled=trial % 5 != 0)
            for size_weighted in (False, True):
                merges = tree_merges(upgma(matrix, size_weighted=size_weighted))
                expected = naive_upgma_merges(matrix.labels, matrix.entries, size_weighted=size_weighted)
                assert len(merges) == len(expected)
                for (height, a, b), (exp_height, exp_a, exp_b) in zip(merges, expected):
                    assert height == exp_height
                    assert {a, b} == {exp_a, exp_b}

    @pytest.mark.parametrize("size_weighted", [False, True])
    def test_planted_duplicates_match_naive_oracle(self, size_weighted):
        # Spawned children repeat their parent's token set, so a corpus
        # matrix holds equal rows and chains of distance-0 merges (the
        # cluster-many shape). Each matrix draws its sets with repeats from
        # at most half as many distinct ones, under shuffled labels.
        rng = random.Random(1109)
        for _ in range(80):
            n = rng.randint(2, 30)
            vocab = [f"t{k}" for k in range(rng.randint(1, 8))]
            distinct = [frozenset(rng.sample(vocab, rng.randint(0, len(vocab)))) for _ in range(rng.randint(1, n // 2))]
            labels = [f"s{k}" for k in range(n)]
            rng.shuffle(labels)
            matrix = jaccard_matrix([rng.choice(distinct) for _ in range(n)], labels)
            merges = tree_merges(upgma(matrix, size_weighted=size_weighted))
            expected = naive_upgma_merges(matrix.labels, matrix.entries, size_weighted=size_weighted)
            assert [(height, {a, b}) for height, a, b in merges] == [(height, {a, b}) for height, a, b in expected]

    def test_golden_newick(self):
        # Tie-heavy, with 0.0 distances and shuffled labels; the Newick text
        # also pins child order (smaller representative first), which the
        # oracle comparison above, on member sets, does not see.
        matrix = random_matrix(random.Random(31), 14, ZERO_TIE_GRID, shuffled=True)
        assert to_newick(upgma(matrix)) == PLAIN_GOLDEN
        assert to_newick(upgma(matrix, size_weighted=True)) == WEIGHTED_GOLDEN

    def test_cached_minimum_rounding(self):
        # A size-weighted mean of two equal cells can round below them
        # ((0.1 + 5 * 0.1) / 6 < 0.1), so after a merge a row above the
        # merged row i can find its new d[x][i] smaller than its cached
        # minimum, or equal to it in an earlier column. The matrices of the
        # tests above never hit this; a builder that keeps a stale minimum,
        # or the later of two tied columns, fails here.
        matrix = random_matrix(random.Random(207), 14, (0.1, 0.2, 0.3), shuffled=True)
        tree = upgma(matrix, size_weighted=True)
        expected = naive_upgma_merges(matrix.labels, matrix.entries, size_weighted=True)
        assert [(height, {a, b}) for height, a, b in tree_merges(tree)] == [
            (height, {a, b}) for height, a, b in expected
        ]
        assert to_newick(tree) == ROUNDING_GOLDEN

    @pytest.mark.parametrize("grid, size_weighted", sorted(ALL_ROWS_DIGESTS))
    def test_live_row_updates_match_all_rows(self, grid, size_weighted):
        # Skipping retired rows changes no node and no height bit.
        matrix = random_matrix(random.Random(300), 300, GRIDS[grid], shuffled=True)
        nodes = [(n.id, n.height.hex(), n.children, n.label) for n in upgma(matrix, size_weighted=size_weighted).nodes]
        digest = hashlib.sha256(repr(nodes).encode()).hexdigest()[:16]
        assert digest == ALL_ROWS_DIGESTS[grid, size_weighted]

    def test_heights_non_decreasing(self):
        rng = random.Random(5)
        for _ in range(30):
            matrix = random_matrix(rng, rng.randint(2, 7), TIE_GRID)
            tree = upgma(matrix)
            heights = [node.height for node in tree.nodes if not node.is_leaf]
            assert heights == sorted(heights)

    def test_size_weighted_update_differs(self):
        # After (A,B) merge at 0.1 the weighted update averages over cluster
        # sizes, shifting the final merge height.
        matrix = _matrix(
            ["A", "B", "C", "D"],
            {
                ("A", "B"): 0.1,
                ("A", "C"): 0.4,
                ("B", "C"): 0.2,
                ("A", "D"): 0.9,
                ("B", "D"): 0.9,
                ("C", "D"): 0.6,
            },
        )
        plain = upgma(matrix)
        weighted = upgma(matrix, size_weighted=True)
        # plain: d(AB,C)=0.3, merge ABC, then d(ABC,D)=(0.9+0.6)/2=0.75
        assert plain.nodes[plain.root].height == pytest.approx(0.75)
        # weighted: d(ABC,D)=(2*0.9+0.6)/3=0.8
        assert weighted.nodes[weighted.root].height == pytest.approx(0.8)

    def test_leaf_count_and_node_count(self):
        tree = upgma(WORKED)
        assert tree.leaf_count == 3
        assert len(tree.nodes) == 5


def _planted(rng, n):
    """A jaccard_matrix over n sets drawn with repeats from at most n // 2
    distinct ones, under shuffled labels."""
    vocab = [f"t{k}" for k in range(rng.randint(1, 8))]
    distinct = [frozenset(rng.sample(vocab, rng.randint(0, len(vocab)))) for _ in range(rng.randint(1, max(1, n // 2)))]
    labels = [f"s{k}" for k in range(n)]
    rng.shuffle(labels)
    return jaccard_matrix([rng.choice(distinct) for _ in range(n)], labels)


def _negative_zeros(rng, matrix):
    """The matrix read back from its CSV, with about a third of its zero
    cells written as -0.000000 (which DistanceMatrix reads as 0.0)."""
    header, *lines = matrix.to_csv().splitlines()
    rows = [
        ",".join("-0.000000" if cell == "0.000000" and rng.random() < 0.3 else cell for cell in line.split(","))
        for line in lines
    ]
    return DistanceMatrix.from_csv("\n".join([header, *rows]) + "\n")


def _assert_dense(matrix):
    # Node ids, height bits, child order and labels, and the Newick text.
    for size_weighted in (False, True):
        tree = upgma(matrix, size_weighted=size_weighted)
        dense = dense_upgma(matrix, size_weighted=size_weighted)
        assert [(n.id, n.height.hex(), n.children, n.label) for n in tree.nodes] == [
            (n.id, n.height.hex(), n.children, n.label) for n in dense.nodes
        ]
        assert to_newick(tree) == to_newick(dense)


# Rows a and b are unequal but 0 apart, and rank before the equal rows c
# and d: the full run merges a with b first, so c and d must not be
# chained ahead of it.
UNEQUAL_ZERO_CSV = (
    "a,b,c,d,e\n"
    "0,0,0.5,0.5,0.3\n"
    "0,0,0.5,0.5,0.6\n"
    "0.5,0.5,0,0,0.8\n"
    "0.5,0.5,0,0,0.8\n"
    "0.3,0.6,0.8,0.8,0\n"
)


class TestCollapsedClasses:
    # upgma chains each class of equal rows and builds the rest on one row
    # per class; dense_upgma gives every leaf its own row.

    def test_planted_duplicates_match_dense(self):
        rng = random.Random(4548)
        for _ in range(120):
            _assert_dense(_planted(rng, rng.randint(1, 40)))

    def test_negative_zero_round_trips_match_dense(self):
        rng = random.Random(139)
        for _ in range(120):
            _assert_dense(_negative_zeros(rng, _planted(rng, rng.randint(2, 40))))

    def test_csv_round_trip_keeps_classes(self):
        # A CSV reads back with the matrix's classes, and with its class rows
        # to 6 decimal digits; every label of a class on one entries row.
        rng = random.Random(25)
        for _ in range(60):
            matrix = _planted(rng, rng.randint(2, 40))
            for source in (matrix, _negative_zeros(rng, matrix)):
                parsed = DistanceMatrix.from_csv(source.to_csv())
                assert parsed.classes == matrix.classes
                assert parsed.rows == tuple(tuple(float(f"{v:.6f}") for v in row) for row in matrix.rows)
                assert parsed.entries == tuple(tuple(float(f"{v:.6f}") for v in row) for row in matrix.entries)
                first = dict(zip(parsed.classes, parsed.entries))
                assert all(first[c] is row for c, row in zip(parsed.classes, parsed.entries))

    def test_zero_between_unequal_rows_matches_dense(self):
        matrix = DistanceMatrix.from_csv(UNEQUAL_ZERO_CSV)
        assert not _collapsible(matrix.rows[matrix.classes[0]])
        _assert_dense(matrix)
        assert to_newick(upgma(matrix)) == "(((a:0,b:0):0.45,e:0.45):0.2,(c:0,d:0):0.65);"

    def test_all_equal_and_single_leaf(self):
        for n in (1, 2, 7):
            labels = [f"s{k}" for k in range(n)]
            random.Random(n).shuffle(labels)
            matrix = jaccard_matrix([frozenset({"x"})] * n, labels)
            assert len({id(row) for row in matrix.entries}) == 1
            _assert_dense(matrix)
        _assert_dense(DistanceMatrix(("A",), ((0.0,),)))

    def test_which_classes_collapse(self):
        matrix = jaccard_matrix([frozenset("ab"), frozenset("c"), frozenset("ab")], ["x", "y", "z"])
        assert _collapsible(matrix.rows[matrix.classes[0]])
        assert _collapsible(matrix.rows[matrix.classes[1]])
        # -0.0 is stored as 0.0, so the two rows are one and collapse.
        negative = DistanceMatrix(("x", "y"), ((0.0, -0.0), (-0.0, 0.0)))
        assert negative.entries[0] is negative.entries[1]
        assert _collapsible(negative.rows[negative.classes[0]])

    def test_weighted_working_matrix_has_one_row_per_class(self):
        # 600 profiles in 3 classes: the weighted tree, like the plain one,
        # works on a 3 x 3 matrix. One row per profile (a 600 x 600 working
        # matrix) peaks at about 3.6 MB; one per class at about 0.25 MB.
        sets = [frozenset({f"t{k % 3}", "shared"}) for k in range(600)]
        matrix = jaccard_matrix(sets, [f"s{k:03d}" for k in range(600)])
        tracemalloc.start()
        try:
            tree = upgma(matrix, size_weighted=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tree.leaf_count == 600
        assert peak < 1024 * 1024, f"the weighted tree allocated {peak} bytes"


class TestCutTree:
    def test_threshold_half(self):
        grouping = cut_tree(upgma(WORKED), 0.5)
        assert grouping.groups == (("A", "B"), ("C",))

    def test_threshold_below_all_merges(self):
        grouping = cut_tree(upgma(WORKED), 0.1)
        assert grouping.groups == (("A",), ("B",), ("C",))

    def test_threshold_one_single_group(self):
        grouping = cut_tree(upgma(WORKED), 1.0)
        assert grouping.groups == (("A", "B", "C"),)

    def test_threshold_zero_all_singletons(self):
        rng = random.Random(11)
        for _ in range(10):
            matrix = random_matrix(rng, rng.randint(2, 6), None)
            if any(
                matrix.entries[i][j] == 0.0
                for i in range(matrix.size)
                for j in range(i + 1, matrix.size)
            ):
                continue
            grouping = cut_tree(upgma(matrix), 0.0)
            assert all(len(group) == 1 for group in grouping.groups)

    def test_group_count_non_increasing(self):
        rng = random.Random(23)
        for _ in range(20):
            tree = upgma(random_matrix(rng, rng.randint(2, 7), TIE_GRID))
            counts = [len(cut_tree(tree, t).groups) for t in (0.2, 0.3, 0.4, 0.5)]
            assert counts == sorted(counts, reverse=True)


class TestNewick:
    def test_single_leaf(self):
        tree = upgma(DistanceMatrix(("A",), ((0.0,),)))
        assert to_newick(tree) == "A:0;"

    def test_two_leaves(self):
        tree = upgma(_matrix(["A", "B"], {("A", "B"): 0.3}))
        assert to_newick(tree) == "(A:0.3,B:0.3);"

    def test_three_leaves(self):
        assert to_newick(upgma(WORKED)) == "((A:0.2,B:0.2):0.3,C:0.5);"

    def test_label_quoting(self):
        tree = upgma(_matrix(["a b", "c:d"], {("a b", "c:d"): 0.4}))
        assert to_newick(tree) == "('a b':0.4,'c:d':0.4);"
        # Newick readers take [...] as a comment.
        tree = upgma(_matrix(["a[1]", "b]"], {("a[1]", "b]"): 0.4}))
        assert to_newick(tree) == "('a[1]':0.4,'b]':0.4);"

    def test_any_whitespace_quoted(self):
        # Newick forbids blanks in unquoted labels: every character for
        # which str.isspace() holds, not only space, tab and newline.
        for blank in "\f\r\v\x1c\x85\xa0\u2028\u3000":
            label = f"a{blank}b"
            tree = upgma(_matrix([label, "c"], {(label, "c"): 0.5}))
            assert to_newick(tree) == f"('{label}':0.5,c:0.5);"
        tree = upgma(_matrix(["a-b_c.d", "é"], {("a-b_c.d", "é"): 0.5}))
        assert to_newick(tree) == "(a-b_c.d:0.5,é:0.5);"


class TestGrouping:
    def test_json_round_trip(self):
        grouping = Grouping(0.5, (("A", "B"), ("C",)))
        parsed = Grouping.from_json(grouping.to_json())
        assert parsed == grouping

    def test_group_of(self):
        grouping = Grouping(0.5, (("A", "B"), ("C",)))
        assert grouping.group_of("C") == 1


class TestRandIndex:
    def test_identical_partitions(self):
        groups = [{"a", "b"}, {"c"}]
        assert rand_index(groups, groups) == 1.0

    def test_hand_computed(self):
        # of the 3 pairs only (a,b) is judged the same way by both partitions
        a = [{"a", "b"}, {"c"}]
        b = [{"a", "b", "c"}]
        assert rand_index(a, b) == pytest.approx(1 / 3)

    def test_hand_computed_partial_agreement(self):
        # pairs: (a,b) together/together, (a,c) apart/apart, (b,c) apart/apart
        a = [{"a", "b"}, {"c"}]
        b = [{"a", "b"}, {"c"}]
        assert rand_index(a, b) == 1.0
        c = [{"a"}, {"b"}, {"c"}]
        # only the (a,b) judgement differs between a and c
        assert rand_index(a, c) == pytest.approx(2 / 3)

    def test_accepts_groupings(self):
        a = Grouping(0.2, (("a", "b"), ("c",)))
        b = Grouping(0.9, (("a", "b"), ("c",)))
        assert rand_index(a, b) == 1.0

    def test_single_label(self):
        assert rand_index([{"a"}], [{"a"}]) == 1.0
