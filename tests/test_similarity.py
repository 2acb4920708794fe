from __future__ import annotations

import csv
import io
import itertools
import math
import random
import sys
import tracemalloc

import pytest

from malbehave import (
    ApiEvent,
    DistanceMatrix,
    FeatureConfig,
    Profile,
    corpus_elements,
    distance_matrix,
    extract_elements,
    generate_corpus,
    jaccard_distance,
    jaccard_matrix,
    serialize_profile,
)
from malbehave.profile import _call_elements, _profile_calls, csv_rows
from _oracles import escaped_token
from _pipeline import CSV_AWKWARD_LABELS, family_template, four_family_spec, mean_distance
from conftest import make_random_event


def _profile_with_apis(sample_hash, names):
    events = tuple(ApiEvent(name, (), None, 10 + i) for i, name in enumerate(names))
    return Profile(sample_hash, 1, 10, events)


NAME_ONLY = FeatureConfig(with_params=False)


def _cell(matrix, a, b):
    """The distance between labels a and b, read from the matrix's fields."""
    return matrix.entries[matrix.labels.index(a)][matrix.labels.index(b)]


class TestJaccard:
    def test_identical_nonempty(self):
        assert jaccard_distance(frozenset("abc"), frozenset("abc")) == 0.0

    def test_disjoint(self):
        assert jaccard_distance(frozenset("ab"), frozenset("cd")) == 1.0

    def test_half_overlap(self):
        assert jaccard_distance(frozenset("abc"), frozenset("bcd")) == 0.5

    def test_both_empty(self):
        assert jaccard_distance(frozenset(), frozenset()) == 0.0

    def test_metric_properties(self):
        rng = random.Random(42)
        universe = "abcdefghij"
        sets = [frozenset(rng.sample(universe, rng.randint(0, 6))) for _ in range(120)]
        for _ in range(400):
            x, y, z = (rng.choice(sets) for _ in range(3))
            dxy = jaccard_distance(x, y)
            assert 0.0 <= dxy <= 1.0
            assert dxy == jaccard_distance(y, x)
            assert (dxy == 0.0) == (x == y)
            assert jaccard_distance(x, z) <= dxy + jaccard_distance(y, z) + 1e-12


class TestDistanceMatrix:
    def test_single_profile(self):
        matrix = distance_matrix([_profile_with_apis("aa", ["ReadFile"])], NAME_ONLY)
        assert matrix.labels == ("aa",)
        assert matrix.entries == ((0.0,),)

    def test_identical_profiles(self):
        profiles = [
            _profile_with_apis("aa", ["ReadFile", "WriteFile"]),
            _profile_with_apis("bb", ["ReadFile", "WriteFile"]),
        ]
        matrix = distance_matrix(profiles, NAME_ONLY)
        assert matrix.entries[0][1] == 0.0

    def test_three_profiles_worked_values(self):
        profiles = [
            _profile_with_apis("p1", ["Apple", "Berry", "Cherry"]),
            _profile_with_apis("p2", ["Berry", "Cherry", "Damson"]),
            _profile_with_apis("p3", ["Elder"]),
        ]
        matrix = distance_matrix(profiles, NAME_ONLY)
        assert _cell(matrix, "p1", "p2") == 0.5
        assert _cell(matrix, "p1", "p3") == 1.0
        assert _cell(matrix, "p2", "p3") == 1.0

    def test_explicit_labels(self):
        profiles = [_profile_with_apis("aa", ["ReadFile"]), _profile_with_apis("aa", ["WriteFile"])]
        matrix = distance_matrix(profiles, NAME_ONLY, labels=["aa-0", "aa-1"])
        assert matrix.labels == ("aa-0", "aa-1")

    def test_permutation_invariance(self):
        profiles = [
            _profile_with_apis("p1", ["Apple", "Berry"]),
            _profile_with_apis("p2", ["Berry", "Cherry"]),
            _profile_with_apis("p3", ["Damson"]),
        ]
        forward = distance_matrix(profiles, NAME_ONLY)
        backward = distance_matrix(list(reversed(profiles)), NAME_ONLY)
        for a in ("p1", "p2", "p3"):
            for b in ("p1", "p2", "p3"):
                assert _cell(forward, a, b) == _cell(backward, a, b)


def _oracle_elements(profile, config):
    """Element set straight from per-event tokens, no memo."""
    tokens = [escaped_token(e.api_name, e.attributes, e.return_value, config) for e in profile.events]
    n = config.ngram_n
    return frozenset("||".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


# Values that need escaping, and path values in mixed case.
_MARKED_VALUES = ("50%|off", "k=v|w=x", "%7C", "C:\\Temp\\Mixed=Case%.EXE", "HKCU\\Run|Key")


def _event_pool(rng, size):
    """Random events, each with near-twins that differ only in the return
    value, in attribute order, in the case of every value, or in values
    that hold '%', '|' or '='."""
    pool = []
    for _ in range(size):
        event = make_random_event(rng, 0)
        pool.append(event)
        pool.append(ApiEvent(event.api_name, event.attributes, rng.choice(("SUCCESS", "FAILURE", None)), 0))
        pool.append(ApiEvent(event.api_name, event.attributes[::-1], event.return_value, 0))
        pool.append(ApiEvent(event.api_name, tuple((k, v.upper()) for k, v in event.attributes), event.return_value, 0))
        marked = tuple((k, rng.choice(_MARKED_VALUES)) for k, _ in event.attributes)
        pool.append(ApiEvent(event.api_name, marked, rng.choice(_MARKED_VALUES + (None,)), 0))
    return pool


def _repetitive_corpus(rng):
    """Profiles drawn from one event pool, so events repeat within and
    across profiles with fresh timestamps; plus empty profiles and an
    identical copy. Vocabularies reach 50-170 tokens, so the bitmasks
    span several 64-bit words."""
    pool = _event_pool(rng, rng.randint(2, 40))
    profiles = []
    for k in range(10):
        ticks = 0
        events = []
        for _ in range(rng.randint(0, 30)):
            ticks += rng.randint(0, 3)
            event = rng.choice(pool)
            events.append(ApiEvent(event.api_name, event.attributes, event.return_value, ticks))
        profiles.append(Profile(f"h{k}", 1, 10, tuple(events)))
    profiles.append(Profile("empty-a", 1, 10))
    profiles.append(Profile("empty-b", 1, 10))
    profiles.append(Profile("copy", 1, 10, profiles[0].events))
    return profiles


FEATURE_CONFIGS = [
    FeatureConfig(with_params=params, ngram_n=n, normalize_paths=paths, include_return=returns)
    for params, paths, returns in itertools.product((True, False), repeat=3)
    for n in (1, 2, 3)
]


class TestCorpusTokenizationOracle:
    @pytest.mark.parametrize("config", FEATURE_CONFIGS, ids=repr)
    def test_sets_and_cells_match_per_event_oracle(self, config):
        rng = random.Random(repr(config))
        for _ in range(6):
            profiles = _repetitive_corpus(rng)
            rng.shuffle(profiles)
            expected = [_oracle_elements(p, config) for p in profiles]
            assert corpus_elements(profiles, config) == expected
            assert [extract_elements(p, config) for p in profiles] == expected
            matrix = distance_matrix(profiles, config)
            for i, x in enumerate(expected):
                for j, y in enumerate(expected):
                    assert matrix.entries[i][j] == jaccard_distance(x, y)

    @pytest.mark.parametrize("config", FEATURE_CONFIGS, ids=repr)
    def test_walked_documents_match_per_event_oracle(self, config):
        # The CLI's path: each profile as a document, walked to its call
        # keys and tokenized without building events.
        rng = random.Random(repr(config))
        for _ in range(6):
            profiles = _repetitive_corpus(rng)
            rng.shuffle(profiles)
            expected = [_oracle_elements(p, config) for p in profiles]
            documents = [serialize_profile(p) for p in profiles]
            assert _call_elements(map(_profile_calls, documents), config) == expected

    def test_two_empty_profiles_are_identical(self):
        matrix = distance_matrix([Profile("a", 1, 10), Profile("b", 1, 10)], FeatureConfig())
        assert matrix.entries == ((0.0, 0.0), (0.0, 0.0))


class TestSharedRows:
    def test_one_row_object_per_class(self):
        rng = random.Random(58)
        for _ in range(40):
            n = rng.randint(1, 40)
            vocab = [f"t{k}" for k in range(rng.randint(1, 8))]
            distinct = [frozenset(rng.sample(vocab, rng.randint(0, len(vocab)))) for _ in range(rng.randint(1, n))]
            sets = [rng.choice(distinct) for _ in range(n)]
            labels = [f"s{k}" for k in range(n)]
            rng.shuffle(labels)
            matrix = jaccard_matrix(sets, labels)
            # Built unchecked, it equals the checked constructor's matrix of
            # its cells, field for field and in its storage (read before
            # entries, which caches itself on the instance).
            checked = DistanceMatrix(labels, jaccard_matrix(sets, labels).entries)
            assert type(matrix) is DistanceMatrix
            assert matrix == checked
            assert hash(matrix) == hash(checked)
            assert sys.getsizeof(vars(matrix)) == sys.getsizeof(vars(checked))
            row_of = {}
            for elements, row in zip(sets, matrix.entries):
                assert row_of.setdefault(elements, row) is row
            assert len({id(row) for row in matrix.entries}) == len(set(sets))
            cells = [[jaccard_distance(x, y) for y in sets] for x in sets]
            assert matrix.entries == tuple(map(tuple, cells))
            expected = ",".join(labels) + "\n" + "".join(",".join(f"{v:.6f}" for v in row) + "\n" for row in cells)
            assert matrix.to_csv() == expected

    def test_matrix_keeps_class_rows(self):
        # 2,000 labels over 10 distinct sets: the matrix keeps its labels,
        # their classes and the 10 x 10 class rows, about 34 KB. One 2,000-cell
        # row per class, shared by its labels, kept about 194 KB.
        distinct = [frozenset({f"t{k}", f"u{k % 3}", "shared"}) for k in range(10)]
        sets = [distinct[k % 10] for k in range(2000)]
        labels = [f"s{k:04d}" for k in range(2000)]
        tracemalloc.start()
        try:
            matrix = jaccard_matrix(sets, labels)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 64 * 1024, f"the matrix kept {kept} bytes"
        assert len(matrix.rows) == 10


class TestCsv:
    def test_round_trip(self):
        profiles = [
            _profile_with_apis("p1", ["Apple", "Berry", "Cherry", "Damson"]),
            _profile_with_apis("p2", ["Berry", "Cherry"]),
            _profile_with_apis("p3", ["Elder"]),
        ]
        matrix = distance_matrix(profiles, NAME_ONLY)
        text = matrix.to_csv()
        assert text.splitlines()[0] == "p1,p2,p3"
        parsed = DistanceMatrix.from_csv(text)
        assert parsed.labels == matrix.labels
        assert parsed.entries == matrix.entries

    def test_six_decimal_digits(self):
        matrix = DistanceMatrix(("a", "b"), ((0.0, 1 / 3), (1 / 3, 0.0)))
        assert "0.333333" in matrix.to_csv()

    def test_cells_match_per_value_format(self):
        # Rounding edges, a negative zero (stored as 0.0), and labels that
        # need quoting, against the per-cell f-string rendering.
        values = (0.0, -0.0, 1.0, 1e-7, 0.0000005, 0.1234565, 2 / 3, 0.9999995)
        n = len(values) + 1
        rows = [[0.0] * n for _ in range(n)]
        for k, value in enumerate(values):
            rows[0][k + 1] = rows[k + 1][0] = value
        labels = ("a,b", 'q"x') + tuple(f"s{i}" for i in range(n - 2))
        matrix = DistanceMatrix(labels, rows)
        expected = '"a,b","q""x",' + ",".join(labels[2:]) + "\n"
        expected += "".join(",".join(f"{value:.6f}" for value in row) + "\n" for row in matrix.entries)
        assert matrix.to_csv() == expected
        assert "-0.000000" not in expected

    def test_no_negative_zero_and_one_row_per_distinct_row(self):
        rows = ((0.0, -0.0, 0.5), (-0.0, -0.0, 0.5), (0.5, 0.5, 0))
        text = "a,b,c\n0.000000,-0.000000,0.5\n-0.000000,-0.000000,0.500000\n0.5,0.5,-0\n"
        for matrix in (DistanceMatrix(("a", "b", "c"), rows), DistanceMatrix.from_csv(text)):
            assert [[math.copysign(1.0, cell) for cell in row] for row in matrix.entries] == [[1.0] * 3] * 3
            assert matrix.entries == ((0.0, 0.0, 0.5), (0.0, 0.0, 0.5), (0.5, 0.5, 0.0))
            assert matrix.entries[0] is matrix.entries[1]
            assert matrix.to_csv() == "a,b,c\n" + "0.000000,0.000000,0.500000\n" * 2 + "0.500000,0.500000,0.000000\n"
        # A CSV of 60 labels over 7 distinct sets reads back as 7 row objects,
        # every label of a set on the same one.
        rng = random.Random(23)
        distinct = [frozenset(rng.sample("abcdefgh", rng.randint(0, 8))) for _ in range(7)]
        sets = [distinct[k % 7] for k in range(60)]
        rng.shuffle(sets)
        parsed = DistanceMatrix.from_csv(jaccard_matrix(sets, [f"s{k}" for k in range(60)]).to_csv())
        assert len({id(row) for row in parsed.entries}) == len(set(sets))
        row_of = {}
        for elements, row in zip(sets, parsed.entries):
            assert row_of.setdefault(elements, row) is row

    def test_read_holds_one_row_per_class(self):
        # 600 labels over 3 distinct rows: while reading, the constructor
        # holds one converted row per class (a peak about 0.2 MB above what
        # the matrix keeps; keeping every converted row took 11.6 MB). 300
        # distinct rows: each is cut to its class columns in place (0.06 MB;
        # a second copy of the rows took 0.78 MB).
        sets = [frozenset({f"t{k % 3}", "shared"}) for k in range(600)]
        duplicated = jaccard_matrix(sets, [f"s{k:03d}" for k in range(600)]).to_csv()
        n = 300
        dense = DistanceMatrix([f"s{i}" for i in range(n)], [[abs(i - j) / n for j in range(n)] for i in range(n)]).to_csv()
        for text, bound in ((duplicated, 1024 * 1024), (dense, 256 * 1024)):
            tracemalloc.start()
            try:
                matrix = DistanceMatrix.from_csv(text)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - kept < bound, f"reading {matrix.size} labels peaked {peak - kept} bytes above what it kept"

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_round_trip_awkward_labels(self, final_newline):
        n = len(CSV_AWKWARD_LABELS)
        rows = [[abs(i - j) / n for j in range(n)] for i in range(n)]
        matrix = DistanceMatrix(CSV_AWKWARD_LABELS, rows)
        text = matrix.to_csv()
        assert text.endswith("\n")
        parsed = DistanceMatrix.from_csv(text if final_newline else text[:-1])
        assert parsed.labels == CSV_AWKWARD_LABELS
        assert parsed.entries == tuple(tuple(float(f"{v:.6f}") for v in row) for row in rows)

    def test_rows_match_a_text_stream(self):
        # The lines csv_rows hands the reader are those of io.StringIO, so
        # an open quote at the end of the text keeps the same cell.
        for text in ('a,"b\n', 'a,"b', 'x\n\n"y\x0cz",w\n', '"p\u2028q",r', '"s\nt', "", "\n\n"):
            assert list(csv_rows(text)) == [row for row in csv.reader(io.StringIO(text)) if row], text

    def test_first_row_copies_no_lines(self):
        # Lines are drawn one at a time: the first row of a 200,000-line
        # (3.6 MB) text costs no list of every line, which took 15.7 MB.
        text = "0.000000,0.500000\n" * 200_000
        tracemalloc.start()
        try:
            first = next(csv_rows(text))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert first == ["0.000000", "0.500000"]
        assert peak < 1024 * 1024, f"drawing the first row allocated {peak} bytes"

    def test_none_cell_is_value_error(self):
        with pytest.raises(ValueError, match=r"^non-numeric distance cell in row 0: "):
            DistanceMatrix(("a", "b"), ((0.0, None), (None, 0.0)))

    def test_rows_read_lazily(self):
        # The constructor stops at the first row past the label count, so a
        # long tail of rows is neither converted nor held.
        def rows():
            yield ("0", "0.5")
            yield ("0.5", "0")
            yield ("0", "0")
            raise AssertionError("read past the first extra row")

        with pytest.raises(ValueError) as caught:
            DistanceMatrix(("a", "b"), rows())
        assert str(caught.value) == "matrix must be 2x2 to match its labels: more than 2 rows"


class TestParameterModes:
    def test_params_separate_shared_api_names(self):
        bad = family_template("fam", motif_count=2)
        look = family_template("lookalike", motif_count=2)
        bad_profile = Profile("aa", 1, 300, bad.base_events)
        look_profile = Profile("bb", 1, 300, look.base_events)
        with_params = distance_matrix([bad_profile, look_profile], FeatureConfig())
        name_only = distance_matrix([bad_profile, look_profile], NAME_ONLY)
        assert _cell(with_params, "aa", "bb") > _cell(name_only, "aa", "bb")

    def test_mean_inter_family_distance_drops_without_params(self):
        labeled, truth = generate_corpus(four_family_spec(variants=4, motif_count=2))
        for config in (FeatureConfig(), NAME_ONLY):
            sets = {label: extract_elements(p, config) for label, p in labeled}
            if config is NAME_ONLY:
                name_only_mean = _inter_family_mean(truth, sets)
            else:
                full_mean = _inter_family_mean(truth, sets)
        assert full_mean >= name_only_mean


def _inter_family_mean(truth, sets):
    total = 0.0
    count = 0
    for i, group_a in enumerate(truth.groups):
        for group_b in truth.groups[i + 1 :]:
            total += mean_distance(group_a, group_b, sets)
            count += 1
    return total / count
