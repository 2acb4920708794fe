from __future__ import annotations

import random
from collections import Counter

import pytest

from malbehave import (
    EngineLabelTable,
    Grouping,
    grouping_to_labels,
    normalize_family,
    pcs_report,
    pcs_score,
    text_mining_grouping,
)
from malbehave import pcs
from malbehave.pcs import PairwiseIndicator, _label_masks, _row_picks
from _oracles import brute_force_pcs, cosine_verdict, label_verdict, split_description_words, split_normalize_family
from _pipeline import CSV_AWKWARD_LABELS


def _table(ids, engines, rows):
    return EngineLabelTable(tuple(ids), tuple(engines), tuple(tuple(row) for row in rows))


THREE_BY_TWO = _table(
    ["m1", "m2", "m3"],
    ["x", "y"],
    [["f", "f"], ["f", "g"], ["g", "g"]],
)

IDENTICAL_PAIR = _table(
    ["m1", "m2", "m3"],
    ["x", "y"],
    [["f", "f"], ["f", "f"], ["g", "g"]],
)

# Text pieces for the word-rule fuzzes: both cases of hex and other
# letters, digits (so all-digit words), '_', separators, stop words and
# non-ASCII characters, the Kelvin sign and dotted capital I (whose
# lowercase forms are ASCII k and i plus a combining dot) among them.
WORD_PIECES = list("abcdefgxyzABFGXZ0123456789_._/-: ")
WORD_PIECES += ["win32", "Variant", "TROJ_GEN", "é", "ß", "İ", "\u212a", "١", "Ⅻ", "ǅ", "\u00a0"]
# Stop words glued to other word characters, which stay words, and one in
# another case, which does not.
STOP_WORD_EDGES = ["win32_", "_win32", "xwin32", "win32x", "troj_gen2", "Troj_Gen"]
WORD_PIECES += STOP_WORD_EDGES


class TestNormalizeFamily:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Win32.Morstar.ba", "morstar"),
            ("APPL/Firseria.A.15", "firseria"),
            ("", None),
            ("Win32.Variant", None),
            ("TROJ_GEN.R002C0DGR21", "r002c0dgr21"),
            ("Solimba Installer", "installer"),
            ("deadbeef.1234", None),
            # All-digit tokens are pure hex, so the hex rule drops them.
            ("Win32/Agent.2019", "agent"),
            ("Worm.12345678", "worm"),
            # Non-ASCII digits split tokens, as any other non-[a-z0-9_] character does.
            ("Worm.١٢", "worm"),
        ],
    )
    def test_examples(self, raw, expected):
        assert normalize_family(raw) == expected

    def test_equals_split_and_filter_rule(self):
        for edge in STOP_WORD_EDGES:
            for raw in (edge, f"{edge}.{edge}", f"Win32.{edge}/ab"):
                assert normalize_family(raw) == split_normalize_family(raw), raw
        rng = random.Random(2027)
        for _ in range(3000):
            raw = "".join(rng.choices(WORD_PIECES, k=rng.randint(0, 16)))
            assert normalize_family(raw) == split_normalize_family(raw)

    def test_idempotent(self):
        rng = random.Random(8)
        samples = ["Win32.Morstar.ba", "APPL/Firseria.A.15", "Gen:Adware.Heur.1", "TROJAN x99"]
        for raw in samples + ["".join(rng.choices("abcXYZ./_123", k=12)) for _ in range(50)]:
            first = normalize_family(raw)
            if first is not None:
                assert normalize_family(first) == first


def _mask_verdict(column, i, j):
    """The verdict that column's label masks hold for samples i < j: +1
    from its same bit, -1 from its diff bit, 0 when neither is set. Each
    sample's row of pairs is padded to whole bytes, the first pair in the
    highest bit."""
    n = len(column)
    row_bytes = [(n - 1 - r + 7) // 8 for r in range(n)]
    bit = 8 * sum(row_bytes) - 1 - (8 * sum(row_bytes[:i]) + j - i - 1)
    same, diff = _label_masks(column, _row_picks(n))
    return (same >> bit & 1) - (diff >> bit & 1)


class TestLabelMaskBits:
    def test_same_family(self):
        assert _mask_verdict(THREE_BY_TWO.column("x"), 0, 1) == 1

    def test_different_family(self):
        assert _mask_verdict(THREE_BY_TWO.column("x"), 0, 2) == -1

    def test_null_cell(self):
        assert _label_masks([None, "f"], _row_picks(2)) == (0, 0)
        assert _mask_verdict([None, "f"], 0, 1) == 0

    def test_symmetry(self):
        # Reversing the samples swaps each pair's order, never its verdict.
        rng = random.Random(17)
        table = _random_table(rng, 6, 3, 0.3)
        n = table.sample_count
        for engine in table.engines:
            column = table.column(engine)
            for i in range(n):
                for j in range(i + 1, n):
                    assert _mask_verdict(column, i, j) == _mask_verdict(column[::-1], n - 1 - j, n - 1 - i)


def _report_row(table, engine):
    return next(row for row in pcs_report(table) if row["engine"] == engine)


class TestWeight:
    def test_all_detected(self):
        row = _report_row(THREE_BY_TWO, "x")
        assert (row["detected"], row["weight"]) == (3, 1.0)

    def test_none_detected(self):
        table = _table(["m1", "m2"], ["x"], [[None], [None]])
        row = _report_row(table, "x")
        assert (row["detected"], row["weight"]) == (0, 0.0)

    def test_half_detected(self):
        table = _table(["m1", "m2", "m3", "m4"], ["x"], [["f"], [None], ["g"], [None]])
        row = _report_row(table, "x")
        assert (row["detected"], row["weight"]) == (2, 0.5)


def _approval(table, engine_x, engine_y):
    """Approval rate of engine_x by engine_y, from the masks and the
    approval term that pcs_report sums."""
    picks = _row_picks(table.sample_count)
    x = _label_masks(table.column(engine_x), picks)
    y = _label_masks(table.column(engine_y), picks)
    shared = ((x[0] & y[0]).bit_count(), (x[1] & y[1]).bit_count())
    return pcs._approval(shared, (x[0].bit_count(), x[1].bit_count()))


class TestApproval:
    def test_self_approval_with_both_pair_kinds(self):
        assert _approval(THREE_BY_TWO, "x", "x") == 2.0

    def test_hand_worked_half(self):
        assert _approval(THREE_BY_TWO, "x", "y") == 0.5

    def test_all_same_labels(self):
        table = _table(["m1", "m2", "m3"], ["x", "y"], [["f", "a"], ["f", "a"], ["f", "a"]])
        assert _approval(table, "x", "y") == 1.0

    def test_null_peer_counts_as_disagreement(self):
        table = _table(["m1", "m2"], ["x", "y"], [["f", None], ["f", "a"]])
        assert _approval(table, "x", "y") == 0.0

    def test_range(self):
        rng = random.Random(3)
        for _ in range(50):
            table = _random_table(rng, rng.randint(2, 7), rng.randint(1, 4), 0.25)
            for a in table.engines:
                for b in table.engines:
                    assert 0.0 <= _approval(table, a, b) <= 2.0


class TestPcsScore:
    def test_single_engine(self):
        table = _table(["m1", "m2", "m3"], ["x"], [["f"], ["f"], ["g"]])
        assert pcs_score(table, "x") == 2.0

    def test_identical_engines(self):
        assert pcs_score(IDENTICAL_PAIR, "x") == 2.0
        assert pcs_score(IDENTICAL_PAIR, "y") == 2.0

    def test_hand_worked_example(self):
        assert pcs_score(THREE_BY_TWO, "x") == 1.25

    def test_matches_brute_force(self):
        rng = random.Random(90125)
        for _ in range(80):
            table = _random_table(rng, rng.randint(2, 8), rng.randint(1, 5), 0.2)
            rows = [list(row) for row in table.labels]
            for engine in table.engines:
                expected = brute_force_pcs(
                    list(table.malware_ids), list(table.engines), rows, engine
                )
                score = pcs_score(table, engine)
                assert 0.0 <= score <= 2.0
                assert score == expected

    def test_label_bijection_invariance(self):
        rng = random.Random(404)
        for _ in range(40):
            table = _random_table(rng, rng.randint(2, 7), rng.randint(1, 4), 0.2)
            engine = rng.choice(table.engines)
            index = table.engine_index(engine)
            alphabet = sorted({row[index] for row in table.labels if row[index] is not None})
            renamed = {old: f"renamed_{k}" for k, old in enumerate(reversed(alphabet))}
            rows = tuple(
                tuple(
                    renamed[cell] if e == index and cell is not None else cell
                    for e, cell in enumerate(row)
                )
                for row in table.labels
            )
            other = EngineLabelTable(table.malware_ids, table.engines, rows)
            for probe in table.engines:
                assert pcs_score(table, probe) == pcs_score(other, probe)

    def test_adding_identical_engine_never_decreases(self):
        rng = random.Random(777)
        for _ in range(40):
            table = _random_table(rng, rng.randint(2, 7), rng.randint(1, 4), 0.2)
            engine = rng.choice(table.engines)
            index = table.engine_index(engine)
            clone = {mid: row[index] for mid, row in zip(table.malware_ids, table.labels)}
            bigger = table.with_engine("clone_of_x", clone)
            assert pcs_score(bigger, engine) >= pcs_score(table, engine) - 1e-12


class TestGroupingLabels:
    def test_two_groups(self):
        labels = grouping_to_labels(Grouping(0.5, (("A", "B"), ("C",))))
        assert labels == {"A": "g0", "B": "g0", "C": "g1"}

    def test_all_singletons(self):
        grouping = Grouping(0.0, (("A",), ("B",), ("C",)))
        assert len(set(grouping_to_labels(grouping).values())) == 3

    def test_one_group(self):
        grouping = Grouping(1.0, (("A", "B", "C"),))
        assert set(grouping_to_labels(grouping).values()) == {"g0"}


def _pair_verdict(indicator, a, b):
    """The verdict that indicator.pair_masks((a, b)) holds for its one
    pair: +1 from its same bit, -1 from its diff bit, 0 when neither is set."""
    same, diff = indicator.pair_masks((a, b))
    return (same != 0) - (diff != 0)


class TestTextMining:
    def test_identical_descriptions(self):
        grouping = text_mining_grouping({"a": "adware installer", "b": "adware installer"})
        assert _pair_verdict(grouping, "a", "b") == 1

    def test_disjoint_vocabulary(self):
        grouping = text_mining_grouping({"a": "adware installer", "b": "worm dropper"})
        assert _pair_verdict(grouping, "a", "b") == -1

    def test_hand_worked_cosine(self):
        # dot=2, norms sqrt(3)*sqrt(2) -> cosine ~0.816 above 0.7
        grouping = text_mining_grouping(
            {"a": "adware installer bundle", "b": "adware installer"}, threshold=0.7
        )
        assert _pair_verdict(grouping, "a", "b") == 1

    def test_empty_description_behaves_as_null(self):
        grouping = text_mining_grouping({"a": "adware", "b": ""})
        assert _pair_verdict(grouping, "a", "b") == 0
        assert "b" not in grouping.detected

    def test_stop_words_removed(self):
        grouping = text_mining_grouping({"a": "Win32 adware", "b": "variant adware"})
        assert _pair_verdict(grouping, "a", "b") == 1

    def test_words_equal_split_and_filter_rule(self):
        # Each id's vector holds the counts of the oracle's words, or is
        # None when none is left; the verdicts are the cosine rule's on
        # those counts.
        rng = random.Random(3141)
        for _ in range(200):
            n = rng.randint(2, 12)
            descriptions = {f"m{i}": "".join(rng.choices(WORD_PIECES, k=rng.randint(0, 24))) for i in range(n)}
            descriptions.update(rng.sample([(f"e{k}", edge) for k, edge in enumerate(STOP_WORD_EDGES)], 2))
            threshold = rng.choice([0.0, 0.5, 1.0])
            indicator = text_mining_grouping(descriptions, threshold=threshold)
            expected = {key: Counter(split_description_words(text)) for key, text in descriptions.items()}
            assert indicator._vectors == {key: counts or None for key, counts in expected.items()}

            def verdict(a, b):
                return cosine_verdict(expected[a], expected[b], threshold)

            ids = list(descriptions)
            assert indicator.pair_masks(ids) == _literal_masks(verdict, ids)

    def test_exact_threshold_one_on_identical(self):
        grouping = text_mining_grouping({"a": "adware installer", "b": "adware installer"}, threshold=1.0)
        assert _pair_verdict(grouping, "a", "b") == 1

    def test_index_counts_score_as_ints(self):
        class Count:  # an integer type other than int, as numpy's are
            def __init__(self, value):
                self.value = value

            def __index__(self):
                return self.value

        vectors = {"a": {"worm": 3, "adware": 1}, "b": {"worm": 2}, "c": {"adware": 5}}
        indexed = {key: {token: Count(count) for token, count in vector.items()} for key, vector in vectors.items()}
        ids = list(vectors)
        expected = PairwiseIndicator(vectors, 0.5).pair_masks(ids)
        assert PairwiseIndicator(indexed, 0.5).pair_masks(ids) == expected


def _literal_masks(verdict, items):
    """(same, diff) bitmasks by literal enumeration of the (i<j) pairs, the
    first pair in the highest bit, each row of pairs followed by the 0 bits
    that pad it to whole bytes."""
    same = diff = 0
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            value = verdict(items[i], items[j])
            same = same << 1 | (value == 1)
            diff = diff << 1 | (value == -1)
        pad = -(len(items) - 1 - i) % 8
        same <<= pad
        diff <<= pad
    return same, diff


class TestPairMasks:
    FAMILIES = [f"fam_{k}" for k in range(8)]

    def test_label_masks_equal_literal_enumeration(self):
        rng = random.Random(2718)
        columns = [[None, None], ["f", "f"], ["f", "g"], ["f", None], [None] * 9, ["f"] * 9]
        columns.append([None, "f", "g", "f", None])
        for _ in range(300):
            n = rng.randint(2, 60)
            families = self.FAMILIES[: rng.randint(1, 8)]
            null_rate = rng.choice([0.0, 0.2, 0.5, 1.0])
            column = [None if rng.random() < null_rate else rng.choice(families) for _ in range(n)]
            if rng.random() < 0.3:
                column[0] = column[-1] = None
            columns.append(column)
        for column in columns:
            assert _label_masks(column, _row_picks(len(column))) == _literal_masks(label_verdict, column)

    @pytest.mark.parametrize("n", [2, 8, 9, 10, 16, 17, 24, 25])
    def test_rows_at_byte_boundaries(self, n):
        # Rows of pairs that fill whole bytes, or end just past or just
        # short of one, with and without undetected first and last samples.
        rng = random.Random(n)
        words = ["adware", "installer", "worm", "dropper"]
        for ends_missed in (True, False, True, False):
            column = [rng.choice(self.FAMILIES[:3]) for _ in range(n)]
            descriptions = {f"m{i}": " ".join(rng.choices(words, k=rng.randint(1, 4))) for i in range(n)}
            if ends_missed:
                column[0] = column[-1] = None
                descriptions["m0"] = descriptions[f"m{n - 1}"] = "win32"
            assert _label_masks(column, _row_picks(len(column))) == _literal_masks(label_verdict, column)
            indicator = text_mining_grouping(descriptions, threshold=0.5)
            vectors = {key: Counter(vector or {}) for key, vector in indicator._vectors.items()}

            def verdict(a, b):
                return cosine_verdict(vectors[a], vectors[b], 0.5)

            ids = list(descriptions)
            assert indicator.pair_masks(ids) == _literal_masks(verdict, ids)

    def test_indicator_masks_equal_literal_enumeration(self):
        rng = random.Random(1618)
        words = ["adware", "installer", "worm", "dropper", "bundle", "win32"]
        cases = [
            ({"a": "", "b": "", "c": "worm"}, 0.7),
            ({"a": "adware worm", "b": "adware worm", "c": "adware worm"}, 1.0),
            ({"a": "a a b b", "b": "a b", "c": "b a", "d": "a b b"}, 1.0),
            # Dots at both ends of a field's range: dot = max_norm against
            # d* = 0, and dot = 0 against d* = max_norm.
            ({"a": "worm " * 6, "b": "worm " * 6, "c": "adware " * 6}, 0.0),
            ({"a": "worm " * 6, "b": "worm " * 6, "c": "adware " * 6}, 1.0),
        ]
        for _ in range(300):
            n = rng.randint(2, 40)
            descriptions = {f"m{i}": " ".join(rng.choices(words, k=rng.randint(0, 6))) for i in range(n)}
            cases.append((descriptions, rng.choice([0.0, 0.5, 0.7, 1.0])))
        indicators = []
        for descriptions, threshold in cases:
            ids = list(descriptions)
            rng.shuffle(ids)
            indicators.append((text_mining_grouping(descriptions, threshold=threshold), ids))
        # Rows of 255 to 513 samples whose first and last ids are
        # undetected, so their fields in every packed row stay 0.
        for n, threshold in zip((255, 256, 257, 513), (0.0, 0.1 + 0.2, 1.0, 0.7)):
            descriptions = {f"m{i}": " ".join(rng.choices(words, k=rng.randint(1, 6))) for i in range(n)}
            descriptions["m0"] = descriptions[f"m{n - 1}"] = "win32"
            indicators.append((text_mining_grouping(descriptions, threshold=threshold), list(descriptions)))
        # Common words in packed columns, rare ones in the index, and more
        # distinct norms than norm classes: pairs whose dot lies inside a
        # class's bracket are tested one by one, scaled copies (a cosine of
        # exactly 1) among them.
        rare = [f"r{k}" for k in range(400)]
        for n, threshold in zip((260, 300), (0.1 + 0.2, 1.0)):
            vectors = {}
            for i in range(n):
                vector = Counter(rng.choices(words[:4], k=rng.randint(0, 3)) + rng.choices(rare, k=rng.randint(1, 9)))
                vectors[f"m{i}"] = vector
                if rng.random() < 0.3:
                    vectors[f"m{i}x"] = Counter({word: count * rng.randint(2, 5) for word, count in vector.items()})
            indicator = PairwiseIndicator(vectors, threshold)
            assert len(set(indicator._norms.values())) > pcs._NORM_CLASSES
            ids = list(vectors)
            rng.shuffle(ids)
            indicators.append((indicator, ids))
        # Counts up to 2**40 need fields wider than 8 bytes; scaled copies of
        # one vector have a cosine of exactly 1. Each pair shares a rare word.
        for threshold in (0.0, 0.1 + 0.2, 1.0):
            vectors = {"first": None}
            for i in range(60):
                vector = Counter({word: rng.randint(1, 2**rng.choice([1, 20, 40])) for word in rng.sample(words, 3)})
                vector[f"r{i}"] = rng.randint(1, 2**40)
                vectors[f"c{i}"] = vector
                vectors[f"c{i}x"] = Counter({word: count * rng.randint(1, 3) for word, count in vector.items()})
            vectors["last"] = Counter()
            indicator = PairwiseIndicator(vectors, threshold)
            assert max(indicator._norms.values()) >= 2**64  # fields wider than 8 bytes
            indicators.append((indicator, list(vectors)))
        # Above 1, a threshold asks for more than any dot: d* is capped.
        twins = {"a": Counter(worm=6), "b": Counter(worm=6), "c": Counter(adware=6)}
        indicators.append((PairwiseIndicator(twins, 1.5), list(twins)))
        for indicator, ids in indicators:
            # Verdicts recomputed by the oracle from the indicator's token
            # counts, as brute_force_pcs reads them.
            vectors = {key: Counter(vector or {}) for key, vector in indicator._vectors.items()}

            def verdict(a, b):
                return cosine_verdict(vectors[a], vectors[b], indicator.threshold)

            assert indicator.pair_masks(ids) == _literal_masks(verdict, ids)

    @pytest.mark.parametrize("width", [1, 2])
    def test_tokens_held_at_the_packing_limit(self, width):
        # A token held by at least limit detected samples is packed into a
        # column; one held by fewer stays in the inverted index. At 200
        # samples the limit is 4 for 1-byte fields and 7 for 2-byte ones.
        rng = random.Random(width)
        n = 200
        limit = -(-n * width // pcs._POSTING_BYTES)
        assert limit >= 3
        words = ["adware", "worm", "dropper"]
        vectors = {f"m{i}": Counter(rng.choices(words, k=rng.randint(0, 3))) for i in range(n)}
        held = {f"held{count}": count for count in (limit - 1, limit, limit + 1)}
        for token, count in held.items():
            for key in rng.sample(sorted(vectors), count):
                vectors[key][token] = rng.randint(1, 2)
        if width == 2:
            vectors["m7"]["worm"] = 6
        for threshold in (0.1 + 0.2, 0.7):
            indicator = PairwiseIndicator(vectors, threshold)
            # Squared norms up to 30 fit 1-byte fields (3 spare bits); 36 does not.
            assert (max(indicator._norms.values()) > 30) == (width == 2)
            holders = Counter(token for key in indicator.detected for token in vectors[key])
            assert {token: holders[token] for token in held} == held
            ids = sorted(vectors)
            rng.shuffle(ids)

            def verdict(a, b):
                return cosine_verdict(vectors[a], vectors[b], threshold)

            assert indicator.pair_masks(ids) == _literal_masks(verdict, ids)

    def test_exact_cosine_ties_at_threshold_one(self):
        descriptions = {"a": "a a b b", "b": "a b", "c": "b a", "d": "a b b"}
        grouping = text_mining_grouping(descriptions, threshold=1.0)
        assert [_pair_verdict(grouping, *pair) for pair in ("ab", "ba", "bc")] == [1, 1, 1]
        assert [_pair_verdict(grouping, *pair) for pair in ("ad", "da")] == [-1, -1]
        vectors = {key: Counter(text.split()) for key, text in descriptions.items()}
        for i in descriptions:
            for j in descriptions:
                if i != j:
                    assert _pair_verdict(grouping, i, j) == cosine_verdict(vectors[i], vectors[j], 1.0)


class TestTableFormats:
    def test_json_round_trip(self):
        parsed = EngineLabelTable.from_json(THREE_BY_TWO.to_json())
        assert parsed == THREE_BY_TWO

    def test_csv_round_trip_with_nulls(self):
        table = _table(["m1", "m2"], ["x", "y"], [["f", None], [None, "g"]])
        parsed = EngineLabelTable.from_csv(table.to_csv())
        assert parsed == table

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_csv_round_trip_awkward_names(self, final_newline):
        names = CSV_AWKWARD_LABELS
        n = len(names)
        cells = [[names[(i + j) % n] if (i + j) % 3 else None for j in range(n)] for i in range(n)]
        table = _table(names, names, cells)
        text = table.to_csv()
        assert text.endswith("\n")
        assert EngineLabelTable.from_csv(text if final_newline else text[:-1]) == table

    def test_normalized_table(self):
        table = _table(["m1", "m2"], ["x"], [["Win32.Morstar.ba"], ["APPL/Firseria.A.15"]])
        assert table.normalized().labels == (("morstar",), ("firseria",))


class TestReport:
    def test_sorted_by_score(self):
        report = pcs_report(THREE_BY_TWO)
        assert [row["engine"] for row in report] == ["x", "y"]
        assert report[0]["pcs"] == report[1]["pcs"] == 1.25
        assert all(set(row) == {"engine", "detected", "weight", "pcs"} for row in report)

    def test_includes_indicator_engines(self):
        descriptions = {"m1": "installer adware", "m2": "installer adware", "m3": "worm"}
        report = pcs_report(THREE_BY_TWO, [("Text_Mining", text_mining_grouping(descriptions))])
        names = [row["engine"] for row in report]
        assert "Text_Mining" in names
        tm = next(row for row in report if row["engine"] == "Text_Mining")
        assert tm["detected"] == 3
        assert 0.0 <= tm["pcs"] <= 2.0

    def test_injected_grouping_matches_manual_column(self):
        grouping = Grouping(0.5, (("m1", "m2"), ("m3",)))
        injected = THREE_BY_TWO.with_engine("vote", grouping_to_labels(grouping))
        report = pcs_report(injected)
        manual = THREE_BY_TWO.with_engine(
            "vote", {"m1": "g0", "m2": "g0", "m3": "g1"}
        )
        assert report == pcs_report(manual)

    def test_every_row_equals_brute_force(self):
        # Random tables with tied labels, undetected cells and (mostly) a
        # text-mining peer; every row, the text-mining one included, must
        # equal the literal evaluation exactly.
        rng = random.Random(31337)
        words = ["adware", "installer", "worm", "dropper", "bundle", "win32"]
        cases = []
        for _ in range(150):
            null_rate = rng.choice([0.0, 0.2, 0.5, 1.0])
            table = _random_table(rng, rng.randint(2, 9), rng.randint(1, 5), null_rate)
            extras = []
            if rng.random() < 0.8:
                descriptions = {
                    mid: " ".join(rng.choices(words, k=rng.randint(0, 4))) for mid in table.malware_ids
                }
                threshold = rng.choice([0.0, 0.5, 0.7, 1.0])
                extras.append(("Text_Mining", text_mining_grouping(descriptions, threshold=threshold)))
            cases.append((table, extras))
        # A 257-sample text-mining engine: rows of whole packed columns.
        table = _random_table(rng, 257, 1, 0.2)
        descriptions = {mid: " ".join(rng.choices(words, k=rng.randint(0, 4))) for mid in table.malware_ids}
        cases.append((table, [("Text_Mining", text_mining_grouping(descriptions, threshold=0.5))]))
        for table, extras in cases:
            ids = list(table.malware_ids)
            rows = [list(row) for row in table.labels]
            report = pcs_report(table, extras)
            assert len(report) == len(table.engines) + len(extras)
            for row in report:
                expected = brute_force_pcs(ids, list(table.engines), rows, row["engine"], extras)
                assert row["pcs"] == expected


def _random_table(rng: random.Random, n: int, m: int, null_rate: float) -> EngineLabelTable:
    ids = tuple(f"m{i}" for i in range(n))
    engines = tuple(f"e{j}" for j in range(m))
    families = ["fam_a", "fam_b", "fam_c", "fam_d"]
    rows = tuple(
        tuple(None if rng.random() < null_rate else rng.choice(families) for _ in engines)
        for _ in ids
    )
    return EngineLabelTable(ids, engines, rows)
