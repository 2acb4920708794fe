"""Shared synthetic templates and pipeline helpers for the test suite."""

from __future__ import annotations

import random

from malbehave import (
    ApiEvent,
    CorpusSpec,
    DistanceMatrix,
    EnduranceConfig,
    FamilyTemplate,
    FeatureConfig,
    classify,
    cut_tree,
    distinct_characteristics,
    extract_elements,
    jaccard_distance,
    upgma,
)

MUTATIONS_NO_SPAWN = ("drop_event", "duplicate_event", "perturb_param", "insert_noise_event")


def family_template(
    name: str,
    *,
    motif_count: int = 4,
    pool_size: int = 3,
    ops=("drop_event", "duplicate_event", "perturb_param", "insert_noise_event", "spawn_child"),
    value_prefix: str | None = None,
) -> FamilyTemplate:
    """File/registry/process/library motif with family-specific resources."""
    stem = value_prefix or name
    paths = tuple(f"c:\\windows\\temp\\{stem}{i}.exe" for i in range(pool_size))
    keys = tuple(f"hkcu\\software\\{stem}\\run{i}" for i in range(pool_size))
    libs = tuple(f"{stem}mod{i}.dll" for i in range(pool_size))
    events = []
    for i in range(motif_count):
        path = paths[i % pool_size]
        key = keys[i % pool_size]
        lib = libs[i % pool_size]
        events.extend(
            [
                ApiEvent(
                    "CreateFile",
                    (
                        ("hName", path),
                        ("desiredAccess", "GENERIC_WRITE"),
                        ("creationDisposition", "CREATE_ALWAYS"),
                    ),
                    "SUCCESS",
                ),
                ApiEvent("WriteFile", (("hName", path),), "SUCCESS"),
                ApiEvent("RegCreateKey", (("hKey", key),), "SUCCESS"),
                ApiEvent(
                    "RegSetValue",
                    (("hKey", key), ("type", "REG_SZ"), ("data", f"{stem} payload {i}")),
                    "SUCCESS",
                ),
                ApiEvent("LoadLibrary", (("lpFileName", lib),), "SUCCESS"),
                ApiEvent(
                    "CreateProcessInternal",
                    (("lpApplicationName", path), ("lpCommandLine", f"{path} /silent {i}")),
                    "SUCCESS",
                ),
            ]
        )
    return FamilyTemplate(
        name,
        tuple(events),
        frozenset(ops),
        {"hName": paths, "hKey": keys, "lpFileName": libs},
    )


def benign_template(name: str = "benign", *, motif_count: int = 4) -> FamilyTemplate:
    """Same API-name motif as family_template but a disjoint value vocabulary."""
    return family_template(
        name,
        motif_count=motif_count,
        ops=MUTATIONS_NO_SPAWN,
        value_prefix=f"program files\\{name}\\viewer",
    )


def four_family_spec(
    *, variants: int = 10, rate: float = 0.15, seed: int = 20140401, motif_count: int = 4
) -> CorpusSpec:
    names = ("alpha", "bravo", "charlie", "delta")
    return CorpusSpec(
        tuple((family_template(name, motif_count=motif_count), variants) for name in names),
        rate,
        seed,
    )


def matrix_from_sets(labels, sets_by_label) -> DistanceMatrix:
    n = len(labels)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = jaccard_distance(sets_by_label[labels[i]], sets_by_label[labels[j]])
            rows[i][j] = d
            rows[j][i] = d
    return DistanceMatrix(tuple(labels), tuple(tuple(row) for row in rows))


TIE_GRID = (0.1, 0.2, 0.2, 0.4, 0.4, 0.4, 0.8, 1.0)
ZERO_TIE_GRID = (0.0, 0.0, 0.3, 0.3, 0.3, 0.6, 1.0)


def random_matrix(rng: random.Random, n: int, grid=None, *, shuffled: bool = False) -> DistanceMatrix:
    """Values drawn from grid (forced ties), or continuous when grid is None.

    shuffled labels make label rank differ from matrix order (L10 sorts
    before L2), so the tie rule cannot lean on row order.
    """
    labels = [f"L{i}" for i in range(n)]
    if shuffled:
        rng.shuffle(labels)
    rows = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if grid:
                value = rng.choice(grid)
            else:
                value = round(rng.random(), 6)
            rows[i][j] = value
            rows[j][i] = value
    return DistanceMatrix(tuple(labels), tuple(tuple(row) for row in rows))


# Labels a CSV must quote or keep whole: a line feed, a comma and a quote,
# which the writer quotes, and \f and U+2028, which it does not but which
# str.splitlines would split at.
CSV_AWKWARD_LABELS = ("a\nb", "c\x0cd", "e\u2028f", "g,h", 'i"j', "k")


# name -> (matrix CSV text, the error DistanceMatrix.from_csv raises). Each
# is one fault in a valid 3x3 matrix, except the last four, whose several
# faults must be reported in order: labels, then rows from the top (a row's
# cells, its length, the row count), then the upper triangle row by row.
_MATRIX = ("a,b,c", "0,0.5,1", "0.5,0,0.25", "1,0.25,0")
_SHAPE = "matrix must be 3x3 to match its labels"
_MALFORMED_MATRIX_LINES = {
    "empty": (("", ""), "empty distance matrix CSV"),
    "too-few-rows": (_MATRIX[:3], f"{_SHAPE}: got 2 rows"),
    "header-only": (_MATRIX[:1], f"{_SHAPE}: got 0 rows"),
    "too-many-rows": (_MATRIX + ("0,0,0",), f"{_SHAPE}: more than 3 rows"),
    "ragged-row": (_MATRIX[:2] + ("0.5,0",) + _MATRIX[3:], f"{_SHAPE}: row 1 has 2 cells"),
    "non-numeric": (
        ("a,b,c", "0,x,1") + _MATRIX[2:],
        "non-numeric distance cell in row 0: could not convert string to float: 'x'",
    ),
    "nan": (("a,b,c", "0,nan,1", "nan,0,0.25", _MATRIX[3]), "entry (0,1) out of range [0,1]: nan"),
    "inf": (("a,b,c", "0,inf,1", "inf,0,0.25", _MATRIX[3]), "entry (0,1) out of range [0,1]: inf"),
    "negative": (("a,b,c", "0,-0.5,1", "-0.5,0,0.25", _MATRIX[3]), "entry (0,1) out of range [0,1]: -0.5"),
    "over-one": (_MATRIX[:2] + ("0.5,0,1.5", "1,1.5,0"), "entry (1,2) out of range [0,1]: 1.5"),
    "asymmetric": (_MATRIX[:3] + ("1,0.75,0",), "matrix is asymmetric at (1,2)"),
    "diagonal": (_MATRIX[:3] + ("1,0.25,0.1",), "diagonal entry (2,2) must be 0, got 0.1"),
    "empty-label": (("a,,c",) + _MATRIX[1:], "matrix labels must be non-empty"),
    "duplicate-label": (("a,b,a",) + _MATRIX[1:], "duplicate label 'a': matrix labels must be unique"),
    "label-before-rows": (("a,a,c", "0,x"), "duplicate label 'a': matrix labels must be unique"),
    "cell-before-row-count": (
        ("a,b,c", "0,0.5,1", "0.5,x,0.25"),
        "non-numeric distance cell in row 1: could not convert string to float: 'x'",
    ),
    "row-count-before-values": (("a,b,c", "0,2,1", "2,0,0.25"), f"{_SHAPE}: got 2 rows"),
    # (2,0) differs from (0,2), (1,2) is out of range on both sides and
    # (1,1) and (2,2) are not 0: (0,2) comes first.
    "several-values": (("a,b,c", "0,0.5,0.4", "0.5,0.3,1.5", "0.9,1.5,0.2"), "matrix is asymmetric at (0,2)"),
}
MALFORMED_MATRIX_CSV = {
    name: ("\n".join(lines) + "\n", message) for name, (lines, message) in _MALFORMED_MATRIX_LINES.items()
}


def profile_document(execution: str, meta: str = "<Process_id>1</Process_id><Duration>10</Duration>") -> str:
    """A profile document with Hash "ab", the given meta fields after it
    and the given <Execution> content."""
    return f"<Profile><Meta><Hash>ab</Hash>{meta}</Meta><Execution>{execution}</Execution></Profile>"


def mean_distance(labels_a, labels_b, sets_by_label) -> float:
    """Mean pairwise distance between two label sets (within one set when
    both arguments are the same sequence)."""
    total = 0.0
    count = 0
    if list(labels_a) == list(labels_b):
        for i, a in enumerate(labels_a):
            for b in labels_a[i + 1 :]:
                total += jaccard_distance(sets_by_label[a], sets_by_label[b])
                count += 1
    else:
        for a in labels_a:
            for b in labels_b:
                total += jaccard_distance(sets_by_label[a], sets_by_label[b])
                count += 1
    return total / count


def family_of_map(truth) -> dict[str, int]:
    return {label: index for index, group in enumerate(truth.groups) for label in group}


def ten_fold_wrong_rates(
    labeled,
    truth,
    thresholds,
    feature: FeatureConfig,
    *,
    alpha: float = 0.0,
    min_score: float = 0.5,
    folds: int = 10,
    seed: int = 7,
) -> dict[float, float]:
    """Hold-out classification error per threshold.

    Each fold's held-out profiles are classified against the tree, groups,
    and characteristics built from the remaining profiles. A prediction is
    wrong when the predicted group's majority ground-truth family differs
    from the held-out profile's family; unclassified profiles are not
    counted as wrong.
    """
    labels = [label for label, _ in labeled]
    elements = {label: extract_elements(profile, feature) for label, profile in labeled}
    family_of = family_of_map(truth)

    order = list(labels)
    random.Random(seed).shuffle(order)
    fold_sets = [set(order[k::folds]) for k in range(folds)]

    rates: dict[float, float] = {}
    for threshold in thresholds:
        wrong = 0
        total = 0
        for fold in fold_sets:
            if not fold:
                continue
            train = [label for label in labels if label not in fold]
            if len(train) < 2:
                continue
            tree = upgma(matrix_from_sets(train, elements))
            grouping = cut_tree(tree, threshold)
            config = EnduranceConfig(alpha=alpha, min_score=min_score)
            chars = distinct_characteristics(tree, grouping, elements, config)
            for test_label in sorted(fold):
                total += 1
                predicted = classify(elements[test_label], chars, config)
                if predicted is None:
                    continue
                group_families = sorted(
                    (family_of[member] for member in grouping.groups[predicted])
                )
                majority = max(set(group_families), key=lambda fam: (group_families.count(fam), -fam))
                if majority != family_of[test_label]:
                    wrong += 1
        rates[threshold] = wrong / total if total else 0.0
    return rates
