"""Jaccard distances between element sets and corpus distance matrices."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .profile import ElementSet, FeatureConfig, Profile, corpus_elements, csv_rows


def jaccard_distance(x: ElementSet, y: ElementSet) -> float:
    """1 - |x & y| / |x | y|. Two empty sets are identical (distance 0)."""
    if not x and not y:
        return 0.0
    return 1.0 - len(x & y) / len(x | y)


def _checked_labels(labels: Iterable[str]) -> tuple[str, ...]:
    labels = tuple(labels)
    if not labels:
        raise ValueError("distance matrix needs at least one label")
    seen = set()
    for label in labels:
        if not label:
            raise ValueError("matrix labels must be non-empty")
        if label in seen:
            raise ValueError(f"duplicate label {label!r}: matrix labels must be unique")
        seen.add(label)
    return labels


@dataclass(frozen=True, init=False)
class DistanceMatrix:
    """Symmetric pairwise distance matrix with zero diagonal, values in [0, 1].

    Labels with equal rows form a class: classes numbers each label's class
    in order of first appearance, and rows holds the k x k distances between
    the k classes. No cell is -0.0: a CSV's -0.000000 reads as 0.0.
    """

    labels: tuple[str, ...]
    classes: tuple[int, ...]
    rows: tuple[tuple[float, ...], ...]

    def __init__(self, labels: Iterable[str], entries: Iterable[Iterable[float]]):
        # The one place a matrix from outside is converted and checked:
        # rows are read one at a time (from_csv hands over its CSV reader)
        # and kept once per class, each cell goes through float() once, and
        # each off-diagonal pair is checked once, from the upper triangle.
        labels = _checked_labels(labels)
        n = len(labels)
        shape = f"matrix must be {n}x{n} to match its labels"
        classes = []
        distinct: dict[tuple[float, ...], int] = {}
        for i, row in enumerate(entries):
            if i == n:
                raise ValueError(f"{shape}: more than {n} rows")
            try:
                row = tuple(map((0.0).__add__, map(float, row)))  # 0.0 + -0.0 is 0.0
            except (TypeError, ValueError) as exc:
                raise ValueError(f"non-numeric distance cell in row {i}: {exc}") from None
            if len(row) != n:
                raise ValueError(f"{shape}: row {i} has {len(row)} cells")
            classes.append(distinct.setdefault(row, len(distinct)))
        if len(classes) != n:
            raise ValueError(f"{shape}: got {len(classes)} rows")
        # A lower cell (j, i) was checked as the mirror of (i, j), so this
        # walk reports the same first error as one over the full square.
        shared = list(distinct)
        for i, row in enumerate(map(shared.__getitem__, classes)):
            if row[i] != 0.0:
                raise ValueError(f"diagonal entry ({i},{i}) must be 0, got {row[i]!r}")
            for j in range(i + 1, n):
                value = row[j]
                if not 0.0 <= value <= 1.0:
                    raise ValueError(f"entry ({i},{j}) out of range [0,1]: {value!r}")
                if value != shared[classes[j]][i]:
                    raise ValueError(f"matrix is asymmetric at ({i},{j})")
        # A class's columns are equal (the matrix is symmetric): keep its last, cutting in place.
        columns = dict(zip(classes, range(n))).values()
        distinct.clear()
        for c, row in enumerate(shared):
            shared[c] = tuple(map(row.__getitem__, columns))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "classes", tuple(classes))
        object.__setattr__(self, "rows", tuple(shared))

    def _spread_rows(self) -> Iterator:
        """Each class row's n cells by one itemgetter (the one cell when n is 1)."""
        return map(itemgetter(*self.classes), self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[float, ...], ...]:
        """The n x n cells; the labels of a class share one row object."""
        if self.size == 1:
            return self.rows
        cells = list(self._spread_rows())
        return tuple(map(cells.__getitem__, self.classes))

    @property
    def size(self) -> int:
        return len(self.labels)

    def to_csv(self) -> str:
        """Header row of labels, then one row of distances per profile."""
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerow(self.labels)
        # A distance formatted as %.6f (the same text as f"{value:.6f}")
        # never needs CSV quoting, so each row is one format operation,
        # made once per class on its spread cells.
        line = ",".join(["%.6f"] * self.size) + "\n"
        text = list(map(line.__mod__, self._spread_rows()))
        out.writelines(map(text.__getitem__, self.classes))
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "DistanceMatrix":
        """Header row of labels, then one row of distances per label. The
        constructor converts and checks the rows as the reader yields them."""
        rows = csv_rows(text)
        labels = next(rows, None)
        if labels is None:
            raise ValueError("empty distance matrix CSV")
        return cls(tuple(labels), rows)


def distance_matrix(
    profiles: Sequence[Profile],
    config: FeatureConfig,
    labels: Iterable[str] | None = None,
) -> DistanceMatrix:
    """Pairwise Jaccard distance matrix over the profiles' element sets.

    Labels default to the profiles' hashes; pass explicit labels when one
    sample contributes several process profiles.
    """
    profiles = list(profiles)
    labels = [p.hash for p in profiles] if labels is None else list(labels)
    return jaccard_matrix(corpus_elements(profiles, config), labels)


def jaccard_matrix(element_sets: Sequence[ElementSet], labels: Iterable[str]) -> DistanceMatrix:
    """Pairwise Jaccard distance matrix over element sets, one per label.

    Equal sets form one class: only the k(k-1)/2 pairs of the k distinct
    sets are compared, and the matrix keeps those k x k cells. Tokens are
    numbered once, so each set becomes a Python-int bitmask and a cell
    needs one AND and one popcount: |x & y| = popcount(a & b) and
    |x | y| = |x| + |y| - |x & y|, the same integers jaccard_distance
    divides (two distinct sets are never both empty), so the same floats.
    """
    labels = list(labels)
    if not element_sets:
        raise ValueError("at least one profile is required")
    if len(labels) != len(element_sets):
        raise ValueError(f"got {len(labels)} labels for {len(element_sets)} profiles")
    labels = _checked_labels(labels)

    # Each distinct set is numbered once, in order of first appearance.
    class_ids: dict[ElementSet, int] = {}
    class_of = [class_ids.setdefault(elements, len(class_ids)) for elements in element_sets]
    token_ids = {}
    masks = []
    for elements in class_ids:
        mask = 0
        for token in elements:
            mask |= 1 << token_ids.setdefault(token, len(token_ids))
        masks.append(mask)
    sizes = [len(elements) for elements in class_ids]
    k = len(masks)
    rows = [[0.0] * k for _ in range(k)]
    for p in range(k):
        a, size_a, row = masks[p], sizes[p], rows[p]
        for q in range(p + 1, k):
            inter = (a & masks[q]).bit_count()
            row[q] = rows[q][p] = 1.0 - inter / (size_a + sizes[q] - inter)
        # Earlier passes filled the row's lower half, so it is complete.
        rows[p] = tuple(row)
    # By construction every cell is in [0, 1] and not -0.0, the rows are
    # symmetric with a 0 diagonal, and unequal sets give unequal rows: the
    # matrix skips the O(n^2) work DistanceMatrix does on values from outside.
    matrix = object.__new__(DistanceMatrix)
    object.__setattr__(matrix, "labels", labels)
    object.__setattr__(matrix, "classes", tuple(class_of))
    object.__setattr__(matrix, "rows", tuple(rows))
    return matrix
