"""UPGMA phylogenetic trees over distance matrices, threshold cuts, Newick export.

The clustering follows the simple average-linkage recipe: repeatedly merge
the two clusters at minimal distance, place the merge node at that distance
(not half of it), and set the new cluster's distance to every other cluster
x to (d[x][i] + d[x][j]) / 2. A size-weighted update is available behind
the ``size_weighted`` switch for the textbook variant. Ties on the minimal
distance go to the lexicographically smallest pair of cluster
representatives (a cluster is represented by its smallest leaf label):
the working matrix keeps its rows in label order, and each merge takes
its first minimum in row-major order. Results are therefore reproducible
across runs and platforms.

Each row caches its nearest neighbour (Müllner's generic algorithm,
arXiv:1109.2378): the smallest distance right of the diagonal and the
first column that holds it. A merge takes the first row whose cached
distance is smallest and that row's cached column. The matrix is
symmetric, so that is the first minimum in row-major order, and the tie
rule above holds. Only rows whose cache a merge may have changed are
rescanned, which makes a tree cost about O(n^2) on typical matrices
instead of O(n^3).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from math import inf
from typing import Iterable

from .profile import typed, typed_float
from .similarity import DistanceMatrix


@dataclass(frozen=True)
class PhyloNode:
    """Tree node: a leaf (height 0, no children, its label) or a merge of
    two nodes (label None); tree.leaf_labels gives a subtree's leaves."""

    id: int
    height: float
    children: tuple[int, int] | None
    label: str | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(frozen=True)
class PhyloTree:
    """Merge tree with n leaves (ids 0..n-1) and n-1 internal nodes.

    nodes is indexed by id in creation order, so a node's children always
    appear before it.
    """

    nodes: tuple[PhyloNode, ...]
    root: int

    @property
    def leaf_count(self) -> int:
        return sum(1 for node in self.nodes if node.is_leaf)

    def parents(self) -> dict[int, int]:
        """Map of node id to parent node id (the root is absent)."""
        out: dict[int, int] = {}
        for node in self.nodes:
            if node.children is not None:
                for child in node.children:
                    out[child] = node.id
        return out

    def leaf_labels(self, node_id: int | None = None) -> tuple[str, ...]:
        """Leaf labels of a subtree in left-to-right order."""
        start = self.root if node_id is None else node_id
        labels: list[str] = []
        stack = [start]
        while stack:
            node = self.nodes[stack.pop()]
            if node.children is None:
                labels.append(node.label)
            else:
                stack.extend(reversed(node.children))
        return tuple(labels)


@dataclass(frozen=True)
class Grouping:
    """Partition of the leaf labels produced by cutting a tree at a threshold."""

    threshold: float
    groups: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")
        object.__setattr__(self, "groups", tuple(tuple(group) for group in self.groups))
        seen: set[str] = set()
        for group in self.groups:
            if not group:
                raise ValueError("groups must be non-empty")
            for label in group:
                if label in seen:
                    raise ValueError(f"label {label!r} appears in more than one group")
                seen.add(label)

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(label for group in self.groups for label in group)

    def group_of(self, label: str) -> int:
        for index, group in enumerate(self.groups):
            if label in group:
                return index
        raise ValueError(f"unknown label {label!r}")

    def to_json(self) -> str:
        data = {"threshold": self.threshold, "groups": [list(group) for group in self.groups]}
        return json.dumps(data, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Grouping":
        data = typed(json.loads(text), "grouping", dict)
        threshold = typed_float(data.get("threshold"), "threshold")
        return cls(threshold, typed(data.get("groups"), "groups", [[str]]))


def upgma(matrix: DistanceMatrix, *, size_weighted: bool = False) -> PhyloTree:
    """Build the merge tree for a distance matrix.

    Merge heights are checked to be non-decreasing while the tree is built;
    with the average update rule this holds by construction.
    """
    n = matrix.size
    nodes = [PhyloNode(i, 0.0, None, label) for i, label in enumerate(matrix.labels)]
    # Row s of the working matrix d holds the cluster whose smallest label
    # has rank s: a merge keeps the lower row, so row order is tie order.
    # Retired rows and the diagonal hold inf, which every update keeps.
    order = sorted(range(n), key=matrix.labels.__getitem__)
    d = [[matrix.entries[a][b] if a != b else inf for b in order] for a in order]
    node_of = list(order)
    sizes = [1] * n
    # near[s] is the minimum of d[s][s+1:] and col[s] the first column
    # holding it (the last row has no such cells).
    near = [inf] * n
    col = [n] * n

    def rescan(s: int) -> None:
        row = d[s]
        near[s] = value = min(row[s + 1 :])
        col[s] = row.index(value, s + 1)

    for s in range(n - 1):
        rescan(s)

    # The rows not yet merged away, in order. A retired row and column
    # hold inf, which an update would keep, so the loops below skip them.
    live = list(range(n))
    last_height = 0.0
    for _ in range(n - 1):
        height = min(near)
        i = near.index(height)
        j = col[i]
        assert height >= last_height - 1e-12, "merge heights must be non-decreasing"
        last_height = height

        a, b = node_of[i], node_of[j]
        nodes.append(PhyloNode(len(nodes), height, (a, b)))
        wi, wj = sizes[i], sizes[j]
        live.remove(j)
        # Row i's own turn (x == i) keeps its inf diagonal and retires its
        # cell in column j: (inf + d[i][j]) / 2 is inf.
        for x in live:
            row = d[x]
            if size_weighted:
                merged = (wi * row[i] + wj * row[j]) / (wi + wj)
            else:
                merged = (row[i] + row[j]) / 2
            row[i] = d[i][x] = merged
            row[j] = inf
        d[j] = [inf] * n
        near[j] = inf
        node_of[i] = len(nodes) - 1
        sizes[i] = wi + wj

        # Row i changed right of the diagonal and column j is gone. A row
        # above i whose minimum sat in column i or j rescans; any other
        # row above i keeps its minimum unless the new d[x][i] beats it
        # or ties it further left. A row between i and j loses only
        # column j; rows below j see no change right of their diagonal.
        rescan(i)
        at_i = bisect_left(live, i)
        for x in live[:at_i]:
            c = col[x]
            if c == i or c == j:
                rescan(x)
            else:
                value = d[x][i]
                if value < near[x] or (value == near[x] and i < c):
                    near[x] = value
                    col[x] = i
        for x in live[at_i + 1 : bisect_left(live, j)]:
            if col[x] == j:
                rescan(x)

    return PhyloTree(tuple(nodes), len(nodes) - 1)


def cut_tree(tree: PhyloTree, threshold: float) -> Grouping:
    """Split leaves into groups: two leaves share a group iff their lowest
    common ancestor sits strictly below the threshold."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    groups: list[tuple[str, ...]] = []
    stack = [tree.root]
    while stack:
        node = tree.nodes[stack.pop()]
        if node.is_leaf or node.height < threshold:
            groups.append(tree.leaf_labels(node.id))
        else:
            stack.extend(reversed(node.children))
    return Grouping(threshold, tuple(groups))


def _format_length(value: float) -> str:
    rounded = round(value, 10)
    if rounded == int(rounded):
        return str(int(rounded))
    return repr(rounded)


def _quote_label(label: str) -> str:
    if any(ch in label for ch in "(),:;'\" \t\n"):
        return "'" + label.replace("'", "''") + "'"
    return label


def to_newick(tree: PhyloTree) -> str:
    """Newick text with branch lengths parent.height - child.height."""
    root = tree.nodes[tree.root]
    if root.is_leaf:
        return f"{_quote_label(root.label)}:0;"
    rendered: dict[int, str] = {}
    for node in tree.nodes:  # children always precede their parent
        if node.is_leaf:
            rendered[node.id] = _quote_label(node.label)
        else:
            inner = ",".join(
                f"{rendered[child]}:{_format_length(node.height - tree.nodes[child].height)}"
                for child in node.children
            )
            rendered[node.id] = f"({inner})"
    return rendered[tree.root] + ";"


def _as_partition(value: "Grouping | Iterable[Iterable[str]]") -> list[frozenset[str]]:
    groups = value.groups if isinstance(value, Grouping) else value
    return [frozenset(group) for group in groups]


def rand_index(a: "Grouping | Iterable[Iterable[str]]", b: "Grouping | Iterable[Iterable[str]]") -> float:
    """Fraction of label pairs on which two partitions agree (both together
    or both apart). 1.0 means identical partitions."""
    part_a = _as_partition(a)
    part_b = _as_partition(b)
    assign_a: dict[str, int] = {}
    assign_b: dict[str, int] = {}
    for index, group in enumerate(part_a):
        for label in group:
            assign_a[label] = index
    for index, group in enumerate(part_b):
        for label in group:
            assign_b[label] = index
    if set(assign_a) != set(assign_b):
        raise ValueError("partitions cover different label sets")
    n = len(assign_a)
    total = n * (n - 1) // 2
    if total == 0:
        return 1.0

    def pairs(items) -> int:
        return sum(c * (c - 1) // 2 for c in Counter(items).values())

    labels = sorted(assign_a)
    same_a = pairs(assign_a[l] for l in labels)
    same_b = pairs(assign_b[l] for l in labels)
    same_both = pairs((assign_a[l], assign_b[l]) for l in labels)
    agreements = total + 2 * same_both - same_a - same_b
    return agreements / total
