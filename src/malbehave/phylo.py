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
rule above holds. The pass that updates the live rows after a merge also
repairs their caches, rescanning only a row whose minimum sat in a
column the merge changed. That makes a tree cost about O(n^2) on typical
matrices instead of O(n^3).

Equal rows form a class, and the DistanceMatrix holds one row per class
(spawned children replay their parent's calls, so a corpus holds many
equal token sets). A full run makes all its distance-0 merges first: class
by class in the order of their smallest labels, each chaining its members
in label order. Under the plain rule the merged row equals the class row,
because (d + d) / 2 == d. Under size_weighted the running mean of equal
values drifts in the last bits: a chain of s rows turns a value v they all
hold into drift(v, s), where w_1 = v and w_{t+1} = (t * w_t + v) / (t + 1),
so the cell between classes p < q ends at drift(drift(v, |p|), |q|). So
upgma emits those chains and runs the loop above on one row per class,
starting from those cells, which gives the same nodes, ids and height bits.
That holds only when each class row holds one zero, its own; otherwise
every label is its own class and the loop runs on all n rows.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from functools import cache
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


def _collapsible(row: tuple[float, ...]) -> bool:
    """Whether a class row holds one zero, its own, so it can stand as one tree row."""
    return row.count(0.0) == 1


def _drift(value: float, size: int) -> float:
    """The size-weighted cell a chain of `size` equal rows leaves where each
    held value: w_1 = value, w_{t+1} = (t * w_t + value) / (t + 1)."""
    w = value
    for t in range(1, size):
        w = (t * w + value) / (t + 1)
    return w


def upgma(matrix: DistanceMatrix, *, size_weighted: bool = False) -> PhyloTree:
    """Build the merge tree for a distance matrix.

    Merge heights are checked to be non-decreasing while the tree is built;
    with the average update rule this holds by construction.
    """
    rows, classes = matrix.rows, matrix.classes
    nodes = [PhyloNode(i, 0.0, None, label) for i, label in enumerate(matrix.labels)]
    order = sorted(range(matrix.size), key=matrix.labels.__getitem__)
    # Members in label order; dict order lists the classes by their smallest label.
    members: dict[int, list[int]] = {}
    for a in order:
        members.setdefault(classes[a], []).append(a)
    groups = list(members.values()) if all(map(_collapsible, rows)) else [[a] for a in order]
    # Chain each class at distance 0 (a full run's first merges); its class row stands for the top.
    reps, node_of = [], []
    for first, *rest in groups:
        top = first
        for b in rest:
            nodes.append(PhyloNode(len(nodes), 0.0, (top, b)))
            top = len(nodes) - 1
        reps.append(classes[first])
        node_of.append(top)
    k = len(reps)
    # Row s of the working matrix d holds the cluster whose smallest label
    # has rank s: a merge keeps the lower row, so row order is tie order.
    # Retired columns and the diagonal hold inf, which every update keeps;
    # a retired row is never read again.
    d = [[rows[a][b] if s != t else inf for t, b in enumerate(reps)] for s, a in enumerate(reps)]
    sizes = [len(group) for group in groups]
    if size_weighted:
        # Start from the cells the chains leave (module docstring).
        # DistanceMatrix checks symmetry with == and holds no -0.0, so the
        # two triangles hold the same bits and one drift, written to both,
        # is exact; each (value, size) pair is drifted once.
        drift = cache(_drift)
        for p, s in enumerate(sizes):
            if s > 1:
                row = d[p]
                for q in range(k):
                    if q != p:
                        row[q] = d[q][p] = drift(row[q], s)
    # near[s] is the minimum of d[s][s+1:] and col[s] the first column
    # holding it (the last row has no such cells).
    near = [inf] * k
    col = [k] * k

    def rescan(s: int) -> None:
        row = d[s]
        near[s] = value = min(row[s + 1 :])
        col[s] = row.index(value, s + 1)

    for s in range(k - 1):
        rescan(s)

    # The rows not yet merged away, in order: the only rows a merge visits.
    live = list(range(k))
    last_height = 0.0
    for _ in range(k - 1):
        height = min(near)
        i = near.index(height)
        j = col[i]
        assert height >= last_height - 1e-12, "merge heights must be non-decreasing"
        last_height = height

        a, b = node_of[i], node_of[j]
        nodes.append(PhyloNode(len(nodes), height, (a, b)))
        wi, wj = sizes[i], sizes[j]
        live.remove(j)
        # One pass updates every live row x and repairs its cache. Row i's
        # own turn keeps its inf diagonal and retires its cell in column j
        # ((inf + d[i][j]) / 2 is inf); row i rescans after the pass. Right
        # of its diagonal, a row above i changed in columns i and j: it
        # rescans if its minimum sat there, and otherwise keeps it unless
        # the new d[x][i] beats it or ties it further left. A row between
        # i and j lost only column j; rows below j see no change there.
        for x in live:
            row = d[x]
            if size_weighted:
                merged = (wi * row[i] + wj * row[j]) / (wi + wj)
            else:
                merged = (row[i] + row[j]) / 2
            row[i] = d[i][x] = merged
            row[j] = inf
            if x < i:
                c = col[x]
                if c == i or c == j:
                    rescan(x)
                elif merged < near[x] or (merged == near[x] and i < c):
                    near[x] = merged
                    col[x] = i
            elif i < x < j and col[x] == j:
                rescan(x)
        near[j] = inf
        node_of[i] = len(nodes) - 1
        sizes[i] = wi + wj
        rescan(i)

    return PhyloTree(tuple(nodes), len(nodes) - 1)


def cut_tree(tree: PhyloTree, threshold: float) -> Grouping:
    """Split leaves into groups: two leaves share a group iff their lowest
    common ancestor sits strictly below the threshold."""
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


# Newick punctuation, and any blank: in a str pattern \s matches exactly
# the characters for which str.isspace() holds (\f, \r and \x1c too).
_NEEDS_QUOTES = re.compile(r"[()\[\],:;'\"\s]")


def _quote_label(label: str) -> str:
    if _NEEDS_QUOTES.search(label):
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
