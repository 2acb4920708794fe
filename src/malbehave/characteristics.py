"""Per-group characteristic element sets and classification of new profiles.

A group's common set holds the elements shared by (almost) all of its
members; the endurance fraction alpha tolerates a few outliers. Its
distinct set is what remains after subtracting the common set of the
group's parent node in the tree, i.e. the behavior that separates the
group from its nearest relatives.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .phylo import Grouping, PhyloTree
from .profile import ElementSet, typed


@dataclass(frozen=True)
class EnduranceConfig:
    """alpha: outlier tolerance for common sets; min_score: classification cutoff."""

    alpha: float = 0.1
    min_score: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {self.alpha!r}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score!r}")


@dataclass(frozen=True)
class GroupCharacteristics:
    group_id: int
    common: frozenset
    distinct: frozenset
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("group size must be at least 1")
        if not self.distinct <= self.common:
            raise ValueError("distinct characteristics must be a subset of the common set")


def common_set(member_sets: Sequence[ElementSet], alpha: float) -> frozenset:
    """Elements present in at least a (1 - alpha) fraction of the members.

    alpha=0 is the plain intersection. The boundary counts: an element held
    by exactly (1 - alpha) * n members is included.
    """
    members = list(member_sets)
    if not members:
        raise ValueError("common_set needs at least one member")
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha!r}")
    counts: Counter = Counter()
    for member in members:
        counts.update(member)
    needed = (1.0 - alpha) * len(members)
    return frozenset(element for element, count in counts.items() if count >= needed)


def _subtree_root(parents: Mapping[int, int], leaves: Sequence[int]) -> int:
    """Lowest common ancestor of the given leaf nodes.

    A parent's id exceeds its children's, so while two or more nodes are
    left the smallest lies strictly below the ancestor: lift it to its
    parent until one node is left.
    """
    frontier = set(leaves)
    while len(frontier) > 1:
        node = min(frontier)
        frontier.remove(node)
        frontier.add(parents[node])
    return frontier.pop()


def distinct_characteristics(
    tree: PhyloTree,
    grouping: Grouping,
    members: Mapping[str, ElementSet],
    config: EnduranceConfig,
) -> dict[int, GroupCharacteristics]:
    """Common and distinct sets for every group of a tree cut.

    The distinct set subtracts the common set of the group's parent node
    (the lowest node strictly containing the group's subtree). A group
    covering the whole tree keeps its common set unchanged.
    """
    leaf_of = {node.label: node.id for node in tree.nodes if node.is_leaf}
    for group in grouping.groups:
        for label in group:
            if label not in members:
                raise ValueError(f"no element set for label {label!r}")
            if label not in leaf_of:
                raise ValueError(f"label {label!r} is not a leaf of the tree")
    parents = tree.parents()
    result: dict[int, GroupCharacteristics] = {}
    for group_id, group in enumerate(grouping.groups):
        common = common_set([members[label] for label in group], config.alpha)
        root_id = _subtree_root(parents, [leaf_of[label] for label in group])
        if root_id == tree.root:
            distinct = common
        else:
            parent_labels = tree.leaf_labels(parents[root_id])
            parent_common = common_set([members[label] for label in parent_labels], config.alpha)
            distinct = common - parent_common
        result[group_id] = GroupCharacteristics(group_id, common, distinct, len(group))
    return result


def classification_scores(
    sample: ElementSet, characteristics: Mapping[int, GroupCharacteristics]
) -> dict[int, float]:
    """Containment score per group: |sample & distinct| / |distinct|."""
    scores: dict[int, float] = {}
    for group_id, chars in characteristics.items():
        if not chars.distinct:
            scores[group_id] = 0.0
        else:
            scores[group_id] = len(sample & chars.distinct) / len(chars.distinct)
    return scores


def classify(
    sample: ElementSet,
    characteristics: Mapping[int, GroupCharacteristics],
    config: EnduranceConfig,
) -> int | None:
    """Most similar group by distinct-set containment, or None when no
    group reaches min_score. Ties go to the smallest group id."""
    if not characteristics:
        raise ValueError("no group characteristics to classify against")
    scores = classification_scores(sample, characteristics)
    best_id = min(scores, key=lambda group_id: (-scores[group_id], group_id))
    if scores[best_id] >= config.min_score:
        return best_id
    return None


# How many distinct tokens a report row shows in distinct_samples.
_SAMPLE_SIZE = 5


def characteristics_report(
    characteristics: Mapping[int, GroupCharacteristics],
    grouping: Grouping,
    *,
    include_sets: bool = False,
) -> list[dict]:
    """Rows of {id, size, members, common/distinct counts, sample tokens};
    the sample tokens are the first _SAMPLE_SIZE sorted distinct tokens.

    include_sets adds the full sorted token sets, which makes the report
    usable as a classifier input file.
    """
    rows = []
    for group_id in sorted(characteristics):
        chars = characteristics[group_id]
        distinct_sorted = sorted(chars.distinct)
        row = {
            "id": chars.group_id,
            "size": chars.size,
            "members": list(grouping.groups[group_id]),
            "common_count": len(chars.common),
            "distinct_count": len(chars.distinct),
            "distinct_samples": distinct_sorted[:_SAMPLE_SIZE],
        }
        if include_sets:
            row["common"] = sorted(chars.common)
            row["distinct"] = distinct_sorted
        rows.append(row)
    return rows


def characteristics_from_report(rows: list[dict]) -> dict[int, GroupCharacteristics]:
    """Rebuild group characteristics from a report written with include_sets.

    The report is untrusted input: it must be a list of objects with
    integer id and size, distinct ids, and common and distinct lists of
    strings; anything else is a ValueError.
    """
    result: dict[int, GroupCharacteristics] = {}
    for row in typed(rows, "characteristics report", list):
        group_id = typed(typed(row, "characteristics report row", dict).get("id"), "group id", int)
        if group_id in result:
            raise ValueError(f"characteristics report repeats group id {group_id}")
        result[group_id] = GroupCharacteristics(
            group_id,
            frozenset(typed(row.get("common"), "common", [str])),
            frozenset(typed(row.get("distinct"), "distinct", [str])),
            typed(row.get("size"), "group size", int),
        )
    return result
