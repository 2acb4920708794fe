"""Independent reference implementations used to cross-check the fast paths.

These deliberately re-derive results from scratch (full re-scans, literal
pair enumeration) instead of sharing code with the package.
"""

from __future__ import annotations

import re
from collections import Counter
from math import inf
from xml.sax.saxutils import escape, quoteattr

from malbehave.phylo import PhyloNode, PhyloTree
from malbehave.profile import PATH_LIKE_KEYS
from malbehave.similarity import DistanceMatrix


def per_event_xml(profile):
    """A profile document formatted event by event, every value through
    xml.sax.saxutils.quoteattr: the serializer's original rule."""
    lines = ['<?xml version="1.0"?>', "<Profile>", "<Meta>", f"<Hash>{escape(profile.hash)}</Hash>"]
    lines.append(f"<Process_id>{profile.process_id}</Process_id>")
    lines.append(f"<Duration>{profile.duration_seconds}</Duration>")
    if profile.parent_hash is not None:
        lines.append(f"<Parent_hash>{escape(profile.parent_hash)}</Parent_hash>")
    lines.append("</Meta>")
    if not profile.events:
        lines.append("<Execution/>")
    else:
        lines.append("<Execution>")
        for event in profile.events:
            parts = [event.api_name] + [f"{key}={quoteattr(value)}" for key, value in event.attributes]
            if event.return_value is not None:
                parts.append(f"Return={quoteattr(event.return_value)}")
            parts.append(f'Time="{event.timestamp}"')
            lines.append(f"<{' '.join(parts)} />")
        lines.append("</Execution>")
    lines.append("</Profile>")
    return "\n".join(lines) + "\n"


def escaped_token(api_name, attributes, return_value, config):
    """Token of one call by the original rule, which escapes every part,
    names and keys included: '%', '|' and '=' become %25, %7C and %3D.
    Pairs are sorted by key, path-like values lowercased when
    normalize_paths is on, and the return value kept when include_return
    is on."""

    def escape(text):
        return text.replace("%", "%25").replace("|", "%7C").replace("=", "%3D")

    if not config.with_params:
        return api_name
    parts = [escape(api_name)]
    for key, value in sorted(attributes):
        if config.normalize_paths and key in PATH_LIKE_KEYS:
            value = value.lower()
        parts.append(escape(key) + "=" + escape(value))
    if config.include_return and return_value is not None:
        parts.append("Return=" + escape(return_value))
    return "|".join(parts)


def naive_upgma_merges(labels, entries, *, size_weighted: bool = False):
    """Merge sequence [(height, members_a, members_b), ...] by re-scanning a
    full working matrix each round.

    Same contract as the package tree builder: merge the minimal-distance
    pair (ties to the lexicographically smallest representative pair),
    place the merge at that distance, update rows with the plain average of
    the two old distances.
    """
    clusters = [frozenset({label}) for label in labels]
    sizes = [1] * len(labels)
    matrix = [list(row) for row in entries]
    merges = []
    while len(clusters) > 1:
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                rep_i = min(clusters[i])
                rep_j = min(clusters[j])
                pair = (rep_i, rep_j) if rep_i < rep_j else (rep_j, rep_i)
                key = (matrix[i][j], pair)
                if best is None or key < best[0]:
                    best = (key, i, j)
        (height, _), i, j = best
        merges.append((height, clusters[i], clusters[j]))

        merged_row = []
        for x in range(len(clusters)):
            if x in (i, j):
                continue
            if size_weighted:
                value = (sizes[i] * matrix[x][i] + sizes[j] * matrix[x][j]) / (sizes[i] + sizes[j])
            else:
                value = (matrix[x][i] + matrix[x][j]) / 2
            merged_row.append(value)

        keep = [x for x in range(len(clusters)) if x not in (i, j)]
        new_matrix = [[matrix[a][b] for b in keep] for a in keep]
        for row, value in zip(new_matrix, merged_row):
            row.append(value)
        new_matrix.append(merged_row + [0.0])
        matrix = new_matrix
        merged_cluster = clusters[i] | clusters[j]
        merged_size = sizes[i] + sizes[j]
        clusters = [clusters[x] for x in keep] + [merged_cluster]
        sizes = [sizes[x] for x in keep] + [merged_size]
    return merges


# The package's tree builder before it collapsed classes of equal rows:
# every leaf is a row of the working matrix, so each duplicate is merged
# through the full n-row loop. Node ids, child order and height bits of
# the collapsed builder must equal this one's.
def dense_upgma(matrix: DistanceMatrix, *, size_weighted: bool = False) -> PhyloTree:
    """Build the merge tree for a distance matrix.

    Merge heights are checked to be non-decreasing while the tree is built;
    with the average update rule this holds by construction.
    """
    n = matrix.size
    nodes = [PhyloNode(i, 0.0, None, label) for i, label in enumerate(matrix.labels)]
    # Row s of the working matrix d holds the cluster whose smallest label
    # has rank s: a merge keeps the lower row, so row order is tie order.
    # Retired columns and the diagonal hold inf, which every update keeps;
    # a retired row is never read again.
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

    # The rows not yet merged away, in order: the only rows a merge visits.
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


def tree_merges(tree):
    """Internal nodes of a package tree in merge order, as oracle tuples."""
    out = []
    for node in tree.nodes:
        if node.children is not None:
            a, b = node.children
            out.append((node.height, frozenset(tree.leaf_labels(a)), frozenset(tree.leaf_labels(b))))
    return out


def brute_force_characteristics(tree, groups, sets, alpha):
    """{group index: (common, distinct)} straight from the definitions.

    Leaf sets are rebuilt bottom-up from the children. A group's subtree
    root is the node with the smallest leaf set holding the whole group,
    found by scanning every node; its parent is the node with the smallest
    leaf set strictly containing the root's. A common set keeps each
    element held by at least (1 - alpha) times the member count.
    """
    leaf_sets = []
    for node in tree.nodes:  # children precede their parent
        if node.children is None:
            leaf_sets.append(frozenset({node.label}))
        else:
            leaf_sets.append(leaf_sets[node.children[0]] | leaf_sets[node.children[1]])

    def common(labels):
        member_sets = [sets[label] for label in labels]
        needed = (1.0 - alpha) * len(member_sets)
        union = frozenset().union(*member_sets)
        return frozenset(e for e in union if sum(e in member for member in member_sets) >= needed)

    out = {}
    for index, group in enumerate(groups):
        root = min((leaves for leaves in leaf_sets if frozenset(group) <= leaves), key=len)
        group_common = common(group)
        if root == leaf_sets[tree.root]:
            out[index] = (group_common, group_common)
        else:
            parent = min((leaves for leaves in leaf_sets if root < leaves), key=len)
            out[index] = (group_common, group_common - common(parent))
    return out


def split_normalize_family(detection_string):
    """Family name by the original rule: lowercase, split on runs of
    characters outside [a-z0-9_], drop empty tokens, the stop words win32,
    variant and troj_gen, and pure-hex tokens ([0-9a-f]+, all-digit ones
    among them), then keep the first longest token; None when none is left."""
    kept = [
        token
        for token in re.split(r"[^a-z0-9_]+", detection_string.lower())
        if token and token not in ("win32", "variant", "troj_gen") and not re.fullmatch(r"[0-9a-f]+", token)
    ]
    return max(kept, key=len) if kept else None


def split_description_words(text):
    """Description words by the original rule: lowercase, split on runs of
    characters outside [a-z0-9_], drop empty words and the stop words
    win32, variant and troj_gen."""
    return [
        word
        for word in re.split(r"[^a-z0-9_]+", text.lower())
        if word and word not in ("win32", "variant", "troj_gen")
    ]


def label_verdict(a, b):
    """One label engine's verdict on a pair from its two cells: 0 when it
    missed (None) either sample, +1 for the same family, -1 otherwise."""
    if a is None or b is None:
        return 0
    return 1 if a == b else -1


def cosine_verdict(a, b, threshold):
    """Text-mining pair verdict from two token Counters: 0 when either is
    empty, else +1 when cosine >= threshold, compared as the package does
    (squared, without square roots), and -1 otherwise."""
    if not a or not b:
        return 0
    dot = sum(a[token] * b[token] for token in a.keys() & b.keys())
    norm_a = sum(count * count for count in a.values())
    norm_b = sum(count * count for count in b.values())
    return 1 if dot * dot >= threshold * threshold * norm_a * norm_b else -1


def brute_force_pcs(ids, engines, rows, engine, indicators=()):
    """Literal conditional-probability evaluation of one engine's score.

    rows[i][e] is the family name engine e gave sample i, or None.
    indicators lists extra (name, text-mining indicator) engines that take
    part as peers after the label engines, as in pcs_report. Only the
    indicator's per-id token counts, threshold and ``detected`` set are
    read; every pair verdict is recomputed by cosine_verdict.
    """
    n = len(ids)
    names = list(engines) + [name for name, _ in indicators]
    m = len(names)
    x = names.index(engine)
    counters = [
        ({key: Counter(vector or {}) for key, vector in indicator._vectors.items()}, indicator.threshold)
        for _, indicator in indicators
    ]

    def same_family(e, i, j):
        if e >= len(engines):
            vectors, threshold = counters[e - len(engines)]
            return cosine_verdict(vectors[ids[i]], vectors[ids[j]], threshold)
        return label_verdict(rows[i][e], rows[j][e])

    if x < len(engines):
        detected = sum(1 for i in range(n) if rows[i][x] is not None)
    else:
        detected = sum(1 for i in range(n) if ids[i] in indicators[x - len(engines)][1].detected)
    weight = detected / n

    total = 0.0
    for y in range(m):
        x_same = x_diff = y_agrees_same = y_agrees_diff = 0
        for i in range(n):
            for j in range(i + 1, n):
                vx = same_family(x, i, j)
                vy = same_family(y, i, j)
                if vx == 1:
                    x_same += 1
                    if vy == 1:
                        y_agrees_same += 1
                elif vx == -1:
                    x_diff += 1
                    if vy == -1:
                        y_agrees_diff += 1
        rate = y_agrees_same / x_same if x_same else 0.0
        rate += y_agrees_diff / x_diff if x_diff else 0.0
        total += rate
    return weight * total / m
