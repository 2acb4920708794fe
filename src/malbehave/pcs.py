"""Pairwise classification scoring of labeling engines, plus baseline engines.

Engines assign family labels to malware samples; different engines use
different naming schemes, so engines are compared on pairs of samples
instead of on raw names. For one engine and one pair, the indicator is +1
when the engine puts both samples in the same family, -1 when it separates
them, and 0 when it missed (did not detect) either sample.

An engine's score is its detection coverage times the average, over all
engines (itself included), of the approval rate: the probability that a
peer agrees with the engine's same-family pairs plus the probability that
the peer agrees with its different-family pairs. Scores live in [0, 2].
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import re
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Mapping, Sequence

from .phylo import Grouping
from .profile import _checked_record, csv_rows, typed

# A pair verdict (-1, 0, +1) held as a signed byte -> its '0'/'1' mask bit.
_SAME_BIT = bytes.maketrans(b"\xff\x00\x01", b"001")
_DIFF_BIT = bytes.maketrans(b"\xff\x00\x01", b"100")
# The top byte of a text-mining packed field -> its signed verdict byte:
# [0x80, 0xa0) is +1, [0x60, 0x80) is -1, 0x00 (an undetected sample) is 0.
_TOP_VERDICT = bytes(1 if 0x80 <= top < 0xA0 else 0xFF if 0x60 <= top < 0x80 else 0 for top in range(256))
# Classes of squared norms that share text-mining thresholds: bounds the
# threshold work however many distinct norms there are.
_NORM_CLASSES = 32
# About the bytes of one text-mining posting: a (sample, count) tuple and
# its list slot.
_POSTING_BYTES = 64
# Field width in bytes -> the array typecode of an unsigned int that wide.
_ARRAY_CODES = {array(code).itemsize: code for code in "BHILQ"}
# About the bytes of one engine's (same or diff) mask over one block of
# pair rows: pcs_report holds a few blocks' masks per engine, never whole ones.
_BLOCK_BYTES = 64 * 1024


# Words that name no family: dropped from detection strings and descriptions.
_STOP_WORDS = frozenset({"win32", "variant", "troj_gen"})

# A word is a maximal run of [a-z0-9_] in lowercased text, so troj_gen is
# one word. The guard matches only at the start of a word that is not a
# stop word; no later position of a word can start a match.
_GUARD = rf"(?<![a-z0-9_])(?!(?:{'|'.join(sorted(_STOP_WORDS))})(?![a-z0-9_]))"
_WORD = re.compile(_GUARD + r"[a-z0-9_]+")  # a description word
# A word that is not pure hex: one holding a character outside [0-9a-f].
_FAMILY_WORD = re.compile(_GUARD + r"[0-9a-f]*[g-z_][a-z0-9_]*")
# The first longest of some words, None when there are none.
_longest = functools.partial(max, key=len, default=None)


def normalize_family(detection_string: str) -> str | None:
    """Family name for a detection string, or None when nothing usable remains.

    Lowercase, split on non-alphanumeric runs (underscores stay), drop stop
    words and pure-hex words (all-digit ones among them), keep the first
    longest word left.
    """
    return _longest(_FAMILY_WORD.findall(detection_string.lower()))


def _first_repeat(values: Sequence[str]) -> str:
    seen = set()
    for value in values:
        if value in seen:
            return value
        seen.add(value)


def _check_cells(cells) -> None:
    for cell in cells:
        if cell is not None and not isinstance(cell, str):
            raise ValueError(f"label cells must be text or None, got {cell!r}")


def _little_endian(values, width: int) -> bytes:
    """The ints of values as consecutive width-byte little-endian fields."""
    code = _ARRAY_CODES.get(width)
    if code is None:
        return b"".join([value.to_bytes(width, "little") for value in values])
    fields = array(code, values)
    if sys.byteorder == "big":  # array packs in native order
        fields.byteswap()
    return fields.tobytes()


@dataclass(frozen=True)
class EngineLabelTable:
    """n samples x m engines of optional family names (None = not detected)."""

    malware_ids: tuple[str, ...]
    engines: tuple[str, ...]
    labels: tuple[tuple[str | None, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "malware_ids", tuple(self.malware_ids))
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(self, "labels", tuple(tuple(row) for row in self.labels))
        for values, what in ((self.malware_ids, "malware id"), (self.engines, "engine name")):
            if len(set(values)) != len(values):
                raise ValueError(f"duplicate {what} {_first_repeat(values)!r}: {what}s must be unique")
        if len(self.labels) != len(self.malware_ids):
            raise ValueError(
                f"expected {len(self.malware_ids)} label rows, got {len(self.labels)}"
            )
        for row in self.labels:
            if len(row) != len(self.engines):
                raise ValueError(f"label row has {len(row)} cells for {len(self.engines)} engines")
            _check_cells(row)

    @property
    def sample_count(self) -> int:
        return len(self.malware_ids)

    def engine_index(self, engine: str) -> int:
        try:
            return self.engines.index(engine)
        except ValueError:
            raise ValueError(f"unknown engine {engine!r}") from None

    def column(self, engine: str) -> tuple[str | None, ...]:
        index = self.engine_index(engine)
        return tuple(row[index] for row in self.labels)

    def with_engine(self, name: str, labels_by_id: Mapping[str, str | None]) -> "EngineLabelTable":
        """New table with one extra engine column; ids missing from the
        mapping are marked not-detected."""
        if name in self.engines:
            raise ValueError(f"engine {name!r} already present")
        column = tuple(map(labels_by_id.get, self.malware_ids))
        _check_cells(column)  # the only cells this table has not checked
        rows = tuple(row + (cell,) for row, cell in zip(self.labels, column))
        return _checked_record(EngineLabelTable, self.malware_ids, self.engines + (name,), rows)

    def normalized(self) -> "EngineLabelTable":
        """Run every cell through normalize_family."""
        # normalize_family is pure: once per distinct string, as one map chain.
        cells = set().union(*self.labels)
        cells.discard(None)
        family = dict(zip(cells, map(_longest, map(_FAMILY_WORD.findall, map(str.lower, cells)))))
        rows = tuple(tuple(map(family.get, row)) for row in self.labels)
        return _checked_record(EngineLabelTable, self.malware_ids, self.engines, rows)

    def to_json(self) -> str:
        data = {
            "malwares": list(self.malware_ids),
            "engines": list(self.engines),
            "labels": [list(row) for row in self.labels],
        }
        return json.dumps(data, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EngineLabelTable":
        data = typed(json.loads(text), "label table", dict)
        ids = typed(data.get("malwares"), "malwares", [str])
        engines = typed(data.get("engines"), "engines", [str])
        return cls(ids, engines, typed(data.get("labels"), "labels", [list]))

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["malware_id", *self.engines])
        for malware_id, row in zip(self.malware_ids, self.labels):
            writer.writerow([malware_id, *("" if cell is None else cell for cell in row)])
        return out.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "EngineLabelTable":
        rows = list(csv_rows(text))
        if len(rows) < 2:
            raise ValueError("label table CSV needs a header row and at least one sample row")
        engines = tuple(rows[0][1:])
        ids = []
        labels = []
        for row in rows[1:]:
            if len(row) != len(engines) + 1:
                raise ValueError(f"row for {row[0]!r} has {len(row) - 1} cells for {len(engines)} engines")
            ids.append(row[0])
            labels.append(tuple(cell if cell else None for cell in row[1:]))
        return cls(tuple(ids), engines, tuple(labels))


# The padded pair layout of every engine's (same, diff) masks: the (i<j)
# pairs of n samples in row-major order, the first pair in the highest bit,
# each sample's row of n - 1 - i pairs followed by the 0 bits that pad it
# to whole bytes. Row i then starts at byte sum(ceil((n - 1 - r) / 8) for
# r < i), a mask holds at most n(n - 1)/2 + 7n bits, and since padding
# bits are 0 in every mask, no count |x & y| changes.


def _row_picks(n: int) -> tuple[list[int], list[slice]]:
    """Where row i of the padded pair layout of n samples sits in a row of
    n sample bits shifted left by (i + 1) % 8 bits: the slice from byte
    (i + 1) // 8 on, ceil((n - 1 - i) / 8) bytes long."""
    shifts = [(i + 1) % 8 for i in range(n)]
    slices = [slice((i + 1) // 8, (i + 1) // 8 + (n - i + 6) // 8) for i in range(n)]
    return shifts, slices


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """The rows of the padded pair layout of n samples cut into runs
    [a, b), last to first: each run's rows hold _BLOCK_BYTES bytes of a
    mask or more, but the one that starts at row 0. A run of rows is a
    contiguous byte range of every mask, so any count |x & y| is the sum
    of its runs' counts."""
    blocks = []
    end = n
    size = 0
    for i in reversed(range(n)):
        size += (n - i + 6) // 8
        if size >= _BLOCK_BYTES or not i:
            blocks.append((i, end))
            end, size = i, 0
    return blocks


def _label_blocks(column: Sequence[str | None], picks: tuple[list[int], list[slice]], blocks: list[tuple[int, int]]):
    """Yield the number of samples one label engine detects, once its rows
    are set up, then its pair verdicts over each run of rows [a, b) of
    blocks as (same, diff) bitmasks, those rows' bytes of the padded pair
    layout; picks is _row_picks(len(column)).

    Row i of same marks the later samples of its cell's family, and row i
    of diff the later detected samples less those; both are 0 for an
    undetected cell. Each is a slice of an n-bit row of samples (sample k
    at the k-th bit from the top) from bit i + 1 on: the row of the
    family's samples, or of every detected sample, kept shifted by the
    bits (i + 1) % 8 that row i needs, so a run of rows is one join of
    slices. A family's last sample has none of its family after it, so its
    same row is 0 and a family of one needs no copy.
    """
    n = len(column)
    shifts, slices = picks
    size = (n + 7) // 8
    full = (1 << 8 * size) - 1
    samples_of = defaultdict(list)
    for k, cell in enumerate(column):
        samples_of[cell].append(k)
    samples_of.pop(None, None)
    zero = bytes(size)
    same_rows = [zero] * n
    detected_rows = [zero] * n

    def share(samples: list[int], readers: list[int], rows: list[bytes]) -> None:
        # rows[k] for each reader k: the samples' row shifted as row k needs,
        # one copy per shift, shared by every reader with that shift.
        bits = bytearray(size)
        for k in samples:
            bits[k // 8] |= 0x80 >> k % 8
        row = int.from_bytes(bits, "big")
        copies = {}
        for k in readers:
            if shifts[k] not in copies:
                copies[shifts[k]] = ((row << shifts[k]) & full).to_bytes(size, "big")
            rows[k] = copies[shifts[k]]

    detected = [k for samples in samples_of.values() for k in samples]
    share(detected, detected, detected_rows)
    for samples in samples_of.values():
        share(samples, samples[:-1], same_rows)
    count = len(detected)
    del samples_of, detected  # not kept through the blocks
    yield count
    for a, b in blocks:
        same, later = (
            int.from_bytes(b"".join(map(operator.getitem, rows[a:b], slices[a:b])), "big")
            for rows in (same_rows, detected_rows)
        )
        yield same, later ^ same


def _approval(shared: Sequence[int], x_counts: Sequence[int]) -> float:
    """Sum over (same, diff) of |x & y| / |x|, where shared holds the
    |x & y| and x_counts the |x|; a term with |x| = 0 is 0."""
    value = 0.0
    for num, den in zip(shared, x_counts):
        if den:
            value += num / den
    return value


def pcs_score(table: EngineLabelTable, engine: str) -> float:
    """Detection weight times the mean approval rate over all engines.

    Builds the whole pcs_report, every engine against every other (m x m
    approvals for m engines), to return one row: call pcs_report once to
    score several engines.
    """
    table.engine_index(engine)
    return next(row["pcs"] for row in pcs_report(table) if row["engine"] == engine)


class PairwiseIndicator:
    """Same-family indicator backed by description similarity.

    pcs_report takes its +1 / 0 / -1 verdicts over every pair of a
    table's ids as one engine's. Ids whose description is empty (or all
    stop words) behave as not detected: any pair touching them scores 0.
    A pair (a, b), a before b, scores +1 when dot² >= threshold *
    threshold * norm_a * norm_b, with squared norms (exact integers, since
    counts are), and -1 otherwise. Token counts must be non-negative
    integers: ints, or any type with __index__ (a numpy integer, say).

    The verdicts come from packed columns: many small integers in the
    fields of one Python int, added with one big-int add (SWAR). Each
    field is w = 8 * width bits: the fewest whole bytes that hold
    max_norm + 1 with 3 bits to spare, rounded up to 1, 2, 4 or 8 bytes
    where that is enough. A token held by at least ceil(n * width /
    _POSTING_BYTES) detected samples, whose postings would take about the
    memory of a column (n * width bytes), gets one: its count for each
    sample, one field per sample. Any other stays in an inverted index of
    the later samples, one Python step per pair of samples that hold it.
    Rows are scored last to first. Row i is base + sum(count_i[t] *
    column_t) + the index's part of each dot, packed from i + 1 on, and
    its field j > i reads 2^(w-1) - d + dot(i, j). Its top byte is in
    [0x80, 0xa0) when dot >= d, in [0x60, 0x80) when not, and 0x00 for an
    undetected sample; one strided slice from i + 1 on and one translate
    turn them into signed verdicts, and one translate per mask into the
    row's '0'/'1' text. A block of rows is that text, each row followed by
    the zeros that pad it, parsed with one int(..., 2) per mask. The
    fields up to i are never read, and no field carries into the next: a
    dot is at most max_norm (Cauchy-Schwarz), and the 3 spare bits keep
    2^(w-1) + max_norm below 2^w.

    d is the smallest dot that scores +1 (d*) for the lowest norms of the
    pair's norm classes: the sorted distinct norms cut into at most
    _NORM_CLASSES runs. While each class holds one norm, that is the
    pair's own d*. Otherwise a second base, from the classes' highest
    norms, marks the dots that score +1 for every norm of the classes,
    and each pair whose dot lies between the two is tested on its own.
    """

    def __init__(self, vectors: Mapping[str, Mapping[str, int] | None], threshold: float):
        self._vectors = dict(vectors)
        self.threshold = float(threshold)
        self.detected = frozenset(key for key, vec in self._vectors.items() if vec)
        # Squared norms, exact integers since counts are; computed once per id.
        self._norms = {}
        for key in self.detected:
            counts = self._vectors[key].values()
            try:
                norm = sum(map(operator.mul, counts, counts))
            except TypeError:
                norm = None
            if type(norm) is not int:
                # Integer counts of another type (numpy's, say) become ints.
                try:
                    vector = {token: operator.index(count) for token, count in self._vectors[key].items()}
                except TypeError:
                    raise ValueError(f"token counts of {key!r} must be non-negative integers") from None
                self._vectors[key] = vector
                counts = vector.values()
                norm = sum(map(operator.mul, counts, counts))
            if min(counts) < 0:
                raise ValueError(f"token counts of {key!r} must be non-negative integers")
            self._norms[key] = norm

    def _block_masks(self, ids: Sequence[str], blocks: list[tuple[int, int]]):
        """Yield the number of ids detected, once ids are checked and the
        columns set up, then the verdicts over the (i<j) row-major pairs of
        ids as (same, diff) bitmasks in the padded pair layout, a bit set
        where the verdict is +1 / -1: one pair of masks for each run of rows
        [a, b) of blocks, the runs taken last to first."""
        for key in ids:
            if key not in self._vectors:
                raise ValueError(f"unknown malware id {key!r}")
        n = len(ids)
        norms = [self._norms.get(key) for key in ids]
        vectors = [self._vectors[key] for key in ids]
        distinct = sorted({norm for norm in norms if norm is not None})
        # No dot product exceeds max_norm (Cauchy-Schwarz), so no d* needs to.
        cap = (distinct[-1] if distinct else 0) + 1
        width = (cap.bit_length() + 3 + 7) // 8
        width = next((size for size in _ARRAY_CODES if size >= width), width)
        code = _ARRAY_CODES.get(width)
        bits = 8 * width
        half = 1 << (bits - 1)
        size = n * width
        threshold = self.threshold

        def least_dot(norm_a: int, norm_b: int) -> int:
            # The smallest d with d * d >= bound, capped at cap: d * d is an
            # integer, so it reaches bound exactly when it reaches ceil(bound).
            bound = threshold * threshold * norm_a * norm_b
            if not bound <= cap * cap:
                return cap
            d = math.isqrt(math.ceil(bound))
            return d if d * d >= bound else d + 1

        # Norm classes: the sorted distinct norms cut into at most
        # _NORM_CLASSES runs. The bound grows with each norm, so a pair of
        # classes' d* from their lowest norms and from their highest norms
        # bracket the d* of every pair of norms they hold.
        classes = min(len(distinct), _NORM_CLASSES)
        class_of = {norm: rank * classes // len(distinct) for rank, norm in enumerate(distinct)}
        lowest: dict[int, int] = {}
        highest: dict[int, int] = {}
        for norm in distinct:
            lowest.setdefault(class_of[norm], norm)
            highest[class_of[norm]] = norm
        # class -> a 1 in the field of each sample of that class
        ones = [bytearray(size) for _ in range(classes)]
        for j, norm in enumerate(norms):
            if norm is not None:
                ones[class_of[norm]][width * j] = 1
        ones = [int.from_bytes(mask, "little") for mask in ones]
        # class of row i -> its (low, high) base; high is None where it equals low
        bases = []
        for c in range(classes):
            low, high = (
                sum((half - least_dot(ends[c], ends[k])) * mask for k, mask in enumerate(ones))
                for ends in (lowest, highest)
            )
            bases.append((low, None if high == low else high))

        # Each token's store, chosen once: a packed column for one held by
        # at least limit samples, else postings of (j, count) in the index.
        limit = -(-size // _POSTING_BYTES)
        held = Counter(token for vector in vectors if vector for token in vector)
        # n fields of width bytes each; a list where no array type is that wide.
        columns = {
            token: array(code, bytes(size)) if code else [0] * n for token, count in held.items() if count >= limit
        }
        del held  # every distinct token: not kept through the rows
        for j, vector in enumerate(vectors):
            for token, count in (vector or {}).items():
                column = columns.get(token)
                if column is not None:
                    column[j] = count
        for token, column in columns.items():
            columns[token] = int.from_bytes(_little_endian(column, width), "little")
        postings: dict[str, list[tuple[int, int]]] = {}
        yield n - norms.count(None)

        # Rows last to first: the index holds the later samples. A block's
        # rows are gathered as '0'/'1' text, the last row first, each row
        # with the zeros that pad it, and parsed once per mask.
        for a, b in blocks:
            same_text = []
            diff_text = []
            for i in reversed(range(a, b)):
                span = n - 1 - i
                pad = -span % 8
                norm = norms[i]
                if norm is None:
                    zeros = b"0" * (span + pad)
                    same_text.append(zeros)
                    diff_text.append(zeros)
                    continue
                dots = 0
                spread = None  # j -> the inverted index's part of dot(i, j)
                for token, count in vectors[i].items():
                    column = columns.get(token)
                    if column is not None:
                        dots += column if count == 1 else count * column
                        continue
                    later = postings.get(token)
                    if later is None:
                        postings[token] = [(i, count)]
                        continue
                    if spread is None:
                        spread = [0] * n
                    for j, other in later:
                        spread[j] += count * other
                    later.append((i, count))
                if not span:  # the last row holds no pairs
                    continue
                first = i + 1
                if spread is not None:
                    dots += int.from_bytes(_little_endian(spread[first:], width), "little") << bits * first
                low, high = bases[class_of[norm]]
                # The top byte of each field from the first later sample on.
                top = width * first + width - 1
                found = (dots + low).to_bytes(size, "little")[top::width].translate(_TOP_VERDICT)
                if high is not None and 1 in found:
                    sure = (dots + high).to_bytes(size, "little")[top::width].translate(_TOP_VERDICT)
                    # The low base's +1 and the high base's -1 (xor 0xfe) mark the
                    # pairs whose dot lies between the bracket's ends: test each.
                    unsure = int.from_bytes(found, "little") ^ int.from_bytes(sure, "little")
                    fields = dots.to_bytes(size, "little")[width * first :]
                    found = bytearray(found)
                    while unsure:
                        f = ((unsure & -unsure).bit_length() - 1) >> 3
                        unsure ^= 0xFE << (8 * f)
                        dot = int.from_bytes(fields[width * f : width * (f + 1)], "little")
                        same = dot * dot >= threshold * threshold * norm * norms[first + f]
                        found[f] = 1 if same else 0xFF
                # The row's signed verdicts as its own bits, then its padding.
                zeros = b"0" * pad
                same_text += (zeros, found.translate(_SAME_BIT))
                diff_text += (zeros, found.translate(_DIFF_BIT))
            same_text.reverse()
            diff_text.reverse()
            yield int(b"".join(same_text) or b"0", 2), int(b"".join(diff_text) or b"0", 2)


def text_mining_grouping(descriptions: Mapping[str, str], threshold: float = 0.7) -> PairwiseIndicator:
    """Bag-of-words cosine grouping over per-sample text descriptions.

    Two samples count as same-family when the cosine similarity of their
    term-frequency vectors (after stop-word removal) reaches the threshold.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {threshold!r}")
    for malware_id, text in descriptions.items():
        if not isinstance(text, str):
            typed(text, f"description of {malware_id!r}", str)
    word_lists = map(_WORD.findall, map(str.lower, descriptions.values()))
    vectors = (Counter(words) if words else None for words in word_lists)
    return PairwiseIndicator(dict(zip(descriptions, vectors)), threshold)


def grouping_to_labels(grouping: Grouping) -> dict[str, str]:
    """Synthetic engine column for a grouping: members of group k get
    family name 'g<k>'; every member counts as detected."""
    labels: dict[str, str] = {}
    for index, group in enumerate(grouping.groups):
        for label in group:
            labels[label] = f"g{index}"
    return labels


def pcs_report(
    table: EngineLabelTable,
    extra_indicators: Sequence[tuple[str, PairwiseIndicator]] = (),
) -> list[dict]:
    """Score every engine (and any extra pairwise-indicator engines, which
    participate as peers too). Rows {engine, detected, weight, pcs} sorted
    by descending score."""
    if table.sample_count < 2:
        raise ValueError("pair scoring needs at least 2 malware samples")
    names = list(table.engines) + [name for name, _ in extra_indicators]
    if not names:
        raise ValueError("pair scoring needs at least 1 engine")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate engine name {_first_repeat(names)!r} in report")
    n = table.sample_count
    ids = table.malware_ids

    # Each engine's (same, diff) masks, one block of pair rows at a time.
    blocks = _row_blocks(n)
    picks = _row_picks(n)
    sources = [_label_blocks(column, picks, blocks) for column in zip(*table.labels)]
    text_sources = [indicator._block_masks(ids, blocks) for _, indicator in extra_indicators]
    # Each engine first yields its detected count, once checked and set up:
    # text mining first, so an id it does not know is refused before any
    # label engine has started.
    detected = list(map(next, text_sources))
    detected[:0] = map(next, sources)
    sources += text_sources

    m = len(sources)
    # shared[x][y] sums (|same_x & same_y|, |diff_x & diff_y|) over the
    # blocks. It is symmetric, so each unordered pair of engines is
    # intersected once into one cell; shared[x][x] holds x's own counts.
    shared = [[None] * m for _ in range(m)]
    for x in range(m):
        for y in range(x, m):
            shared[x][y] = shared[y][x] = [0, 0]
    for masks in zip(*sources):
        for x, (same_x, diff_x) in enumerate(masks):
            for y in range(x, m):
                same_y, diff_y = masks[y]
                cell = shared[x][y]
                cell[0] += (same_x & same_y).bit_count()
                cell[1] += (diff_x & diff_y).bit_count()
        # zip reuses its tuple when nothing else holds it, dropping each of
        # this block's masks as it takes the next block's.
        del masks
    rows = []
    for x in range(m):
        weight = detected[x] / n
        total = 0.0
        for y in range(m):
            total += _approval(shared[x][y], shared[x][x])
        rows.append(
            {
                "engine": names[x],
                "detected": detected[x],
                "weight": weight,
                "pcs": weight * total / m,
            }
        )
    rows.sort(key=lambda row: (-row["pcs"], row["engine"]))
    return rows
