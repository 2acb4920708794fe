r"""Deterministic synthetic corpus generator with per-family ground truth.

Stands in for a live sandbox: a family template describes a base sequence
of API calls (drop a file, set registry keys, spawn a process, ...) and a
set of allowed mutations; variants are derived by mutating the base
sequence with a seeded generator. The same spec and seed always produce
byte-identical corpora, so generated corpora double as golden test
fixtures. All randomness comes from a self-contained xorshift64* stream;
nothing platform-dependent is involved.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .phylo import Grouping
from .profile import ApiEvent, Profile, _checked_event, _checked_profile, serialize_profile, typed, typed_float

_MASK64 = (1 << 64) - 1

FILE_APIS = ("CreateFile", "ReadFile", "WriteFile", "DeleteFile", "CopyFile", "CloseHandle")
REGISTRY_APIS = (
    "RegCloseKey",
    "RegQueryValue",
    "RegOpenKey",
    "RegCreateKey",
    "RegDeleteKey",
    "RegSetValue",
    "RegEnumValue",
)
PROCESS_APIS = (
    "CreateProcess",
    "CreateProcessInternal",
    "OpenProcess",
    "ExitProcess",
    "WinExec",
    "CreateRemoteThread",
)
LIBRARY_APIS = ("LoadLibrary",)

HOOKED_APIS = frozenset(FILE_APIS + REGISTRY_APIS + PROCESS_APIS + LIBRARY_APIS)
_APIS_SORTED = tuple(sorted(HOOKED_APIS))

MUTATION_OPS = ("drop_event", "duplicate_event", "perturb_param", "insert_noise_event", "spawn_child")

# Upper bound on a spec's total variant count. generate_corpus holds the
# whole corpus in memory before anything is written, so an unbounded spec
# would run until the host runs out of memory.
MAX_CORPUS_VARIANTS = 100_000


class Xorshift64Star:
    """64-bit xorshift* generator; fixed algorithm, stable across platforms."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64
        if self._state == 0:
            self._state = 0x9E3779B97F4A7C15

    # random and randrange each take the xorshift step inline rather than
    # through a shared call: synth draws once or more per event, and the
    # extra call cost as much as the step itself.
    def next_u64(self) -> int:
        return self.randrange(1 << 64)

    def random(self) -> float:
        """Float in [0, 1) with 53 bits of the next output."""
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self._state = s
        return (((s * 0x2545F4914F6CDD1D) & _MASK64) >> 11) * (2.0 ** -53)

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs a positive bound")
        s = self._state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self._state = s
        return ((s * 0x2545F4914F6CDD1D) & _MASK64) % n

    def choice(self, seq: Sequence):
        return seq[self.randrange(len(seq))]


@dataclass(frozen=True)
class FamilyTemplate:
    """Base behavior of one family and the mutations its variants may carry.

    The base events and param pools are checked here, once, so that
    generation can build every variant's events unchecked.
    """

    name: str
    base_events: tuple[ApiEvent, ...]
    mutation_ops: frozenset = frozenset(MUTATION_OPS)
    param_pools: Mapping[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "base_events", tuple(self.base_events))
        object.__setattr__(self, "mutation_ops", frozenset(self.mutation_ops))
        # Read-only, as the pools are checked here once for every variant.
        object.__setattr__(
            self,
            "param_pools",
            MappingProxyType({key: tuple(values) for key, values in dict(self.param_pools).items()}),
        )
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"family template needs a name string, got {self.name!r}")
        if not self.base_events:
            raise ValueError(f"family {self.name!r}: base_events must be non-empty")
        for event in self.base_events:
            if not isinstance(event, ApiEvent):
                raise ValueError(
                    f"family {self.name!r}: base_events must be ApiEvent instances, got {type(event).__name__}"
                )
            if event.api_name not in HOOKED_APIS:
                raise ValueError(
                    f"family {self.name!r}: {event.api_name!r} is not a hooked API"
                )
        unknown = self.mutation_ops - set(MUTATION_OPS)
        if unknown:
            raise ValueError(f"family {self.name!r}: unknown mutation ops {sorted(unknown)}")
        for key, values in self.param_pools.items():
            if not values:
                raise ValueError(f"family {self.name!r}: empty param pool for {key!r}")
            # A pool pair becomes an attribute of a variant's event (a
            # perturbed value or a noise event's one pair), so it gets the
            # checks and messages of an ApiEvent attribute.
            for value in values:
                ApiEvent(_APIS_SORTED[0], ((key, value),))


@dataclass(frozen=True)
class CorpusSpec:
    """Families with variant counts, a mutation rate, and the corpus seed."""

    families: tuple[tuple[FamilyTemplate, int], ...]
    mutation_rate: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "families", tuple((t, typed(c, "variants", int)) for t, c in self.families))
        object.__setattr__(self, "mutation_rate", typed_float(self.mutation_rate, "mutation_rate"))
        typed(self.seed, "seed", int)
        if not self.families:
            raise ValueError("corpus spec needs at least one family")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError(f"mutation_rate must be in [0, 1], got {self.mutation_rate!r}")
        for template, count in self.families:
            if count < 1:
                raise ValueError(f"family {template.name!r}: variant count must be >= 1")
        total = sum(count for _, count in self.families)
        if total > MAX_CORPUS_VARIANTS:
            raise ValueError(
                f"corpus spec asks for {total} variants, more than MAX_CORPUS_VARIANTS = {MAX_CORPUS_VARIANTS}"
            )

    @classmethod
    def from_json(cls, text: str) -> "CorpusSpec":
        data = typed(json.loads(text), "corpus spec", dict)
        entries = [typed(entry, "family", dict) for entry in typed(data.get("families"), "families", list)]
        # Each count is checked as its family is read, so a file's first bad
        # family is the one reported; the constructor checks every field.
        families = tuple(
            (_template_from_dict(entry), typed(entry.get("variants"), "variants", int)) for entry in entries
        )
        return cls(families, data.get("mutation_rate"), data.get("seed"))


def _template_from_dict(entry: Mapping) -> FamilyTemplate:
    events = []
    for item in typed(entry.get("base_events"), "base_events", list):
        attributes = typed(typed(item, "base event", dict).get("attributes", {}), "attributes", dict, list)
        if isinstance(attributes, dict):
            pairs = attributes.items()
        else:
            pairs = [typed(pair, "attribute pair", list) for pair in attributes]
        events.append(ApiEvent(item.get("api"), tuple(pairs), item.get("return"), 0))
    pools = typed(entry.get("param_pools", {}), "param_pools", dict)
    return FamilyTemplate(
        entry.get("name"),
        tuple(events),
        frozenset(typed(entry.get("mutation_ops", list(MUTATION_OPS)), "mutation_ops", [str])),
        {key: typed(values, f"param_pools {key!r}", [str]) for key, values in pools.items()},
    )


def _name_seed(name: str) -> int:
    return int.from_bytes(hashlib.md5(name.encode("utf-8")).digest()[:8], "big")


# Every event below is built unchecked (_checked_event): its fields come
# from a checked base event or pool (FamilyTemplate), a hooked API name or
# "SUCCESS", and its timestamp is a base event's, 0, or a positive tick.
# So is every profile (_checked_profile): an md5 hex hash, a positive
# process id, and events that _assign_timestamps stamps in strictly
# increasing order.


def _assign_timestamps(events: Sequence[ApiEvent], rng: Xorshift64Star) -> tuple[ApiEvent, ...]:
    ticks = 300_000_000
    stamped = []
    for event in events:
        ticks += 10_000 + rng.randrange(90_000)
        stamped.append(_checked_event((event.api_name, event.attributes, event.return_value), ticks))
    return tuple(stamped)


def _perturb(event: ApiEvent, template: FamilyTemplate, rng: Xorshift64Star) -> ApiEvent:
    # Swap one attribute value for another from the template's own pool,
    # so mutated variants stay inside the family vocabulary.
    candidates = [
        index
        for index, (key, value) in enumerate(event.attributes)
        if key in template.param_pools and any(v != value for v in template.param_pools[key])
    ]
    if not candidates:
        return event
    index = rng.choice(candidates)
    key, current = event.attributes[index]
    replacement = rng.choice([v for v in template.param_pools[key] if v != current])
    attributes = list(event.attributes)
    attributes[index] = (key, replacement)
    return _checked_event((event.api_name, tuple(attributes), event.return_value), event.timestamp)


def _noise_event(template: FamilyTemplate, rng: Xorshift64Star) -> ApiEvent:
    api = rng.choice(_APIS_SORTED)
    attributes = ()
    pool_keys = sorted(template.param_pools)
    if pool_keys:
        key = rng.choice(pool_keys)
        attributes = ((key, rng.choice(template.param_pools[key])),)
    return _checked_event((api, attributes, "SUCCESS"), 0)


def _mutate_events(
    template: FamilyTemplate, rate: float, rng: Xorshift64Star
) -> tuple[list[ApiEvent], int]:
    """One mutated copy of the base sequence; returns (events, spawn_count).

    Every enabled op flips its own coin for every base event, in the fixed
    MUTATION_OPS order, so the random stream consumed per variant is
    reproducible.
    """
    enabled = [op in template.mutation_ops for op in MUTATION_OPS]
    random = rng.random
    events: list[ApiEvent] = []
    spawns = 0
    for event in template.base_events:
        # A disabled op draws nothing: `and` stops before its coin.
        drop, duplicate, perturb, noise, spawn = [on and random() < rate for on in enabled]
        current = _perturb(event, template, rng) if perturb else event
        if not drop:
            events.append(current)
            if duplicate:
                events.append(current)
        if noise:
            events.append(_noise_event(template, rng))
        if spawn:
            spawns += 1
    return events, spawns


def generate_family(
    template: FamilyTemplate, count: int, rate: float, seed: int
) -> list[Profile]:
    """Generate count variants of a family; variant 0 is the unmutated base.

    Each spawned child becomes its own profile right after its parent: it
    replays the family's base sequence (the spawned copy runs the same
    binary) and carries parent_hash. Timestamps are strictly increasing
    within every profile.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate!r}")
    rng = Xorshift64Star(seed)
    profiles: list[Profile] = []
    for variant in range(count):
        if variant == 0:
            events, spawns = list(template.base_events), 0
        else:
            events, spawns = _mutate_events(template, rate, rng)
        if not events:
            events = [template.base_events[0]]
        sample_hash = hashlib.md5(
            f"{template.name}:{variant}:{seed & _MASK64}".encode("utf-8")
        ).hexdigest()
        pid = 1000 + variant
        profiles.append(_checked_profile(sample_hash, pid, 300, _assign_timestamps(events, rng), None))
        for child in range(spawns):
            child_events = _assign_timestamps(template.base_events, rng)
            profiles.append(_checked_profile(sample_hash, pid * 100 + child + 1, 300, child_events, sample_hash))
    return profiles


def generate_corpus(spec: CorpusSpec) -> tuple[list[tuple[str, Profile]], Grouping]:
    """All family profiles plus the ground-truth grouping.

    Labels follow the <hash>-<ordinal> convention: the initial process of a
    sample gets ordinal 0 and its spawned children 1, 2, ... Ground-truth
    groups (one per family, children included) are returned as a Grouping
    with threshold 0.
    """
    names = [template.name for template, _ in spec.families]
    duplicates = [name for name, n in Counter(names).items() if n > 1]
    if duplicates:
        raise ValueError(f"duplicate family names: {sorted(duplicates)}")
    labeled: list[tuple[str, Profile]] = []
    truth: list[tuple[str, ...]] = []
    for template, count in spec.families:
        family_seed = (spec.seed ^ _name_seed(template.name)) & _MASK64
        ordinals: Counter = Counter()
        group: list[str] = []
        for profile in generate_family(template, count, spec.mutation_rate, family_seed):
            ordinal = ordinals[profile.hash]
            ordinals[profile.hash] += 1
            label = f"{profile.hash}-{ordinal}"
            labeled.append((label, profile))
            group.append(label)
        truth.append(tuple(group))
    return labeled, Grouping(0.0, tuple(truth))


def write_corpus(
    directory: str | Path,
    labeled_profiles: Sequence[tuple[str, Profile]],
    truth: Grouping | None = None,
) -> None:
    """Write one <label>.xml per profile, plus ground_truth.json when given."""
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    for label, profile in labeled_profiles:
        (path / f"{label}.xml").write_text(serialize_profile(profile), encoding="utf-8")
    if truth is not None:
        (path / "ground_truth.json").write_text(truth.to_json(), encoding="utf-8")
