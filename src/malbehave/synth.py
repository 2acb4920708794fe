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
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

from .phylo import Grouping
from .profile import ApiEvent, CallKey, Profile, _checked_event, _checked_record, serialize_profile, typed, typed_float

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
# Upper bound on the events of a corpus, spawned children's included: the
# variant bound alone does not bound memory, as one variant may spawn a
# child per base event. Generation counts events as it goes and stops with
# a ValueError before the profile that would pass the bound is built.
MAX_CORPUS_EVENTS = 1_000_000


def _seed_state(seed: int) -> int:
    """The xorshift64* state a seed starts from: its low 64 bits, or a fixed
    odd constant for 0, from which the step would never move."""
    return seed & _MASK64 or 0x9E3779B97F4A7C15


def _draw(state: int) -> tuple[int, int]:
    """One xorshift64* step from state: (the next state, its 64-bit output)."""
    state ^= state >> 12
    state ^= (state << 25) & _MASK64
    state ^= state >> 27
    return state, (state * 0x2545F4914F6CDD1D) & _MASK64


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
        duplicates = [name for name, n in Counter(template.name for template, _ in self.families).items() if n > 1]
        if duplicates:
            raise ValueError(f"duplicate family names: {sorted(duplicates)}")

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


# Every event below is built unchecked (_checked_event): its call key comes
# from a checked base event or pool (FamilyTemplate), or is a hooked API
# name with "SUCCESS", and its timestamp is a positive tick. So is every
# profile (_checked_record): an md5 hex hash, a positive process id, and
# events that _stamped stamps in strictly increasing order.
#
# Generation keeps the xorshift64* state in a local and takes the step
# inline in the two loops that draw for every event (the coins and the
# timestamps), where a call per step cost about as much as the step itself;
# the rare perturb and noise draws go through _draw.


def _coin_limit(rate: float) -> int:
    """The bound under which a 64-bit output is a coin that lands at rate.

    The coin lands when the float of the output's top 53 bits is below
    rate: (output >> 11) * 2**-53 < rate. Scaling both sides by 2**53, a
    power of two, is exact, and an integer is below a float exactly when it
    is below the float's ceiling: so the coin is output >> 11 <
    ceil(rate * 2**53), or output < the limit.
    """
    return math.ceil(rate * 2.0**53) << 11


def _family_plan(template: FamilyTemplate) -> tuple[list[CallKey], list[tuple], Mapping, tuple[str, ...]]:
    """What a family's variants are drawn from, worked out once: the base
    events' call keys; for each, the perturbs it allows, as (attribute
    index, key, the key's pool values other than the event's own, in pool
    order) for each attribute whose pool holds another value; the param
    pools; and their keys in sorted order, from which a noise event draws."""
    pools = template.param_pools
    base, perturbs = [], []
    for event in template.base_events:
        options = []
        for index, (key, value) in enumerate(event.attributes):
            others = tuple([v for v in pools.get(key, ()) if v != value])
            if others:
                options.append((index, key, others))
        base.append((event.api_name, event.attributes, event.return_value))
        perturbs.append(tuple(options))
    return base, perturbs, pools, tuple(sorted(pools))


def _mutate_events(plan: tuple, ops: tuple[int, ...], limit: int, state: int) -> tuple[list[CallKey], int, int]:
    """One mutated copy of the base sequence: (call keys, spawn count, state).

    Every enabled op (ops holds their MUTATION_OPS indices, in order) flips
    its own coin for every base event, so the random stream consumed per
    variant is reproducible. A perturb swaps one attribute value for
    another from the template's own pool, and a noise event carries one
    pool pair, so mutated variants stay inside the family vocabulary.
    """
    base, perturbs, pools, pool_keys = plan
    calls: list[CallKey] = []
    spawns = 0
    for call, options in zip(base, perturbs):
        coins = [False] * len(MUTATION_OPS)
        for op in ops:
            state ^= state >> 12
            state ^= (state << 25) & _MASK64
            state ^= state >> 27
            coins[op] = (state * 0x2545F4914F6CDD1D) & _MASK64 < limit
        drop, duplicate, perturb, noise, spawn = coins
        if perturb and options:
            state, out = _draw(state)
            index, key, others = options[out % len(options)]
            state, out = _draw(state)
            attributes = list(call[1])
            attributes[index] = (key, others[out % len(others)])
            call = (call[0], tuple(attributes), call[2])
        if not drop:
            calls.append(call)
            if duplicate:
                calls.append(call)
        if noise:
            state, out = _draw(state)
            attributes = ()
            if pool_keys:
                state, pick = _draw(state)
                key = pool_keys[pick % len(pool_keys)]
                state, pick = _draw(state)
                attributes = ((key, pools[key][pick % len(pools[key])]),)
            calls.append((_APIS_SORTED[out % len(_APIS_SORTED)], attributes, "SUCCESS"))
        if spawn:
            spawns += 1
    return calls, spawns, state


def _stamped(calls: Sequence[CallKey], state: int) -> tuple[tuple[ApiEvent, ...], int]:
    """One event per call key, 10,000 to 99,999 ticks after the one before: (events, state)."""
    ticks = 300_000_000
    events = []
    for call in calls:
        state ^= state >> 12
        state ^= (state << 25) & _MASK64
        state ^= state >> 27
        ticks += 10_000 + ((state * 0x2545F4914F6CDD1D) & _MASK64) % 90_000
        events.append(_checked_event(call, ticks))
    return tuple(events), state


def generate_family(
    template: FamilyTemplate, count: int, rate: float, seed: int
) -> list[Profile]:
    """Generate count variants of a family; variant 0 is the unmutated base.

    Each spawned child becomes its own profile right after its parent: it
    replays the family's base sequence (the spawned copy runs the same
    binary) and carries parent_hash. Timestamps are strictly increasing
    within every profile. A family of more than MAX_CORPUS_EVENTS events
    raises ValueError before the profile that would pass it is built.
    """
    return _generate_family(template, count, rate, seed, MAX_CORPUS_EVENTS)[0]


def _generate_family(
    template: FamilyTemplate, count: int, rate: float, seed: int, events_left: int
) -> tuple[list[Profile], int]:
    """generate_family's profiles, built from at most events_left events,
    and the number of events left after them."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must be in [0, 1], got {rate!r}")
    state = _seed_state(seed)
    plan = _family_plan(template)
    base = plan[0]
    ops = tuple(k for k, op in enumerate(MUTATION_OPS) if op in template.mutation_ops)
    limit = _coin_limit(rate)
    profiles: list[Profile] = []
    for variant in range(count):
        if variant == 0:
            calls, spawns = base, 0
        else:
            calls, spawns, state = _mutate_events(plan, ops, limit, state)
        sample_hash = hashlib.md5(
            f"{template.name}:{variant}:{seed & _MASK64}".encode("utf-8")
        ).hexdigest()
        pid = 1000 + variant
        processes = [(pid, None, calls or base[:1])]
        processes += [(pid * 100 + child, sample_hash, base) for child in range(1, spawns + 1)]
        for process_id, parent_hash, process_calls in processes:
            events_left -= len(process_calls)
            if events_left < 0:
                raise ValueError(
                    f"family {template.name!r}, variant {variant}: the corpus would hold more than "
                    f"MAX_CORPUS_EVENTS = {MAX_CORPUS_EVENTS} events"
                )
            events, state = _stamped(process_calls, state)
            profiles.append(_checked_record(Profile, sample_hash, process_id, 300, events, parent_hash))
    return profiles, events_left


def generate_corpus(spec: CorpusSpec) -> tuple[list[tuple[str, Profile]], Grouping]:
    """All family profiles plus the ground-truth grouping.

    Labels follow the <hash>-<ordinal> convention: the initial process of a
    sample gets ordinal 0 and its spawned children 1, 2, ... Ground-truth
    groups (one per family, children included) are returned as a Grouping
    with threshold 0.
    """
    labeled: list[tuple[str, Profile]] = []
    truth: list[tuple[str, ...]] = []
    events_left = MAX_CORPUS_EVENTS
    for template, count in spec.families:
        family_seed = (spec.seed ^ _name_seed(template.name)) & _MASK64
        ordinals: Counter = Counter()
        group: list[str] = []
        profiles, events_left = _generate_family(template, count, spec.mutation_rate, family_seed, events_left)
        for profile in profiles:
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
