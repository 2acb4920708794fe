from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from malbehave import (
    ApiEvent,
    MAX_CORPUS_VARIANTS,
    MUTATION_OPS,
    CorpusSpec,
    FamilyTemplate,
    FeatureConfig,
    extract_elements,
    generate_corpus,
    generate_family,
    jaccard_distance,
    parse_profile,
    serialize_profile,
    write_corpus,
)
from malbehave import synth
from malbehave.profile import Profile, ProfileSchemaError
from _pipeline import family_template, four_family_spec, mean_distance

# Values that quoteattr rewrites or single-quotes, each for one reason
# alone, one with both quote kinds, and plain and non-ASCII ones.
AWKWARD_VALUES = (
    "a & b",
    "a < b",
    "x > y",
    'say "hi"',
    "it's",
    "both \"'\" kinds",
    "line\nbreak",
    "cr\rhere",
    "tab\tstop",
    "café ✓ 字",
    "plain",
)


def quoting_spec() -> CorpusSpec:
    """One family whose values, in base events, pools and returns, need
    quoting. Its base events carry each of AWKWARD_VALUES, and no variant
    drops an event."""
    events = [ApiEvent("RegSetValue", (("hKey", "hkcu\\run"), ("data", value)), "SUCCESS") for value in AWKWARD_VALUES]
    events += [
        ApiEvent("CreateFile", (("hName", AWKWARD_VALUES[0]), ("data", AWKWARD_VALUES[5])), 'ok "&" <done>'),
        ApiEvent("WriteFile", (("hName", AWKWARD_VALUES[9]),), None),
        ApiEvent("WinExec", (("lpCmdLine", AWKWARD_VALUES[7] + AWKWARD_VALUES[8]),), "it's"),
    ]
    ops = frozenset(MUTATION_OPS) - {"drop_event"}
    template = FamilyTemplate("quoting", tuple(events), ops, {"hName": AWKWARD_VALUES, "data": AWKWARD_VALUES[3:]})
    return CorpusSpec(((template, 12),), 0.3, 31)


BASE_EVENTS = (
    ApiEvent("CreateFile", (("hName", "c:\\a.exe"), ("desiredAccess", "GENERIC_WRITE")), "SUCCESS"),
    ApiEvent("RegSetValue", (("hKey", "hkcu\\run"), ("data", "x")), "SUCCESS"),
    ApiEvent("WinExec", (("lpCmdLine", "c:\\a.exe"),), None),
)


def poolless_noise_spec() -> CorpusSpec:
    """Every op on and no param pools: noise events carry no attribute and
    perturbs draw nothing."""
    return CorpusSpec(((FamilyTemplate("poolless", BASE_EVENTS, frozenset(MUTATION_OPS)), 12),), 0.4, 7)


def single_value_pool_spec() -> CorpusSpec:
    """A pool whose only value is the base value (a perturb of that event
    draws nothing) beside one that offers another value."""
    pools = {"hName": ("c:\\a.exe",), "hKey": ("hkcu\\run", "hkcu\\other")}
    template = FamilyTemplate("single", BASE_EVENTS, frozenset({"perturb_param", "duplicate_event"}), pools)
    return CorpusSpec(((template, 12),), 0.5, 8)


def zero_seed_spec() -> CorpusSpec:
    """A family whose seed is 0, so its stream starts from the remapped state."""
    seed = int.from_bytes(hashlib.md5(b"zero").digest()[:8], "big")
    return CorpusSpec(((family_template("zero", motif_count=3), 8),), 0.3, seed)


def spawn_all_ops_spec() -> CorpusSpec:
    """Every op on, spawn_child included, at a rate where each fires often."""
    return CorpusSpec(((family_template("spawner", motif_count=3), 10),), 0.5, 9)


def corpus_digest(directory: Path) -> str:
    """sha256 over every file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def stream(seed: int, count: int) -> list[int]:
    """The first count outputs of the xorshift64* stream from seed."""
    state, outputs = synth._seed_state(seed), []
    for _ in range(count):
        state, output = synth._draw(state)
        outputs.append(output)
    return outputs


class TestRng:
    def test_golden_values(self):
        assert stream(42, 4) == [
            6255019084209693600,
            14430073426741505498,
            14575455857230217846,
            17414512882241728735,
        ]

    def test_zero_seed_is_remapped(self):
        assert stream(0, 1) == [973819730272012410]

    def test_streams_repeat(self):
        assert stream(123, 50) == stream(123, 50)


def state_before(output: int) -> int:
    """The xorshift64* state whose next step (_draw) outputs output."""
    mask = (1 << 64) - 1
    state = output * pow(0x2545F4914F6CDD1D, -1, 1 << 64) & mask
    # Undo state ^= state >> 27, then state ^= state << 25, then
    # state ^= state >> 12. Repeating x = y ^ (x >> k) from x = y fixes k
    # more bits of the y ^= y >> k input each time.
    for shift in (27, -25, 12):
        x = state
        for _ in range(64 // abs(shift) + 1):
            x = state ^ (x >> shift if shift > 0 else (x << -shift) & mask)
        state = x
    return state


COIN_RATES = (0.0, 5e-324, 2.0**-53, 0.15, 0.5, 1 - 2.0**-53, 1.0)


def float_coin(output: int, rate: float) -> bool:
    """The reference coin: the float of output's top 53 bits is below rate."""
    return (output >> 11) * 2.0**-53 < rate


class TestCoin:
    """Generation flips a coin as output < _coin_limit(rate) on the integer
    output of a step; it must land as float_coin does."""

    @pytest.mark.parametrize("rate", COIN_RATES)
    def test_equals_random_below_rate(self, rate):
        limit = synth._coin_limit(rate)
        outputs = stream(11, 100_000)
        assert [output < limit for output in outputs] == [float_coin(output, rate) for output in outputs]

    @pytest.mark.parametrize("rate", COIN_RATES)
    def test_equals_random_at_the_boundary(self, rate):
        # Outputs just below, at and just above the first 53-bit value that
        # is not below rate * 2**53, each as a real draw of the generator.
        limit = synth._coin_limit(rate)
        edge = limit >> 11
        outputs = {(edge << 11) - 1, edge << 11, (edge << 11) | 2047, (edge - 1) << 11, ((edge + 1) << 11) - 1}
        coins = set()
        for output in sorted(output for output in outputs if 0 <= output < 1 << 64):
            assert synth._draw(state_before(output))[1] == output
            coins.add(output < limit)
            assert (output < limit) == float_coin(output, rate), (rate, output)
        # Heads and tails both, unless rate leaves only one.
        assert (True in coins, False in coins) == (rate > 0.0, rate < 1.0)

    @pytest.mark.parametrize("rate", [rate for rate in COIN_RATES if 0.0 < rate < 1.0])
    def test_generation_lands_at_the_boundary(self, rate):
        # One base event, duplicate_event alone: variant 0 draws its one
        # timestamp, then variant 1 flips one coin, a duplicate on heads.
        # The seed is chosen so that coin's output is the last heads or
        # the first tails.
        template = FamilyTemplate("edge", (ApiEvent("ReadFile"),), frozenset({"duplicate_event"}))
        limit = synth._coin_limit(rate)
        for output, events in ((limit - 1, 2), (limit, 1)):
            coin_state = state_before(output)
            seed = state_before(coin_state * 0x2545F4914F6CDD1D & ((1 << 64) - 1))
            assert stream(seed, 2)[1] == output
            assert len(generate_family(template, 2, rate, seed)[1].events) == events


class TestTemplateValidation:
    @pytest.mark.parametrize(
        "key, value",
        [("Return", "x"), ("Time", "1"), ("bad key", "x"), ("", "x"), (5, "x"), ("hName", 5), ("hName", None)],
    )
    def test_bad_param_pool(self, key, value):
        # Refused when the template is made, whatever the seed would draw,
        # with the message an event carrying the pair would give.
        with pytest.raises(ProfileSchemaError) as constructor:
            ApiEvent("ReadFile", ((key, value),))
        with pytest.raises(ProfileSchemaError) as template:
            FamilyTemplate("f", (ApiEvent("ReadFile"),), frozenset(MUTATION_OPS), {key: ("ok", value)})
        assert str(template.value) == str(constructor.value)

    def test_param_pools_read_only(self):
        template = FamilyTemplate("f", (ApiEvent("ReadFile"),), param_pools={"hName": ["a", "b"]})
        assert template.param_pools == {"hName": ("a", "b")}
        with pytest.raises(TypeError):
            template.param_pools["Return"] = ("x",)


class TestGenerateFamily:
    def test_count_one_is_the_template(self):
        template = family_template("fam", motif_count=2)
        profiles = generate_family(template, 1, 0.5, 11)
        assert len(profiles) == 1
        got = [(e.api_name, e.attributes, e.return_value) for e in profiles[0].events]
        want = [(e.api_name, e.attributes, e.return_value) for e in template.base_events]
        assert got == want

    def test_rate_zero_all_variants_identical(self):
        template = family_template("fam", motif_count=2)
        profiles = generate_family(template, 6, 0.0, 11)
        assert len(profiles) == 6  # no spawned children at rate 0
        config = FeatureConfig()
        sets = [extract_elements(p, config) for p in profiles]
        assert all(s == sets[0] for s in sets)
        assert all(
            jaccard_distance(a, b) == 0.0 for a in sets for b in sets
        )

    def test_timestamps_strictly_increasing(self):
        template = family_template("fam", motif_count=3)
        for profile in generate_family(template, 5, 0.3, 13):
            stamps = [e.timestamp for e in profile.events]
            assert all(b > a for a, b in zip(stamps, stamps[1:]))

    def test_children_link_to_parent(self):
        template = family_template("fam", motif_count=4)
        profiles = generate_family(template, 8, 0.3, 17)
        children = [p for p in profiles if p.parent_hash is not None]
        assert children, "expected spawned children at rate 0.3"
        parents = {p.hash for p in profiles if p.parent_hash is None}
        for child in children:
            assert child.parent_hash in parents
            assert child.hash == child.parent_hash

    def test_intra_family_closer_than_disjoint_family(self):
        fam = family_template("fam", motif_count=4)
        other = family_template("other", motif_count=4)
        config = FeatureConfig()
        sets = {}
        fam_labels, other_labels = [], []
        for i, profile in enumerate(generate_family(fam, 10, 0.2, 5)):
            sets[f"fam{i}"] = extract_elements(profile, config)
            fam_labels.append(f"fam{i}")
        for i, profile in enumerate(generate_family(other, 10, 0.2, 6)):
            sets[f"oth{i}"] = extract_elements(profile, config)
            other_labels.append(f"oth{i}")
        intra = mean_distance(fam_labels, fam_labels, sets)
        inter = mean_distance(fam_labels, other_labels, sets)
        assert intra < inter

    def test_every_event_dropped_keeps_the_first(self):
        # At rate 1.0 drop_event drops every base event: each variant after
        # 0 then holds the first base event alone, stamped once (the first
        # tick is 10,000 to 99,999 after 300,000,000).
        template = family_template("fam", motif_count=2, ops=("drop_event",))
        profiles = generate_family(template, 5, 1.0, 19)
        assert len(profiles) == 5
        assert len(profiles[0].events) == len(template.base_events)
        first = template.base_events[0]
        for profile in profiles[1:]:
            [event] = profile.events
            assert (event.api_name, event.attributes, event.return_value) == (
                first.api_name,
                first.attributes,
                first.return_value,
            )
            assert 300_010_000 <= event.timestamp < 300_100_000


class TestCorpusSpecBound:
    def test_total_variants_bounded(self):
        template = family_template("fam", motif_count=1)
        other = family_template("other", motif_count=1)
        CorpusSpec(((template, MAX_CORPUS_VARIANTS - 1), (other, 1)), 0.1, 1)
        with pytest.raises(ValueError) as err:
            CorpusSpec(((template, MAX_CORPUS_VARIANTS), (other, 1)), 0.1, 1)
        assert str(err.value) == "corpus spec asks for 100001 variants, more than MAX_CORPUS_VARIANTS = 100000"


class TestEventsCap:
    """Generation counts events, spawned children's included, against
    MAX_CORPUS_EVENTS over the whole corpus, and stops before the profile
    that would pass it."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The event count of every profile generation builds, in order."""
        counts = []
        checked_record = synth._checked_record

        def counting(cls, *values):
            record = checked_record(cls, *values)
            if cls is Profile:
                counts.append(len(record.events))
            return record

        monkeypatch.setattr(synth, "_checked_record", counting)
        return counts

    def test_spec_at_the_cap(self, monkeypatch, built):
        spec = four_family_spec(variants=3)
        labeled, truth = generate_corpus(spec)
        monkeypatch.setattr(synth, "MAX_CORPUS_EVENTS", sum(built))
        assert generate_corpus(spec) == (labeled, truth)

    def test_spec_over_the_cap(self, monkeypatch, built):
        # Over by one event at each profile in turn, spawned children and
        # later families included: the profiles before it are built, it
        # is not, and the error names the constant and where it was passed.
        spec = four_family_spec(variants=3)
        labeled, truth = generate_corpus(spec)
        sizes = list(built)
        family_of = {
            label: template.name for (template, _), group in zip(spec.families, truth.groups) for label in group
        }
        assert any(profile.parent_hash for _, profile in labeled)
        for k, (label, _) in enumerate(labeled):
            cap = sum(sizes[: k + 1]) - 1
            monkeypatch.setattr(synth, "MAX_CORPUS_EVENTS", cap)
            built.clear()
            with pytest.raises(ValueError) as err:
                generate_corpus(spec)
            assert built == sizes[:k]
            assert str(err.value).startswith(f"family {family_of[label]!r}, variant ")
            assert str(err.value).endswith(f": the corpus would hold more than MAX_CORPUS_EVENTS = {cap} events")

    def test_message(self, monkeypatch):
        monkeypatch.setattr(synth, "MAX_CORPUS_EVENTS", 10)
        with pytest.raises(ValueError) as err:
            generate_family(family_template("fam", motif_count=1), 3, 0.0, 1)
        assert str(err.value) == (
            "family 'fam', variant 1: the corpus would hold more than MAX_CORPUS_EVENTS = 10 events"
        )


class TestCorpusSpecTypes:
    # Fields are type-checked, not coerced, with the spec file's messages.
    def test_integer_rate_is_a_float(self):
        spec = CorpusSpec(((family_template("fam", motif_count=1), 2),), 0, 1)
        assert spec.mutation_rate == 0.0 and type(spec.mutation_rate) is float


class TestGenerateCorpus:
    def test_single_family_single_variant(self):
        spec = CorpusSpec(((family_template("fam", motif_count=1), 1),), 0.0, 3)
        labeled, truth = generate_corpus(spec)
        assert len(labeled) == 1
        assert len(truth.groups) == 1

    def test_labels_follow_hash_ordinal_convention(self):
        spec = CorpusSpec(((family_template("fam", motif_count=4), 6),), 0.3, 21)
        labeled, truth = generate_corpus(spec)
        for label, profile in labeled:
            stem, ordinal = label.rsplit("-", 1)
            assert stem == profile.hash
            assert (int(ordinal) > 0) == (profile.parent_hash is not None)
        assert truth.labels == {label for label, _ in labeled}

    def test_forty_sample_shape(self):
        labeled, truth = generate_corpus(four_family_spec())
        assert len(truth.groups) == 4
        parents = [label for label, p in labeled if p.parent_hash is None]
        assert len(parents) == 40
        assert len(labeled) > 40  # spawned children ride along

    def test_deterministic_bytes(self):
        spec = four_family_spec(variants=3)
        first = [(label, serialize_profile(p)) for label, p in generate_corpus(spec)[0]]
        second = [(label, serialize_profile(p)) for label, p in generate_corpus(spec)[0]]
        assert first == second

    @pytest.mark.parametrize(
        "spec, digest",
        [
            (four_family_spec, "f044ca19a4d638f82d69f663d7a407d7236fad949ffed89654520ab561f44935"),
            (quoting_spec, "4cec4276a856eeba3a79856cb0e2d984d76f8f396ce78d039d71518d0fb82135"),
            (poolless_noise_spec, "f2643d339ae9681f630d769168f122ab99c1c7a1e54c9fc79269c6d07452949f"),
            (single_value_pool_spec, "94e50feeb1708be79900fb8868f83d3cb9d0be2220d82c86054587c34ffc10a4"),
            (zero_seed_spec, "4ba5889f68f0129b988015bb9c1ed56e7217e1a53c7d214531ec778320fb5387"),
            (spawn_all_ops_spec, "5f0200be9c31a0d8b5da2b8a6634d0542b0c0d81a84c98a3c7e7e9273a569d01"),
        ],
        ids=["four-family", "quoting", "poolless-noise", "single-value-pool", "zero-seed", "spawn-all-ops"],
    )
    def test_golden_bytes(self, tmp_path, spec, digest):
        # Pins the draw stream, the events built from it and their quoting.
        labeled, truth = generate_corpus(spec())
        write_corpus(tmp_path, labeled, truth)
        assert corpus_digest(tmp_path) == digest

    def test_golden_specs_take_their_paths(self):
        # Each golden spec added for a generation path reaches that path.
        def events(spec):
            return [event for _, profile in generate_corpus(spec)[0] for event in profile.events]

        base_apis = {event.api_name for event in BASE_EVENTS}
        noise = [event for event in events(poolless_noise_spec()) if event.api_name not in base_apis]
        assert noise and all(event.attributes == () for event in noise)
        single = events(single_value_pool_spec())
        assert {event.attributes for event in single if event.api_name == "CreateFile"} == {BASE_EVENTS[0].attributes}
        assert ("hKey", "hkcu\\other") in {pair for event in single for pair in event.attributes}
        assert zero_seed_spec().seed == synth._name_seed("zero")  # the family seed is their xor
        assert any(profile.parent_hash for _, profile in generate_corpus(spawn_all_ops_spec())[0])

    @pytest.mark.parametrize("spec", [four_family_spec, quoting_spec], ids=["four-family", "quoting"])
    def test_events_pass_the_constructor(self, spec):
        # Generation builds events unchecked; each must be one the checked
        # constructor accepts and builds equal.
        labeled, _ = generate_corpus(spec())
        for _, profile in labeled:
            for event in profile.events:
                assert type(event) is ApiEvent
                assert event == ApiEvent(event.api_name, event.attributes, event.return_value, event.timestamp)

    def test_different_seeds_differ(self):
        base = four_family_spec(variants=3, seed=1)
        other = four_family_spec(variants=3, seed=2)
        first = [serialize_profile(p) for _, p in generate_corpus(base)[0]]
        second = [serialize_profile(p) for _, p in generate_corpus(other)[0]]
        assert first != second

    def test_every_profile_survives_xml_round_trip(self):
        labeled, _ = generate_corpus(four_family_spec(variants=3))
        for _, profile in labeled:
            assert parse_profile(serialize_profile(profile)) == profile


class TestSpecJson:
    SPEC = {
        "seed": 99,
        "mutation_rate": 0.2,
        "families": [
            {
                "name": "fam",
                "variants": 3,
                "base_events": [
                    {
                        "api": "CreateFile",
                        "attributes": {"hName": "c:\\a.exe", "desiredAccess": "GENERIC_WRITE"},
                        "return": "SUCCESS",
                    },
                    {"api": "WinExec", "attributes": [["lpCmdLine", "c:\\a.exe"]]},
                ],
                "mutation_ops": ["drop_event", "perturb_param"],
                "param_pools": {"hName": ["c:\\a.exe", "c:\\b.exe"]},
            }
        ],
    }

    def test_from_json(self):
        spec = CorpusSpec.from_json(json.dumps(self.SPEC))
        assert spec.seed == 99
        template, count = spec.families[0]
        assert count == 3
        assert template.base_events[0].attributes == (
            ("hName", "c:\\a.exe"),
            ("desiredAccess", "GENERIC_WRITE"),
        )
        assert template.base_events[1].return_value is None
        labeled, _ = generate_corpus(spec)
        assert labeled
