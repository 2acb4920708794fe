from __future__ import annotations

import json

import pytest

from malbehave import (
    ApiEvent,
    MAX_CORPUS_VARIANTS,
    CorpusSpec,
    FamilyTemplate,
    FeatureConfig,
    Xorshift64Star,
    extract_elements,
    generate_corpus,
    generate_family,
    jaccard_distance,
    parse_profile,
    serialize_profile,
)
from _pipeline import family_template, four_family_spec, mean_distance


class TestRng:
    def test_golden_values(self):
        rng = Xorshift64Star(42)
        assert [rng.next_u64() for _ in range(4)] == [
            6255019084209693600,
            14430073426741505498,
            14575455857230217846,
            17414512882241728735,
        ]

    def test_zero_seed_is_remapped(self):
        assert Xorshift64Star(0).next_u64() == 973819730272012410

    def test_random_in_unit_interval(self):
        rng = Xorshift64Star(7)
        for _ in range(1000):
            assert 0.0 <= rng.random() < 1.0

    def test_streams_repeat(self):
        a = Xorshift64Star(123)
        b = Xorshift64Star(123)
        assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


class TestTemplateValidation:
    def test_unhooked_api_rejected(self):
        with pytest.raises(ValueError, match="hooked"):
            FamilyTemplate("f", (ApiEvent("NtOpenFile", (), None, 0),))

    def test_empty_base_events(self):
        with pytest.raises(ValueError, match="base_events"):
            FamilyTemplate("f", ())

    def test_unknown_mutation_op(self):
        with pytest.raises(ValueError, match="mutation ops"):
            FamilyTemplate(
                "f", (ApiEvent("ReadFile", (), None, 0),), frozenset({"scramble_stack"})
            )

    def test_empty_param_pool(self):
        with pytest.raises(ValueError, match="pool"):
            FamilyTemplate(
                "f", (ApiEvent("ReadFile", (), None, 0),), frozenset(), {"hName": ()}
            )


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

    def test_bad_rate_and_count(self):
        template = family_template("fam", motif_count=1)
        with pytest.raises(ValueError):
            generate_family(template, 0, 0.1, 1)
        with pytest.raises(ValueError):
            generate_family(template, 1, 1.5, 1)


class TestCorpusSpecBound:
    def test_total_variants_bounded(self):
        template = family_template("fam", motif_count=1)
        other = family_template("other", motif_count=1)
        CorpusSpec(((template, MAX_CORPUS_VARIANTS - 1), (other, 1)), 0.1, 1)
        with pytest.raises(ValueError, match="MAX_CORPUS_VARIANTS"):
            CorpusSpec(((template, MAX_CORPUS_VARIANTS), (other, 1)), 0.1, 1)


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

    def test_duplicate_family_names_rejected(self):
        spec_families = (
            (family_template("fam", motif_count=1), 1),
            (family_template("fam", motif_count=1), 1),
        )
        with pytest.raises(ValueError, match="duplicate family names"):
            generate_corpus(CorpusSpec(spec_families, 0.1, 1))


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

    def test_missing_field_named(self):
        broken = {"seed": 1, "families": []}
        with pytest.raises(ValueError, match="mutation_rate"):
            CorpusSpec.from_json(json.dumps(broken))
