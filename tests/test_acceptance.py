"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Criteria are property-based plus scaled-down reproductions of the
structures the toolkit must recover; tolerances are pinned here.
"""

from __future__ import annotations

import io
import json
import random
import time
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

from malbehave import (
    CorpusSpec,
    EngineLabelTable,
    EnduranceConfig,
    FeatureConfig,
    common_set,
    cut_tree,
    distance_matrix,
    distinct_characteristics,
    extract_elements,
    generate_corpus,
    generate_family,
    jaccard_distance,
    parse_profile,
    pcs_score,
    rand_index,
    serialize_profile,
    upgma,
)
from malbehave.cli import main as cli_main
from malbehave.similarity import DistanceMatrix
from conftest import make_random_profile
from _oracles import brute_force_pcs, naive_upgma_merges, tree_merges
from _pipeline import (
    MUTATIONS_NO_SPAWN,
    benign_template,
    family_template,
    four_family_spec,
    matrix_from_sets,
    mean_distance,
    ten_fold_wrong_rates,
)


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS")


def test_criterion_1_jaccard_metric_suite():
    with criterion(1, "Jaccard metric suite"):
        started = time.perf_counter()
        assert jaccard_distance(frozenset("abc"), frozenset("bcd")) == 0.5
        rng = random.Random(1001)
        universe = "abcdefghijkl"
        for _ in range(1000):
            x = frozenset(rng.sample(universe, rng.randint(0, 8)))
            y = frozenset(rng.sample(universe, rng.randint(0, 8)))
            z = frozenset(rng.sample(universe, rng.randint(0, 8)))
            dxy = jaccard_distance(x, y)
            assert 0.0 <= dxy <= 1.0
            assert dxy == jaccard_distance(y, x)
            assert (dxy == 0.0) == (x == y)
            assert jaccard_distance(x, z) <= dxy + jaccard_distance(y, z) + 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_2_upgma_oracle_equivalence():
    with criterion(2, "UPGMA oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(2002)
        for trial in range(200):
            n = rng.randint(1, 7)
            labels = tuple(f"L{i}" for i in range(n))
            rows = [[0.0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if trial % 2 == 0:  # coarse grid forces plenty of ties
                        value = rng.choice([0.1, 0.2, 0.2, 0.3, 0.5, 0.5, 1.0])
                    else:
                        value = round(rng.random(), 6)
                    rows[i][j] = rows[j][i] = value
            matrix = DistanceMatrix(labels, tuple(tuple(r) for r in rows))
            tree = upgma(matrix)
            merges = tree_merges(tree)
            expected = naive_upgma_merges(labels, matrix.entries)
            assert len(merges) == len(expected) == n - 1
            heights = []
            for (height, a, b), (exp_height, exp_a, exp_b) in zip(merges, expected):
                assert abs(height - exp_height) <= 1e-12
                assert {a, b} == {exp_a, exp_b}
                heights.append(height)
            assert heights == sorted(heights)
        assert time.perf_counter() - started < 5.0


def test_criterion_3_characteristic_set_suite():
    with criterion(3, "common/distinct characteristic suite"):
        rng = random.Random(3003)
        universe = "abcdefghij"
        config = EnduranceConfig(alpha=0.0)
        for _ in range(80):
            labels = [f"s{i}" for i in range(rng.randint(2, 9))]
            sets = {l: frozenset(rng.sample(universe, rng.randint(1, 7))) for l in labels}
            tree = upgma(matrix_from_sets(labels, sets))
            grouping = cut_tree(tree, rng.choice([0.2, 0.35, 0.5, 0.75]))
            chars = distinct_characteristics(tree, grouping, sets, config)
            parents = tree.parents()
            for group_id, group in enumerate(grouping.groups):
                item = chars[group_id]
                assert item.distinct <= item.common
                node_id = tree.root
                members = frozenset(group)
                while True:
                    node = tree.nodes[node_id]
                    if node.children is None:
                        break
                    for child in node.children:
                        if members <= frozenset(tree.leaf_labels(child)):
                            node_id = child
                            break
                    else:
                        break
                if node_id != tree.root:
                    parent = tree.nodes[parents[node_id]]
                    parent_common = common_set(
                        [sets[l] for l in sorted(tree.leaf_labels(parent.id))], 0.0
                    )
                    assert not (item.distinct & parent_common)

        # a group whose common set equals its parent's has no distinct traits
        sets = {"z1": frozenset("a"), "z2": frozenset("a"), "w": frozenset("ac")}
        tree = upgma(matrix_from_sets(sorted(sets), sets))
        grouping = cut_tree(tree, 0.3)
        chars = distinct_characteristics(tree, grouping, sets, config)
        pair_group = grouping.group_of("z1")
        parent_common = common_set([sets["z1"], sets["z2"], sets["w"]], 0.0)
        assert chars[pair_group].common == parent_common == {"a"}
        assert chars[pair_group].distinct == frozenset()


def test_criterion_4_pcs_oracle_equivalence():
    with criterion(4, "pairwise-score oracle equivalence"):
        hand = EngineLabelTable(
            ("m1", "m2", "m3"), ("x", "y"), (("f", "f"), ("f", "f"), ("g", "g"))
        )
        assert pcs_score(hand, "x") == 2.0
        skewed = EngineLabelTable(
            ("m1", "m2", "m3"), ("x", "y"), (("f", "f"), ("f", "g"), ("g", "g"))
        )
        assert pcs_score(skewed, "x") == 1.25

        rng = random.Random(4004)
        families = ["fam_a", "fam_b", "fam_c", "fam_d"]
        for _ in range(500):
            n = rng.randint(2, 8)
            m = rng.randint(1, 5)
            ids = tuple(f"m{i}" for i in range(n))
            engines = tuple(f"e{j}" for j in range(m))
            rows = tuple(
                tuple(None if rng.random() < 0.2 else rng.choice(families) for _ in engines)
                for _ in ids
            )
            table = EngineLabelTable(ids, engines, rows)
            raw = [list(row) for row in rows]
            for engine in engines:
                expected = brute_force_pcs(list(ids), list(engines), raw, engine)
                assert abs(pcs_score(table, engine) - expected) <= 1e-12

            renamed_rows = []
            mappings = [
                {fam: f"alias{k}_{idx}" for idx, fam in enumerate(reversed(families))}
                for k in range(m)
            ]
            for row in rows:
                renamed_rows.append(
                    tuple(
                        None if cell is None else mappings[col][cell]
                        for col, cell in enumerate(row)
                    )
                )
            renamed = EngineLabelTable(ids, engines, tuple(renamed_rows))
            for engine in engines:
                assert pcs_score(renamed, engine) == pcs_score(table, engine)


def test_criterion_5_family_recovery_desk_scale():
    with criterion(5, "family recovery at desk scale"):
        started = time.perf_counter()
        labeled, truth = generate_corpus(four_family_spec())
        config = FeatureConfig()
        sets = {label: extract_elements(p, config) for label, p in labeled}
        labels = [label for label, _ in labeled]
        tree = upgma(matrix_from_sets(labels, sets))
        recovered = cut_tree(tree, 0.5)
        assert rand_index(recovered, truth) >= 0.9

        benign = generate_family(benign_template(), 4, 0.15, 424242)
        benign_labels = []
        for index, profile in enumerate(benign):
            label = f"benign-{index}"
            sets[label] = extract_elements(profile, config)
            benign_labels.append(label)
        intra = sum(
            mean_distance(list(group), list(group), sets) for group in truth.groups
        ) / len(truth.groups)
        to_benign = mean_distance(labels, benign_labels, sets)
        assert intra < to_benign
        assert time.perf_counter() - started < 10.0


def test_criterion_6_parameter_value_benefit():
    with criterion(6, "parameter values sharpen the benign gap"):
        labeled, _ = generate_corpus(four_family_spec())
        benign = generate_family(benign_template(), 4, 0.15, 424242)
        mal_labels = [label for label, _ in labeled]
        benign_labels = [f"benign-{i}" for i in range(len(benign))]

        gaps = {}
        for mode, config in (
            ("with_params", FeatureConfig()),
            ("name_only", FeatureConfig(with_params=False)),
        ):
            sets = {label: extract_elements(p, config) for label, p in labeled}
            for label, profile in zip(benign_labels, benign):
                sets[label] = extract_elements(profile, config)
            gaps[mode] = mean_distance(mal_labels, benign_labels, sets)
        assert gaps["with_params"] > gaps["name_only"]


def test_criterion_7_threshold_monotonicity():
    with criterion(7, "threshold monotonicity"):
        thresholds = (0.2, 0.3, 0.4, 0.5)
        labeled, truth = generate_corpus(four_family_spec())
        config = FeatureConfig()
        sets = {label: extract_elements(p, config) for label, p in labeled}
        labels = [label for label, _ in labeled]
        tree = upgma(matrix_from_sets(labels, sets))
        counts = [len(cut_tree(tree, t).groups) for t in thresholds]
        assert counts == sorted(counts, reverse=True)

        rates = ten_fold_wrong_rates(labeled, truth, thresholds, config)
        ordered = [rates[t] for t in thresholds]
        assert ordered == sorted(ordered)


def _run_cli(argv) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    assert code == 0, f"cli {argv} exited {code}"
    return buffer.getvalue()


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_criterion_8_round_trip_and_determinism(tmp_path):
    with criterion(8, "round-trip identity and CLI determinism"):
        rng = random.Random(8008)
        for _ in range(100):
            profile = make_random_profile(rng)
            assert parse_profile(serialize_profile(profile)) == profile

        spec = {
            "seed": 88,
            "mutation_rate": 0.2,
            "families": [
                {
                    "name": "east",
                    "variants": 5,
                    "base_events": [
                        {"api": "CreateFile", "attributes": {"hName": "c:\\east\\e.exe"}, "return": "SUCCESS"},
                        {"api": "RegSetValue", "attributes": {"hKey": "hkcu\\east", "data": "east svc"}, "return": "SUCCESS"},
                        {"api": "LoadLibrary", "attributes": {"lpFileName": "eastmod.dll"}, "return": "SUCCESS"},
                        {"api": "CreateProcessInternal", "attributes": {"lpApplicationName": "c:\\east\\e.exe"}, "return": "SUCCESS"},
                    ],
                    "mutation_ops": ["drop_event", "duplicate_event", "perturb_param", "spawn_child"],
                    "param_pools": {"hName": ["c:\\east\\e.exe", "c:\\east\\f.exe"]},
                },
                {
                    "name": "west",
                    "variants": 5,
                    "base_events": [
                        {"api": "CreateFile", "attributes": {"hName": "c:\\west\\w.exe"}, "return": "SUCCESS"},
                        {"api": "RegCreateKey", "attributes": {"hKey": "hkcu\\west"}, "return": "SUCCESS"},
                        {"api": "WinExec", "attributes": {"lpCmdLine": "c:\\west\\w.exe"}, "return": "SUCCESS"},
                    ],
                    "mutation_ops": ["drop_event", "perturb_param"],
                    "param_pools": {"hName": ["c:\\west\\w.exe", "c:\\west\\x.exe"]},
                },
            ],
        }
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))

        corpus_a = tmp_path / "corpus_a"
        corpus_b = tmp_path / "corpus_b"
        out_a = _run_cli(["synth", str(spec_path), "--out", str(corpus_a)])
        out_b = _run_cli(["synth", str(spec_path), "--out", str(corpus_b)])
        assert out_a.replace("corpus_a", "X") == out_b.replace("corpus_b", "X")
        assert _dir_bytes(corpus_a) == _dir_bytes(corpus_b)

        corpus = str(corpus_a)
        sample_profile = str(next(corpus_a.glob("*-0.xml")))
        grouping_path = tmp_path / "grouping.json"
        chars_path = tmp_path / "chars.json"

        truth = json.loads((corpus_a / "ground_truth.json").read_text())
        table_ids = sorted(label for group in truth["groups"] for label in group)
        table_path = tmp_path / "table.json"
        table_path.write_text(
            json.dumps(
                {
                    "malwares": table_ids,
                    "engines": ["alpha_av", "beta_av"],
                    "labels": [
                        [
                            f"fam{idx % 2}",
                            None if idx % 5 == 0 else f"family_{idx % 3}",
                        ]
                        for idx, _ in enumerate(table_ids)
                    ],
                }
            )
        )
        descriptions_path = tmp_path / "descriptions.json"
        descriptions_path.write_text(
            json.dumps({mid: f"sample {mid.split('-')[0][:4]} dropper" for mid in table_ids})
        )

        invocations = {
            "parse": ["parse", corpus],
            "distmat": ["distmat", corpus],
            "tree": ["tree", corpus],
            "groups": ["groups", corpus, "--threshold", "0.5"],
            "characterize": [
                "characterize", corpus, "--threshold", "0.5", "--alpha", "0.1",
                "--out", str(chars_path),
            ],
            "pcs": [
                "pcs", str(table_path),
                "--inject-grouping", str(grouping_path),
                "--text-mining", str(descriptions_path),
            ],
            "classify": ["classify", str(chars_path), sample_profile],
        }
        # groups output feeds the pcs injection; produce it first
        _run_cli(["groups", corpus, "--threshold", "0.5", "--out", str(grouping_path)])

        def _snapshot(argv):
            stdout = _run_cli(list(argv))
            if "--out" in argv:
                out_file = Path(argv[argv.index("--out") + 1])
                return stdout, out_file.read_bytes()
            return stdout, b""

        for name, argv in invocations.items():
            assert _snapshot(argv) == _snapshot(argv), (
                f"{name} output differs between identical runs"
            )


def test_criterion_9_end_to_end_performance(tmp_path):
    with criterion(9, "end-to-end performance at 419 profiles"):
        names = ("alpha", "bravo", "charlie", "delta")
        counts = (105, 105, 105, 104)
        spec = CorpusSpec(
            tuple(
                (
                    family_template(
                        name, motif_count=80, pool_size=8, ops=MUTATIONS_NO_SPAWN
                    ),
                    count,
                )
                for name, count in zip(names, counts)
            ),
            0.15,
            57,
        )
        labeled, _ = generate_corpus(spec)
        assert len(labeled) == 419
        sizes = [len(serialize_profile(p).encode("utf-8")) for _, p in labeled]
        average_kb = sum(sizes) / len(sizes) / 1024
        assert 40.0 <= average_kb <= 80.0, f"average profile size {average_kb:.1f} KB"

        started = time.perf_counter()
        matrix = distance_matrix(
            [p for _, p in labeled], FeatureConfig(), [label for label, _ in labeled]
        )
        tree = upgma(matrix)
        elapsed = time.perf_counter() - started
        assert tree.leaf_count == 419
        assert elapsed < 60.0, f"matrix + tree took {elapsed:.1f}s"
