from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref

import pytest

from malbehave import (
    MAX_INPUT_BYTES,
    ApiEvent,
    Profile,
    ProfileError,
    cli,
    parse_profile,
    serialize_profile,
)
from malbehave.cli import main
from malbehave.profile import _profile_calls, _walk_profile, corpus_paths, read_input
from _pipeline import MALFORMED_MATRIX_CSV, PARSER_REJECTIONS, profile_document


def _write_corpus(directory, profiles_by_label):
    directory.mkdir(parents=True, exist_ok=True)
    for label, profile in profiles_by_label.items():
        (directory / f"{label}.xml").write_text(serialize_profile(profile))


def _profile(sample_hash, api_names):
    events = tuple(ApiEvent(name, (), None, 100 + i) for i, name in enumerate(api_names))
    return Profile(sample_hash, 1, 300, events)


@pytest.fixture
def small_corpus(tmp_path):
    """Three profiles with element sets {a,b,c}, {b,c,d}, {e}."""
    corpus = tmp_path / "corpus"
    _write_corpus(
        corpus,
        {
            "p1-0": _profile("p1", ["Apple", "Berry", "Cherry"]),
            "p2-0": _profile("p2", ["Berry", "Cherry", "Damson"]),
            "p3-0": _profile("p3", ["Elder"]),
        },
    )
    return corpus


@pytest.fixture
def two_family_corpus(tmp_path):
    corpus = tmp_path / "families"
    _write_corpus(
        corpus,
        {
            "a1-0": _profile("a1", ["Apple", "Berry", "Cherry"]),
            "a2-0": _profile("a2", ["Apple", "Berry", "Cherry", "Damson"]),
            "b1-0": _profile("b1", ["Quince", "Rowan", "Sloe"]),
            "b2-0": _profile("b2", ["Quince", "Rowan", "Sloe", "Tansy"]),
        },
    )
    return corpus


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParse:
    def test_summaries(self, capsys, small_corpus):
        code, out, err = _run(capsys, ["parse", str(small_corpus)])
        assert code == 0
        assert err == ""
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("p1-0: hash=p1 pid=1 duration=300s events=3")

    def test_single_file(self, capsys, small_corpus):
        code, out, _ = _run(capsys, ["parse", str(small_corpus / "p3-0.xml")])
        assert code == 0
        assert "events=1" in out

    def test_bad_file_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.xml"
        bad.write_text("<Profile><Meta>")
        code, _, err = _run(capsys, ["parse", str(bad)])
        assert code == 1
        assert err.startswith("error:")


class TestDistmat:
    def test_csv_values(self, capsys, small_corpus):
        code, out, _ = _run(capsys, ["distmat", str(small_corpus)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "p1-0,p2-0,p3-0"
        assert lines[1] == "0.000000,0.500000,1.000000"

    def test_out_file(self, capsys, small_corpus, tmp_path):
        target = tmp_path / "matrix.csv"
        code, out, _ = _run(capsys, ["distmat", str(small_corpus), "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("p1-0,")


class TestTree:
    def test_from_corpus(self, capsys, small_corpus):
        code, out, _ = _run(capsys, ["tree", str(small_corpus)])
        assert code == 0
        assert out == "((p1-0:0.5,p2-0:0.5):0.5,p3-0:1);\n"

    def test_from_matrix_csv(self, capsys, small_corpus, tmp_path):
        matrix_path = tmp_path / "matrix.csv"
        assert main(["distmat", str(small_corpus), "--out", str(matrix_path)]) == 0
        capsys.readouterr()
        code, out, _ = _run(capsys, ["tree", str(matrix_path)])
        assert code == 0
        assert out == "((p1-0:0.5,p2-0:0.5):0.5,p3-0:1);\n"

    def test_rejects_other_files(self, capsys, tmp_path):
        stray = tmp_path / "notes.txt"
        stray.write_text("hello")
        code, _, err = _run(capsys, ["tree", str(stray)])
        assert code == 1
        assert "corpus directory or a .csv" in err


class TestGroups:
    def test_threshold_cut(self, capsys, small_corpus):
        code, out, _ = _run(capsys, ["groups", str(small_corpus), "--threshold", "0.6"])
        assert code == 0
        data = json.loads(out)
        assert data == {"threshold": 0.6, "groups": [["p1-0", "p2-0"], ["p3-0"]]}

    def test_config_file_and_flag_precedence(self, capsys, small_corpus, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"threshold": 0.1}))
        code, out, _ = _run(capsys, ["groups", str(small_corpus), "--config", str(config)])
        assert code == 0
        assert len(json.loads(out)["groups"]) == 3
        code, out, _ = _run(
            capsys,
            ["groups", str(small_corpus), "--config", str(config), "--threshold", "0.6"],
        )
        assert code == 0
        assert len(json.loads(out)["groups"]) == 2

    def test_unknown_config_key(self, capsys, small_corpus, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"thresold": 0.1}))
        code, _, err = _run(capsys, ["groups", str(small_corpus), "--config", str(config)])
        assert code == 1
        assert "thresold" in err


class TestCharacterizeClassify:
    def test_classify_training_member(self, capsys, two_family_corpus, tmp_path):
        chars_path = tmp_path / "chars.json"
        code, _, _ = _run(
            capsys,
            [
                "characterize",
                str(two_family_corpus),
                "--threshold",
                "0.5",
                "--alpha",
                "0",
                "--out",
                str(chars_path),
            ],
        )
        assert code == 0
        document = json.loads(chars_path.read_text())
        assert document["alpha"] == 0.0
        assert [group["members"] for group in document["groups"]] == [
            ["a1-0", "a2-0"],
            ["b1-0", "b2-0"],
        ]
        assert all("common" in group and "distinct" in group for group in document["groups"])

        code, out, _ = _run(
            capsys,
            ["classify", str(chars_path), str(two_family_corpus / "b2-0.xml")],
        )
        assert code == 0
        assert out == "1\n"

    def test_classify_unrelated_profile(self, capsys, two_family_corpus, tmp_path):
        chars_path = tmp_path / "chars.json"
        assert (
            main(
                [
                    "characterize",
                    str(two_family_corpus),
                    "--threshold",
                    "0.5",
                    "--alpha",
                    "0",
                    "--out",
                    str(chars_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        stranger = tmp_path / "stranger.xml"
        stranger.write_text(serialize_profile(_profile("zz", ["WinExec"])))
        code, out, _ = _run(capsys, ["classify", str(chars_path), str(stranger)])
        assert code == 0
        assert out == "none\n"


class TestPcs:
    def _table_file(self, tmp_path, rows):
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps(
                {"malwares": ["m1", "m2", "m3"], "engines": ["x", "y"], "labels": rows}
            )
        )
        return path

    def test_identical_engines_score_two(self, capsys, tmp_path):
        table = self._table_file(tmp_path, [["f", "f"], ["f", "f"], ["g", "g"]])
        code, out, _ = _run(capsys, ["pcs", str(table)])
        assert code == 0
        report = json.loads(out)
        assert [row["pcs"] for row in report] == [2.0, 2.0]

    def test_hand_worked_scores(self, capsys, tmp_path):
        table = self._table_file(tmp_path, [["f", "f"], ["f", "g"], ["g", "g"]])
        code, out, _ = _run(capsys, ["pcs", str(table)])
        report = json.loads(out)
        assert code == 0
        assert {row["engine"]: row["pcs"] for row in report} == {"x": 1.25, "y": 1.25}
        assert all(row["detected"] == 3 and row["weight"] == 1.0 for row in report)

    def test_csv_table(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("malware_id,x,y\nm1,f,f\nm2,f,\nm3,g,g\n")
        code, out, _ = _run(capsys, ["pcs", str(path)])
        assert code == 0
        report = json.loads(out)
        weights = {row["engine"]: row["weight"] for row in report}
        assert weights["y"] == pytest.approx(2 / 3)

    def test_normalize_flag(self, capsys, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps(
                {
                    "malwares": ["m1", "m2"],
                    "engines": ["x"],
                    "labels": [["Win32.Morstar.ba"], ["Morstar!gen5"]],
                }
            )
        )
        code, out, _ = _run(capsys, ["pcs", str(path), "--normalize"])
        assert code == 0
        # both cells normalize to the same family, so the pair agrees with itself
        assert json.loads(out)[0]["pcs"] == 1.0

    def test_inject_grouping_matches_manual_column(self, capsys, tmp_path):
        table = self._table_file(tmp_path, [["f", "f"], ["f", "g"], ["g", "g"]])
        grouping_path = tmp_path / "grouping.json"
        grouping_path.write_text(
            json.dumps({"threshold": 0.5, "groups": [["m1", "m2"], ["m3"]]})
        )
        code, out, _ = _run(
            capsys,
            ["pcs", str(table), "--inject-grouping", str(grouping_path), "--inject-name", "vote"],
        )
        assert code == 0
        injected = json.loads(out)

        manual_path = tmp_path / "manual.json"
        manual_path.write_text(
            json.dumps(
                {
                    "malwares": ["m1", "m2", "m3"],
                    "engines": ["x", "y", "vote"],
                    "labels": [["f", "f", "g0"], ["f", "g", "g0"], ["g", "g", "g1"]],
                }
            )
        )
        code, out, _ = _run(capsys, ["pcs", str(manual_path)])
        assert code == 0
        assert injected == json.loads(out)

    def test_text_mining_engine(self, capsys, tmp_path):
        table = self._table_file(tmp_path, [["f", "f"], ["f", "g"], ["g", "g"]])
        descriptions = tmp_path / "descriptions.json"
        descriptions.write_text(
            json.dumps(
                {
                    "m1": "silent installer adware",
                    "m2": "silent installer adware",
                    "m3": "network worm",
                }
            )
        )
        code, out, _ = _run(capsys, ["pcs", str(table), "--text-mining", str(descriptions)])
        assert code == 0
        names = [row["engine"] for row in json.loads(out)]
        assert "Text_Mining" in names


class TestSynth:
    SPEC = {
        "seed": 5,
        "mutation_rate": 0.2,
        "families": [
            {
                "name": "fam",
                "variants": 4,
                "base_events": [
                    {"api": "CreateFile", "attributes": {"hName": "c:\\fam\\a.exe"}, "return": "SUCCESS"},
                    {"api": "RegSetValue", "attributes": {"hKey": "hkcu\\fam"}, "return": "SUCCESS"},
                    {"api": "WinExec", "attributes": {"lpCmdLine": "c:\\fam\\a.exe"}},
                ],
                "mutation_ops": ["drop_event", "perturb_param", "spawn_child"],
                "param_pools": {"hName": ["c:\\fam\\a.exe", "c:\\fam\\b.exe"]},
            }
        ],
    }

    def test_writes_corpus_and_ground_truth(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        out_dir = tmp_path / "generated"
        code, out, _ = _run(capsys, ["synth", str(spec_path), "--out", str(out_dir)])
        assert code == 0
        assert "wrote" in out
        xml_files = sorted(out_dir.glob("*.xml"))
        assert len(xml_files) >= 4
        truth = json.loads((out_dir / "ground_truth.json").read_text())
        assert len(truth["groups"]) == 1

        code, _, _ = _run(capsys, ["parse", str(out_dir)])
        assert code == 0

    def test_seed_override_changes_output(self, capsys, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(self.SPEC))
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert main(["synth", str(spec_path), "--out", str(first)]) == 0
        assert main(["synth", str(spec_path), "--out", str(second), "--seed", "9"]) == 0
        capsys.readouterr()
        names_first = sorted(p.name for p in first.glob("*.xml"))
        names_second = sorted(p.name for p in second.glob("*.xml"))
        assert names_first != names_second


class TestErrors:
    def test_missing_input_file(self, capsys):
        code, _, err = _run(capsys, ["distmat", "/nonexistent/corpus"])
        assert code == 1
        assert err.startswith("error:")

    def test_invalid_threshold(self, capsys, small_corpus):
        code, _, err = _run(capsys, ["groups", str(small_corpus), "--threshold", "3"])
        assert code == 1
        assert "threshold" in err

    def test_unknown_flag_exits_two(self, small_corpus):
        with pytest.raises(SystemExit) as err:
            main(["groups", str(small_corpus), "--bogus"])
        assert err.value.code == 2


def _single_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:")
    return lines[0]


class TestUntrustedInput:
    @pytest.mark.parametrize(
        "mutate",
        [
            lambda doc: doc["groups"][0].update(common=5),
            lambda doc: doc["groups"][0].update(common="abc", distinct=[]),
            lambda doc: doc["groups"][0].update(common=[1, 2], distinct=[]),
            lambda doc: doc["groups"][0].update(id=None),
            lambda doc: doc.update(groups=[5]),
            lambda doc: doc.update(groups=5),
            # json.dumps writes inf as Infinity, which reads back as 1e999 does.
            lambda doc: doc["groups"][0].update(id=float("inf")),
            lambda doc: doc["groups"][0].update(id=True),
            lambda doc: doc["groups"][0].update(id="3"),
            lambda doc: doc["groups"][0].update(size=2.9),
            lambda doc: doc["groups"][0].update(size=float("inf")),
            lambda doc: doc["groups"][1].update(id=doc["groups"][0]["id"]),
        ],
        ids=[
            "common-int",
            "common-str",
            "common-ints",
            "id-null",
            "row-int",
            "groups-int",
            "id-huge",
            "id-bool",
            "id-str",
            "size-float",
            "size-huge",
            "id-repeated",
        ],
    )
    def test_malformed_characteristics(self, capsys, two_family_corpus, tmp_path, mutate):
        chars_path = tmp_path / "chars.json"
        argv = ["characterize", str(two_family_corpus), "--threshold", "0.5", "--out", str(chars_path)]
        assert main(argv) == 0
        document = json.loads(chars_path.read_text())
        mutate(document)
        chars_path.write_text(json.dumps(document))
        capsys.readouterr()
        code, out, err = _run(capsys, ["classify", str(chars_path), str(two_family_corpus / "b2-0.xml")])
        assert code == 1
        assert out == ""
        _single_error_line(err)

    def _pcs_with_grouping(self, capsys, tmp_path, groups):
        table = tmp_path / "table.json"
        table.write_text(
            json.dumps({"malwares": ["m1", "m2", "m3"], "engines": ["x"], "labels": [["f"], ["f"], ["g"]]})
        )
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"threshold": 0.5, "groups": groups}))
        return grouping, _run(capsys, ["pcs", str(table), "--inject-grouping", str(grouping)])

    def test_grouping_groups_must_be_lists_of_strings(self, capsys, tmp_path):
        for groups in ("ab", ["ab"], [[1, 2]], [["m1", None]]):
            _, (code, out, err) = self._pcs_with_grouping(capsys, tmp_path, groups)
            assert code == 1
            assert out == ""
            assert "list of lists of strings" in _single_error_line(err)

    @pytest.mark.parametrize("threshold", ["0.5", "x", True, None, pytest.param(10**400, id="int-over-float")])
    def test_grouping_threshold_must_be_number(self, capsys, tmp_path, threshold):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["g"]]}))
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"threshold": threshold, "groups": [["m1", "m2"]]}))
        code, out, err = _run(capsys, ["pcs", str(table), "--inject-grouping", str(grouping)])
        assert code == 1
        assert out == ""
        line = _single_error_line(err)
        assert "threshold" in line
        assert str(grouping) in line

    @pytest.mark.parametrize("threshold", ["NaN", "-5", "1e999"])
    def test_grouping_threshold_out_of_range(self, capsys, tmp_path, threshold):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["g"]]}))
        grouping = tmp_path / "g.json"
        grouping.write_text(f'{{"threshold": {threshold}, "groups": [["m1", "m2"]]}}')
        code, out, err = _run(capsys, ["pcs", str(table), "--inject-grouping", str(grouping)])
        assert code == 1
        assert out == ""
        line = _single_error_line(err)
        assert line.startswith(f"error: {grouping}: ")
        assert "threshold must be in [0, 1]" in line

    def test_grouping_without_table_ids_rejected(self, capsys, tmp_path):
        grouping, (code, out, err) = self._pcs_with_grouping(capsys, tmp_path, [["a1-0", "a2-0"], ["b1-0"]])
        assert code == 1
        assert out == ""
        assert str(grouping) in _single_error_line(err)

    def test_grouping_partial_overlap_accepted(self, capsys, tmp_path):
        _, (code, out, err) = self._pcs_with_grouping(capsys, tmp_path, [["m1", "m2", "zz"], ["yy"]])
        assert code == 0
        assert err == ""
        assert {row["engine"] for row in json.loads(out)} == {"x", "grouping"}

    @pytest.mark.parametrize(
        "config, key",
        [
            ({"threshold": "0.5"}, "threshold"),
            ({"alpha": None}, "alpha"),
            ({"tm_threshold": [1]}, "tm_threshold"),
            ({"with_params": "no"}, "with_params"),
            ({"size_weighted": 1}, "size_weighted"),
            ({"threshold": True}, "threshold"),
            ({"seed": "7"}, "seed"),
            ({"seed": False}, "seed"),
        ],
        ids=[
            "threshold-str",
            "alpha-null",
            "tm-threshold-list",
            "with-params-str",
            "size-weighted-int",
            "threshold-bool",
            "seed-str",
            "seed-bool",
        ],
    )
    def test_malformed_config(self, capsys, two_family_corpus, tmp_path, config, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        code, out, err = _run(capsys, ["groups", str(two_family_corpus), "--config", str(path)])
        assert code == 1
        assert out == ""
        assert key in _single_error_line(err)

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"malwares": "ab", "engines": ["x"], "labels": [["f"], ["g"]]}, "malwares must be a list of strings"),
            ({"malwares": [1, 2], "engines": ["x"], "labels": [["f"], ["g"]]}, "malwares must be a list of strings"),
            ({"malwares": ["m1", "m2"], "engines": "x", "labels": [["f"], ["g"]]}, "engines must be a list of strings"),
            ({"malwares": ["m1", "m2"], "engines": ["x"], "labels": ["f", "g"]}, "labels must be a list of lists"),
            ({"malwares": ["m1", "m2"], "engines": ["x"], "labels": "fg"}, "labels must be a list of lists"),
        ],
        ids=["ids-str", "ids-int", "engines-str", "rows-str", "labels-str"],
    )
    def test_malformed_label_table(self, capsys, tmp_path, document, message):
        table = tmp_path / "table.json"
        table.write_text(json.dumps(document))
        code, out, err = _run(capsys, ["pcs", str(table)])
        assert code == 1
        assert out == ""
        assert message in _single_error_line(err)

    def test_non_string_description(self, capsys, tmp_path):
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["f"]]}))
        descriptions = tmp_path / "d.json"
        descriptions.write_text(json.dumps({"m1": 5, "m2": "trojan downloader"}))
        code, out, err = _run(capsys, ["pcs", str(table), "--text-mining", str(descriptions)])
        assert code == 1
        assert out == ""
        assert "'m1'" in _single_error_line(err)

    def test_description_missing_for_table_id(self, capsys, tmp_path):
        table = tmp_path / "t.json"
        table.write_text(
            json.dumps({"malwares": ["a", "b", "c"], "engines": ["x"], "labels": [["f"], ["f"], ["g"]]})
        )
        descriptions = tmp_path / "d.json"
        descriptions.write_text(json.dumps({"a": "trojan downloader", "b": "trojan", "zz": "worm"}))
        code, out, err = _run(capsys, ["pcs", str(table), "--text-mining", str(descriptions)])
        assert code == 1
        assert out == ""
        line = _single_error_line(err)
        assert line.startswith(f"error: {descriptions}: ")
        assert "'c'" in line

    @pytest.mark.parametrize(
        "path, value, field",
        [
            ((), [5], "corpus spec"),
            (("families",), 5, "families"),
            (("families",), [5], "family"),
            (("seed",), True, "seed"),
            (("mutation_rate",), None, "mutation_rate"),
            (("mutation_rate",), 10**400, "mutation_rate"),
            (("families", 0, "variants"), "4", "variants"),
            (("families", 0, "name"), 3, "name"),
            (("families", 0, "mutation_ops"), [5, "x"], "mutation_ops"),
            (("families", 0, "param_pools"), {"hName": 5}, "hName"),
            (("families", 0, "base_events"), [5], "base event"),
            (("families", 0, "base_events", 0, "attributes"), 7, "attributes"),
            (("families", 0, "base_events", 0, "attributes"), ["hName"], "attribute pair"),
        ],
        ids=[
            "top-level-list",
            "families-int",
            "family-int",
            "seed-bool",
            "rate-null",
            "rate-int-over-float",
            "variants-str",
            "name-int",
            "ops-mixed",
            "pool-int",
            "event-int",
            "attributes-int",
            "attribute-pair-str",
        ],
    )
    def test_malformed_corpus_spec(self, capsys, tmp_path, path, value, field):
        spec = copy.deepcopy(TestSynth.SPEC)
        if path:
            target = spec
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        else:
            spec = value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        code, out, err = _run(capsys, ["synth", str(spec_path), "--out", str(tmp_path / "out")])
        assert code == 1
        assert out == ""
        line = _single_error_line(err)
        assert line.startswith(f"error: {spec_path}: ")
        assert field in line

    @pytest.mark.parametrize("command", ["characterize", "distmat", "parse", "classify"])
    def test_non_utf8_profile_named(self, capsys, two_family_corpus, tmp_path, command):
        chars_path = tmp_path / "chars.json"
        assert main(["characterize", str(two_family_corpus), "--out", str(chars_path)]) == 0
        corpus = tmp_path / "with-bad"
        shutil.copytree(two_family_corpus, corpus)
        bad = corpus / "zz-0.xml"
        bad.write_bytes(b"\xff\xfe<Profile/>")
        argv = {
            "characterize": ["characterize", str(corpus)],
            "distmat": ["distmat", str(corpus)],
            "parse": ["parse", str(bad)],
            "classify": ["classify", str(chars_path), str(bad)],
        }[command]
        capsys.readouterr()
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert "zz-0.xml" in _single_error_line(err)

    # name -> (files to write, as bytes, and the arguments after the
    # subcommand); the failing file is always the one named bad.*.
    _TABLE = json.dumps({"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["g"]]}).encode()
    FAILING_FILES = {
        "config-not-utf8": ({"bad.json": b"\xff{}"}, ["groups", "{corpus}", "--config", "bad.json"]),
        "config-truncated": ({"bad.json": b"{"}, ["groups", "{corpus}", "--config", "bad.json"]),
        "config-deep": ({"bad.json": b"[" * 100_000}, ["groups", "{corpus}", "--config", "bad.json"]),
        "matrix-one-row": ({"bad.csv": b"a,b\n0,1\n"}, ["tree", "bad.csv"]),
        "matrix-huge-field": ({"bad.csv": b"a\n" + b"0" * 200_000 + b"\n"}, ["tree", "bad.csv"]),
        "matrix-empty-label": ({"bad.csv": b",a\n0,0.5\n0.5,0\n"}, ["tree", "bad.csv"]),
        "profile-malformed": ({"bad.xml": b"<Profile><Meta>"}, ["parse", "bad.xml"]),
        "classify-profile": ({"bad.xml": b"<Profile><Meta>"}, ["classify", "{chars}", "bad.xml"]),
        "grouping-truncated": (
            {"t.json": _TABLE, "bad.json": b'{"threshold": 0.5'},
            ["pcs", "t.json", "--inject-grouping", "bad.json"],
        ),
        "grouping-string": (
            {"t.json": _TABLE, "bad.json": b'{"threshold": 0.5, "groups": "ab"}'},
            ["pcs", "t.json", "--inject-grouping", "bad.json"],
        ),
        "descriptions-not-utf8": (
            {"t.json": _TABLE, "bad.json": b'{"m1": "\xff"}'},
            ["pcs", "t.json", "--text-mining", "bad.json"],
        ),
        "table-truncated": ({"bad.json": _TABLE[:20]}, ["pcs", "bad.json"]),
        "table-csv-huge-field": ({"bad.csv": b"malware_id,x\nm1," + b"f" * 200_000 + b"\n"}, ["pcs", "bad.csv"]),
        "spec-truncated": ({"bad.json": b'{"seed": 1, "fam'}, ["synth", "bad.json", "--out", "out"]),
        "spec-families-int": ({"bad.json": b'{"families": 5}'}, ["synth", "bad.json", "--out", "out"]),
    }

    @pytest.mark.parametrize("case", sorted(FAILING_FILES))
    def test_failing_file_named(self, capsys, monkeypatch, two_family_corpus, tmp_path, case):
        chars = tmp_path / "chars.json"
        assert main(["characterize", str(two_family_corpus), "--out", str(chars)]) == 0
        files, argv = self.FAILING_FILES[case]
        work = tmp_path / "work"
        work.mkdir()
        for name, data in files.items():
            (work / name).write_bytes(data)
        monkeypatch.chdir(work)
        capsys.readouterr()
        argv = [arg.format(corpus=two_family_corpus, chars=chars) for arg in argv]
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        bad = next(name for name in files if name.startswith("bad."))
        assert _single_error_line(err).startswith(f"error: {bad}: ")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MATRIX_CSV))
    def test_malformed_matrix_csv(self, capsys, tmp_path, case):
        text, message = MALFORMED_MATRIX_CSV[case]
        path = tmp_path / "m.csv"
        path.write_text(text)
        code, out, err = _run(capsys, ["tree", str(path)])
        assert code == 1
        assert out == ""
        assert _single_error_line(err) == f"error: {path}: {message}"

    @pytest.mark.parametrize("source", ["dev-zero", "oversized-file"])
    def test_input_size_cap(self, capsys, monkeypatch, tmp_path, source):
        monkeypatch.setattr("malbehave.profile.MAX_INPUT_BYTES", 1000)
        if source == "dev-zero":
            path = "/dev/zero"
        else:
            path = tmp_path / "big.xml"
            path.write_text("<Profile>" + " " * 1000 + "</Profile>")
        code, out, err = _run(capsys, ["parse", str(path)])
        assert code == 1
        assert out == ""
        assert _single_error_line(err) == f"error: {path}: larger than MAX_INPUT_BYTES = 1000 bytes"

    def test_oversized_file_refused_unread(self, capsys, tmp_path):
        # A sparse file over the real cap: refused from its length, so the
        # refusal costs no cap-sized read.
        path = tmp_path / "big.xml"
        with open(path, "wb") as sparse:
            sparse.truncate(MAX_INPUT_BYTES + 1)
        tracemalloc.start()
        try:
            code, out, err = _run(capsys, ["parse", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert out == ""
        assert _single_error_line(err) == f"error: {path}: larger than MAX_INPUT_BYTES = {MAX_INPUT_BYTES} bytes"
        assert peak < 4 * 1024 * 1024, f"refusing the file allocated {peak} bytes"

    @pytest.mark.parametrize("variants", [[100_000_000], [60_000, 60_000]], ids=["one-huge", "sum-over"])
    def test_oversized_corpus_spec(self, capsys, tmp_path, variants):
        spec = copy.deepcopy(TestSynth.SPEC)
        family = spec["families"][0]
        spec["families"] = [dict(family, name=f"fam{k}", variants=count) for k, count in enumerate(variants)]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        started = time.perf_counter()
        code, out, err = _run(capsys, ["synth", str(spec_path), "--out", str(tmp_path / "out")])
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert out == ""
        assert "MAX_CORPUS_VARIANTS" in _single_error_line(err)
        assert not (tmp_path / "out").exists()

    def test_entity_expansion_rejected(self, tmp_path):
        # "Billion laughs": nine levels of tenfold entity references expand
        # to 3 GB. The parser must refuse it; the address-space cap keeps a
        # parser without that guard from exhausting memory, and a memory
        # error under the cap fails the test.
        entities = ['<!ENTITY lol0 "lol">'] + [
            f'<!ENTITY lol{k} "{("&lol%d;" % (k - 1)) * 10}">' for k in range(1, 10)
        ]
        bomb = tmp_path / "bomb.xml"
        bomb.write_text(
            '<?xml version="1.0"?>\n<!DOCTYPE Profile [\n'
            + "\n".join(entities)
            + "\n]>\n<Profile><Meta><Hash>&lol9;</Hash><Process_id>1</Process_id>"
            "<Duration>300</Duration></Meta><Execution /></Profile>\n"
        )
        import resource  # POSIX only, like preexec_fn

        cap = 512 * 1024 * 1024

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        result = subprocess.run(
            [sys.executable, "-m", "malbehave", "parse", str(bomb)],
            capture_output=True,
            text=True,
            timeout=120,
            preexec_fn=limit_address_space,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert "memory" not in _single_error_line(result.stderr).lower()


CORPUS_COMMANDS = ["characterize", "groups", "distmat", "tree", "parse"]


class _CallList(list):
    """A list that takes a weak reference."""


def _cpus(monkeypatch, count):
    """Make the corpus commands split their files into count chunks (at
    most one per file), whatever the CPUs and the corpus size."""
    monkeypatch.setattr(cli, "_chunk_count", lambda paths: min(count, len(paths)))


class TestStreamedCorpus:
    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_one_profile_alive(self, capsys, monkeypatch, tmp_path, two_family_corpus, command, cpus):
        # The token commands walk each document to its call keys; parse
        # walks it to its meta fields and call keys. A walk is a tuple, which
        # takes no weakref, so its call list is counted while it is alive.
        # Each process (this one and every worker) counts its own walks and
        # writes its counts to a file named after its pid.
        _cpus(monkeypatch, cpus)
        counts = {}

        def mine():
            return counts.setdefault(os.getpid(), {"parsed": 0, "live": 0, "peak": 0})

        def released():
            mine()["live"] -= 1

        def counted(result):
            own = mine()
            own["parsed"] += 1
            own["live"] += 1
            own["peak"] = max(own["peak"], own["live"])
            (tmp_path / f"counts-{os.getpid()}.json").write_text(json.dumps(own))
            weakref.finalize(result, released)
            return result

        monkeypatch.setattr("malbehave.cli._profile_calls", lambda text: counted(_CallList(_profile_calls(text))))
        def counted_walk(text):
            walk = _walk_profile(text)
            return walk._replace(calls=counted(_CallList(walk.calls)))

        monkeypatch.setattr("malbehave.cli._walk_profile", counted_walk)
        code, out, err = _run(capsys, [command, str(two_family_corpus)])
        assert code == 0
        assert err == ""
        assert out
        per_process = [json.loads(path.read_text()) for path in tmp_path.glob("counts-*.json")]
        assert len(per_process) == cpus
        assert sum(own["parsed"] for own in per_process) == 4
        assert [own["peak"] for own in per_process] == [1] * cpus

    @pytest.fixture
    def corpora(self, tmp_path):
        """A missing directory, an empty one, and three files whose second
        is malformed XML and whose third is not UTF-8."""
        empty = tmp_path / "empty"
        empty.mkdir()
        (empty / "notes.txt").write_text("not a profile")
        bad = tmp_path / "bad"
        _write_corpus(bad, {"a-0": _profile("a", ["Apple"])})
        (bad / "b-0.xml").write_text("<Profile><Meta>")
        (bad / "c-0.xml").write_bytes(b"\xff\xfe<Profile/>")
        return {"missing": tmp_path / "missing", "empty": empty, "bad": bad}

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize("case", ["missing", "empty", "bad"])
    def test_corpus_errors(self, capsys, corpora, command, case):
        path = corpora[case]
        code, out, err = _run(capsys, [command, str(path)])
        assert code == 1
        assert out == ""
        line = _single_error_line(err)
        if case == "bad":
            # The first failing file in name order, although the next fails too.
            assert line.startswith(f"error: {path / 'b-0.xml'}: malformed XML: ")
        elif case == "empty":
            assert line == f"error: no profile XML files in {path}"
        else:
            assert line == f"error: corpus directory not found: {path}"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["parse", "missing.xml"], "error: [Errno 2] No such file or directory: 'missing.xml'"),
            (["tree", "missing.csv"], "error: [Errno 2] No such file or directory: 'missing.csv'"),
            (["tree", "notes.txt"], "error: tree input must be a corpus directory or a .csv matrix, got notes.txt"),
        ],
    )
    def test_file_errors(self, capsys, monkeypatch, tmp_path, argv, line):
        # A missing path named as a file is read as one; an existing file
        # that tree cannot read is named as such.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "notes.txt").write_text("not a matrix")
        code, out, err = _run(capsys, argv)
        assert (code, out, _single_error_line(err)) == (1, "", line)


_META = "<Process_id>1</Process_id><Duration>10</Duration>"
_PID_ZERO = "<Process_id>0</Process_id><Duration>10</Duration>"
_DURATION_ZERO = "<Process_id>1</Process_id><Duration>0</Duration>"
_BLANK_PARENT = _META + "<Parent_hash> </Parent_hash>"
_OUT_OF_ORDER = '<A Time="2"/><B Time="1"/>'

# Documents that the call-key walk and parse_profile must reject alike,
# with the message each raises: every parser rejection, then faults in the
# XML, the structure and the meta fields, alone and together with event
# faults, in the order the checked constructors raise them (events, then
# Process_id, Duration and Parent_hash, then the first out-of-order Time).
WALK_REJECTIONS = {
    **{case: (profile_document(execution), message) for case, (execution, message, _) in PARSER_REJECTIONS.items()},
    "process-id-zero": (profile_document('<A Time="1"/>', _PID_ZERO), "Process_id must be a positive integer, got 0"),
    "duration-zero": (profile_document('<A Time="1"/>', _DURATION_ZERO), "Duration must be a positive integer, got 0"),
    "blank-parent-hash": (
        profile_document('<A Time="1"/>', _BLANK_PARENT),
        "Parent_hash must be non-empty text when present",
    ),
    "bad-tag-before-process-id-zero": (
        profile_document('<Bé Time="1"/>', _PID_ZERO),
        "api_name must be a non-empty XML name, got 'Bé'",
    ),
    "process-id-zero-before-out-of-order": (
        profile_document(_OUT_OF_ORDER, _PID_ZERO),
        "Process_id must be a positive integer, got 0",
    ),
    "duration-zero-before-out-of-order": (
        profile_document(_OUT_OF_ORDER, _DURATION_ZERO),
        "Duration must be a positive integer, got 0",
    ),
    "blank-parent-hash-before-out-of-order": (
        profile_document(_OUT_OF_ORDER, _BLANK_PARENT),
        "Parent_hash must be non-empty text when present",
    ),
    "non-integer-process-id-before-bad-tag": (
        profile_document('<Bé Time="1"/>', "<Process_id>x</Process_id><Duration>10</Duration>"),
        "<Process_id> must be an integer, got 'x'",
    ),
    "non-integer-time": (profile_document('<A Time="x"/>'), "event 0 <A>: Time must be an integer, got 'x'"),
    "missing-hash": (
        "<Profile><Meta><Process_id>1</Process_id></Meta><Execution/></Profile>",
        "missing or empty <Hash> in <Meta>",
    ),
    "missing-execution": (f"<Profile><Meta><Hash>ab</Hash>{_META}</Meta></Profile>", "missing <Execution> element"),
    "wrong-root": ("<Report/>", "root element must be <Profile>, got <Report>"),
    "malformed-xml": (
        '<Profile>\n<Meta><Hash>ab</Hash></Meta>\n<Execution><A Time="1"></Execution>',
        "malformed XML: mismatched tag: line 3, column 25",
    ),
}


def _error_fields(exc: Exception) -> tuple:
    return (type(exc), str(exc), *(getattr(exc, name, None) for name in ("field_name", "line", "column")))


class TestWalkErrors:
    @pytest.mark.parametrize("case", list(WALK_REJECTIONS))
    def test_walk_raises_as_parse_profile(self, case):
        text, message = WALK_REJECTIONS[case]
        with pytest.raises(ProfileError) as parsed:
            parse_profile(text)
        with pytest.raises(ProfileError) as walked:
            _profile_calls(text)
        assert str(parsed.value) == message
        assert _error_fields(walked.value) == _error_fields(parsed.value)

    @pytest.fixture(scope="class")
    def characteristics(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("trained")
        corpus = root / "corpus"
        _write_corpus(corpus, {"a1-0": _profile("a1", ["Apple", "Berry"]), "b1-0": _profile("b1", ["Quince"])})
        chars = root / "chars.json"
        assert main(["characterize", str(corpus), "--out", str(chars)]) == 0
        return chars

    @pytest.mark.parametrize("case", list(WALK_REJECTIONS))
    def test_commands_print_the_same_error(self, capsys, tmp_path, characteristics, case):
        text, _ = WALK_REJECTIONS[case]
        path = tmp_path / "x-0.xml"
        path.write_text(text)
        with pytest.raises(ProfileError) as parsed:
            parse_profile(text)
        expected = f"error: {path}: {parsed.value}"
        for argv in (["classify", str(characteristics), str(path)], ["groups", str(tmp_path)], ["parse", str(path)]):
            code, out, err = _run(capsys, argv)
            assert (code, out, _single_error_line(err)) == (1, "", expected), argv


@pytest.fixture
def ordered_corpus(tmp_path):
    """Six profiles p0-0 .. p5-0: two chunks of three at two CPUs, three of
    two at three."""
    corpus = tmp_path / "ordered"
    _write_corpus(corpus, {f"p{k}-0": _profile(f"p{k}", ["Apple", f"Fruit{k % 3}"]) for k in range(6)})
    return corpus


class TestCorpusWorkers:
    """Corpus commands split the sorted files into one contiguous chunk per
    CPU; the first is worked in this process and the others in forked
    workers. The results and the errors are those of one process."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["characterize", "{c}", "--threshold", "0.7"],
            ["groups", "{c}"],
            ["distmat", "{c}", "--ngram", "2"],
            ["tree", "{c}"],
            ["parse", "{c}"],
            ["parse", "{c}/a2-0.xml", "{c}", "{c}/b1-0.xml"],
        ],
        ids=lambda argv: "-".join(arg for arg in argv if "{" not in arg),
    )
    def test_same_bytes_at_any_cpu_count(self, capsys, monkeypatch, tmp_path, argv):
        corpus = tmp_path / "corpus"
        fruits = ["Apple", "Berry", "Cherry", "Damson", "Elder", "Fig", "Grape"]
        _write_corpus(corpus, {f"{f}{k}-0": _profile(f"{f}{k}", fruits[k : k + 3]) for f in "ab" for k in range(4)})
        argv = [arg.format(c=corpus) for arg in argv]
        outputs = []
        for cpus in (1, 2, 3, 8, 16):
            _cpus(monkeypatch, cpus)
            outputs.append(_run(capsys, argv))
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs == [outputs[0]] * len(outputs)

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize(
        "cpus, broken, first",
        [
            (2, ["p2-0", "p3-0"], "p2-0"),  # both chunks fail, the second sooner
            (2, ["p4-0"], "p4-0"),  # only the worker's chunk fails
            (3, ["p3-0", "p4-0"], "p3-0"),  # two workers fail
            (3, ["p5-0", "p0-0"], "p0-0"),  # this process's chunk fails first
        ],
    )
    def test_first_failing_file_in_name_order(self, capsys, monkeypatch, ordered_corpus, command, cpus, broken, first):
        for name in broken:
            (ordered_corpus / f"{name}.xml").write_text("<Profile><Meta>")
        lines = []
        for count in (1, cpus):
            _cpus(monkeypatch, count)
            code, out, err = _run(capsys, [command, str(ordered_corpus)])
            assert (code, out) == (1, "")
            lines.append(_single_error_line(err))
        assert lines[0].startswith(f"error: {ordered_corpus / first}.xml: malformed XML: ")
        assert lines[1] == lines[0]

    @pytest.mark.parametrize("case", ["malformed-xml", "process-id-zero", "non-integer-time", "wrong-root"])
    def test_error_fields_cross_the_process_boundary(self, monkeypatch, ordered_corpus, case):
        text, _ = WALK_REJECTIONS[case]
        (ordered_corpus / "p4-0.xml").write_text(text)
        fields = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            with pytest.raises(ProfileError) as tokens:
                cli._corpus_matrix(str(ordered_corpus), cli.RunConfig())
            with pytest.raises(ProfileError) as summaries:
                cli._map_corpus(cli._summaries, corpus_paths(ordered_corpus))
            fields += [_error_fields(tokens.value), _error_fields(summaries.value)]
        assert fields == [fields[0]] * 4
        assert fields[0][1].startswith(f"{ordered_corpus / 'p4-0.xml'}: ")
        if case == "malformed-xml":
            assert fields[0][3:] == (3, 25)
        elif case == "process-id-zero":
            assert fields[0][2] == "Process_id"

    def test_os_error_crosses_the_process_boundary(self, monkeypatch, ordered_corpus):
        # A directory named like a profile: reading it is an OSError, which
        # keeps its class, errno and filename.
        (ordered_corpus / "p4-0.xml").unlink()
        (ordered_corpus / "p4-0.xml").mkdir()
        raised = []
        for cpus in (1, 2):
            _cpus(monkeypatch, cpus)
            with pytest.raises(OSError) as error:
                cli._corpus_matrix(str(ordered_corpus), cli.RunConfig())
            raised.append((type(error.value), str(error.value), error.value.errno, error.value.filename))
        assert raised[0] == raised[1]
        assert raised[0][0] is IsADirectoryError

    def test_large_results(self, monkeypatch):
        # Each worker's result is over the 64 KiB pipe buffer.
        _cpus(monkeypatch, 3)

        def work(chunk):
            return [name * 100_000 for name in chunk]

        names = ["a", "b", "c", "d", "e"]
        assert cli._map_corpus(work, names) == work(names)

    @pytest.mark.parametrize("worker", ["large-result", "still-working"])
    def test_own_chunk_fails_first(self, monkeypatch, worker):
        # The worker blocks writing a result over the pipe buffer until it
        # is read, or is still at work: this process kills it rather than
        # wait for it.
        _cpus(monkeypatch, 2)

        def work(chunk):
            if chunk[0] == "first":
                raise ProfileError("first chunk fails")
            if worker == "still-working":
                time.sleep(60)
            return ["x" * (1 << 20)]

        def deadlocked(signum, frame):
            raise TimeoutError("the corpus map did not return")

        previous = signal.signal(signal.SIGALRM, deadlocked)
        signal.alarm(20)
        try:
            with pytest.raises(ProfileError, match="first chunk fails"):
                cli._map_corpus(work, ["first", "second"])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize("broken", [None, "p1-0", "p4-0"])
    def test_no_worker_outlives_the_command(self, capsys, monkeypatch, ordered_corpus, command, broken):
        _cpus(monkeypatch, 3)
        if broken:
            (ordered_corpus / f"{broken}.xml").write_text("<Profile><Meta>")
        code, _, _ = _run(capsys, [command, str(ordered_corpus)])
        assert code == (1 if broken else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize(
        "death, how", [("exit-0", "exit status 0"), ("exit-3", "exit status 3"), ("kill", "killed by signal 9")]
    )
    def test_worker_dies_without_result(self, capsys, monkeypatch, ordered_corpus, command, death, how):
        _cpus(monkeypatch, 2)
        parent = os.getpid()

        def read_or_die(path, parse):
            if os.getpid() != parent:
                if death == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(int(death[-1]))
            return read_input(path, parse)

        monkeypatch.setattr("malbehave.cli.read_input", read_or_die)
        code, out, err = _run(capsys, [command, str(ordered_corpus)])
        assert (code, out) == (1, "")
        expected = f"error: {ordered_corpus / 'p3-0.xml'}..p5-0.xml: worker process ended without a result ({how})"
        assert _single_error_line(err) == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize("broken", [None, "p1-0", "p3-0", "p5-0"])
    def test_fork_fails(self, capsys, monkeypatch, ordered_corpus, command, broken):
        # Out of processes or memory (EAGAIN, ENOMEM) after the first fork:
        # the chunks without a worker are worked here, in order, with the
        # output and the error of one process.
        if broken:
            (ordered_corpus / f"{broken}.xml").write_text("<Profile><Meta>")
        _cpus(monkeypatch, 1)
        expected = _run(capsys, [command, str(ordered_corpus)])
        fork = os.fork
        forks = []

        def fork_once():
            forks.append(None)
            if len(forks) > 1:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_once)
        _cpus(monkeypatch, 3)
        assert _run(capsys, [command, str(ordered_corpus)]) == expected
        assert len(forks) == 2
        assert expected[0] == (1 if broken else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_no_fork_at_all(self, capsys, monkeypatch, ordered_corpus):
        _cpus(monkeypatch, 1)
        expected = _run(capsys, ["groups", str(ordered_corpus)])

        def no_fork():
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(os, "fork", no_fork)
        _cpus(monkeypatch, 2)
        assert _run(capsys, ["groups", str(ordered_corpus)]) == expected

    def test_buffered_stdout_written_once(self, ordered_corpus):
        # Text still in this process's stdout buffer at the fork is not
        # written again by a worker on its way out.
        code = (
            "import sys; from malbehave import cli; cli._chunk_count = lambda paths: 3; "
            "sys.stdout.write('before\\n'); sys.exit(cli.main(sys.argv[1:]))"
        )
        result = subprocess.run(
            [sys.executable, "-c", code, "parse", str(ordered_corpus)], capture_output=True, text=True, timeout=60
        )
        assert (result.returncode, result.stderr) == (0, "")
        lines = result.stdout.splitlines()
        assert lines[0] == "before"
        assert [line.split(":")[0] for line in lines[1:]] == [f"p{k}-0" for k in range(6)]

    def test_no_fork_with_other_threads(self, capsys, monkeypatch, ordered_corpus):
        # A fork copies only the calling thread, so with another thread
        # alive every file is read in this process.
        _cpus(monkeypatch, 2)
        read = []

        def recorded(path, parse):
            read.append(path.stem)
            return read_input(path, parse)

        monkeypatch.setattr("malbehave.cli.read_input", recorded)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            code, _, err = _run(capsys, ["groups", str(ordered_corpus)])
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert (code, err) == (0, "")
        assert read == [f"p{k}-0" for k in range(6)]


class TestChunkCount:
    """One chunk per CPU the process may use, capped at the fan-out that
    was measured, and only as many as the corpus's bytes pay for."""

    @pytest.fixture
    def cpus(self, monkeypatch, tmp_path):
        def set_cpus(count, cpu_max=None):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
            monkeypatch.setattr(cli, "_CPU_MAX", tmp_path / "cpu.max")
            if cpu_max is not None:
                (tmp_path / "cpu.max").write_text(cpu_max + "\n")

        return set_cpus

    @pytest.mark.parametrize(
        "affinity, cpu_max, count",
        [
            (8, None, 8),
            (8, "max 100000", 8),
            (8, "300000 100000", 3),
            (8, "150000 100000", 1),
            (8, "50000 100000", 1),
            (2, "400000 100000", 2),
            (8, "", 8),
        ],
    )
    def test_cpu_count(self, cpus, affinity, cpu_max, count):
        cpus(affinity, cpu_max)
        assert cli._cpu_count() == count

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._cpu_count() == 1

    @pytest.mark.parametrize(
        "affinity, cpu_max, sizes, count",
        [
            (16, None, [cli._CHUNK_BYTES] * 8, cli._MAX_CHUNKS),
            (1, None, [cli._CHUNK_BYTES] * 8, 1),
            (16, "100000 100000", [cli._CHUNK_BYTES] * 8, 1),
            (2, None, [cli._CHUNK_BYTES, cli._CHUNK_BYTES - 1], 1),
            (2, None, [cli._CHUNK_BYTES, cli._CHUNK_BYTES], 2),
            (2, None, [1] * 7 + [2 * cli._CHUNK_BYTES], 2),
            (2, None, [2 * cli._CHUNK_BYTES], 1),
        ],
    )
    def test_chunk_count(self, cpus, tmp_path, affinity, cpu_max, sizes, count):
        cpus(affinity, cpu_max)
        paths = []
        for k, size in enumerate(sizes):
            paths.append(tmp_path / f"p{k}.xml")
            paths[-1].write_bytes(b"x" * size)
        assert cli._chunk_count(paths) == count

    def test_unreadable_path_left_to_the_reader(self, cpus, tmp_path):
        cpus(2)
        (tmp_path / "p1.xml").write_bytes(b"x" * 2 * cli._CHUNK_BYTES)
        assert cli._chunk_count([tmp_path / "p0.xml", tmp_path / "p1.xml"]) == 1


class TestEntryPoint:
    def test_module_invocation(self, small_corpus):
        result = subprocess.run(
            [sys.executable, "-m", "malbehave", "parse", str(small_corpus)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "p1-0" in result.stdout


class TestSharedParser:
    """main parses every call with one parser per process, so no call may
    leave state behind for the next one."""

    def test_calls_match_fresh_processes(self, capsys, monkeypatch, two_family_corpus, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping in both processes
        chars = tmp_path / "chars.json"
        assert main(["characterize", str(two_family_corpus), "--alpha", "0", "--out", str(chars)]) == 0
        # Two of the three tokens of group 1's distinct set: a score of 2/3.
        partial = tmp_path / "partial.xml"
        partial.write_text(serialize_profile(_profile("pp", ["Quince", "Rowan", "WinExec"])))
        table = tmp_path / "table.json"
        table.write_text(
            json.dumps({"malwares": ["m1", "m2", "m3"], "engines": ["x"], "labels": [["f"], ["f"], ["g"]]})
        )
        grouping = tmp_path / "grouping.json"
        grouping.write_text(json.dumps({"threshold": 0.5, "groups": [["m1"], ["m2", "m3"]]}))
        calls = [
            (["classify", str(chars), str(partial), "--min-score", "0.99"], 0, "none\n"),
            (["classify", str(chars), str(partial)], 0, "1\n"),
            (["classify", str(chars), "--min-score", "x"], 2, ""),
            (["pcs", str(table), "--inject-grouping", str(grouping), "--inject-name", "X"], 0, '"X"'),
            (["pcs", str(table), "--inject-grouping", str(grouping)], 0, '"grouping"'),
        ]
        capsys.readouterr()
        for argv, expected_code, expected_out in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "malbehave", *argv], capture_output=True, text=True
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
            assert code == expected_code and expected_out in out, argv

    def test_help_is_stable(self, capsys):
        outputs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exit_:
                main(["--help"])
            assert exit_.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.startswith("usage: malbehave ")

    def test_grammar_built_once(self):
        assert cli._shared_parser() is cli._shared_parser()
        assert cli.build_parser() is not cli.build_parser()
