from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
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
from malbehave.profile import _profile_calls, _walk_profile
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


class TestStreamedCorpus:
    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_one_profile_alive(self, capsys, monkeypatch, two_family_corpus, command):
        # The token commands walk each document to its call keys; parse
        # walks it to its meta fields and call keys. A walk is a tuple, which
        # takes no weakref, so its call list is counted while it is alive.
        counts = {"parsed": 0, "live": 0, "peak": 0}

        def released():
            counts["live"] -= 1

        def counted(result):
            counts["parsed"] += 1
            counts["live"] += 1
            counts["peak"] = max(counts["peak"], counts["live"])
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
        assert counts["parsed"] == 4
        assert counts["peak"] == 1

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
        elif command == "tree":
            assert line == f"error: tree input must be a corpus directory or a .csv matrix, got {path}"
        elif command == "parse":
            assert line == f"error: [Errno 2] No such file or directory: '{path}'"
        else:
            assert line == f"error: corpus directory not found: {path}"


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
