from __future__ import annotations

import ast
import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import linecache
import os
import random
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

from malbehave import (
    MAX_INPUT_BYTES,
    ApiEvent,
    CorpusSpec,
    DistanceMatrix,
    EnduranceConfig,
    EngineLabelTable,
    FamilyTemplate,
    FeatureConfig,
    Grouping,
    PairwiseIndicator,
    Profile,
    ProfileError,
    ProfileParseError,
    ProfileSchemaError,
    classify,
    cli,
    common_set,
    cut_tree,
    distance_matrix,
    distinct_characteristics,
    generate_corpus,
    generate_family,
    jaccard_matrix,
    parse_profile,
    pcs_report,
    pcs_score,
    rand_index,
    read_corpus,
    serialize_profile,
    synth,
    text_mining_grouping,
    to_newick,
    upgma,
    write_corpus,
)
from malbehave.cli import main
from malbehave.profile import _profile_calls, _walk_profile, corpus_paths, read_input, typed
from _oracles import dense_upgma
from _pipeline import (
    MALFORMED_MATRIX_CSV,
    MUTATIONS_NO_SPAWN,
    family_template,
    four_family_spec,
    profile_document,
)


def _write_corpus(directory, profiles_by_label):
    directory.mkdir(parents=True, exist_ok=True)
    for label, profile in profiles_by_label.items():
        (directory / f"{label}.xml").write_text(serialize_profile(profile))


def _profile(sample_hash, api_names):
    events = tuple(ApiEvent(name, (), None, 100 + i) for i, name in enumerate(api_names))
    return Profile(sample_hash, 1, 300, events)


TWO_FAMILIES = {
    "a1-0": _profile("a1", ["Apple", "Berry", "Cherry"]),
    "a2-0": _profile("a2", ["Apple", "Berry", "Cherry", "Damson"]),
    "b1-0": _profile("b1", ["Quince", "Rowan", "Sloe"]),
    "b2-0": _profile("b2", ["Quince", "Rowan", "Sloe", "Tansy"]),
}


@pytest.fixture
def two_family_corpus(tmp_path):
    corpus = tmp_path / "families"
    _write_corpus(corpus, TWO_FAMILIES)
    return corpus


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDistmat:
    def test_out_encoded_in_slices(self, tmp_path):
        # Output is encoded 1 Mi characters at a time: a 16 MB text costs
        # about 2 MB, where encoding it whole made a 16 MB copy.
        text = "0123456789abcdef" * (1 << 20)
        target = tmp_path / "out.txt"
        tracemalloc.start()
        try:
            cli._emit(text, str(target))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert target.read_text() == text
        assert peak < 4 * 1024 * 1024, f"writing the text allocated {peak} bytes"


class TestTree:
    def test_size_weighted_corpus_matches_dense(self, capsys, tmp_path):
        # Spawned children repeat their parent's token set (211 profiles, 48
        # distinct sets), so the weighted tree chains classes of equal rows.
        labeled, truth = generate_corpus(four_family_spec(variants=12, seed=19))
        write_corpus(tmp_path / "corpus", labeled, truth)
        labeled.sort()
        matrix = distance_matrix([profile for _, profile in labeled], FeatureConfig(), [label for label, _ in labeled])
        expected = to_newick(dense_upgma(matrix, size_weighted=True)) + "\n"
        assert expected != to_newick(dense_upgma(matrix)) + "\n"
        assert _run(capsys, ["tree", str(tmp_path / "corpus"), "--size-weighted"]) == (0, expected, "")


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

    @pytest.mark.parametrize(
        "pools, message",
        [
            ({"Return": ["x"]}, "attribute key 'Return' is reserved"),
            ({"Time": ["1"]}, "attribute key 'Time' is reserved"),
            ({"bad key": ["x"]}, "attribute key 'bad key' is not an XML name"),
        ],
        ids=["return", "time", "not-a-name"],
    )
    def test_bad_param_pool_for_every_seed(self, capsys, tmp_path, pools, message):
        # With few noise events, only some seeds would draw the bad pool;
        # the spec is refused for all of them, naming the spec file.
        spec = copy.deepcopy(self.SPEC)
        spec["mutation_rate"] = 0.1
        spec["families"][0].update(variants=3, mutation_ops=["insert_noise_event"], param_pools=pools)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        for seed in range(1, 7):
            out_dir = tmp_path / f"out-{seed}"
            code, out, err = _run(capsys, ["synth", str(spec_path), "--seed", str(seed), "--out", str(out_dir)])
            assert (code, out, _single_error_line(err)) == (1, "", f"error: {spec_path}: {message}")
            assert not out_dir.exists()


class TestErrors:
    @pytest.mark.parametrize(
        "stage, argv",
        [
            ("upgma", ["groups", "{corpus}"]),
            ("_profile_calls", ["classify", "{chars}", "{corpus}/a1-0.xml"]),
            ("pcs_report", ["pcs", "{table}"]),
        ],
        ids=["groups-tree", "classify-read", "pcs"],
    )
    def test_out_of_memory(self, capsys, monkeypatch, two_family_corpus, tmp_path, stage, argv):
        chars, table, out_path = tmp_path / "chars.json", tmp_path / "t.json", tmp_path / "out"
        assert main(["characterize", str(two_family_corpus), "--out", str(chars)]) == 0
        table.write_text(json.dumps({"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["g"]]}))

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, stage, exhausted)
        argv = [arg.format(corpus=two_family_corpus, chars=chars, table=table) for arg in argv]
        code, out, err = _run(capsys, [*argv, "--out", str(out_path)])
        assert (code, out) == (1, "")
        assert _single_error_line(err) == "error: out of memory"
        assert not out_path.exists()


def _single_error_line(err: str) -> str:
    lines = err.splitlines()
    assert len(lines) == 1, err
    assert lines[0].startswith("error:")
    return lines[0]


class Refusal(NamedTuple):
    """A refused invocation. files are written into a fresh working
    directory, each as bytes or as a function of the trained model's text,
    and argv names them by relative paths. For status 1 the message is all
    of stderr after "error: "; for status 2 it is argparse's, after the
    subcommand's usage and "malbehave SUB: error: "."""

    id: str
    files: dict[str, bytes | Callable[[str], bytes]]
    argv: list[str]
    status: int
    message: str


def _json(document) -> bytes:
    return json.dumps(document).encode()


def _edited(document, edit: Callable) -> bytes:
    document = copy.deepcopy(document)
    edit(document)
    return _json(document)


def _model(edit: Callable = lambda document: None) -> dict:
    """chars.json: the trained two-family model, its document edited."""
    return {"chars.json": lambda model: _edited(json.loads(model), edit)}


def _first_group(**fields) -> Callable:
    """A model edit: fields set in the first group."""
    return lambda document: document["groups"][0].update(fields)


def _first_family(**fields) -> Callable:
    """A spec edit: fields set in the first family."""
    return lambda spec: spec["families"][0].update(fields)


def _first_event(**fields) -> Callable:
    """A spec edit: fields set in the first family's first base event."""
    return lambda spec: spec["families"][0]["base_events"][0].update(fields)


# Inputs: files, as bytes, and the argv that names some of them.
_CORPUS = {f"corpus/{label}.xml": serialize_profile(profile).encode() for label, profile in TWO_FAMILIES.items()}
_TWO_SAMPLES = {"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["g"]]}
_TABLE = _json(_TWO_SAMPLES)
_TABLE3 = _json({"malwares": ["m1", "m2", "m3"], "engines": ["x"], "labels": [["f"], ["f"], ["g"]]})
_ABC = {"malwares": ["a", "b", "c"], "engines": ["x", "y"]}
_MATRIX = {"m.csv": b"a,b\n0,0.5\n0.5,0\n"}
_TRUNCATED_XML = b"<Profile><Meta>"
_NOT_UTF8 = b"\xff\xfe<Profile/>"
_CLASSIFY = ["classify", "chars.json", "b2-0.xml"]
_CLASSIFY_FILES = {**_model(), "b2-0.xml": _CORPUS["corpus/b2-0.xml"]}
_SYNTH = ["synth", "spec.json", "--out", "out"]
# Messages that several rows print.
_TREE_CSV = "--ngram, --no-params and --no-return apply to a corpus directory, not a matrix .csv"
_NO_ELEMENT = "malformed XML: no element found: line 1, column 15"
_BAD_BYTE = "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_FEATURE_BLOCK = "feature block must have the keys ['include_return', 'ngram_n', 'normalize_paths', 'with_params'], got"

_META = "<Process_id>1</Process_id><Duration>10</Duration>"
_PID_ZERO = "<Process_id>0</Process_id><Duration>10</Duration>"
_DURATION_ZERO = "<Process_id>1</Process_id><Duration>0</Duration>"
_BLANK_PARENT = _META + "<Parent_hash> </Parent_hash>"
_OUT_OF_ORDER = '<A Time="2"/><B Time="1"/>'


def _schema(execution: str, message: str, field_name: str, meta: str = _META) -> tuple:
    """A WALK_REJECTIONS case: the document of profile_document(execution,
    meta), rejected with a ProfileSchemaError that names field_name."""
    return profile_document(execution, meta), ProfileSchemaError, message, {"field_name": field_name}


# Documents that the call-key walk and parse_profile must reject alike, as
# (text, error class, message, fields). First the names the parser checks
# once per document, which must fail as the checked constructors do, in
# their order; then faults in the XML, the structure and the meta fields,
# alone and together with event faults, in the order the checked
# constructors raise them (events, then Process_id, Duration and
# Parent_hash, then the first out-of-order Time).
WALK_REJECTIONS = {
    "non-ascii-tag": _schema('<Créer Time="1"/>', "api_name must be a non-empty XML name, got 'Créer'", "api_name"),
    "namespaced-tag": _schema(
        '<a:b xmlns:a="u" Time="1"/>', "api_name must be a non-empty XML name, got '{u}b'", "api_name"
    ),
    "namespaced-key": _schema('<A xmlns:a="u" a:k="v" Time="1"/>', "attribute key '{u}k' is not an XML name", "{u}k"),
    "non-ascii-key": _schema('<A é="1" Time="1"/>', "attribute key 'é' is not an XML name", "é"),
    "negative-time": _schema('<A Time="-5"/>', "Time must be a non-negative integer, got -5", "Time"),
    "negative-time-second-event": _schema(
        '<A Time="2"/><B Time="-1"/>', "Time must be a non-negative integer, got -1", "Time"
    ),
    "out-of-order": _schema('<A k="1" Time="5"/><B Time="4"/>', "events out of order: Time 4 follows Time 5", "Time"),
    "bad-tag-second-event": _schema(
        '<A Time="1"/><Bé Time="2"/>', "api_name must be a non-empty XML name, got 'Bé'", "api_name"
    ),
    "bad-tag-after-out-of-order": _schema(
        '<A Time="2"/><B Time="1"/><Cé Time="3"/>', "api_name must be a non-empty XML name, got 'Cé'", "api_name"
    ),
    "bad-key-beside-checked-key": _schema(
        '<A k="1" Time="1"/><A k="2" é="3" Time="2"/>', "attribute key 'é' is not an XML name", "é"
    ),
    "missing-time-before-bad-tag": _schema("<Bé/>", "event 0 <Bé>: missing Time attribute", "Time"),
    "process-id-zero": _schema(
        '<A Time="1"/>', "Process_id must be a positive integer, got 0", "Process_id", _PID_ZERO
    ),
    "duration-zero": _schema('<A Time="1"/>', "Duration must be a positive integer, got 0", "Duration", _DURATION_ZERO),
    "blank-parent-hash": _schema(
        '<A Time="1"/>', "Parent_hash must be non-empty text when present", "Parent_hash", _BLANK_PARENT
    ),
    "bad-tag-before-process-id-zero": _schema(
        '<Bé Time="1"/>', "api_name must be a non-empty XML name, got 'Bé'", "api_name", _PID_ZERO
    ),
    "process-id-zero-before-out-of-order": _schema(
        _OUT_OF_ORDER, "Process_id must be a positive integer, got 0", "Process_id", _PID_ZERO
    ),
    "duration-zero-before-out-of-order": _schema(
        _OUT_OF_ORDER, "Duration must be a positive integer, got 0", "Duration", _DURATION_ZERO
    ),
    "blank-parent-hash-before-out-of-order": _schema(
        _OUT_OF_ORDER, "Parent_hash must be non-empty text when present", "Parent_hash", _BLANK_PARENT
    ),
    "non-integer-process-id-before-bad-tag": _schema(
        '<Bé Time="1"/>', "<Process_id> must be an integer, got 'x'", "Process_id",
        "<Process_id>x</Process_id><Duration>10</Duration>",
    ),
    "non-integer-time": _schema('<A Time="x"/>', "event 0 <A>: Time must be an integer, got 'x'", "Time"),
    "missing-hash": (
        "<Profile><Meta><Process_id>1</Process_id></Meta><Execution/></Profile>",
        ProfileSchemaError, "missing or empty <Hash> in <Meta>", {"field_name": "Hash"},
    ),
    "missing-meta": (
        "<Profile><Execution/></Profile>", ProfileSchemaError, "missing <Meta> element", {"field_name": "Meta"}
    ),
    "missing-execution": (
        f"<Profile><Meta><Hash>ab</Hash>{_META}</Meta></Profile>",
        ProfileSchemaError, "missing <Execution> element", {"field_name": "Execution"},
    ),
    "wrong-root": (
        "<Report/>", ProfileSchemaError, "root element must be <Profile>, got <Report>", {"field_name": "Profile"}
    ),
    "malformed-xml": (
        '<Profile>\n<Meta><Hash>ab</Hash></Meta>\n<Execution><A Time="1"></Execution>',
        ProfileParseError, "malformed XML: mismatched tag: line 3, column 25", {"line": 3, "column": 25},
    ),
}

REFUSALS = [
    # Every path argument given as "" with the others named (none exists).
    *(
        Refusal(f"empty-path {' '.join(arg or repr('') for arg in argv)}", {}, argv, 2,
                f"argument {name}: an empty path names no file")
        for argv, name in [
            (["parse", ""], "paths"),
            (["parse", "p.xml", ""], "paths"),
            (["parse", "p.xml", "--out", ""], "--out"),
            (["distmat", ""], "corpus"),
            (["distmat", "corpus", "--out", ""], "--out"),
            (["tree", ""], "input"),
            (["tree", "m.csv", "--out", ""], "--out"),
            (["groups", ""], "corpus"),
            (["groups", "corpus", "--out", ""], "--out"),
            (["characterize", ""], "corpus"),
            (["characterize", "corpus", "--out", ""], "--out"),
            (["classify", "", "p.xml"], "characteristics"),
            (["classify", "chars.json", ""], "profile"),
            (["classify", "chars.json", "p.xml", "--out", ""], "--out"),
            (["pcs", ""], "table"),
            (["pcs", "t.json", "--inject-grouping", ""], "--inject-grouping"),
            (["pcs", "t.json", "--text-mining", ""], "--text-mining"),
            (["pcs", "t.json", "--out", ""], "--out"),
            (["synth", "", "--out", "corpus"], "spec"),
            (["synth", "spec.json", "--out", ""], "--out"),
        ]
    ),
    # A flag the subcommand lacks, or cannot apply to its input.
    Refusal("unknown-flag", _CORPUS, ["groups", "corpus", "--bogus"], 2, "unrecognized arguments: --bogus"),
    *(
        Refusal(
            f"removed {argv[0]}-config",
            {**_CLASSIFY_FILES, **_CORPUS, "config.json": b"{}", "table.json": _TABLE, "spec.json": b"{}"},
            [*argv, "--config", "config.json"], 2, "unrecognized arguments: --config config.json",
        )
        for argv in [
            _CLASSIFY, ["parse", "b2-0.xml"], ["distmat", "corpus"], ["tree", "corpus"], ["groups", "corpus"],
            ["characterize", "corpus"], ["pcs", "table.json"], _SYNTH,
        ]
    ),
    *(
        Refusal(f"removed classify {' '.join(flag)}", _CLASSIFY_FILES, [*_CLASSIFY, *flag], 2,
                f"unrecognized arguments: {' '.join(flag)}")
        for flag in (["--ngram", "1"], ["--no-params"], ["--no-return"])
    ),
    *(
        Refusal(f"removed tree-matrix {' '.join(flags)}", _MATRIX, ["tree", "m.csv", *flags], 2, _TREE_CSV)
        for flags in (["--ngram", "2"], ["--no-params"], ["--no-return", "--size-weighted"])
    ),
    Refusal("removed pcs-tm-threshold", {"t.json": _TABLE}, ["pcs", "t.json", "--tm-threshold", "0.3"], 2,
            "--tm-threshold applies only with --text-mining"),
    # Settings out of range, refused before any file is read, but after the
    # model's own: the model's alpha is refused before --min-score is.
    Refusal("range threshold", _CORPUS, ["groups", "corpus", "--threshold", "3"], 1,
            "threshold must be in [0, 1], got 3.0"),
    Refusal("range tm-threshold", {}, ["pcs", "t.json", "--text-mining", "d.json", "--tm-threshold", "1.5"], 1,
            "tm_threshold must be in [0, 1], got 1.5"),
    Refusal("range ngram", _CORPUS, ["distmat", "corpus", "--ngram", "0"], 1,
            "ngram_n must be a positive integer, got 0"),
    Refusal("min-score flag", _CLASSIFY_FILES, [*_CLASSIFY, "--min-score", "1.5"], 1,
            "min_score must be in [0, 1], got 1.5"),
    Refusal("min-score model", {**_CLASSIFY_FILES, **_model(lambda doc: doc.update(alpha=1))},
            [*_CLASSIFY, "--min-score", "1.5"], 1, "chars.json: alpha must be in [0, 1), got 1"),
    # A corpus that is missing, holds no profile, or holds a failing file:
    # the first in name order, b-0.xml, although c-0.xml fails too.
    *(
        Refusal(f"corpus {case}-{command}", files, [command, case], 1, message)
        for case, files, message in [
            ("missing", {}, "corpus directory not found: missing"),
            ("empty", {"empty/notes.txt": b"not a profile"}, "no profile XML files in empty"),
            (
                "bad",
                {"bad/a-0.xml": _CORPUS["corpus/a1-0.xml"], "bad/b-0.xml": _TRUNCATED_XML, "bad/c-0.xml": _NOT_UTF8},
                f"bad/b-0.xml: {_NO_ELEMENT}",
            ),
        ]
        for command in ["characterize", "groups", "distmat", "tree", "parse"]
    ),
    *(
        Refusal(f"not-utf8 {argv[0]}", {**_CLASSIFY_FILES, **_CORPUS, "corpus/zz-0.xml": _NOT_UTF8}, argv, 1,
                f"corpus/zz-0.xml: {_BAD_BYTE}")
        for argv in [
            ["characterize", "corpus"], ["distmat", "corpus"], ["parse", "corpus/zz-0.xml"],
            ["classify", "chars.json", "corpus/zz-0.xml"],
        ]
    ),
    # A profile that the walk rejects, read by each command that walks one.
    *(
        Refusal(f"walk {case} {argv[0]}", {**_model(), "corpus/x-0.xml": text.encode()}, argv, 1,
                f"corpus/x-0.xml: {message}")
        for case, (text, _, message, _) in WALK_REJECTIONS.items()
        for argv in (["classify", "chars.json", "corpus/x-0.xml"], ["groups", "corpus"], ["parse", "corpus/x-0.xml"])
    ),
    # A missing path named as a file is read as one; an existing file that
    # tree cannot read is named as such.
    Refusal("file-error parse missing.xml", {}, ["parse", "missing.xml"], 1, "missing.xml: No such file or directory"),
    Refusal("file-error tree missing.csv", {}, ["tree", "missing.csv"], 1, "missing.csv: No such file or directory"),
    Refusal("file-error tree notes.txt", {"notes.txt": b"not a matrix"}, ["tree", "notes.txt"], 1,
            "tree input must be a corpus directory or a .csv matrix, got notes.txt"),
    # Whatever fails in a file, the file is named.
    Refusal("file matrix-one-row", {"bad.csv": b"a,b\n0,1\n"}, ["tree", "bad.csv"], 1,
            "bad.csv: matrix must be 2x2 to match its labels: got 1 rows"),
    Refusal("file matrix-huge-field", {"bad.csv": b"a\n" + b"0" * 200_000 + b"\n"}, ["tree", "bad.csv"], 1,
            "bad.csv: field larger than field limit (131072)"),
    Refusal("file matrix-empty-label", {"bad.csv": b",a\n0,0.5\n0.5,0\n"}, ["tree", "bad.csv"], 1,
            "bad.csv: matrix labels must be non-empty"),
    Refusal("file profile-malformed", {"bad.xml": _TRUNCATED_XML}, ["parse", "bad.xml"], 1, f"bad.xml: {_NO_ELEMENT}"),
    Refusal("file classify-profile", {**_model(), "bad.xml": _TRUNCATED_XML}, ["classify", "chars.json", "bad.xml"], 1,
            f"bad.xml: {_NO_ELEMENT}"),
    Refusal("file grouping-truncated", {"t.json": _TABLE, "bad.json": b'{"threshold": 0.5'},
            ["pcs", "t.json", "--inject-grouping", "bad.json"], 1,
            "bad.json: Expecting ',' delimiter: line 1 column 18 (char 17)"),
    Refusal("file grouping-string", {"t.json": _TABLE, "bad.json": b'{"threshold": 0.5, "groups": "ab"}'},
            ["pcs", "t.json", "--inject-grouping", "bad.json"], 1,
            "bad.json: groups must be a list of lists of strings, got 'ab'"),
    Refusal("file descriptions-not-utf8", {"t.json": _TABLE, "bad.json": b'{"m1": "\xff"}'},
            ["pcs", "t.json", "--text-mining", "bad.json"], 1,
            "bad.json: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"),
    Refusal("file table-truncated", {"bad.json": _TABLE[:20]}, ["pcs", "bad.json"], 1,
            "bad.json: Expecting value: line 1 column 21 (char 20)"),
    Refusal("file table-not-utf8", {"bad.json": b"\xff{}"}, ["pcs", "bad.json"], 1, f"bad.json: {_BAD_BYTE}"),
    Refusal("file table-deep", {"bad.json": b"[" * 100_000}, ["pcs", "bad.json"], 1,
            "bad.json: maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    Refusal("file table-csv-huge-field", {"bad.csv": b"malware_id,x\nm1," + b"f" * 200_000 + b"\n"},
            ["pcs", "bad.csv"], 1, "bad.csv: field larger than field limit (131072)"),
    Refusal("file spec-truncated", {"bad.json": b'{"seed": 1, "fam'}, ["synth", "bad.json", "--out", "out"], 1,
            "bad.json: Unterminated string starting at: line 1 column 13 (char 12)"),
    Refusal("file spec-families-int", {"bad.json": b'{"families": 5}'}, ["synth", "bad.json", "--out", "out"], 1,
            "bad.json: families must be a list, got 5"),
    # A matrix CSV: its shape, its labels, its cells.
    *(
        Refusal(f"matrix {case}", {"m.csv": text.encode()}, ["tree", "m.csv"], 1, f"m.csv: {message}")
        for case, (text, message) in sorted(MALFORMED_MATRIX_CSV.items())
    ),
    # A model: its groups, its settings (RunConfig's checks) and its feature block.
    *(
        Refusal(f"model {case}", {**_CLASSIFY_FILES, **_model(edit)}, _CLASSIFY, 1, f"chars.json: {message}")
        for case, edit, message in [
            ("common-int", _first_group(common=5), "common must be a list of strings, got 5"),
            ("common-str", _first_group(common="abc", distinct=[]), "common must be a list of strings, got 'abc'"),
            ("common-ints", _first_group(common=[1, 2], distinct=[]), "common must be a list of strings, got [1, 2]"),
            ("id-null", _first_group(id=None), "group id must be an integer, got None"),
            ("row-int", lambda doc: doc.update(groups=[5]), "characteristics report row must be an object, got 5"),
            ("groups-int", lambda doc: doc.update(groups=5), "characteristics report must be a list, got 5"),
            # json.dumps writes inf as Infinity, which reads back as 1e999 does.
            ("id-huge", _first_group(id=float("inf")), "group id must be an integer, got inf"),
            ("id-bool", _first_group(id=True), "group id must be an integer, got True"),
            ("id-str", _first_group(id="3"), "group id must be an integer, got '3'"),
            ("size-float", _first_group(size=2.9), "group size must be an integer, got 2.9"),
            ("size-huge", _first_group(size=float("inf")), "group size must be an integer, got inf"),
            (
                "id-repeated",
                lambda doc: doc["groups"][1].update(id=doc["groups"][0]["id"]),
                "characteristics report repeats group id 0",
            ),
            (
                "with-params-str",
                lambda doc: doc["feature"].update(with_params="no"),
                "with_params must be a boolean, got 'no'",
            ),
            ("alpha-null", lambda doc: doc.update(alpha=None), "alpha must be an integer or a float, got None"),
            (
                "feature-missing-key",
                lambda doc: doc["feature"].pop("include_return"),
                f"{_FEATURE_BLOCK} ['ngram_n', 'normalize_paths', 'with_params']",
            ),
            (
                "feature-unknown-key",
                lambda doc: doc["feature"].update(window=3),
                f"{_FEATURE_BLOCK} ['include_return', 'ngram_n', 'normalize_paths', 'window', 'with_params']",
            ),
            ("feature-empty", lambda doc: doc["feature"].clear(), f"{_FEATURE_BLOCK} []"),
            ("size-zero", _first_group(size=0), "group size must be at least 1"),
            (
                "common-missing",
                lambda doc: doc["groups"][0].pop("common"),
                "common must be a list of strings, got None",
            ),
            (
                "distinct-not-common",
                _first_group(distinct=["zz"]),
                "distinct characteristics must be a subset of the common set",
            ),
            ("groups-empty", lambda doc: doc.update(groups=[]), "no group characteristics to classify against"),
        ]
    ),
    # A label table: its shape, its names, its cells, its engines. Only the
    # first error is named: rows are checked in order, a row's length before
    # its cells.
    *(
        Refusal(f"table {case}", {"t.json": _json(document)}, ["pcs", "t.json"], 1, f"t.json: {message}")
        for case, document, message in [
            ("ids-str", dict(_TWO_SAMPLES, malwares="ab"), "malwares must be a list of strings, got 'ab'"),
            ("ids-int", dict(_TWO_SAMPLES, malwares=[1, 2]), "malwares must be a list of strings, got [1, 2]"),
            ("engines-str", dict(_TWO_SAMPLES, engines="x"), "engines must be a list of strings, got 'x'"),
            ("rows-str", dict(_TWO_SAMPLES, labels=["f", "g"]), "labels must be a list of lists, got ['f', 'g']"),
            ("labels-str", dict(_TWO_SAMPLES, labels="fg"), "labels must be a list of lists, got 'fg'"),
            ("row-count", dict(_TWO_SAMPLES, labels=[["f"]]), "expected 2 label rows, got 1"),
            (
                "cell-before-later-row-length",
                dict(_ABC, labels=[["f", 5], ["g"], ["g", "g"]]),
                "label cells must be text or None, got 5",
            ),
            (
                "row-length-before-cells",
                dict(_ABC, labels=[["f", "f"], [5], ["g", 7]]),
                "label row has 1 cells for 2 engines",
            ),
            (
                "json-id",
                {"malwares": ["m0", "m1", "m1"], "engines": ["x"], "labels": [["f"], ["f"], ["g"]]},
                "duplicate malware id 'm1': malware ids must be unique",
            ),
            (
                "json-engine",
                {"malwares": ["m1", "m2"], "engines": ["x", "x"], "labels": [["f", "f"], ["g", "g"]]},
                "duplicate engine name 'x': engine names must be unique",
            ),
        ]
    ),
    Refusal("table csv-id", {"t.csv": b"malware_id,x\nm0,f\nm1,f\nm2,g\nm1,g\n"}, ["pcs", "t.csv"], 1,
            "t.csv: duplicate malware id 'm1': malware ids must be unique"),
    Refusal("table csv-engine", {"t.csv": b"malware_id,w,x,x\nm1,f,f,f\nm2,g,g,g\n"}, ["pcs", "t.csv"], 1,
            "t.csv: duplicate engine name 'x': engine names must be unique"),
    Refusal("table csv-header-only", {"t.csv": b"malware_id,x\n"}, ["pcs", "t.csv"], 1,
            "t.csv: label table CSV needs a header row and at least one sample row"),
    Refusal("table csv-row-length", {"t.csv": b"malware_id,x\nm1,f,extra\n"}, ["pcs", "t.csv"], 1,
            "t.csv: row for 'm1' has 2 cells for 1 engines"),
    # Too little to score: one sample, or (a semicolon-separated header reads
    # as one column) no engine.
    Refusal("table one-sample", {"t.json": _json({"malwares": ["m1"], "engines": ["x"], "labels": [["f"]]})},
            ["pcs", "t.json"], 1, "pair scoring needs at least 2 malware samples"),
    Refusal("table no-engine-csv", {"t.csv": b"malware_id;x;y\nm1;f;f\nm2;g;g\n"}, ["pcs", "t.csv"], 1,
            "pair scoring needs at least 1 engine"),
    Refusal("table no-engine-json", {"t.json": _json({"malwares": ["m1", "m2"], "engines": [], "labels": [[], []]})},
            ["pcs", "t.json"], 1, "pair scoring needs at least 1 engine"),
    # Descriptions for text mining: every table id needs one, checked in
    # table order, before any is checked to be text, in file order.
    *(
        Refusal(f"descriptions {case}", {"t.json": _json(table), "d.json": _json(descriptions)},
                ["pcs", "t.json", *flags, "--text-mining", "d.json"], 1, message)
        for case, flags, table, descriptions, message in [
            (
                "not-text",
                ["--normalize"],
                dict(_ABC, labels=[["f", "f"], ["f", "g"], ["g", "g"]]),
                {"a": "trojan downloader", "b": "Win32 worm", "c": 5, "zz": 7},
                "d.json: description of 'c' must be a string, got 5",
            ),
            (
                "missing-before-not-text",
                ["--normalize"],
                dict(_ABC, labels=[["f", "f"], ["f", "g"], ["g", "g"]]),
                {"zz": 7, "a": "trojan downloader"},
                "d.json: no description for malware id 'b' of the label table",
            ),
            (
                "first-not-text",
                [],
                {"malwares": ["m1", "m2"], "engines": ["x"], "labels": [["f"], ["f"]]},
                {"m1": 5, "m2": "trojan downloader"},
                "d.json: description of 'm1' must be a string, got 5",
            ),
            (
                "missing",
                [],
                dict(_ABC, engines=["x"], labels=[["f"], ["f"], ["g"]]),
                {"a": "trojan downloader", "b": "trojan", "zz": "worm"},
                "d.json: no description for malware id 'c' of the label table",
            ),
            (
                "name-taken",
                [],
                {"malwares": ["m1", "m2"], "engines": ["x", "Text_Mining"], "labels": [["f", "f"], ["f", "g"]]},
                {"m1": "silent adware", "m2": "network worm"},
                "duplicate engine name 'Text_Mining' in report",
            ),
        ]
    ),
    # A grouping injected as an engine.
    *(
        Refusal(
            f"grouping {case}",
            {"table.json": _TABLE3, "grouping.json": b'{"threshold": %s, "groups": %s}' % (threshold, _json(groups))},
            ["pcs", "table.json", "--inject-grouping", "grouping.json"], 1, f"grouping.json: {message}",
        )
        for case, threshold, groups, message in [
            ("groups-str", b"0.5", "ab", "groups must be a list of lists of strings, got 'ab'"),
            ("groups-list-of-str", b"0.5", ["ab"], "groups must be a list of lists of strings, got ['ab']"),
            ("groups-ints", b"0.5", [[1, 2]], "groups must be a list of lists of strings, got [[1, 2]]"),
            ("groups-null", b"0.5", [["m1", None]], "groups must be a list of lists of strings, got [['m1', None]]"),
            (
                "no-table-id",
                b"0.5",
                [["a1-0", "a2-0"], ["b1-0"]],
                "no grouping label is a malware id of the label table",
            ),
            ("threshold-str", b'"0.5"', [["m1", "m2"]], "threshold must be an integer or a float, got '0.5'"),
            ("threshold-x", b'"x"', [["m1", "m2"]], "threshold must be an integer or a float, got 'x'"),
            ("threshold-true", b"true", [["m1", "m2"]], "threshold must be an integer or a float, got True"),
            ("threshold-null", b"null", [["m1", "m2"]], "threshold must be an integer or a float, got None"),
            (
                "threshold-int-over-float",
                b"1" + b"0" * 400,
                [["m1", "m2"]],
                "threshold is too large for a float: 100000000000000000...0000000000000000000",
            ),
            ("threshold-nan", b"NaN", [["m1", "m2"]], "threshold must be in [0, 1], got nan"),
            ("threshold-negative", b"-5", [["m1", "m2"]], "threshold must be in [0, 1], got -5.0"),
            ("threshold-huge", b"1e999", [["m1", "m2"]], "threshold must be in [0, 1], got inf"),
            ("group-empty", b"0.5", [["m1"], []], "groups must be non-empty"),
            ("label-twice", b"0.5", [["m1", "m2"], ["m2"]], "label 'm2' appears in more than one group"),
        ]
    ),
    Refusal("grouping name-taken", {"table.json": _TABLE3, "grouping.json": b'{"threshold": 0.5, "groups": [["m1"]]}'},
            ["pcs", "table.json", "--inject-grouping", "grouping.json", "--inject-name", "x"], 1,
            "engine 'x' already present"),
    # A corpus spec: every field's type and value, and where synth writes it.
    Refusal("spec top-level-list", {"spec.json": b"[5]"}, _SYNTH, 1,
            "spec.json: corpus spec must be an object, got [5]"),
    *(
        Refusal(f"spec {case}", {"spec.json": _edited(TestSynth.SPEC, edit)}, _SYNTH, 1, f"spec.json: {message}")
        for case, edit, message in [
            ("families-int", lambda spec: spec.update(families=5), "families must be a list, got 5"),
            ("family-int", lambda spec: spec.update(families=[5]), "family must be an object, got 5"),
            ("families-empty", lambda spec: spec.update(families=[]), "corpus spec needs at least one family"),
            (
                "names-repeated",
                lambda spec: spec.update(families=spec["families"] * 2),
                "duplicate family names: ['fam']",
            ),
            ("seed-bool", lambda spec: spec.update(seed=True), "seed must be an integer, got True"),
            (
                "rate-null",
                lambda spec: spec.update(mutation_rate=None),
                "mutation_rate must be an integer or a float, got None",
            ),
            (
                "rate-int-over-float",
                lambda spec: spec.update(mutation_rate=10**400),
                "mutation_rate is too large for a float: 100000000000000000...0000000000000000000",
            ),
            ("rate-over-one", lambda spec: spec.update(mutation_rate=1.5), "mutation_rate must be in [0, 1], got 1.5"),
            ("variants-str", _first_family(variants="4"), "variants must be an integer, got '4'"),
            ("variants-zero", _first_family(variants=0), "family 'fam': variant count must be >= 1"),
            (
                "variants-over-cap",
                _first_family(variants=100_001),
                "corpus spec asks for 100001 variants, more than MAX_CORPUS_VARIANTS = 100000",
            ),
            ("name-int", _first_family(name=3), "family template needs a name string, got 3"),
            ("ops-mixed", _first_family(mutation_ops=[5, "x"]), "mutation_ops must be a list of strings, got [5, 'x']"),
            (
                "ops-unknown",
                _first_family(mutation_ops=["scramble_stack"]),
                "family 'fam': unknown mutation ops ['scramble_stack']",
            ),
            (
                "pool-int",
                _first_family(param_pools={"hName": 5}),
                "param_pools 'hName' must be a list of strings, got 5",
            ),
            ("pool-empty", _first_family(param_pools={"hName": []}), "family 'fam': empty param pool for 'hName'"),
            ("event-int", _first_family(base_events=[5]), "base event must be an object, got 5"),
            ("events-empty", _first_family(base_events=[]), "family 'fam': base_events must be non-empty"),
            ("api-unhooked", _first_event(api="NtOpenFile"), "family 'fam': 'NtOpenFile' is not a hooked API"),
            ("return-int", _first_event(**{"return": 5}), "Return must be text"),
            ("attributes-int", _first_event(attributes=7), "attributes must be an object or a list, got 7"),
            ("attribute-pair-str", _first_event(attributes=["hName"]), "attribute pair must be a list, got 'hName'"),
            ("attribute-triple", _first_event(attributes=[["k", 1, 2]]), "attributes must be (key, value) text pairs"),
            ("attribute-repeated", _first_event(attributes=[["k", "a"], ["k", "b"]]), "duplicate attribute key 'k'"),
            ("attribute-return", _first_event(attributes={"Return": "x"}), "attribute key 'Return' is reserved"),
            ("attribute-time", _first_event(attributes={"Time": "1"}), "attribute key 'Time' is reserved"),
        ]
    ),
    # A second corpus written into the first's directory would be grouped
    # with it, while ground_truth.json named only its own.
    Refusal("spec out-holds-profiles", {"spec.json": _json(TestSynth.SPEC), "out/x-0.xml": b""}, _SYNTH, 1,
            "out: already holds *.xml profiles; synth writes to a directory without them"),
]


class Rejection(NamedTuple):
    """A library call that raises: call() raises exactly the class error,
    with message as its whole str(), and each attribute named in fields
    (field_name, line, column) holds its value there."""

    id: str
    call: Callable[[], object]
    error: type[Exception]
    message: str
    fields: dict[str, object] = {}


# Element sets of three samples: x1 and x2 equal, y apart.
_XY = {"x1": frozenset("ab"), "x2": frozenset("ab"), "y": frozenset("a")}


def _characterized(members: dict, groups: list) -> dict:
    """distinct_characteristics of groups, over the tree of _XY's sets."""
    tree = upgma(jaccard_matrix(list(_XY.values()), list(_XY)))
    return distinct_characteristics(tree, Grouping(0.5, groups), members, EnduranceConfig())


_FAMILY = FamilyTemplate("f", (ApiEvent("ReadFile"),))
_DUCK_EVENT = SimpleNamespace(api_name="ReadFile", attributes=(("Return", "x"),), return_value=None, timestamp=0)

REJECTIONS = [
    # Every document the walk rejects, walked to call keys and parsed alike.
    *(
        Rejection(f"{call.__name__} {case}", functools.partial(call, text), error, message, fields)
        for case, (text, error, message, fields) in WALK_REJECTIONS.items()
        for call in (parse_profile, _profile_calls)
    ),
    Rejection("parse_profile position", lambda: parse_profile("<Profile><Meta>"), ProfileParseError,
              "malformed XML: no element found: line 1, column 15", {"line": 1, "column": 15}),
    *(
        Rejection(f"parse_profile missing {tag}", functools.partial(parse_profile, profile_document("", meta)),
                  ProfileSchemaError, f"missing or empty <{tag}> in <Meta>", {"field_name": tag})
        for tag, meta in [("Process_id", "<Duration>10</Duration>"), ("Duration", "<Process_id>1</Process_id>")]
    ),
    # The checked constructors of events and profiles.
    Rejection("ApiEvent empty name", lambda: ApiEvent(""), ProfileSchemaError,
              "api_name must be a non-empty XML name, got ''", {"field_name": "api_name"}),
    Rejection("ApiEvent negative time", lambda: ApiEvent("ReadFile", (), None, -1), ProfileSchemaError,
              "Time must be a non-negative integer, got -1", {"field_name": "Time"}),
    Rejection("Profile process id", lambda: Profile("ab", 0, 10), ProfileSchemaError,
              "Process_id must be a positive integer, got 0", {"field_name": "Process_id"}),
    Rejection("Profile duration", lambda: Profile("ab", 1, -3), ProfileSchemaError,
              "Duration must be a positive integer, got -3", {"field_name": "Duration"}),
    Rejection("Profile hash", lambda: Profile("", 1, 1), ProfileSchemaError, "Hash must be non-empty text",
              {"field_name": "Hash"}),
    Rejection("Profile events", lambda: Profile("h", 1, 1, (object(),)), ProfileSchemaError,
              "events must be ApiEvent instances", {"field_name": None}),
    Rejection("read_corpus missing", lambda: read_corpus("missing"), ProfileError,
              "corpus directory not found: missing"),
    # The type check of every untrusted field.
    *(
        Rejection(f"typed {message}", functools.partial(typed, value, "field", *kinds), ValueError, message)
        for value, kinds, message in [
            (True, (int,), "field must be an integer, got True"),
            (False, (int, float), "field must be an integer or a float, got False"),
            (1.0, (int,), "field must be an integer, got 1.0"),
            ("1", (int, float), "field must be an integer or a float, got '1'"),
            (None, (str,), "field must be a string, got None"),
            (1, (bool,), "field must be a boolean, got 1"),
        ]
    ),
    # Matrices: their sizes and labels.
    Rejection("DistanceMatrix no labels", lambda: DistanceMatrix((), ()), ValueError,
              "distance matrix needs at least one label"),
    Rejection("jaccard_matrix no sets", lambda: jaccard_matrix([], []), ValueError, "at least one profile is required"),
    Rejection("jaccard_matrix label count", lambda: jaccard_matrix([frozenset()], ["a", "b"]), ValueError,
              "got 2 labels for 1 profiles"),
    Rejection("jaccard_matrix empty label", lambda: jaccard_matrix([frozenset("x"), frozenset("y")], ["", "a"]),
              ValueError, "matrix labels must be non-empty"),
    Rejection("distance_matrix repeated hash",
              lambda: distance_matrix([Profile("aa", 1, 300), Profile("aa", 1, 300)], FeatureConfig()),
              ValueError, "duplicate label 'aa': matrix labels must be unique"),
    # Trees, groupings and characteristics.
    Rejection("cut_tree threshold", lambda: cut_tree(upgma(DistanceMatrix(("A",), ((0.0,),))), 1.5), ValueError,
              "threshold must be in [0, 1], got 1.5"),
    Rejection("Grouping.group_of", lambda: Grouping(0.5, (("A", "B"), ("C",))).group_of("Z"), ValueError,
              "unknown label 'Z'"),
    Rejection("rand_index", lambda: rand_index([{"a"}], [{"b"}]), ValueError, "partitions cover different label sets"),
    Rejection("common_set no members", lambda: common_set([], 0.0), ValueError, "common_set needs at least one member"),
    Rejection("common_set alpha", lambda: common_set([frozenset("a")], 1.0), ValueError,
              "alpha must be in [0, 1), got 1.0"),
    Rejection("EnduranceConfig alpha", lambda: EnduranceConfig(alpha=1.0), ValueError,
              "alpha must be in [0, 1), got 1.0"),
    Rejection("distinct_characteristics no set", lambda: _characterized({"x1": _XY["x1"]}, [["x1", "x2"], ["y"]]),
              ValueError, "no element set for label 'x2'"),
    Rejection("distinct_characteristics not a leaf",
              lambda: _characterized({**_XY, "q": frozenset("ab")}, [["x1", "q"], ["x2"], ["y"]]),
              ValueError, "label 'q' is not a leaf of the tree"),
    Rejection("classify no groups", lambda: classify(frozenset("ab"), {}, EnduranceConfig()), ValueError,
              "no group characteristics to classify against"),
    # Pair scoring.
    Rejection("pcs_score unknown engine",
              lambda: pcs_score(EngineLabelTable(("a", "b"), ("x",), (("f",), ("f",))), "zz"),
              ValueError, "unknown engine 'zz'"),
    # with_engine checks its new column's cells, in row order, after its name.
    Rejection("with_engine cell",
              lambda: EngineLabelTable(("a", "b", "c"), ("x",), (("f",),) * 3).with_engine("v", {"b": 5, "c": 7}),
              ValueError, "label cells must be text or None, got 5"),
    Rejection("with_engine name before cells",
              lambda: EngineLabelTable(("a", "b"), ("x",), (("f",), ("f",))).with_engine("x", {"a": 5}),
              ValueError, "engine 'x' already present"),
    Rejection("text_mining_grouping threshold", lambda: text_mining_grouping({"a": "x"}, threshold=1.5), ValueError,
              "threshold must be in [0, 1], got 1.5"),
    *(
        Rejection(f"PairwiseIndicator count {count}",
                  functools.partial(PairwiseIndicator, {"a": {"worm": 1}, "b": {"worm": 2, "adware": count}}, 0.5),
                  ValueError, "token counts of 'b' must be non-negative integers")
        for count in (-1, 1.5)
    ),
    Rejection("pcs_report unknown id",
              lambda: pcs_report(EngineLabelTable(("a", "z"), ("x",), (("f",), ("f",))),
                                 [("Text_Mining", text_mining_grouping({"a": "worm", "b": "worm"}))]),
              ValueError, "unknown malware id 'z'"),
    # Synthesis.
    *(
        Rejection(f"FamilyTemplate {kind}", functools.partial(FamilyTemplate, "f", (ApiEvent("ReadFile"), event)),
                  ValueError, f"family 'f': base_events must be ApiEvent instances, got {kind}")
        for kind, event in [("tuple", ("ReadFile", (), None, 0)), ("NoneType", None), ("SimpleNamespace", _DUCK_EVENT)]
    ),
    Rejection("generate_family count", lambda: generate_family(_FAMILY, 0, 0.1, 1), ValueError, "count must be >= 1"),
    Rejection("generate_family rate", lambda: generate_family(_FAMILY, 1, 1.5, 1), ValueError,
              "mutation rate must be in [0, 1], got 1.5"),
    *(
        Rejection(f"CorpusSpec {message}", functools.partial(CorpusSpec, ((_FAMILY, count),), rate, seed), ValueError,
                  message)
        for count, rate, seed, message in [
            (2.7, 0.1, 1, "variants must be an integer, got 2.7"),
            (True, 0.1, 1, "variants must be an integer, got True"),
            ("3", 0.1, 1, "variants must be an integer, got '3'"),
            (1, True, 1, "mutation_rate must be an integer or a float, got True"),
            (1, 0.1, 1.0, "seed must be an integer, got 1.0"),
        ]
    ),
]


@pytest.fixture(scope="module")
def two_family_model(tmp_path_factory) -> str:
    """The text of the model characterize trains on TWO_FAMILIES."""
    corpus = tmp_path_factory.mktemp("model") / "corpus"
    _write_corpus(corpus, TWO_FAMILIES)
    assert main(["characterize", str(corpus), "--out", str(corpus.parent / "chars.json")]) == 0
    return (corpus.parent / "chars.json").read_text()


def _tree(root) -> dict:
    """Every file and directory under root by relative path, a file with its bytes."""
    return {str(path.relative_to(root)): path.is_file() and path.read_bytes() for path in sorted(root.rglob("*"))}


def _lay_out(root, files: dict[str, bytes]) -> None:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _refusal_files(row: Refusal, model: str) -> dict[str, bytes]:
    """row's files, a function of the model applied to the trained model's text."""
    return {name: data(model) if callable(data) else data for name, data in row.files.items()}


def _exit_status(argv: list[str]) -> int:
    """main(argv), or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exit_:
        return exit_.code


def _lines_run(run: Callable[[], None]) -> set[tuple[str, int]]:
    """The (path, line) of each line in src/malbehave/ that run() runs in
    this process, by a line tracer over that package's frames."""
    prefix = f"{Path(cli.__file__).parent}{os.sep}"
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(prefix) else None

    tracer = sys.gettrace()
    sys.settrace(calls)
    try:
        run()
    finally:
        sys.settrace(tracer)
    return ran


def _raise_statements(path: Path) -> dict[int, str]:
    """Each raise statement of a module that names an exception: its source
    text by its first line."""
    source = path.read_text(encoding="utf-8")
    nodes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise) and node.exc]
    return {node.lineno: ast.get_source_segment(source, node) for node in sorted(nodes, key=lambda node: node.lineno)}


class TestRefusals:
    @pytest.mark.parametrize("row", REFUSALS, ids=[row.id for row in REFUSALS])
    def test_refused(self, capsys, monkeypatch, tmp_path, two_family_model, row):
        # The exit status, an empty stdout, the whole stderr, and the working
        # directory as it was: nothing written, created or removed.
        _lay_out(tmp_path, _refusal_files(row, two_family_model))
        before = _tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        code = _exit_status(row.argv)
        out, err = capsys.readouterr()
        assert (code, out) == (row.status, "")
        if row.status == 1:
            assert err == f"error: {row.message}\n"
        else:
            assert err.startswith(f"usage: malbehave {row.argv[0]} ")
            assert err.endswith(f"\nmalbehave {row.argv[0]}: error: {row.message}\n")
        assert _tree(tmp_path) == before

    def test_every_subcommand_has_both_statuses(self):
        assert len({row.id for row in REFUSALS}) == len(REFUSALS)
        commands = set(cli._grammar()[1])
        assert len(commands) == 8
        for status in (1, 2):
            assert {row.argv[0] for row in REFUSALS if row.status == status} == commands, status


class TestRejections:
    @pytest.mark.parametrize("row", REJECTIONS, ids=[row.id for row in REJECTIONS])
    def test_rejected(self, monkeypatch, tmp_path, row):
        # The exact class, the whole message and each given field, called in
        # an empty working directory.
        monkeypatch.chdir(tmp_path)
        with pytest.raises(Exception) as caught:
            row.call()
        assert (type(caught.value), str(caught.value)) == (row.error, row.message)
        assert {name: getattr(caught.value, name) for name in row.fields} == row.fields

    # Raise statements that no row runs, by their module and a fragment of
    # their text, each with the kept test that pins its whole line: the exit
    # of `python -m malbehave`, and the two caps no row is large enough to
    # reach.
    UNREACHED = [
        ("__main__.py", "raise SystemExit(main())", "TestEntryPoint.test_module_invocation"),
        ("profile.py", "larger than MAX_INPUT_BYTES", "TestUntrustedInput.test_input_size_cap"),
        ("synth.py", "MAX_CORPUS_EVENTS = {MAX_CORPUS_EVENTS} events",
         "TestUntrustedInput.test_corpus_spec_over_the_events_cap"),
    ]

    def test_rows_reach_every_raise(self, capsys, monkeypatch, tmp_path, two_family_model):
        # Every row of REFUSALS and REJECTIONS runs in this process under a
        # line tracer. Each raise statement in src/malbehave/ must run, but
        # those of UNREACHED; each of these matches one statement, which no
        # row runs. A new raise statement needs a row.
        assert len({row.id for row in REJECTIONS}) == len(REJECTIONS)
        _fork(monkeypatch, False)

        def rows():
            for k, row in enumerate(REFUSALS):
                (tmp_path / str(k)).mkdir()
                _lay_out(tmp_path / str(k), _refusal_files(row, two_family_model))
                monkeypatch.chdir(tmp_path / str(k))
                assert _exit_status(row.argv) == row.status, row.id
            monkeypatch.chdir(tmp_path)
            for row in REJECTIONS:
                with pytest.raises(row.error):
                    row.call()

        ran = _lines_run(rows)
        capsys.readouterr()
        package = Path(cli.__file__).parent
        exempt = set()
        for module, fragment, _ in self.UNREACHED:
            lines = [line for line, text in _raise_statements(package / module).items() if fragment in text]
            assert len(lines) == 1, (module, fragment)
            exempt.add((str(package / module), lines[0]))
        reached = exempt & ran
        assert not reached, f"a row runs an exempt raise statement: {sorted(reached)}"
        ran |= exempt
        unreached = [f"{path.name}:{line}: {text}" for path in sorted(package.glob("*.py"))
                     for line, text in _raise_statements(path).items() if (str(path), line) not in ran]
        assert not unreached, "\n".join(unreached)


def _digests(root) -> dict[str, str | bool]:
    """_tree(root), a file with the sha256 of its bytes."""
    return {name: data if data is False else _sha256(data) for name, data in _tree(root).items()}


def _crlf(files: dict[str, bytes]) -> dict[str, bytes]:
    return {name: data.replace(b"\n", b"\r\n") for name, data in files.items()}


def _labels_inputs() -> dict[str, bytes]:
    """pcs inputs of 300 samples drawn as pcs-scale's are: a label table of 8
    engines as JSON (t.json) and as CSV (t.csv), the same cells as vendor-style
    detection strings (tv.json), descriptions (d.json), the samples grouped by
    family (g.json), and t.json with that grouping as its engine "vote"
    (manual.json). Each description says each of its words 1-40 times and
    shares one word with one other sample, so the text-mining engine takes its
    inverted index and its bracket of norm classes."""
    rng = random.Random(1)
    ids = [f"s{i}" for i in range(300)]
    engines = [f"e{k}" for k in range(8)]
    truth = [rng.randrange(8) for _ in ids]
    # A cell's family: 20% undetected; a detected cell names the sample's family 4 times in 5.
    picks = [[None if rng.random() < 0.2 else f if rng.random() < 0.8 else rng.randrange(8) for _ in engines]
             for f in truth]  # fmt: skip
    labels = [[None if f is None else f"fam{f}" for f in row] for row in picks]
    names = ["zbot", "emotet", "qakbot", "dridex", "ramnit", "sality", "virut", "conficker"]
    styles = ["Trojan.Win32.{0}.{1:x}", "W32/{0}-{2}", "Backdoor:Win32/{0}.{1:x}!dll", "{0}_{1:X}.{2}"]
    vendor = [[None if f is None else styles[k % 4].format(names[f], rng.getrandbits(32), rng.randrange(10**5))
               for k, f in enumerate(row)] for row in picks]  # fmt: skip
    words = ["adware", "installer", "worm", "dropper", "bundle", "keylogger", "downloader", "backdoor"]
    descriptions = {
        i: " ".join([*(" ".join([word] * rng.randint(1, 40)) for word in [words[f]] * 2 + rng.sample(words, 3)),
                     f"pair{n // 2}"])
        for n, (i, f) in enumerate(zip(ids, truth))
    }  # fmt: skip
    table = {"malwares": ids, "engines": engines, "labels": labels}
    csv_rows = [["malware_id", *engines], *([i, *(cell or "" for cell in row)] for i, row in zip(ids, labels))]
    return {
        "t.json": _json(table),
        "t.csv": "".join(",".join(row) + "\n" for row in csv_rows).encode(),
        "tv.json": _json(dict(table, labels=vendor)),
        "d.json": _json(descriptions),
        "g.json": _json({"threshold": 0.5, "groups": [[i for i, f in zip(ids, truth) if f == k] for k in range(8)]}),
        "manual.json": _json({"malwares": ids, "engines": [*engines, "vote"],
                              "labels": [[*row, f"g{f}"] for row, f in zip(labels, truth)]}),
    }  # fmt: skip


def _build_accept_inputs(root) -> dict[str, dict[str, bytes]]:
    """Each input set that ACCEPTS rows name: its files' bytes by relative path."""
    labeled, truth = generate_corpus(four_family_spec(variants=12, seed=19))
    write_corpus(root / "families" / "corpus", labeled, truth)
    families = str(root / "families" / "corpus")
    # In one process: the rows themselves run the forked path.
    with pytest.MonkeyPatch.context() as monkeypatch:
        _fork(monkeypatch, False)
        for out, argv in [
            ("families-csv/m.csv", ["distmat", families]),
            ("models/chars.json", ["characterize", families]),
            ("models/chars7.json", ["characterize", families, "--threshold", "0.7"]),
        ]:
            (root / out).parent.mkdir(exist_ok=True)
            assert main([*argv, "--out", str(root / out)]) == 0
    # The ingest-scale shape (acceptance criterion 9): 80-motif profiles of about 54 KB.
    wide = [(family_template(name, motif_count=80, pool_size=8, ops=MUTATIONS_NO_SPAWN), 3) for name in "abcd"]
    write_corpus(root / "wide" / "corpus", *generate_corpus(CorpusSpec(tuple(wide), 0.15, 57)))
    inputs = {path.name: {name: data for name, data in _tree(path).items() if data is not False}
              for path in root.iterdir()}  # fmt: skip
    inputs["families-csv"]["m-crlf.csv"] = _crlf(inputs["families-csv"])["m.csv"]
    # Every third zero cell written as -0.000000: a cell and its mirror may differ in sign.
    zeros = itertools.count()
    inputs["families-csv"]["m-signed.csv"] = b"\n".join(
        b",".join(b"-0.000000" if cell == b"0.000000" and next(zeros) % 3 == 0 else cell for cell in line.split(b","))
        for line in inputs["families-csv"]["m.csv"].split(b"\n")
    )
    inputs["models"]["member.xml"] = inputs["families"]["corpus/2e1b2d04bc50ce04ac781e7c93069095-3.xml"]
    inputs["models"]["stranger.xml"] = serialize_profile(_profile("zz", ["WinExec"])).encode()
    # Six profiles of the same three calls, each returning SUCCESS or FAILURE
    # by a bit of k: without return values their token sets are equal.
    returns = {
        f"corpus/r{k}-0.xml": Profile(f"r{k}", 1, 300, tuple(
            ApiEvent(name, (), ("FAILURE", "SUCCESS")[k >> j & 1], 100 + j) for j, name in enumerate(["A", "B", "C"])))
        for k in range(6)
    }  # fmt: skip
    return {
        **inputs,
        "returns": {name: serialize_profile(profile).encode() for name, profile in returns.items()},
        "two": _CORPUS,
        "two-crlf": _crlf(_CORPUS),
        "small": {
            **_MATRIX,
            "bom.csv": b"\xef\xbb\xbf" + _MATRIX["m.csv"],
            "blank.csv": b"a\fb,c\n0,0.5\n0.5,0\n",
            "blank/x\ry.xml": serialize_profile(_profile("p1", ["Apple", "Berry"])).encode(),
            "blank/z.xml": serialize_profile(_profile("p2", ["Berry"])).encode(),
            "abc.json": _json({"malwares": ["m1", "m2", "m3"], "engines": ["x"], "labels": [["f"], ["f"], ["g"]]}),
            "overlap.json": _json({"threshold": 0.5, "groups": [["m1", "m2", "zz"], ["yy"]]}),
        },
        "labels": _labels_inputs(),
        "spec": {"spec.json": _json(TestSynth.SPEC)},
        "spec-notes": {"spec.json": _json(TestSynth.SPEC), "o/notes.txt": b""},
    }


@pytest.fixture(scope="module")
def accept_inputs(tmp_path_factory) -> dict[str, dict[str, bytes]]:
    return _build_accept_inputs(tmp_path_factory.mktemp("accept"))


class Accept(NamedTuple):
    """An accepted invocation. The files of the input set named by files
    (see _build_accept_inputs) are written into a fresh working directory,
    and argv names them by relative paths. The run exits 0, writes nothing
    to stderr, prints the bytes whose sha256 is stdout_sha256, and creates
    exactly the files of written, by relative path, with those sha256s."""

    id: str
    files: str
    argv: list[str]
    stdout_sha256: str
    written: dict[str, str] = {}


# Digests that several rows print or write: --out writes the bytes stdout
# would get, and an input in another form (CRLF line ends, a byte order mark,
# a CSV table for a JSON one, a manual engine column for an injected
# grouping) prints the same bytes.
_EMPTY = _sha256(b"")
# `distmat` of the families corpus (four_family_spec(variants=12, seed=19):
# 211 profiles, 48 distinct token sets), as written by the matrix builder
# that compared every pair of profiles.
DUPLICATE_CORPUS_DISTMAT = "3248dd6045c3bc03bdacb32c3c2871266a7d9f3585b143912de675353ab19fff"
_FAMILIES_PARSE = "501223d0be2ffe6282e2e20a1c0370917d08b33a37a6bac0641998d87c82c92c"
_FAMILIES_TREE = "0681f02a7a7560b7bac1be35243a5436a1cf6f4b15dd7d8aad2fae6d42c28cbe"
_FAMILIES_CSV_TREE = "5dbb27ca53980694a099673fa404b96452b62c66fd775949bec31005cbb37f49"
_FAMILIES_GROUPS = "bc91de5b666e406c4f31dd71c33591a1a0873e0be1e6d62bdb7905d4fd02bb85"
_FAMILIES_CHARACTERIZE = "9bc5c31fa3ee8a46f0130f73c3daa6f01417a187e179f687440f1bf6c795c347"
_TWO_PARSE = "3b68f6ce71224a17023299c3b70cbc3d1ef8fa7c058049c1a20602c8a762f9af"
_TWO_CHARACTERIZE = "b0ec8016ad756a73bbcc7ebd9c90c9e5a703eb9910ef1d0afb76939766c778b1"
_LABELS_PCS = "7bb0779df1f20ac9e316977132a48bd7ff390d445f0e8b1e8239a5991b3a9ada"
_VOTE_PCS = "f31ca9e0921d10b031314061f8a234242b62e1c9a1b5c1accf136eb64d78f6c5"
_WROTE_8 = _sha256(b"wrote 8 profiles to o\n")
_SPEC_SYNTH = {
    "o/52dbd68d5552e8f25996acb163272724-0.xml": "bead3890d1110a2992af9a655121650109b3b666f2f1a2bc3575e6db55873b3e",
    "o/52dbd68d5552e8f25996acb163272724-1.xml": "b92ad5acf7a298e2003da4f30929a1690b1038a133acc36ecb28b61d42baf465",
    "o/a55495e786eb87324fb08308b71a3b13-0.xml": "4e86c05e2b5dd5c154d6c47ced687cebbca7ff961cb7ef663ff907e89c4494ba",
    "o/bce14b15d6d3fc599e1e36d2ffbc91ed-0.xml": "9c666bcddafa87477acca17f771ffb7f16c04919f6be7f1b42cfbb94983c1631",
    "o/bce14b15d6d3fc599e1e36d2ffbc91ed-1.xml": "90e8bcb81426f91d4cc189d841802d819b46256ff822f21e49d12276d46ef018",
    "o/bce14b15d6d3fc599e1e36d2ffbc91ed-2.xml": "c777a51015835659bc2351c9a24b3445945ffadbe98c5b6e8c0059a5174c6f72",
    "o/fda3a5e2f70de31461954c2af3e9c28e-0.xml": "ee8b211cf6dfd6034a014774faa9c305c53601acb473631e94c1383b249e76bf",
    "o/fda3a5e2f70de31461954c2af3e9c28e-1.xml": "6503266b92ce2f928ef8bbd34a9b9a19e696dd2d98542787c1c1370be934e1a1",
    "o/ground_truth.json": "5f197a49913c124395acfc844bf5e044f2e71cfb3c88fdd58188dcd36fb1e436",
}

ACCEPTS = [
    Accept("families parse", "families", ["parse", "corpus"], _FAMILIES_PARSE),
    Accept("families parse --out", "families", ["parse", "corpus", "--out", "p.txt"],
           _EMPTY, {"p.txt": _FAMILIES_PARSE}),
    Accept("families parse one file", "families", ["parse", "corpus/0db765294818b086d72e8a77e1ea52a9-0.xml"],
           "acede88bf8b889c0c54c1d0063cb6fe1c5e42b3776448a9048528229086429a2"),
    Accept("families distmat", "families", ["distmat", "corpus"], DUPLICATE_CORPUS_DISTMAT),
    Accept("families distmat --ngram", "families", ["distmat", "corpus", "--ngram", "2"],
           "ae7f90b7193ba665997f560a067180f555a9958d04a96ed53e361342a9469252"),
    Accept("families distmat --no-params", "families", ["distmat", "corpus", "--no-params"],
           "74844a1ec21c93520e4be4451c0f2f220b9281cab6899e1fe7e197916efc531b"),
    Accept("families distmat --out", "families", ["distmat", "corpus", "--out", "d.csv"],
           _EMPTY, {"d.csv": DUPLICATE_CORPUS_DISTMAT}),
    Accept("families tree", "families", ["tree", "corpus"], _FAMILIES_TREE),
    Accept("families tree --size-weighted", "families", ["tree", "corpus", "--size-weighted"],
           "ee487601747f5b447ddd3a1196b140c9ca0f434aba23a99ae73e23ea6ee934a4"),
    Accept("families tree --ngram", "families", ["tree", "corpus", "--ngram", "2"],
           "60bbc19ad7e3f67c75d32a7b42bc6fba264be579fb1e2bebfcc058fe16d77e5e"),
    Accept("families tree --no-params", "families", ["tree", "corpus", "--no-params"],
           "6285b451851a991724802574ad31e957a48ea5b9e67668e8f76e7d2ebd109c7c"),
    Accept("families tree --out", "families", ["tree", "corpus", "--out", "t.nwk"], _EMPTY, {"t.nwk": _FAMILIES_TREE}),
    Accept("families-csv tree", "families-csv", ["tree", "m.csv"], _FAMILIES_CSV_TREE),
    Accept("families-csv tree --size-weighted", "families-csv", ["tree", "m.csv", "--size-weighted"],
           "7949bbf20ca564f80cf12cc92e2e44ca8205d6a6f925e69a208a6633b17058eb"),
    Accept("families-csv tree crlf", "families-csv", ["tree", "m-crlf.csv"], _FAMILIES_CSV_TREE),
    Accept("families-csv tree signed", "families-csv", ["tree", "m-signed.csv"], _FAMILIES_CSV_TREE),
    Accept("families-csv tree signed --size-weighted", "families-csv", ["tree", "m-signed.csv", "--size-weighted"],
           "7949bbf20ca564f80cf12cc92e2e44ca8205d6a6f925e69a208a6633b17058eb"),
    Accept("families groups", "families", ["groups", "corpus"], _FAMILIES_GROUPS),
    Accept("families groups --threshold", "families", ["groups", "corpus", "--threshold", "0.7"],
           "6fa4217279a077c17c760caba222d0aede699173c7409cf59f6a2b4fd31f296b"),
    Accept("families groups --ngram", "families", ["groups", "corpus", "--ngram", "2"],
           "acc8fd1c266b155cd8eceb763a972482fc92ee439c5e0b19f2609acab437ddb7"),
    Accept("families groups --no-params", "families", ["groups", "corpus", "--no-params"],
           "aaa603d55e5eb1bf5ec07a5ffc73b705e5ad68b9c4212787ed1cecd03cae75b2"),
    Accept("families groups --size-weighted", "families", ["groups", "corpus", "--size-weighted"],
           "5b08a3b3fd837b940c5d08d51d771bde0b61cd5cd17784faf586db8255a6f954"),
    Accept("families groups --out", "families", ["groups", "corpus", "--out", "g.json"],
           _EMPTY, {"g.json": _FAMILIES_GROUPS}),
    Accept("families characterize", "families", ["characterize", "corpus"], _FAMILIES_CHARACTERIZE),
    Accept("families characterize --threshold", "families", ["characterize", "corpus", "--threshold", "0.7"],
           "8d6032d249839b8e9e262ba56f1043832f1b3207dbf5c89aabb8d986a293fab6"),
    Accept("families characterize --alpha", "families", ["characterize", "corpus", "--alpha", "0"],
           "c7e67df3eec460e3920e00f509107dd250578fb158429b8a1ec08a6ac563f279"),
    Accept("families characterize --min-score", "families", ["characterize", "corpus", "--min-score", "0.9"],
           "0a127f6a32bb7dda9309ca1ac86614340e9e175a12e9f47bb95ba9c05b4b157a"),
    Accept("families characterize --ngram", "families", ["characterize", "corpus", "--ngram", "2"],
           "47d7c773ec20febbbd62ee5b9bec0c52c418e8c1fff20b9bd0dcf9e40442d406"),
    Accept("families characterize --no-params", "families", ["characterize", "corpus", "--no-params"],
           "4064add366998a1a7c2a6fb13f439ef67b3f07672aa8bd90cfbe64d4387ff467"),
    Accept("families characterize --no-return", "families", ["characterize", "corpus", "--no-return"],
           "599c8000ca4d29e55f319838d71d3be489f2813c34d969d4d41d6a436913c7ce"),
    Accept("families characterize --size-weighted", "families", ["characterize", "corpus", "--size-weighted"],
           "7b8b16562b5a48d0feeefec571f80e51f93cd486418f726a435491b67a10a36e"),
    Accept("families characterize --out", "families", ["characterize", "corpus", "--out", "c.json"],
           _EMPTY, {"c.json": _FAMILIES_CHARACTERIZE}),
    Accept("models classify", "models", ["classify", "chars.json", "member.xml"], _sha256(b"12\n")),
    Accept("models classify --min-score", "models", ["classify", "chars.json", "member.xml", "--min-score", "0.9"],
           _sha256(b"none\n")),
    Accept("models classify --out", "models", ["classify", "chars.json", "member.xml", "--out", "a.txt"],
           _EMPTY, {"a.txt": _sha256(b"12\n")}),
    Accept("models classify 0.7 model", "models", ["classify", "chars7.json", "member.xml"], _sha256(b"2\n")),
    Accept("models classify stranger", "models", ["classify", "chars.json", "stranger.xml"], _sha256(b"none\n")),
    Accept("returns distmat", "returns", ["distmat", "corpus"],
           "cf2037f576ac9bd526c330befe952f4c4befd48f86fbfacabb81f3400f002de8"),
    Accept("returns distmat --no-return", "returns", ["distmat", "corpus", "--no-return"],
           "936d77f4467ac30163c9ad4fed6dd4b115e785bdfd7cad68da97cb6a6f4a41b3"),
    Accept("returns tree", "returns", ["tree", "corpus"],
           "9d18231c424ec445adf023496937e733b992194e9ecc5d1a0d45e6b15ea4369b"),
    Accept("returns tree --no-return", "returns", ["tree", "corpus", "--no-return"],
           _sha256(b"(((((r0-0:0,r1-0:0):0,r2-0:0):0,r3-0:0):0,r4-0:0):0,r5-0:0);\n")),
    Accept("returns groups", "returns", ["groups", "corpus"],
           "fdac545b49ac1657b3f1b4019a4068b1d18680b453b2a9c83f97a5e6e8d0441c"),
    Accept("returns groups --no-return", "returns", ["groups", "corpus", "--no-return"],
           "134630618a596efe68a4e4d6abc664056a6f705e43685e5c40f731a5fd249e7e"),
    Accept("two parse", "two", ["parse", "corpus"], _TWO_PARSE),
    Accept("two-crlf parse", "two-crlf", ["parse", "corpus"], _TWO_PARSE),
    Accept("two parse files and corpus", "two", ["parse", "corpus/a2-0.xml", "corpus", "corpus/b1-0.xml"],
           "9757afb2773b4c2786d1ecf82f87591f0c4bbe8f66f7093ca768a7aa8bd70fe4"),
    Accept("two characterize", "two", ["characterize", "corpus"], _TWO_CHARACTERIZE),
    Accept("two-crlf characterize", "two-crlf", ["characterize", "corpus"], _TWO_CHARACTERIZE),
    Accept("wide parse", "wide", ["parse", "corpus"],
           "ede62bfb81327c7480f3673248f1b40ed329d42c722f03ef05b263cd708f9ae0"),
    Accept("wide distmat", "wide", ["distmat", "corpus"],
           "94c02cea0431363f2ac93dc8ca5d8dc3c43553ded216c1a8efab531c63ef427f"),
    Accept("wide groups", "wide", ["groups", "corpus", "--threshold", "0.7"],
           "aeff52900a03909b4f3958082a7adf1e8ce253e841bdbcbc5f128300b2b823e0"),
    Accept("wide characterize", "wide", ["characterize", "corpus", "--threshold", "0.7"],
           "c66abd0f824fdbc2959e65b0d95fef7f6a608d89ec541d5ca4bc144bfb93aee4"),
    Accept("small tree", "small", ["tree", "m.csv"], _sha256(b"(a:0.5,b:0.5);\n")),
    Accept("small tree bom", "small", ["tree", "bom.csv"], _sha256(b"(a:0.5,b:0.5);\n")),
    Accept("small tree blank labels", "small", ["tree", "blank.csv"], _sha256(b"('a\fb':0.5,c:0.5);\n")),
    Accept("small tree blank labels corpus", "small", ["tree", "blank"], _sha256(b"('x\ry':0.5,z:0.5);\n")),
    Accept("small pcs grouping overlaps in part", "small", ["pcs", "abc.json", "--inject-grouping", "overlap.json"],
           "e54eee9f1987df4ce0ed977d60d8e4fd40eec598e1cbd965e12ab0eb7bd834de"),
    Accept("labels pcs", "labels", ["pcs", "t.json"], _LABELS_PCS),
    Accept("labels pcs csv", "labels", ["pcs", "t.csv"], _LABELS_PCS),
    Accept("labels pcs --out", "labels", ["pcs", "t.json", "--out", "r.json"], _EMPTY, {"r.json": _LABELS_PCS}),
    Accept("labels pcs vendor", "labels", ["pcs", "tv.json"],
           "a9b2ce677f14a83606517084d293f488417fbad16b9613b2cc21f518ea76d463"),
    Accept("labels pcs vendor --normalize", "labels", ["pcs", "tv.json", "--normalize"],
           "ac3834340eab493249b2dc20f3fae49ca621e77b4b3788f838a506d9f7850d63"),
    Accept("labels pcs --text-mining", "labels", ["pcs", "t.json", "--text-mining", "d.json"],
           "cd6ca72c87bf89abe361a96811c97e7891ab379a553cbb14c15f669e6f27a731"),
    Accept("labels pcs --tm-threshold", "labels", ["pcs", "t.json", "--text-mining", "d.json", "--tm-threshold", "0.5"],
           "398f4ca4f9ee646bcdae98e184f86f0a128d20846c2267266be02f2fd31c9bcf"),
    Accept("labels pcs --inject-grouping", "labels", ["pcs", "t.json", "--inject-grouping", "g.json"],
           "5c73b032635efeff5b2827f2df4b7cee14a176c889cfa714c0f3f8516fef6be4"),
    Accept("labels pcs --inject-name", "labels",
           ["pcs", "t.json", "--inject-grouping", "g.json", "--inject-name", "vote"], _VOTE_PCS),
    Accept("labels pcs manual column", "labels", ["pcs", "manual.json"], _VOTE_PCS),
    Accept("spec synth", "spec", ["synth", "spec.json", "--out", "o"], _WROTE_8, _SPEC_SYNTH),
    # A directory without profiles is written into as before.
    Accept("spec-notes synth", "spec-notes", ["synth", "spec.json", "--out", "o"], _WROTE_8, _SPEC_SYNTH),
    Accept("spec synth --seed", "spec", ["synth", "spec.json", "--out", "o", "--seed", "9"],
           _sha256(b"wrote 6 profiles to o\n"), {
        "o/05e386f817680539e7b9c85a1c9d2b3d-0.xml": "0364ce0b73e4d4b9e4364155ea6010130f99efe0e1a2b196af41f2b5fefe0a21",
        "o/05e386f817680539e7b9c85a1c9d2b3d-1.xml": "a86dc71e09895b94ae0bc6a16bd31ab1d24369a517f2db13205390aaf0c575f4",
        "o/0ecf057cadff8da9f3dc7193e018d06f-0.xml": "7b54fb9debaf76ba877d5e036b719ab18194abc091ea67c7ef8d913093ab6223",
        "o/0ecf057cadff8da9f3dc7193e018d06f-1.xml": "a8ed46efd13518547e972663016b34ea08845bbca9cc20ab9a5a6ddb01afe462",
        "o/c56429ac87acb7655dcc7d7094980769-0.xml": "3693bc7e68ce7c953be1e2f76136b7bc986020bf56be6359f90325baa5b2f421",
        "o/c68424a999e628c21fb4393581f21715-0.xml": "c994fbf607ba481ce07aaaef6396f3ea9dddc652be62396369186f403a9e4c98",
        "o/ground_truth.json": "02dfa0aa85c1fab09ac65dd554e6e53858f03ab14e42579c69b3f7387e0f260b",
    }),
]


class TestAccepts:
    @pytest.mark.parametrize("row", ACCEPTS, ids=[row.id for row in ACCEPTS])
    def test_accepted(self, capsysbinary, monkeypatch, tmp_path, accept_inputs, row):
        # Exit 0, an empty stderr, the stdout digest, and the working
        # directory as it was plus exactly the written files: in one process
        # and with a worker forked for half of each corpus.
        created = {str(parent): False for name in row.written for parent in list(Path(name).parents)[:-1]}
        for fork in (False, True):
            root = tmp_path / f"fork-{fork}"
            _lay_out(root, accept_inputs[row.files])
            expected = {**_digests(root), **created, **row.written}
            _fork(monkeypatch, fork)
            monkeypatch.chdir(root)
            code = main(row.argv)
            out, err = capsysbinary.readouterr()
            assert (code, err, _sha256(out)) == (0, b"", row.stdout_sha256), f"fork={fork}"
            assert _digests(root) == expected, f"fork={fork}"

    def test_every_option_takes_effect(self):
        # Each option of each subcommand is in a row that has a base row: the
        # same files, and argv without the option and its value. Wherever a
        # row has such a base row, the two differ in some digest. A required
        # option (synth's --out) has no base row.
        assert len({row.id for row in ACCEPTS}) == len(ACCEPTS)
        rows = {(row.files, *row.argv): row for row in ACCEPTS}
        for command, parser in cli._grammar()[1].items():
            for action in parser._actions:
                if not action.option_strings or "--help" in action.option_strings:
                    continue
                [option] = action.option_strings
                using = [row for row in ACCEPTS if row.argv[0] == command and option in row.argv]
                based = 0
                for row in using:
                    at = row.argv.index(option)
                    base = rows.get((row.files, *row.argv[:at], *row.argv[at + 1 + (action.nargs != 0) :]))
                    if base:
                        assert base[3:] != row[3:], (row.id, base.id)
                        based += 1
                assert using and (based or action.required), (command, option)

    # Source lines that no benchmark workload runs, each with a row that runs it.
    REACHES = [
        ("pcs.py", "postings[token] = [(i, count)]", "labels pcs --text-mining"),
        ("pcs.py", "spread[j] += count * other", "labels pcs --text-mining"),
        ("pcs.py", "while unsure:", "labels pcs --text-mining"),
        ("pcs.py", "found[f] = 1 if same else 0xFF", "labels pcs --text-mining"),
        ("similarity.py", "return cls(tuple(labels), rows)", "small tree"),
        ("phylo.py", "merged = (wi * row[i] + wj * row[j]) / (wi + wj)", "families tree --size-weighted"),
        ("cli.py", "pid = os.fork()", "two parse"),
    ]

    def test_rows_reach_paths_the_benchmark_never_runs(self, capsysbinary, monkeypatch, tmp_path, accept_inputs):
        # A line tracer records each line run in src/malbehave/; a line is
        # matched by its source text.
        rows = {row.id: row for row in ACCEPTS}
        _fork(monkeypatch, True)

        def run():
            for row_id in dict.fromkeys(row_id for *_, row_id in self.REACHES):
                _lay_out(tmp_path / row_id, accept_inputs[rows[row_id].files])
                monkeypatch.chdir(tmp_path / row_id)
                assert main(rows[row_id].argv) == 0

        ran = _lines_run(run)
        capsysbinary.readouterr()
        package = Path(cli.__file__).parent
        reached = {(Path(path).name, linecache.getline(path, line).strip()) for path, line in ran}
        for module, line, row_id in self.REACHES:
            source = [text.strip() for text in (package / module).read_text(encoding="utf-8").splitlines()]
            assert source.count(line) == 1, (module, line)
            assert (module, line) in reached, (module, line, row_id)


class TestUntrustedInput:
    @pytest.mark.parametrize(
        "config, message",
        [
            ({"threshold": "0.5"}, "threshold must be an integer or a float, got '0.5'"),
            ({"alpha": None}, "alpha must be an integer or a float, got None"),
            ({"tm_threshold": [1]}, "tm_threshold must be an integer or a float, got [1]"),
            ({"with_params": "no"}, "with_params must be a boolean, got 'no'"),
            ({"size_weighted": 1}, "size_weighted must be a boolean, got 1"),
            ({"threshold": True}, "threshold must be an integer or a float, got True"),
            ({"seed": "7"}, "seed must be an integer or null, got '7'"),
            ({"seed": False}, "seed must be an integer or null, got False"),
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
    def test_malformed_config(self, config, message):
        with pytest.raises(ValueError) as caught:
            cli.RunConfig(**config)
        assert (type(caught.value), str(caught.value)) == (ValueError, message)

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
        assert (code, out) == (1, "")
        assert err == (
            f"error: {spec_path}: corpus spec asks for {sum(variants)} variants, "
            "more than MAX_CORPUS_VARIANTS = 100000\n"
        )
        assert not (tmp_path / "out").exists()

    def test_corpus_spec_over_the_events_cap(self, capsys, monkeypatch, tmp_path):
        # TestSynth.SPEC makes 8 profiles of 21 events in all, the last a
        # spawned child of variant 3. One event fewer allowed ends the run
        # before anything is written.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(TestSynth.SPEC))
        monkeypatch.setattr(synth, "MAX_CORPUS_EVENTS", 21)
        code, out, _ = _run(capsys, ["synth", str(spec_path), "--out", str(tmp_path / "at")])
        assert (code, out) == (0, f"wrote 8 profiles to {tmp_path / 'at'}\n")
        monkeypatch.setattr(synth, "MAX_CORPUS_EVENTS", 20)
        code, out, err = _run(capsys, ["synth", str(spec_path), "--out", str(tmp_path / "over")])
        assert (code, out) == (1, "")
        assert _single_error_line(err) == (
            "error: family 'fam', variant 3: the corpus would hold more than MAX_CORPUS_EVENTS = 20 events"
        )
        assert not (tmp_path / "over").exists()

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


def _fork(monkeypatch, fork):
    """Make the corpus commands fork a worker for half of their files, or
    not, whatever the CPUs and the corpus size."""
    monkeypatch.setattr(cli, "_forks", lambda paths: fork)


class TestStreamedCorpus:
    @pytest.mark.parametrize("fork", [False, True])
    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_one_profile_alive(self, capsys, monkeypatch, tmp_path, two_family_corpus, command, fork):
        # The token commands walk each document to its call keys; parse
        # walks it to its meta fields and call keys. A walk is a tuple, which
        # takes no weakref, so its call list is counted while it is alive.
        # Each process (this one and the worker) counts its own walks and
        # writes its counts to a file named after its pid.
        _fork(monkeypatch, fork)
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
        processes = 2 if fork else 1
        assert len(per_process) == processes
        assert sum(own["parsed"] for own in per_process) == 4
        assert [own["peak"] for own in per_process] == [1] * processes


def _error_fields(exc: Exception) -> tuple:
    return (type(exc), str(exc), *(getattr(exc, name, None) for name in ("field_name", "line", "column")))


class _Unpicklable(ProfileError):
    """An error that pickle refuses to serialize."""

    def __reduce__(self):
        raise TypeError("not picklable")


@pytest.fixture
def ordered_corpus(tmp_path):
    """Six profiles p0-0 .. p5-0: with a worker, p0-0 .. p2-0 are worked
    in this process and p3-0 .. p5-0 in the worker."""
    corpus = tmp_path / "ordered"
    _write_corpus(corpus, {f"p{k}-0": _profile(f"p{k}", ["Apple", f"Fruit{k % 3}"]) for k in range(6)})
    return corpus


class TestCorpusWorkers:
    """Corpus commands split the sorted files into two halves; the first is
    worked in this process and the second in a forked worker. The results
    and the errors are those of one process."""

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize(
        "broken, first",
        [
            (["p2-0", "p3-0"], "p2-0"),  # both halves fail, the worker's sooner
            (["p4-0"], "p4-0"),  # only the worker's half fails
            (["p3-0", "p4-0"], "p3-0"),  # the worker's half fails twice
            (["p5-0", "p0-0"], "p0-0"),  # this process's half fails first
        ],
    )
    def test_first_failing_file_in_name_order(self, capsys, monkeypatch, ordered_corpus, command, broken, first):
        for name in broken:
            (ordered_corpus / f"{name}.xml").write_text("<Profile><Meta>")
        lines = []
        for fork in (False, True):
            _fork(monkeypatch, fork)
            code, out, err = _run(capsys, [command, str(ordered_corpus)])
            assert (code, out) == (1, "")
            lines.append(_single_error_line(err))
        assert lines[0].startswith(f"error: {ordered_corpus / first}.xml: malformed XML: ")
        assert lines[1] == lines[0]

    @pytest.mark.parametrize("case", ["malformed-xml", "process-id-zero", "non-integer-time", "wrong-root"])
    def test_worker_half_error_fields_as_one_process(self, monkeypatch, ordered_corpus, case):
        text, error, message, expected = WALK_REJECTIONS[case]
        (ordered_corpus / "p4-0.xml").write_text(text)
        fields = []
        for fork in (False, True):
            _fork(monkeypatch, fork)
            with pytest.raises(ProfileError) as tokens:
                cli._corpus_matrix(str(ordered_corpus), cli.RunConfig())
            with pytest.raises(ProfileError) as summaries:
                cli._map_corpus(cli._summaries, corpus_paths(ordered_corpus))
            fields += [_error_fields(tokens.value), _error_fields(summaries.value)]
        assert fields == [fields[0]] * 4
        assert fields[0][:2] == (error, f"{ordered_corpus / 'p4-0.xml'}: {message}")
        assert dict(zip(("field_name", "line", "column"), fields[0][2:])).items() >= expected.items()

    def test_worker_half_os_error_as_one_process(self, monkeypatch, ordered_corpus):
        # A directory named like a profile: reading it is an OSError, which
        # keeps its class, errno and filename.
        (ordered_corpus / "p4-0.xml").unlink()
        (ordered_corpus / "p4-0.xml").mkdir()
        raised = []
        for fork in (False, True):
            _fork(monkeypatch, fork)
            with pytest.raises(OSError) as error:
                cli._corpus_matrix(str(ordered_corpus), cli.RunConfig())
            raised.append((type(error.value), str(error.value), error.value.errno, error.value.filename))
        assert raised[0] == raised[1]
        assert raised[0][0] is IsADirectoryError

    def test_large_results(self, monkeypatch):
        # The worker's result is over the 64 KiB pipe buffer.
        _fork(monkeypatch, True)

        def work(chunk):
            return [name * 100_000 for name in chunk]

        names = ["a", "b", "c", "d", "e"]
        assert cli._map_corpus(work, names) == work(names)

    @pytest.mark.parametrize("worker", ["large-result", "still-working"])
    def test_own_chunk_fails_first(self, monkeypatch, worker):
        # The worker blocks writing a result over the pipe buffer until it
        # is read, or is still at work: this process kills it rather than
        # wait for it.
        _fork(monkeypatch, True)

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
        _fork(monkeypatch, True)
        if broken:
            (ordered_corpus / f"{broken}.xml").write_text("<Profile><Meta>")
        code, _, _ = _run(capsys, [command, str(ordered_corpus)])
        assert code == (1 if broken else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize("broken", [None, "p4-0"])
    @pytest.mark.parametrize("death", ["exit-0", "exit-3", "kill"])
    def test_worker_dies_without_result(self, capsys, monkeypatch, ordered_corpus, command, death, broken):
        # A worker that ends without sending a result leaves its half to
        # this process: the command prints what it prints without a fork.
        if broken:
            (ordered_corpus / f"{broken}.xml").write_text("<Profile><Meta>")
        _fork(monkeypatch, False)
        expected = _run(capsys, [command, str(ordered_corpus)])
        _fork(monkeypatch, True)
        parent = os.getpid()
        died = ordered_corpus.parent / "worker-died"

        def read_or_die(path, parse):
            if os.getpid() != parent:
                died.touch()
                if death == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                os._exit(int(death[-1]))
            return read_input(path, parse)

        monkeypatch.setattr("malbehave.cli.read_input", read_or_die)
        assert _run(capsys, [command, str(ordered_corpus)]) == expected
        assert expected[0] == (1 if broken else 0)
        assert died.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_unpicklable_worker_error_raised_here(self, monkeypatch):
        # The worker's error cannot be sent back; its half, worked here,
        # raises the same error.
        _fork(monkeypatch, True)

        def work(chunk):
            if "c" in chunk:
                raise _Unpicklable(f"{chunk[0]}: fails")
            return list(chunk)

        with pytest.raises(_Unpicklable, match="^c: fails$"):
            cli._map_corpus(work, ["a", "b", "c", "d"])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    @pytest.mark.parametrize("broken", [None, "p1-0", "p3-0", "p5-0"])
    def test_no_fork_at_all(self, capsys, monkeypatch, ordered_corpus, command, broken):
        # Out of processes or memory (EAGAIN, ENOMEM): every file is worked
        # here, in order, with the output and the error of one process.
        if broken:
            (ordered_corpus / f"{broken}.xml").write_text("<Profile><Meta>")
        _fork(monkeypatch, False)
        expected = _run(capsys, [command, str(ordered_corpus)])
        forks = []

        def no_fork():
            forks.append(None)
            raise OSError(12, "Cannot allocate memory")

        monkeypatch.setattr(os, "fork", no_fork)
        _fork(monkeypatch, True)
        assert _run(capsys, [command, str(ordered_corpus)]) == expected
        assert len(forks) == 1
        assert expected[0] == (1 if broken else 0)

    def test_buffered_stdout_written_once(self, ordered_corpus):
        # Text still in this process's stdout buffer at the fork is not
        # written again by a worker on its way out.
        code = (
            "import sys; from malbehave import cli; cli._forks = lambda paths: True; "
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
        _fork(monkeypatch, True)
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


class TestForks:
    """A worker for half the corpus only when the process may use two CPUs
    and the corpus's bytes pay for the fork; never more than one."""

    @pytest.fixture
    def cpus(self, monkeypatch, tmp_path):
        def set_cpus(count, cpu_max=None, cfs=None):
            # cpu_max is the cgroup v2 file's line; cfs the cgroup v1
            # (quota, period) lines. None leaves the file out.
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
            monkeypatch.setattr(cli, "_CPU_MAX", tmp_path / "cpu.max")
            monkeypatch.setattr(cli, "_CPU_CFS", tmp_path / "cpu")
            if cpu_max is not None:
                (tmp_path / "cpu.max").write_text(cpu_max + "\n")
            if cfs is not None:
                (tmp_path / "cpu").mkdir()
                for name, line in zip(("cpu.cfs_quota_us", "cpu.cfs_period_us"), cfs):
                    if line is not None:
                        (tmp_path / "cpu" / name).write_text(line + "\n")

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

    @pytest.mark.parametrize(
        "affinity, cpu_max, cfs, count",
        [
            (2, None, ("100000", "100000"), 1),
            (2, None, ("-1", "100000"), 2),
            (8, None, ("300000", "100000"), 3),
            (8, None, ("50000", "100000"), 1),
            (2, None, ("400000", "100000"), 2),
            (8, None, ("100000", None), 8),
            (8, None, (None, "100000"), 8),
            (8, None, ("", "100000"), 8),
            (8, "200000 100000", ("300000", "100000"), 2),
            (8, "300000 100000", ("200000", "100000"), 2),
            (8, "max 100000", ("200000", "100000"), 2),
            (8, "300000 100000", ("-1", "100000"), 3),
        ],
    )
    def test_cpu_count_cgroup_v1(self, cpus, affinity, cpu_max, cfs, count):
        # The v1 quota lowers the count as the v2 one does; with both, the lower wins.
        cpus(affinity, cpu_max, cfs)
        assert cli._cpu_count() == count

    def test_v1_quota_of_one_cpu_does_not_fork(self, cpus, tmp_path):
        cpus(2, None, ("100000", "100000"))
        paths = [tmp_path / "p0.xml", tmp_path / "p1.xml"]
        for path in paths:
            path.write_bytes(b"x" * cli._CHUNK_BYTES)
        assert cli._forks(paths) is False

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert cli._cpu_count() == 1

    @pytest.mark.parametrize(
        "affinity, cpu_max, sizes, forks",
        [
            (16, None, [cli._CHUNK_BYTES] * 8, True),
            (1, None, [cli._CHUNK_BYTES] * 8, False),
            (16, "100000 100000", [cli._CHUNK_BYTES] * 8, False),
            (2, None, [cli._CHUNK_BYTES, cli._CHUNK_BYTES - 1], False),
            (2, None, [cli._CHUNK_BYTES, cli._CHUNK_BYTES], True),
            (2, None, [1] * 7 + [2 * cli._CHUNK_BYTES], True),
            (2, None, [2 * cli._CHUNK_BYTES], False),
        ],
    )
    def test_forks(self, cpus, tmp_path, affinity, cpu_max, sizes, forks):
        cpus(affinity, cpu_max)
        paths = []
        for k, size in enumerate(sizes):
            paths.append(tmp_path / f"p{k}.xml")
            paths[-1].write_bytes(b"x" * size)
        assert cli._forks(paths) is forks

    def test_unreadable_path_left_to_the_reader(self, cpus, tmp_path):
        cpus(2)
        (tmp_path / "p1.xml").write_bytes(b"x" * 2 * cli._CHUNK_BYTES)
        assert cli._forks([tmp_path / "p0.xml", tmp_path / "p1.xml"]) is False

    @pytest.mark.parametrize("command", CORPUS_COMMANDS)
    def test_one_fork_at_sixteen_cpus(self, capsys, monkeypatch, cpus, ordered_corpus, command):
        # The process may use 16 CPUs and any corpus pays for a fork: the
        # command still forks one worker.
        cpus(16)
        monkeypatch.setattr(cli, "_CHUNK_BYTES", 1)
        fork = os.fork
        forks = []

        def counted_fork():
            forks.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        code, out, err = _run(capsys, [command, str(ordered_corpus)])
        assert (code, err) == (0, "")
        assert out
        assert len(forks) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def _src_python(args: list[str], **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports malbehave from this source tree."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, env={**os.environ, "PYTHONPATH": path}, **kwargs)


class TestEntryPoint:
    def test_module_invocation(self, tmp_path, accept_inputs):
        # `python -m malbehave` prints the bytes of the ACCEPTS row it runs.
        [row] = [row for row in ACCEPTS if row.id == "two parse"]
        _lay_out(tmp_path, accept_inputs[row.files])
        result = _src_python(["-m", "malbehave", *row.argv], cwd=tmp_path)
        assert (result.returncode, result.stderr, _sha256(result.stdout)) == (0, b"", row.stdout_sha256)

    @pytest.mark.parametrize("module", ["malbehave", "malbehave.cli"])
    def test_import_loads_no_network_module(self, module):
        # Every CLI call and every worker imports the package. Nothing in it
        # needs these modules; xml.sax.saxutils would bring in all of them
        # through urllib.request. -S keeps site's own imports out of the set.
        result = _src_python(["-S", "-c", f"import sys, {module}; print(sorted(sys.modules))"], text=True)
        assert (result.returncode, result.stderr) == (0, "")
        loaded = set(ast.literal_eval(result.stdout))
        assert module in loaded
        assert loaded.isdisjoint({"urllib.request", "http.client", "email", "socket", "ssl", "xml.sax"})


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
        assert cli._grammar() is cli._grammar()
        assert cli.build_parser() is not cli.build_parser()


class TestCharacteristicsMemo:
    """main keeps the last characteristics file it parsed, keyed by its exact
    text, so every call still answers for the file as it reads it now."""

    @pytest.fixture
    def trained(self, two_family_corpus, tmp_path):
        chars = tmp_path / "chars.json"
        assert main(["characterize", str(two_family_corpus), "--alpha", "0", "--out", str(chars)]) == 0
        # Two of the three tokens of group 1's distinct set: a score of 2/3.
        partial = tmp_path / "partial.xml"
        partial.write_text(serialize_profile(_profile("pp", ["Quince", "Rowan", "WinExec"])))
        return chars, partial

    def test_rewritten_file_is_read_again(self, capsys, trained):
        chars, partial = trained
        argv = ["classify", str(chars), str(partial)]
        text = chars.read_text()
        document = json.loads(text)
        stricter = dict(document, min_score=0.99)
        first, second = document["groups"]
        swapped = dict(document, groups=[dict(first, id=1), dict(second, id=0)])
        answers = []
        for written in (text, json.dumps(stricter), text, json.dumps(swapped), text):
            chars.write_text(written)
            answers.append(_run(capsys, argv))
        assert answers == [(0, "1\n", ""), (0, "none\n", ""), (0, "1\n", ""), (0, "0\n", ""), (0, "1\n", "")]

    def test_error_on_every_call_then_good_file_answers(self, capsys, trained):
        chars, partial = trained
        argv = ["classify", str(chars), str(partial)]
        good = chars.read_text()
        assert _run(capsys, argv) == (0, "1\n", "")
        for bad in ("{", json.dumps(dict(json.loads(good), min_score=2))):
            chars.write_text(bad)
            for _ in range(2):
                code, out, err = _run(capsys, argv)
                assert (code, out) == (1, "")
                assert _single_error_line(err).startswith(f"error: {chars}: ")
        chars.write_text(good)
        assert _run(capsys, argv) == (0, "1\n", "")

    def test_same_text_at_two_paths(self, capsys, trained, tmp_path):
        chars, partial = trained
        copy_ = tmp_path / "copy.json"
        copy_.write_text(chars.read_text())
        for path in (chars, copy_, chars):
            assert _run(capsys, ["classify", str(path), str(partial)]) == (0, "1\n", "")
        assert cli._read_characteristics.cache_info().currsize == 1
        for path in (chars, copy_):
            path.write_text('{"feature": 5}')
        for path in (chars, copy_, chars):
            code, out, err = _run(capsys, ["classify", str(path), str(partial)])
            assert (code, out) == (1, "")
            assert _single_error_line(err) == f"error: {path}: feature block must be an object, got 5"

    def test_second_call_rebuilds_no_groups(self, capsys, monkeypatch, trained):
        chars, partial = trained
        rebuild = cli.characteristics_from_report
        rebuilt = []

        def counted(rows):
            rebuilt.append(rows)
            return rebuild(rows)

        monkeypatch.setattr(cli, "characteristics_from_report", counted)
        cli._read_characteristics.cache_clear()
        argv = ["classify", str(chars), str(partial)]
        assert _run(capsys, argv) == (0, "1\n", "")
        assert len(rebuilt) == 1
        assert _run(capsys, argv) == (0, "1\n", "")
        assert len(rebuilt) == 1

    def test_kept_model_is_read_only(self, trained):
        chars, _ = trained
        settings, groups = read_input(chars, cli._read_characteristics)
        assert isinstance(settings, cli.RunConfig)
        with pytest.raises(dataclasses.FrozenInstanceError):
            settings.min_score = 0.0
        with pytest.raises(TypeError):
            del groups[0]


class TestClassifySettings:
    """classify tokenizes as its model was trained: the settings come from
    the model's feature block, alpha and min_score, and --min-score is the
    one flag that overrides them. The flags and model values it refuses are
    the "removed", "min-score" and "model" rows of REFUSALS."""

    @pytest.fixture
    def model(self, two_family_corpus, tmp_path):
        chars = tmp_path / "chars.json"
        assert main(["characterize", str(two_family_corpus), "--ngram", "2", "--out", str(chars)]) == 0
        return chars, two_family_corpus / "b2-0.xml"

    def test_tokenizes_as_trained(self, capsys, model):
        chars, profile = model
        assert json.loads(chars.read_text())["feature"]["ngram_n"] == 2
        assert _run(capsys, ["classify", str(chars), str(profile)]) == (0, "1\n", "")
