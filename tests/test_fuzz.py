"""Seeded fuzz pass over every input the command line reads.

Each input kind starts from a valid file and is mutated four ways: bit
flips and truncation (seeded with the standard library's random), and
type swaps and huge numbers (every JSON value, CSV cell or XML value in
turn replaced by each entry of a fixed list). Every case runs through
cli.main and must end in exit 0 with nothing on stderr, or in exit 1 with
empty stdout and exactly one ``error:`` line; an exception escaping main
fails the test.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import time

import pytest

from malbehave import CorpusSpec, EngineLabelTable, generate_corpus, write_corpus
from malbehave.cli import main

SPEC = {
    "seed": 3,
    "mutation_rate": 0.3,
    "families": [
        {
            "name": "dropper",
            "variants": 3,
            "base_events": [
                {"api": "CreateFile", "attributes": {"hName": "c:\\d\\a.exe"}, "return": "SUCCESS"},
                {"api": "RegSetValue", "attributes": [["hKey", "hkcu\\run"], ["data", "a"]]},
                {"api": "WinExec", "attributes": {"lpCmdLine": "c:\\d\\a.exe"}},
            ],
            "mutation_ops": ["drop_event", "perturb_param", "spawn_child"],
            "param_pools": {"hName": ["c:\\d\\a.exe", "c:\\d\\b.exe"]},
        },
        {
            "name": "loader",
            "variants": 2,
            "base_events": [
                {"api": "LoadLibrary", "attributes": {"lpFileName": "x.dll"}, "return": "SUCCESS"},
                {"api": "OpenProcess"},
            ],
        },
    ],
}
TABLE = {
    "malwares": ["m1", "m2", "m3", "m4"],
    "engines": ["e1", "e2"],
    "labels": [["Trojan.Agent", "Win32/Agent"], ["Trojan.Agent", None], ["Worm.Foo", "Worm/Foo"], [None, "Worm/Foo"]],
}
GROUPING = {"threshold": 0.5, "groups": [["m1", "m2"], ["m3", "m4"]]}
DESCRIPTIONS = {"m1": "trojan agent downloader", "m2": "trojan agent", "m3": "worm spreading", "m4": "a worm"}

# JSON values swapped in for every value of a document. The strings
# starting with "@raw:" are replaced by their text after serializing, for
# literals json.dumps does not write: 1e999 and NaN read back as floats,
# and the nested array exceeds the decoder's recursion limit.
JSON_SWAPS = [None, True, False, 0, -1, 2.5, 10**30, "", "x", "0.5", [], {}, [1], {"a": 1}, ["a", None]]
JSON_SWAPS += ["@raw:1e999", "@raw:-1e999", "@raw:NaN", "@raw:" + "[" * 5000 + "]" * 5000]
CSV_SWAPS = ["", "x", "nan", "inf", "-1", "-0", "1e999", "9" * 5000, "0" * 200_000]
XML_SWAPS = ["", "-1", "x", "1e999", "9" * 5000, "<", "&undefined;", "\u00e9"]

FLIPS = 25
TRUNCATIONS = 15
CASE_SECONDS = 5.0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid inputs: a corpus, its characteristics and matrix, and the
    other files, each as bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus"
    write_corpus(corpus, *generate_corpus(CorpusSpec.from_json(json.dumps(SPEC))))
    files = {name: root / name for name in ("chars.json", "matrix.csv", "table.json")}
    assert main(["characterize", str(corpus), "--out", str(files["chars.json"])]) == 0
    assert main(["distmat", str(corpus), "--out", str(files["matrix.csv"])]) == 0
    files["table.json"].write_text(json.dumps(TABLE))
    profile = sorted(corpus.glob("*.xml"))[0]
    return {
        "root": root,
        "corpus": corpus,
        "profile": profile,
        "files": files,
        "bytes": {
            "profile": profile.read_bytes(),
            "characteristics": files["chars.json"].read_bytes(),
            "table-json": files["table.json"].read_bytes(),
            "table-csv": EngineLabelTable.from_json(json.dumps(TABLE)).to_csv().encode(),
            "grouping": json.dumps(GROUPING).encode(),
            "descriptions": json.dumps(DESCRIPTIONS).encode(),
            "spec": json.dumps(SPEC).encode(),
            "matrix-csv": files["matrix.csv"].read_bytes(),
        },
    }


def _json_swaps(data: bytes):
    document = json.loads(data)
    paths = []

    def walk(node, path):
        paths.append(path)
        # Every key of an object, the first item of a list.
        children = node.items() if isinstance(node, dict) else enumerate(node[:1]) if isinstance(node, list) else ()
        for key, child in children:
            walk(child, path + (key,))

    walk(document, ())
    for path in paths:
        for value in JSON_SWAPS:
            mutated = json.loads(data)
            if path:
                target = mutated
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = value
            else:
                mutated = value
            text = json.dumps(mutated)
            for raw in re.findall(r'"@raw:([^"]*)"', text):
                text = text.replace(f'"@raw:{raw}"', raw, 1)
            yield f"swap {path} -> {str(value)[:20]}", text.encode()


def _csv_swaps(data: bytes):
    rows = list(csv.reader(io.StringIO(data.decode())))
    for r, row in enumerate(rows[:4]):
        for c in range(min(len(row), 4)):
            for value in CSV_SWAPS:
                mutated = [list(line) for line in rows]
                mutated[r][c] = value
                out = io.StringIO()
                csv.writer(out, lineterminator="\n").writerows(mutated)
                yield f"swap cell ({r}, {c}) -> {value[:20]}", out.getvalue().encode()


def _xml_swaps(data: bytes):
    text = data.decode()
    spans = [m.span(1) for m in re.finditer(r'="([^"]*)"', text)]
    spans += [m.span(1) for m in re.finditer(r">([^<\n]+)<", text)]
    for start, end in spans:
        for value in XML_SWAPS:
            yield f"swap {text[start:end][:20]!r} -> {value[:20]!r}", (text[:start] + value + text[end:]).encode()


SWAPS = {"profile": _xml_swaps, "table-csv": _csv_swaps, "matrix-csv": _csv_swaps}


def _mutations(kind: str, data: bytes):
    rng = random.Random(f"fuzz-{kind}")
    for _ in range(FLIPS):
        mutated = bytearray(data)
        flipped = []
        for _ in range(rng.randint(1, 3)):
            position, bit = rng.randrange(len(mutated)), rng.randrange(8)
            mutated[position] ^= 1 << bit
            flipped.append((position, bit))
        yield f"flip {flipped}", bytes(mutated)
    for _ in range(TRUNCATIONS):
        length = rng.randrange(len(data))
        yield f"truncate to {length}", data[:length]
    yield from SWAPS.get(kind, _json_swaps)(data)


def _commands(kind: str, bad: str, inputs: dict, case: int) -> list[list[str]]:
    files = {name: str(path) for name, path in inputs["files"].items()}
    corpus, profile = str(inputs["corpus"]), str(inputs["profile"])
    # synth refuses a directory that holds profiles, so each case writes a new one.
    out = str(inputs["root"] / f"synth-out-{case}")
    if kind == "profile":
        return [["parse", bad], ["characterize", corpus], ["classify", files["chars.json"], bad]]
    return [
        {
            "characteristics": ["classify", bad, profile],
            "table-json": ["pcs", bad, "--normalize"],
            "table-csv": ["pcs", bad],
            "grouping": ["pcs", files["table.json"], "--inject-grouping", bad],
            "descriptions": ["pcs", files["table.json"], "--text-mining", bad],
            "spec": ["synth", bad, "--out", out],
            "matrix-csv": ["tree", bad],
        }[kind]
    ]


def _check(argv: list[str], label: str) -> int:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except (Exception, SystemExit) as exc:
        pytest.fail(f"{label}: {argv[0]} raised {type(exc).__name__}: {str(exc)[:300]}")
    assert time.perf_counter() - started < CASE_SECONDS, label
    if code == 0:
        assert err.getvalue() == "", label
    else:
        lines = err.getvalue().splitlines()
        assert code == 1, label
        assert out.getvalue() == "", label
        assert len(lines) == 1 and lines[0].startswith("error:"), f"{label}: {err.getvalue()[:300]}"
        assert "Traceback" not in err.getvalue(), label
    return code


KINDS = [
    "profile",
    "characteristics",
    "table-json",
    "table-csv",
    "grouping",
    "descriptions",
    "spec",
    "matrix-csv",
]
SUFFIXES = {"profile": ".xml", "table-csv": ".csv", "matrix-csv": ".csv"}


@pytest.mark.parametrize("kind", KINDS)
def test_mutated_inputs_end_cleanly(inputs, kind):
    if kind == "profile":
        # The mutated profile joins the corpus as one more file.
        bad = inputs["profile"].parent / "zz-0.xml"
    else:
        bad = inputs["root"] / f"bad{SUFFIXES.get(kind, '.json')}"
    codes = []
    try:
        for case, (mutation, data) in enumerate(_mutations(kind, inputs["bytes"][kind])):
            bad.write_bytes(data)
            for argv in _commands(kind, str(bad), inputs, case):
                codes.append(_check(argv, f"{kind} case {case} ({mutation})"))
    finally:
        bad.unlink(missing_ok=True)
    # The pass is only a check if it reaches both outcomes.
    assert 0 in codes and 1 in codes
