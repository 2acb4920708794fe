"""The CI gate helper, tests/_scale.py, and the workflow lines that call it.

Each helper case runs in a fresh `python tests/_scale.py` process, as a
gate does, so no case's reaped children count in another's RUSAGE_CHILDREN
peak. Every bad case must exit non-zero with its own check's message: a
helper that passed it would turn every gate that relies on it green.
"""

from __future__ import annotations

import hashlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from malbehave import CorpusSpec, cli, generate_corpus, write_corpus
from _pipeline import MUTATIONS_NO_SPAWN, family_template
from _scale import build_corpus, parse_gate

TESTS = Path(__file__).resolve().parent
WORKFLOW = TESTS.parent / ".github" / "workflows" / "tests.yml"
SCALE_JOBS = ("tree-scale", "duplicate-scale", "pcs-scale", "ingest-scale")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A six-profile corpus, its matrix CSV m.csv, the sha256 of the tree
    of m.csv, and label sources m.csv's header with its last label left out
    (missing) or replaced by its first (doubled)."""
    root = tmp_path_factory.mktemp("gates")
    families = tuple((family_template(name, motif_count=1, ops=MUTATIONS_NO_SPAWN), 3) for name in ("east", "west"))
    labeled, truth = generate_corpus(CorpusSpec(families, 0.2, 1))
    write_corpus(root / "corpus", labeled, truth)
    assert cli.main(["distmat", str(root / "corpus"), "--out", str(root / "m.csv")]) == 0
    assert cli.main(["tree", str(root / "m.csv"), "--out", str(root / "ref.nwk")]) == 0
    header, _, rows = (root / "m.csv").read_text(encoding="utf-8").partition("\n")
    labels = header.split(",")
    (root / "missing.csv").write_text(",".join(labels[:-1] + ["absent"]) + "\n" + rows, encoding="utf-8")
    (root / "doubled.csv").write_text(",".join(labels[:-1] + labels[:1]) + "\n" + rows, encoding="utf-8")
    return root, hashlib.sha256((root / "ref.nwk").read_bytes()).hexdigest()


def python(cwd: Path, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=60)


def gate(cwd: Path, *argv: str, flags: tuple[str, ...] = ()) -> subprocess.CompletedProcess:
    return python(cwd, *flags, str(TESTS / "_scale.py"), *argv)


TREE = ("--", "tree", "m.csv", "--out", "t.nwk")
GROUPS = ("--", "groups", "corpus", "--out", "g.json")


class TestGate:
    def test_passing_tree(self, inputs):
        root, digest = inputs
        done = gate(root, "--seconds", "60", "--mb", "500", "--labels", "m.csv", "6", "--sha256", digest, *TREE)
        assert done.returncode == 0, done.stderr
        assert re.search(r"^tree m\.csv --out t\.nwk: peak RSS \d+ MB$", done.stdout, re.M), done.stdout
        assert done.stdout.endswith("t.nwk: OK\n")

    def test_passing_groups(self, inputs):
        root, _ = inputs
        done = gate(root, "--seconds", "60", "--mb", "500", "--labels", "corpus", "6", *GROUPS)
        assert done.returncode == 0, done.stderr

    def test_wrong_sha256(self, inputs):
        root, digest = inputs
        wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
        done = gate(root, "--seconds", "60", "--mb", "500", "--sha256", wrong, *TREE)
        assert done.returncode != 0
        assert f"t.nwk: sha256 {digest}, not {wrong}" in done.stderr

    def test_mb_below_the_peak(self, inputs):
        root, _ = inputs
        passing = gate(root, "--seconds", "60", "--mb", "500", *TREE)
        peak = int(re.search(r"peak RSS (\d+) MB", passing.stdout)[1])
        done = gate(root, "--seconds", "60", "--mb", str(peak // 2), *TREE)
        assert done.returncode != 0
        assert f" MB > {float(peak // 2)} MB" in done.stderr

    def test_wrong_status(self, inputs):
        # The events-cap step expects exit 1: it calls bounded_run itself.
        code = f"from _scale import bounded_run; bounded_run({list(TREE[1:])!r}, seconds=60, mb=500, status=1)"
        done = python(inputs[0], "-c", code)
        assert done.returncode != 0
        assert "tree m.csv --out t.nwk: exit 0, not 1" in done.stderr

    def test_too_short_seconds(self, inputs):
        root, _ = inputs
        done = gate(root, "--seconds", "0.001", "--mb", "500", *TREE)
        assert done.returncode != 0
        assert "TimeoutExpired" in done.stderr

    @pytest.mark.parametrize("source", ["missing.csv", "doubled.csv"])
    @pytest.mark.parametrize("run", [TREE, GROUPS], ids=[".nwk", ".json"])
    def test_labels_differ(self, inputs, source, run):
        root, _ = inputs
        done = gate(root, "--seconds", "60", "--mb", "500", "--labels", source, "6", *run)
        assert done.returncode != 0
        assert f"{run[-1]}: a label is missing or there twice" in done.stderr

    def test_label_count(self, inputs):
        root, _ = inputs
        done = gate(root, "--seconds", "60", "--mb", "500", "--labels", "m.csv", "5", *TREE)
        assert done.returncode != 0
        assert "('m.csv', 6, 5)" in done.stderr

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seconds", "1", "--mb", "1"], "the malbehave ARGS follow --"),
            (["--seconds", "1", "--mb", "1", "--sha256", "0", "--", "tree", "m.csv"], "check the file that ARGS name"),
            (["--seconds", "1", "--mb", "1", "--labels", "m.csv", "six", *TREE], "COUNT must be a whole number"),
        ],
        ids=["no-separator", "no-out", "count"],
    )
    def test_usage_errors(self, inputs, argv, message):
        done = gate(inputs[0], *argv)
        assert done.returncode == 2
        assert message in done.stderr

    def test_refuses_optimized_python(self, inputs):
        # Under -O every assert, and so every check, would be skipped.
        root, digest = inputs
        wrong = ("0" if digest[0] != "0" else "1") + digest[1:]
        done = gate(root, "--seconds", "60", "--mb", "1", "--sha256", wrong, *TREE, flags=("-O",))
        assert done.returncode == 2
        assert "run without -O" in done.stderr


def test_build_corpus_refuses_a_used_directory(tmp_path):
    # It starts no child, so it runs in this process. The directory is
    # refused before the spec is read: None would fail in generate_corpus.
    (tmp_path / "left-0.xml").write_text("")
    with pytest.raises(AssertionError) as refused:
        build_corpus(None, str(tmp_path), 1, "0" * 64)
    assert str(refused.value) == f"{tmp_path}: already holds files; build into a new directory"
    assert [path.name for path in tmp_path.iterdir()] == ["left-0.xml"]


def gate_calls(workflow: dict, job: str) -> list[list[str]]:
    """The arguments of every tests/_scale.py call in one job's run blocks."""
    calls = []
    for step in workflow["jobs"][job]["steps"]:
        for line in step.get("run", "").splitlines():
            if "_scale.py" in line:
                words = shlex.split(line)
                assert words[:2] == ["python", "tests/_scale.py"], line
                calls.append(words[2:])
    return calls


@pytest.fixture(scope="module")
def workflow():
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))


class TestWorkflow:
    @pytest.mark.parametrize("job", SCALE_JOBS)
    def test_gate_lines(self, workflow, job):
        # Each call parses with the helper's parser and ARGS with malbehave's,
        # and checks the labels or the digest of the file it writes.
        calls = gate_calls(workflow, job)
        assert calls, job
        for argv in calls:
            gate_args, args = parse_gate(argv)
            cli.build_parser().parse_args(args)
            assert "--out" in args, argv
            assert gate_args.labels or gate_args.sha256, argv
            assert gate_args.sha256 is None or re.fullmatch("[0-9a-f]{64}", gate_args.sha256), argv

    @pytest.mark.parametrize("job", SCALE_JOBS)
    def test_pythonpath_set_once(self, workflow, job):
        body = workflow["jobs"][job]
        settings = [body.get("env", {})] + [step.get("env", {}) for step in body["steps"]]
        inline = sum(step.get("run", "").count("PYTHONPATH=") for step in body["steps"])
        assert sum("PYTHONPATH" in env for env in settings) + inline == 1
