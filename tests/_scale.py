"""Bounded runs of the malbehave CLI, for the CI scale jobs.

A gate is one process, run with PYTHONPATH=src:tests as

    python tests/_scale.py --seconds S --mb M [--labels SOURCE COUNT] [--sha256 HEX] -- ARGS...

It runs `python -m malbehave ARGS` with bounded_run, checks the labels of
the run's --out file against the COUNT labels of SOURCE (a corpus directory
or a matrix CSV), then its sha256 against HEX; a failed check exits non-zero.
Each gate is a process of its own, as RUSAGE_CHILDREN's peak is the largest
over every child a process has reaped: a later run would be held to it too.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

from malbehave import CorpusSpec, generate_corpus, write_corpus


def build_corpus(spec: CorpusSpec, directory: str, count: int, digest: str) -> None:
    """Write spec's corpus to directory; assert that it holds count profiles
    and that the sha256 over every file's name and bytes, in name order, is
    digest. Prints synth's wall time. A directory that already holds files
    (a corpus left by an earlier run) is refused before anything is made:
    its digest would count them too."""
    path = Path(directory)
    assert not (path.is_dir() and any(path.iterdir())), f"{directory}: already holds files; build into a new directory"
    started = time.perf_counter()
    labeled, truth = generate_corpus(spec)
    write_corpus(directory, labeled, truth)
    print(f"synth {time.perf_counter() - started:.2f} s")
    assert len(labeled) == count, len(labeled)
    h = hashlib.sha256()
    for path in sorted(Path(directory).iterdir()):
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    assert h.hexdigest() == digest, h.hexdigest()


def bounded_run(args: list[str], *, seconds: float, mb: float, status: int = 0) -> str:
    """Run `python -m malbehave ARGS` in a child that must exit with status
    within seconds; print and assert the peak RSS of every child reaped so
    far. Returns the child's stderr, which is also printed."""
    done = subprocess.run(
        [sys.executable, "-m", "malbehave", *args], stderr=subprocess.PIPE, text=True, timeout=seconds
    )
    sys.stderr.write(done.stderr)
    assert done.returncode == status, f"{' '.join(args)}: exit {done.returncode}, not {status}"
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
    report = f"{' '.join(args)}: peak RSS {peak_mb:.0f} MB"
    print(report)
    assert peak_mb <= mb, f"{report} > {mb} MB"
    return done.stderr


def source_labels(source: str, count: int) -> list[str]:
    """The count labels of a corpus directory's profiles or of a matrix CSV's header."""
    if Path(source).is_dir():
        labels = [path.stem for path in Path(source).glob("*.xml")]
    else:
        with open(source, encoding="utf-8", newline="") as matrix:
            labels = next(csv.reader(matrix))
    assert len(labels) == count, (source, len(labels), count)
    return labels


def check_labels(path: str, expected: list[str]) -> None:
    """Assert that the grouping (.json) or Newick tree at path holds every
    label of expected exactly once, and no other."""
    text = Path(path).read_text(encoding="utf-8")
    if path.endswith(".json"):
        found = [label for group in json.loads(text)["groups"] for label in group]
    else:  # a leaf label follows "(" or ","; a merge node's ":" follows ")"
        found = re.findall(r"[(,]([^(),:;]+):", text)
    assert len(found) == len(expected), (path, len(found), len(expected))
    assert sorted(found) == sorted(expected), f"{path}: a label is missing or there twice"


GATE = argparse.ArgumentParser(prog="tests/_scale.py", epilog="The malbehave ARGS follow --.")
GATE.add_argument("--seconds", type=float, required=True)
GATE.add_argument("--mb", type=float, required=True)
GATE.add_argument("--labels", nargs=2, metavar=("SOURCE", "COUNT"))
GATE.add_argument("--sha256", metavar="HEX")


def parse_gate(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    """A gate's options, from before "--", and its malbehave ARGS, from after."""
    split = argv.index("--") if "--" in argv else len(argv)
    gate, args = GATE.parse_args(argv[:split]), argv[split + 1 :]
    if not args:
        GATE.error("the malbehave ARGS follow --")
    if gate.labels and not gate.labels[1].isdecimal():
        GATE.error(f"--labels COUNT must be a whole number, not {gate.labels[1]!r}")
    if (gate.labels or gate.sha256) and "--out" not in args[:-1]:
        GATE.error("--labels and --sha256 check the file that ARGS name with --out")
    return gate, args


def main(argv: list[str]) -> None:
    if not __debug__:
        GATE.error("every check is an assert: run without -O")
    gate, args = parse_gate(argv)
    bounded_run(args, seconds=gate.seconds, mb=gate.mb)
    out = args[args.index("--out") + 1] if "--out" in args[:-1] else None
    if gate.labels:
        check_labels(out, source_labels(gate.labels[0], int(gate.labels[1])))
    if gate.sha256:
        digest = hashlib.sha256(Path(out).read_bytes()).hexdigest()
        assert digest == gate.sha256, f"{out}: sha256 {digest}, not {gate.sha256}"
        print(f"{out}: OK")


if __name__ == "__main__":
    main(sys.argv[1:])
