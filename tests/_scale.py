"""Bounded runs of the malbehave CLI, for the CI scale jobs.

A step builds a seeded corpus with build_corpus, runs one command with
bounded_run, then checks its output with check_labels:

    PYTHONPATH=src:tests python - <<'EOF'
    from _scale import bounded_run, check_labels, corpus_labels

    bounded_run(["groups", "corpus", "--out", "g.json"], seconds=10, mb=95)
    check_labels("g.json", corpus_labels("corpus", 4548))
    EOF

Check each bound in a Python process of its own: RUSAGE_CHILDREN's peak is
the largest over every child the process has reaped, so a later run in the
same process is held to an earlier run's peak too.
"""

from __future__ import annotations

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
    digest. Prints synth's wall time."""
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


def corpus_labels(directory: str, count: int) -> list[str]:
    """The labels of the count profiles in directory."""
    labels = [path.stem for path in Path(directory).glob("*.xml")]
    assert len(labels) == count, len(labels)
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
