"""Timed passes over one workload's inputs, run in a process of its own.

Usage: python3 perfbench/worker.py INPUT_DIR SECONDS TRACE RESULT_JSON

INPUT_DIR holds the files and ``manifest.json`` that ``workloads.build``
wrote. The worker repeats untraced passes through ``malbehave.cli.main``
for SECONDS (and at least MIN_PASSES times); with TRACE=1 it alternates
them with traced passes that call the same layers through their public
functions inside spans. Every pass is bracketed by the calibration suite
(calibrate.py), and every pass is checked; the result goes to
RESULT_JSON. Running in a fresh process keeps set-up memory out of the
peak RSS; paths given to the program are relative to INPUT_DIR, so its
output bytes do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from malbehave import (  # noqa: E402
    EngineLabelTable,
    EnduranceConfig,
    FeatureConfig,
    Grouping,
    ProfileError,
    characteristics_from_report,
    characteristics_report,
    classify,
    cut_tree,
    distance_matrix,
    distinct_characteristics,
    extract_elements,
    grouping_to_labels,
    parse_profile,
    pcs_report,
    read_corpus,
    text_mining_grouping,
    to_newick,
    upgma,
)
from malbehave.cli import RunConfig, build_parser  # noqa: E402
from malbehave.cli import main as cli_main  # noqa: E402

from calibrate import Calibrated  # noqa: E402
from spans import Tracer  # noqa: E402

MIN_PASSES = 11  # 11 x 100 requests leave 11 samples beyond classify p99
_NEWICK_LEAF = re.compile(r"(?<=[(,])([^(),:;]+):")


def run_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """(exit status, stdout, stderr) of one in-process CLI call. An
    exception escaping main() gives status None and the traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli_main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed check, not a benchmark error
            status = None
            traceback.print_exc()
    return status, out.getvalue(), err.getvalue()


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rand(groups_a, groups_b) -> float:
    """Rand index of two partitions of the same labels, from pair counts."""
    of_a = {label: k for k, group in enumerate(groups_a) for label in group}
    of_b = {label: k for k, group in enumerate(groups_b) for label in group}
    if set(of_a) != set(of_b):
        raise ValueError("partitions cover different labels")
    labels = sorted(of_a)

    def pairs(keys) -> int:
        return sum(c * (c - 1) // 2 for c in Counter(keys).values())

    total = len(labels) * (len(labels) - 1) // 2
    same_a = pairs(of_a[x] for x in labels)
    same_b = pairs(of_b[x] for x in labels)
    same_both = pairs((of_a[x], of_b[x]) for x in labels)
    return (total + 2 * same_both - same_a - same_b) / total if total else 1.0


def covers_once(groups, labels) -> bool:
    members = [label for group in groups for label in group]
    return len(members) == len(set(members)) and set(members) == set(labels)


class Workload:
    """One workload's untraced and traced pass, with their checks.

    ``attempted`` and ``failed`` count checked operations: one per pass,
    so a request stream with any failed request is one failed pass.
    ``digests`` collects the sha256 of every pass's output, which must be
    one value per run.
    """

    def __init__(self, manifest: dict):
        self.manifest = manifest
        self.attempted = 0
        self.failed = 0
        self.digests: set[str] = set()
        self.quality: dict[str, float] = {}

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


class Cluster(Workload):
    def __init__(self, manifest: dict):
        super().__init__(manifest)
        corpus = Path(manifest["corpus"])
        self.corpus = str(corpus)
        self.labels = sorted(path.stem for path in corpus.glob("*.xml"))
        self.truth = Grouping.from_json((corpus / "ground_truth.json").read_text(encoding="utf-8")).groups
        self.bytes = sum(path.stat().st_size for path in corpus.glob("*.xml"))
        self.threshold = manifest["threshold"]

    def _argv(self) -> list[str]:
        return ["characterize", self.corpus, "--threshold", str(self.threshold)]

    def untraced(self) -> None:
        status, out, err = run_cli(self._argv())
        ok = status == 0 and not err
        if ok:
            groups = [row["members"] for row in json.loads(out)["groups"]]
            ok = covers_once(groups, self.labels)
        self.digests.add(digest(out))
        self.check(ok)

    def traced(self, tracer: Tracer) -> None:
        defaults = RunConfig()
        config, endurance = defaults.feature(), defaults.endurance()
        with tracer.span("cli.characterize"):
            args = build_parser().parse_args(self._argv())
            with tracer.span("profile.read_corpus"):
                labeled = read_corpus(args.corpus)
            labels = [label for label, _ in labeled]
            profiles = [profile for _, profile in labeled]
            with tracer.span("similarity.distance_matrix"):
                matrix = distance_matrix(profiles, config, labels)
            with tracer.span("phylo.upgma"):
                tree = upgma(matrix)
            with tracer.span("phylo.cut_tree"):
                grouping = cut_tree(tree, args.threshold)
            members = {}
            for label, profile in labeled:
                with tracer.span("profile.extract_elements"):
                    members[label] = extract_elements(profile, config)
            with tracer.span("characteristics.distinct_characteristics"):
                chars = distinct_characteristics(tree, grouping, members, endurance)
            with tracer.span("characteristics.characteristics_report"):
                rows = characteristics_report(chars, grouping, include_sets=True)
            document = {
                "threshold": args.threshold,
                "alpha": endurance.alpha,
                "min_score": endurance.min_score,
                "feature": {
                    "with_params": config.with_params,
                    "ngram_n": config.ngram_n,
                    "normalize_paths": config.normalize_paths,
                    "include_return": config.include_return,
                },
                "groups": rows,
            }
            text = json.dumps(document, indent=2) + "\n"
        # Diagnostics the CLI pass does not compute: their own root spans,
        # so they stay out of the traced pass time.
        with tracer.span("phylo.cut_tree"):
            coarse = cut_tree(tree, 0.5)
        with tracer.span("phylo.to_newick"):
            newick = to_newick(tree)

        n = len(labels)
        tracer.count("profile.profiles", n)
        tracer.count("profile.events", sum(len(p.events) for p in profiles))
        tracer.count("profile.bytes", self.bytes)
        tracer.count("profile.vocab", len(frozenset().union(*members.values())))
        tracer.count("similarity.pairs", n * (n - 1) // 2)
        tracer.count("phylo.merges", len(tree.nodes) - n)
        tracer.count("phylo.groups_t05", len(coarse.groups))
        tracer.count("phylo.groups_t07", len(grouping.groups))
        tracer.count("characteristics.distinct_tokens", sum(len(c.distinct) for c in chars.values()))
        self.quality["phylo.rand_t05"] = rand(coarse.groups, self.truth)
        self.quality["phylo.rand_t07"] = rand(grouping.groups, self.truth)
        self.digests.add(digest(text))
        self.check(
            covers_once(grouping.groups, self.labels)
            and sorted(_NEWICK_LEAF.findall(newick)) == self.labels
        )


class ClassifyStream(Workload):
    def __init__(self, manifest: dict):
        super().__init__(manifest)
        self.chars_path = manifest["characteristics"]
        self.stream = [tuple(item) for item in manifest["stream"]]
        document = json.loads(Path(self.chars_path).read_text(encoding="utf-8"))
        self.group_ids = {str(row["id"]) for row in document["groups"]}
        self.pass_latencies_ms: list[float] = []
        self.correct = 0
        self.well_formed = 0

    def _outcome(self, expect: str, status, out: str, err: str) -> tuple[str, bool]:
        """Answer of one request (a group id, 'none' or 'error') and
        whether the request passed its check."""
        if expect == "error":
            lines = err.splitlines()
            ok = status == 1 and not out and len(lines) == 1 and lines[0].startswith("error:")
            return "error", ok and "Traceback" not in err
        answer = out.strip()
        self.well_formed += 1
        self.correct += answer == expect
        return answer, status == 0 and not err and answer in self.group_ids | {"none"}

    def untraced(self) -> None:
        answers = []
        passed = True
        self.well_formed = self.correct = 0
        self.pass_latencies_ms = []
        for path, expect in self.stream:
            started = time.perf_counter()
            status, out, err = run_cli(["classify", self.chars_path, path])
            self.pass_latencies_ms.append((time.perf_counter() - started) * 1000)
            answer, ok = self._outcome(expect, status, out, err)
            answers.append(answer)
            passed = passed and ok
        self.quality["characteristics.classify_accuracy"] = self.correct / self.well_formed
        self.digests.add(digest("\n".join(answers)))
        self.check(passed)

    def traced(self, tracer: Tracer) -> None:
        answers = []
        passed = True
        for path, expect in self.stream:
            with tracer.span("cli.classify"):
                args = build_parser().parse_args(["classify", self.chars_path, path])
                document = json.loads(Path(args.characteristics).read_text(encoding="utf-8"))
                feature = FeatureConfig(**document["feature"])
                endurance = EnduranceConfig(alpha=document["alpha"], min_score=document["min_score"])
                with tracer.span("characteristics.characteristics_from_report"):
                    chars = characteristics_from_report(document["groups"])
                text = Path(args.profile).read_text(encoding="utf-8")
                try:
                    with tracer.span("profile.parse_profile"):
                        profile = parse_profile(text)
                except ProfileError:
                    tracer.count("profile.rejected")
                    answers.append("error")
                    passed = passed and expect == "error"
                    continue
                with tracer.span("profile.extract_elements"):
                    elements = extract_elements(profile, feature)
                with tracer.span("characteristics.classify"):
                    result = classify(elements, chars, endurance)
            answer = "none" if result is None else str(result)
            tracer.count("characteristics.unclassified", result is None)
            tracer.count("profile.profiles")
            tracer.count("profile.events", len(profile.events))
            tracer.count("profile.bytes", len(text.encode("utf-8")))
            answers.append(answer)
            passed = passed and answer in self.group_ids | {"none"}
        self.digests.add(digest("\n".join(answers)))
        self.check(passed)


class PcsVote(Workload):
    def __init__(self, manifest: dict):
        super().__init__(manifest)
        self.engines = sorted(manifest["engines"])

    def _argv(self) -> list[str]:
        m = self.manifest
        return ["pcs", m["table"], "--normalize", "--inject-grouping", m["grouping"], "--text-mining", m["descriptions"]]

    def _rows_ok(self, rows) -> bool:
        return sorted(row["engine"] for row in rows) == self.engines and all(
            0.0 <= row["pcs"] <= 2.0 for row in rows
        )

    def untraced(self) -> None:
        status, out, err = run_cli(self._argv())
        self.digests.add(digest(out))
        self.check(status == 0 and not err and self._rows_ok(json.loads(out)))

    def traced(self, tracer: Tracer) -> None:
        with tracer.span("cli.pcs"):
            args = build_parser().parse_args(self._argv())
            text = Path(args.table).read_text(encoding="utf-8")
            with tracer.span("pcs.from_json"):
                table = EngineLabelTable.from_json(text)
            with tracer.span("pcs.normalized"):
                table = table.normalized()
            grouping = Grouping.from_json(Path(args.inject_grouping).read_text(encoding="utf-8"))
            with tracer.span("pcs.with_engine"):
                table = table.with_engine(args.inject_name, grouping_to_labels(grouping))
            descriptions = json.loads(Path(args.text_mining).read_text(encoding="utf-8"))
            with tracer.span("pcs.text_mining_grouping"):
                extras = [("Text_Mining", text_mining_grouping(descriptions, threshold=RunConfig().tm_threshold))]
            with tracer.span("pcs.pcs_report"):
                rows = pcs_report(table, extras)
            out = json.dumps(rows, indent=2) + "\n"
        engines = len(table.engines) + len(extras)
        tracer.count("pcs.engines", engines)
        tracer.count("pcs.sample_pairs", table.sample_count * (table.sample_count - 1) // 2)
        tracer.count("pcs.approvals", engines * engines)
        self.digests.add(digest(out))
        self.check(self._rows_ok(rows))


KINDS = {"cluster": Cluster, "classify": ClassifyStream, "pcs": PcsVote}


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def main(argv: list[str]) -> int:
    input_dir, seconds, traced, result_path = Path(argv[0]), float(argv[1]), argv[2] == "1", Path(argv[3]).resolve()
    os.chdir(input_dir)
    manifest = json.loads(Path("manifest.json").read_text(encoding="utf-8"))
    workload = KINDS[manifest["kind"]](manifest)

    wall_s: list[float] = []
    adjusted_s: list[float] = []
    latencies_ms: list[float] = []
    traced_layers: list[dict[str, float]] = []
    last_tracer = None
    clock = Calibrated()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(wall_s) < MIN_PASSES:
        wall, factor = clock.time(workload.untraced)
        wall_s.append(wall)
        adjusted_s.append(wall * factor)
        if isinstance(workload, ClassifyStream):
            latencies_ms.extend(ms * factor for ms in workload.pass_latencies_ms)
        if traced:
            last_tracer = Tracer()
            _, factor = clock.time(lambda: workload.traced(last_tracer))
            traced_layers.append(pass_layers(last_tracer, factor))

    workload.check(len(workload.digests) == 1)
    result = {
        "attempted": workload.attempted,
        "failed": workload.failed,
        "digest": sorted(workload.digests),
        "pass_s": wall_s,
        # Host-speed-adjusted pass time; the median over the run.
        "run_s": statistics.median(adjusted_s),
        "wall_run_s": statistics.median(wall_s),
        "suite_s": statistics.median(clock.suites),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "quality": workload.quality,
    }
    if latencies_ms:
        result["latency_ms"] = {
            "samples": len(latencies_ms),
            "p50": percentile(latencies_ms, 0.50),
            "p99": percentile(latencies_ms, 0.99),
        }
    if traced:
        layers = {name: statistics.median(p[name] for p in traced_layers) for name in traced_layers[0]}
        layers["trace.overhead_s"] = layers["cli.traced_pass_s"] - result["run_s"]
        layers.update({name: float(value) for name, value in last_tracer.counts.items()})
        result["layers"] = layers
        last_tracer.write(result_path.with_name(result_path.stem + ".spans.json"))
    result_path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


def pass_layers(tracer: Tracer, factor: float) -> dict[str, float]:
    """Per-layer seconds of one traced pass, scaled by the pass's
    host-speed factor: each call's total, each layer's self time, and the
    pass itself (its cli.* root spans)."""
    totals: dict[str, float] = {}
    for _, _, _, name, start, end in tracer.spans:
        totals[name + "_s"] = totals.get(name + "_s", 0.0) + end - start
    roots = [end - start for _, parent, _, name, start, end in tracer.spans if parent is None and name.startswith("cli.")]
    totals["cli.traced_pass_s"] = sum(roots)
    totals.update({f"{layer}.self_s": value for layer, value in tracer.self_times().items()})
    totals = {name: value * factor for name, value in totals.items()}
    totals["trace.spans"] = float(len(tracer.spans))
    return totals


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
