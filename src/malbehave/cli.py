"""Command-line front end: profile parsing through grouping, classification,
scoring, and corpus synthesis. Every subcommand is a pure function of its
input files, flags, and seed; outputs are machine-readable (JSON, CSV,
Newick) and byte-identical across reruns."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import signal
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable

from .characteristics import (
    EnduranceConfig,
    characteristics_from_report,
    characteristics_report,
    classify,
    distinct_characteristics,
)
from .pcs import (
    EngineLabelTable,
    grouping_to_labels,
    pcs_report,
    text_mining_grouping,
)
from .phylo import Grouping, cut_tree, to_newick, upgma
from .profile import (
    INPUT_ERRORS,
    ElementSet,
    FeatureConfig,
    _Walk,
    _call_elements,
    _profile_calls,
    _walk_profile,
    corpus_paths,
    read_input,
    typed,
)
from .similarity import DistanceMatrix, jaccard_matrix
from .synth import CorpusSpec, generate_corpus, write_corpus


# RunConfig annotation -> accepted value types.
_FIELD_TYPES = {"bool": (bool,), "int": (int,), "float": (int, float), "int | None": (int, type(None))}

# The RunConfig keys that make up a FeatureConfig.
_FEATURE_KEYS = {field.name for field in dataclasses.fields(FeatureConfig)}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one invocation.

    Precedence: built-in defaults, then the --config file, then (for
    classify) the training settings echoed in the characteristics file,
    then explicit command-line flags.
    """

    with_params: bool = True
    ngram_n: int = 1
    normalize_paths: bool = True
    include_return: bool = True
    threshold: float = 0.5
    alpha: float = 0.1
    min_score: float = 0.5
    tm_threshold: float = 0.7
    size_weighted: bool = False
    seed: int | None = None

    def __post_init__(self):
        # Config files are untrusted: check types before any comparison.
        for field in dataclasses.fields(self):
            typed(getattr(self, field.name), field.name, *_FIELD_TYPES[field.type])
        # Delegate range validation to the owning modules before any work starts.
        self.feature()
        self.endurance()
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold!r}")
        if not 0.0 <= self.tm_threshold <= 1.0:
            raise ValueError(f"tm_threshold must be in [0, 1], got {self.tm_threshold!r}")

    def feature(self) -> FeatureConfig:
        return FeatureConfig(**{key: getattr(self, key) for key in _FEATURE_KEYS})

    def endurance(self) -> EnduranceConfig:
        return EnduranceConfig(alpha=self.alpha, min_score=self.min_score)


_CONFIG_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}


def _settings(values, what: str, keys: set[str] = _CONFIG_FIELDS) -> dict:
    """values, checked to be an object of valid settings under keys. Called
    where a file is read, so that an error names the file."""
    unknown = sorted(set(typed(values, what, dict)) - keys)
    if unknown:
        raise ValueError(f"{what} has unknown keys {unknown}")
    RunConfig(**values)
    return values


def _resolve_config(args: argparse.Namespace, overrides: dict | None = None) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(read_input(args.config, lambda text: _settings(json.loads(text), "config file")))
    values.update(overrides or {})
    flags = vars(args)
    values.update((key, flags[key]) for key in _CONFIG_FIELDS & flags.keys() if flags[key] is not None)
    return RunConfig(**values)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _fork_chunk(work: Callable[[list[Path]], list], chunk: list[Path]) -> tuple[int, BinaryIO]:
    """The pid and the pipe's read end of a forked worker that sends back
    the pickled (True, work(chunk)) or (False, exception) and exits."""
    # Only the fork path imports pickle: the module adds about 0.2 MB to
    # the RSS of a process.
    import pickle

    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        # The worker never returns into the caller's stack, and os._exit
        # flushes no stdio buffer it inherited.
        status = 1
        try:
            os.close(read_end)
            try:
                payload = pickle.dumps((True, work(chunk)), pickle.HIGHEST_PROTOCOL)
            except BaseException as exc:  # an interrupt too: the caller raises it
                payload = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as stream:
                stream.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, open(read_end, "rb")


def _worker_result(payload: bytes, status: int, chunk: list[Path]) -> list:
    """A reaped worker's result, or its error raised here."""
    import pickle  # see _fork_chunk

    if status or not payload:
        code = os.waitstatus_to_exitcode(status)
        how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
        raise ChildProcessError(f"{chunk[0]}..{chunk[-1].name}: worker process ended without a result ({how})")
    ok, value = pickle.loads(payload)
    if not ok:
        raise value
    return value


# A fork, its worker's exit and the copy-on-write faults it causes cost about
# 4-5 ms on a 2-vCPU host: the parse time of 150-200 KB of profile XML,
# whether the files are 3 KB or 58 KB each. So each chunk must hold at least
# _CHUNK_BYTES of files. The fan-out was measured at two processes only.
_CHUNK_BYTES = 128 << 10
_MAX_CHUNKS = 2
# A cgroup v2 CPU quota, "QUOTA PERIOD" or "max PERIOD", as a container sees it.
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")


def _cpu_count() -> int:
    """The CPUs this process may run on, lowered to its cgroup's CPU quota."""
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return 1
    cpus = len(os.sched_getaffinity(0))
    try:
        quota, period = _CPU_MAX.read_text().split()
        cpus = min(cpus, max(1, int(quota) // int(period)))
    except (OSError, ValueError):  # no cgroup v2 file, or no quota ("max")
        pass
    return cpus


def _chunk_count(paths: list[Path]) -> int:
    """How many chunks to split paths into: one per usable CPU, at most
    _MAX_CHUNKS, and at most one per _CHUNK_BYTES of files."""
    count = min(_cpu_count(), _MAX_CHUNKS, len(paths))
    if count < 2:
        return 1
    size = 0
    for path in paths:
        if size >= count * _CHUNK_BYTES:
            break
        try:
            size += os.stat(path).st_size
        except OSError:  # the reader reports it, in name order
            return 1
    return max(1, min(count, size // _CHUNK_BYTES))


def _map_corpus(work: Callable[[list[Path]], list], paths: list[Path]) -> list:
    """work(chunk) over contiguous chunks of paths, joined in path order.

    The first chunk is worked here while a forked worker works each other
    one (see _chunk_count). Each chunk stops at its first error, so the
    first failing chunk holds the first failing path, and its error (class,
    message, fields) is the one raised, as if work(paths) had run here.
    With one chunk, or in a process with other threads, which a fork would
    not copy, work(paths) runs here. When a fork fails (no process or no
    memory left for a worker), the chunks without a worker are worked here
    after the workers' results.
    """
    count = 1 if threading.active_count() > 1 else _chunk_count(paths)
    if count < 2:
        return work(paths)
    bounds = [len(paths) * k // count for k in range(count + 1)]
    chunks = [paths[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    pending = []  # (pid, read end) of each worker not yet reaped, in chunk order
    try:
        for chunk in chunks[1:]:
            try:
                pending.append(_fork_chunk(work, chunk))
            except OSError:  # EAGAIN, ENOMEM: the command still needs no worker
                break
        forked = 1 + len(pending)  # chunks[1:forked] have a worker
        results = work(chunks[0])
        for chunk in chunks[1:forked]:
            pid, stream = pending[0]
            with stream:
                payload = stream.read()
            _, status = os.waitpid(pid, 0)
            del pending[0]
            results += _worker_result(payload, status, chunk)
        for chunk in chunks[forked:]:
            results += work(chunk)
        return results
    finally:
        # After an error the workers left are not waited for: one may still
        # be parsing, or blocked writing a result larger than the pipe
        # buffer. Each is killed, then reaped.
        for pid, stream in pending:
            stream.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _corpus_matrix(path: str, config: RunConfig) -> tuple[dict[str, ElementSet], DistanceMatrix]:
    """The corpus's element set per label and their distance matrix, from
    one tokenization. Each process walks its profiles to their call keys
    and tokenizes them one at a time, so only their element sets are kept."""
    sources = corpus_paths(path)
    labels = [source.stem for source in sources]
    feature = config.feature()

    def chunk_elements(chunk: list[Path]) -> list[ElementSet]:
        return _call_elements((read_input(source, _profile_calls) for source in chunk), feature)

    element_sets = _map_corpus(chunk_elements, sources)
    return dict(zip(labels, element_sets)), jaccard_matrix(element_sets, labels)


def _summary(label: str, walk: _Walk) -> str:
    parent = f" parent={walk.parent_hash}" if walk.parent_hash else ""
    return (
        f"{label}: hash={walk.hash} pid={walk.process_id} "
        f"duration={walk.duration_seconds}s events={len(walk.calls)}{parent}"
    )


def _summaries(sources: list[Path]) -> list[str]:
    return [_summary(source.stem, read_input(source, _walk_profile)) for source in sources]


def _cmd_parse(args: argparse.Namespace) -> int:
    # Each profile is walked (every parse_profile check, no event built),
    # summarized and dropped before the next is read; the summaries are
    # written only once every file has parsed. A path that is not a
    # directory is a profile file if it exists or is named *.xml; any other
    # is a corpus directory, which corpus_paths names when it is missing.
    lines = []
    for path in map(Path, args.paths):
        if not path.is_dir() and (path.exists() or path.suffix.lower() == ".xml"):
            lines += _summaries([path])
        else:
            lines += _map_corpus(_summaries, corpus_paths(path))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_distmat(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _, matrix = _corpus_matrix(args.corpus, config)
    _emit(matrix.to_csv(), args.out)
    return 0


def _cmd_tree(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    source = Path(args.input)
    csv_matrix = source.suffix.lower() == ".csv"
    if source.is_dir() or not (csv_matrix or source.exists()):
        # corpus_paths names a missing path.
        _, matrix = _corpus_matrix(args.input, config)
    elif csv_matrix:
        matrix = read_input(source, DistanceMatrix.from_csv)
    else:
        raise ValueError(f"tree input must be a corpus directory or a .csv matrix, got {args.input}")
    tree = upgma(matrix, size_weighted=config.size_weighted)
    _emit(to_newick(tree) + "\n", args.out)
    return 0


def _cmd_groups(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    _, matrix = _corpus_matrix(args.corpus, config)
    tree = upgma(matrix, size_weighted=config.size_weighted)
    _emit(cut_tree(tree, config.threshold).to_json(), args.out)
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    members, matrix = _corpus_matrix(args.corpus, config)
    tree = upgma(matrix, size_weighted=config.size_weighted)
    grouping = cut_tree(tree, config.threshold)
    chars = distinct_characteristics(tree, grouping, members, config.endurance())
    document = {
        "threshold": config.threshold,
        "alpha": config.alpha,
        "min_score": config.min_score,
        "feature": dataclasses.asdict(config.feature()),
        "groups": characteristics_report(chars, grouping, include_sets=True),
    }
    _emit(json.dumps(document, indent=2) + "\n", args.out)
    return 0


def _read_characteristics(text: str) -> tuple[dict, dict]:
    """The training settings a characteristics file echoes, and its groups."""
    document = typed(json.loads(text), "characteristics file", dict)
    feature = _settings(document.get("feature"), "feature block", _FEATURE_KEYS)
    settings = {"alpha": document.get("alpha"), "min_score": document.get("min_score"), **feature}
    return _settings(settings, "characteristics file"), characteristics_from_report(document.get("groups"))


def _cmd_classify(args: argparse.Namespace) -> int:
    overrides, chars = read_input(args.characteristics, _read_characteristics)
    config = _resolve_config(args, overrides)
    calls = read_input(args.profile, _profile_calls)
    [elements] = _call_elements((calls,), config.feature())
    result = classify(elements, chars, config.endurance())
    _emit(("none" if result is None else str(result)) + "\n", args.out)
    return 0


def _cmd_pcs(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    csv_table = Path(args.table).suffix.lower() == ".csv"
    table = read_input(args.table, EngineLabelTable.from_csv if csv_table else EngineLabelTable.from_json)
    if args.normalize:
        table = table.normalized()

    def overlapping_grouping(text: str) -> Grouping:
        grouping = Grouping.from_json(text)
        if grouping.labels.isdisjoint(table.malware_ids):
            raise ValueError("no grouping label is a malware id of the label table")
        return grouping

    def text_mining(text: str):
        descriptions = typed(json.loads(text), "descriptions", dict)
        for malware_id in table.malware_ids:
            if malware_id not in descriptions:
                raise ValueError(f"no description for malware id {malware_id!r} of the label table")
        return text_mining_grouping(descriptions, threshold=config.tm_threshold)

    if args.inject_grouping:
        grouping = read_input(args.inject_grouping, overlapping_grouping)
        table = table.with_engine(args.inject_name, grouping_to_labels(grouping))
    extras = [("Text_Mining", read_input(args.text_mining, text_mining))] if args.text_mining else []
    report = pcs_report(table, extras)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    spec = read_input(args.spec, CorpusSpec.from_json)
    if config.seed is not None:
        spec = dataclasses.replace(spec, seed=config.seed)
    labeled, truth = generate_corpus(spec)
    write_corpus(args.out, labeled, truth)
    sys.stdout.write(f"wrote {len(labeled)} profiles to {args.out}\n")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file with RunConfig keys")
    parser.add_argument("--out", help="output path (default: stdout)")


def _add_feature_flags(parser: argparse.ArgumentParser) -> None:
    # Each flag is stored under its RunConfig key, None when not given.
    parser.add_argument(
        "--ngram", dest="ngram_n", metavar="NGRAM", type=int, help="n-gram window length (default 1)"
    )
    parser.add_argument(
        "--no-params", dest="with_params", action="store_const", const=False, help="tokenize API names only"
    )
    parser.add_argument(
        "--no-return",
        dest="include_return",
        action="store_const",
        const=False,
        help="drop return values from tokens",
    )


def _add_tree_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--size-weighted",
        action="store_const",
        const=True,
        help="use the cluster-size-weighted distance update instead of the plain average",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malbehave",
        description="Group API-call behavior profiles into families and score groupings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate profiles and print summaries")
    p.add_argument("paths", nargs="+", help="profile XML files or corpus directories")
    _add_common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("distmat", help="corpus directory -> distance matrix CSV")
    p.add_argument("corpus", help="corpus directory of profile XML files")
    _add_feature_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_distmat)

    p = sub.add_parser("tree", help="corpus directory or matrix CSV -> Newick tree")
    p.add_argument("input", help="corpus directory or distance-matrix .csv")
    _add_feature_flags(p)
    _add_tree_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("groups", help="corpus + threshold -> grouping JSON")
    p.add_argument("corpus")
    p.add_argument("--threshold", type=float, default=None, help="tree cut distance (default 0.5)")
    _add_feature_flags(p)
    _add_tree_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_groups)

    p = sub.add_parser("characterize", help="corpus -> per-group characteristics JSON")
    p.add_argument("corpus")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None, help="endurance fraction (default 0.1)")
    p.add_argument("--min-score", dest="min_score", type=float, default=None)
    _add_feature_flags(p)
    _add_tree_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("classify", help="characteristics JSON + profile XML -> group id or 'none'")
    p.add_argument("characteristics")
    p.add_argument("profile")
    p.add_argument("--min-score", dest="min_score", type=float, default=None)
    _add_feature_flags(p)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pcs", help="engine label table -> pairwise classification score report")
    p.add_argument("table", help="label table (.json or .csv; empty CSV cell = not detected)")
    p.add_argument("--normalize", action="store_true", help="normalize detection strings to family names")
    p.add_argument("--inject-grouping", help="grouping JSON to add as a synthetic engine column")
    p.add_argument("--inject-name", default="grouping", help="engine name for the injected grouping")
    p.add_argument("--text-mining", help="JSON map of malware id -> text description")
    p.add_argument("--tm-threshold", dest="tm_threshold", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_pcs)

    p = sub.add_parser("synth", help="corpus spec JSON -> corpus directory + ground truth")
    p.add_argument("spec", help="corpus spec JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--config", help="JSON config file with RunConfig keys")
    p.add_argument("--out", required=True, help="output corpus directory")
    p.set_defaults(func=_cmd_synth)

    return parser


# The grammar main parses with, built once per process: parse_args leaves a
# parser unchanged (each call fills a new Namespace), so one serves every call.
_shared_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*INPUT_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
