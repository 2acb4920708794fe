"""Command-line front end: profile parsing through grouping, classification,
scoring, and corpus synthesis. Every subcommand is a pure function of its
input files, flags, and seed; outputs are machine-readable (JSON, CSV,
Newick) and byte-identical across reruns."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import signal
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NoReturn

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

    Built-in defaults, overridden by the command-line flags that were
    given. classify reads its settings from its model, whose min_score
    --min-score overrides.
    """

    with_params: bool = FeatureConfig.with_params
    ngram_n: int = FeatureConfig.ngram_n
    normalize_paths: bool = FeatureConfig.normalize_paths
    include_return: bool = FeatureConfig.include_return
    threshold: float = 0.5
    alpha: float = EnduranceConfig.alpha
    min_score: float = EnduranceConfig.min_score
    tm_threshold: float = 0.7
    size_weighted: bool = False
    seed: int | None = None

    def __post_init__(self):
        # Model files are untrusted: check types before any comparison.
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


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    flags = vars(args)
    return RunConfig(**{key: flags[key] for key in _CONFIG_FIELDS & flags.keys() if flags[key] is not None})


def _usage_error(args: argparse.Namespace, message: str) -> NoReturn:
    """Exit 2 under the subcommand's usage line, as argparse does for an option it refuses."""
    _grammar()[1][args.command].error(message)


def _emit(text: str, out: str | None) -> None:
    # In slices, so that no encoded copy of the whole text is made.
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext(sys.stdout) as stream:
        for start in range(0, len(text), 1 << 20):
            stream.write(text[start : start + (1 << 20)])


# A fork, its worker's exit and the copy-on-write faults it causes cost about
# 4-5 ms on a 2-vCPU host: the parse time of 150-200 KB of profile XML,
# whether the files are 3 KB or 58 KB each. So a corpus is split in two
# halves only when it holds at least 2 * _CHUNK_BYTES of files, and only
# between two processes: no other fan-out was measured.
_CHUNK_BYTES = 128 << 10
# A cgroup v2 CPU quota, "QUOTA PERIOD" or "max PERIOD", as a container sees it.
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")
# The cgroup v1 CPU controller: a quota in cpu.cfs_quota_us, -1 for none,
# per period in cpu.cfs_period_us.
_CPU_CFS = Path("/sys/fs/cgroup/cpu")


def _cpu_count() -> int:
    """The CPUs this process may run on, lowered to its cgroup v2 and v1
    CPU quotas."""
    if not hasattr(os, "sched_getaffinity"):  # not Linux
        return 1
    cpus = len(os.sched_getaffinity(0))
    for files in ((_CPU_MAX,), (_CPU_CFS / "cpu.cfs_quota_us", _CPU_CFS / "cpu.cfs_period_us")):
        try:
            # v2 holds both numbers in one file, v1 one number per file.
            quota, period = map(int, " ".join(path.read_text() for path in files).split())
        except (OSError, ValueError):  # no such file, or no quota ("max")
            continue
        if quota > 0 and period > 0:  # v1 writes -1 for no quota
            cpus = min(cpus, max(1, quota // period))
    return cpus


def _forks(paths: list[Path]) -> bool:
    """Whether to fork a worker for half of paths: only with two usable
    CPUs, two files, and at least 2 * _CHUNK_BYTES of files."""
    if _cpu_count() < 2 or len(paths) < 2:
        return False
    size = 0
    for path in paths:
        try:
            size += os.stat(path).st_size
        except OSError:  # the reader reports it, in name order
            return False
        if size >= 2 * _CHUNK_BYTES:
            return True
    return False


def _map_corpus(work: Callable[[list[Path]], list], paths: list[Path]) -> list:
    """work(paths), with the second half of paths worked in a forked worker.

    This process works the first half while the worker (see _forks) works
    the second, and the two results are joined in path order. The worker
    sends back its pickled result, or nothing: on any error it exits
    non-zero. A half the worker does not return, because it failed, died
    or sent nothing, is worked here. So this process's first error comes
    first, then that of the second half, and the result or the error raised
    (class, message, fields) is the one work(paths) would give here. When
    _forks says no, or in a process with other threads, which a fork would
    not copy, work(paths) runs here, as it does when the fork fails (no
    process or no memory left for it).
    """
    if threading.active_count() > 1 or not _forks(paths):
        return work(paths)
    # Only the fork path imports pickle: the module adds about 0.2 MB to the
    # RSS of a process.
    import pickle

    half = len(paths) // 2
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # EAGAIN, ENOMEM: the command still needs no worker
        os.close(read_end)
        os.close(write_end)
        return work(paths)
    if pid == 0:
        # The worker never returns into the caller's stack, and os._exit
        # flushes no stdio buffer it inherited.
        status = 1
        try:
            os.close(read_end)
            payload = pickle.dumps(work(paths[half:]), pickle.HIGHEST_PROTOCOL)
            with open(write_end, "wb") as stream:
                stream.write(payload)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    with open(read_end, "rb") as stream:
        try:
            results = work(paths[:half])
            payload = stream.read()
        except BaseException:
            # The worker is not waited for: it may still be parsing, or be
            # blocked writing a result larger than the pipe buffer. It is
            # killed, then reaped.
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
    _, status = os.waitpid(pid, 0)
    if status or not payload:  # the worker failed, died or sent nothing
        return results + work(paths[half:])
    return results + pickle.loads(payload)


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


def _is_file(path: Path, suffix: str) -> bool:
    """Whether a command reads path as one file rather than as a corpus
    directory: path is not a directory, and it exists or is named *suffix.
    corpus_paths names any other path that is missing."""
    return not path.is_dir() and (path.exists() or path.suffix.lower() == suffix)


def _cmd_parse(args: argparse.Namespace) -> int:
    # Each profile is walked (every parse_profile check, no event built),
    # summarized and dropped before the next is read; the summaries are
    # written only once every file has parsed.
    lines = []
    for path in map(Path, args.paths):
        if _is_file(path, ".xml"):
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
    source = Path(args.input)
    matrix_csv = not source.is_dir() and source.suffix.lower() == ".csv"
    if matrix_csv and any(vars(args).get(key) is not None for key in _FEATURE_KEYS):
        _usage_error(args, "--ngram, --no-params and --no-return apply to a corpus directory, not a matrix .csv")
    config = _resolve_config(args)
    if matrix_csv:
        matrix = read_input(source, DistanceMatrix.from_csv)
    elif _is_file(source, ".csv"):
        raise ValueError(f"tree input must be a corpus directory or a .csv matrix, got {args.input}")
    else:
        _, matrix = _corpus_matrix(args.input, config)
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


# A process that classifies many profiles against one model (a service
# calling main per request) decodes and checks the file once: the memo keeps
# the last text read and its result. The file is still read on every call,
# so a changed file is parsed and checked again; an error is never kept.
# Both results are shared by every call with that text, so the settings are
# frozen and the groups a read-only view.
@functools.lru_cache(maxsize=1)
def _read_characteristics(text: str) -> tuple[RunConfig, Mapping]:
    """The training settings a characteristics file echoes, and its groups."""
    document = typed(json.loads(text), "characteristics file", dict)
    feature = typed(document.get("feature"), "feature block", dict)
    if feature.keys() != _FEATURE_KEYS:
        raise ValueError(f"feature block must have the keys {sorted(_FEATURE_KEYS)}, got {sorted(feature)}")
    config = RunConfig(**feature)  # checks the feature values before alpha and min_score
    config = dataclasses.replace(config, alpha=document.get("alpha"), min_score=document.get("min_score"))
    groups = characteristics_from_report(document.get("groups"))
    if not groups:
        raise ValueError("no group characteristics to classify against")
    return config, MappingProxyType(groups)


def _cmd_classify(args: argparse.Namespace) -> int:
    config, chars = read_input(args.characteristics, _read_characteristics)
    if args.min_score is not None:
        config = dataclasses.replace(config, min_score=args.min_score)
    calls = read_input(args.profile, _profile_calls)
    [elements] = _call_elements((calls,), config.feature())
    result = classify(elements, chars, config.endurance())
    _emit(("none" if result is None else str(result)) + "\n", args.out)
    return 0


def _cmd_pcs(args: argparse.Namespace) -> int:
    if args.tm_threshold is not None and not args.text_mining:
        _usage_error(args, "--tm-threshold applies only with --text-mining")
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
    # Profiles already there would be grouped with the new corpus, unnamed by its ground truth.
    if any(Path(args.out).glob("*.xml")):
        raise ValueError(f"{args.out}: already holds *.xml profiles; synth writes to a directory without them")
    labeled, truth = generate_corpus(spec)
    write_corpus(args.out, labeled, truth)
    sys.stdout.write(f"wrote {len(labeled)} profiles to {args.out}\n")
    return 0


def _path(value: str) -> str:
    """The argparse type of every path argument: an empty one names no file."""
    if not value:
        raise argparse.ArgumentTypeError("an empty path names no file")
    return value


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
    return _build_grammar()[0]


def _build_grammar() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="malbehave",
        description="Group API-call behavior profiles into families and score groupings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate profiles and print summaries")
    p.add_argument("paths", nargs="+", type=_path, help="profile XML files or corpus directories")
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("distmat", help="corpus directory -> distance matrix CSV")
    p.add_argument("corpus", type=_path, help="corpus directory of profile XML files")
    _add_feature_flags(p)
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_distmat)

    p = sub.add_parser("tree", help="corpus directory or matrix CSV -> Newick tree")
    p.add_argument("input", type=_path, help="corpus directory or distance-matrix .csv")
    _add_feature_flags(p)
    _add_tree_flags(p)
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("groups", help="corpus + threshold -> grouping JSON")
    p.add_argument("corpus", type=_path)
    p.add_argument("--threshold", type=float, default=None, help="tree cut distance (default 0.5)")
    _add_feature_flags(p)
    _add_tree_flags(p)
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_groups)

    p = sub.add_parser("characterize", help="corpus -> per-group characteristics JSON")
    p.add_argument("corpus", type=_path)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None, help="endurance fraction (default 0.1)")
    p.add_argument("--min-score", dest="min_score", type=float, default=None)
    _add_feature_flags(p)
    _add_tree_flags(p)
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_characterize)

    p = sub.add_parser("classify", help="characteristics JSON + profile XML -> group id or 'none'")
    p.add_argument("characteristics", type=_path)
    p.add_argument("profile", type=_path)
    p.add_argument("--min-score", dest="min_score", type=float, default=None)
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("pcs", help="engine label table -> pairwise classification score report")
    p.add_argument("table", type=_path, help="label table (.json or .csv; empty CSV cell = not detected)")
    p.add_argument("--normalize", action="store_true", help="normalize detection strings to family names")
    p.add_argument("--inject-grouping", type=_path, help="grouping JSON to add as a synthetic engine column")
    p.add_argument("--inject-name", default="grouping", help="engine name for the injected grouping")
    p.add_argument("--text-mining", type=_path, help="JSON map of malware id -> text description")
    p.add_argument("--tm-threshold", dest="tm_threshold", type=float, default=None)
    p.add_argument("--out", type=_path, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_pcs)

    p = sub.add_parser("synth", help="corpus spec JSON -> corpus directory + ground truth")
    p.add_argument("spec", type=_path, help="corpus spec JSON file")
    p.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    p.add_argument("--out", required=True, type=_path, help="output corpus directory")
    p.set_defaults(func=_cmd_synth)

    return parser, sub.choices


# The grammar main parses with, built once per process: parsing leaves a
# parser unchanged (each call fills a new Namespace), so one serves every call.
_grammar = functools.cache(_build_grammar)


def _error_text(exc: Exception) -> str:
    # Python's text for an OSError on a file puts the path last ("[Errno 2]
    # No such file or directory: 'x.csv'"); put it first, as every other
    # input error does.
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"{exc.filename}: {exc.strerror}"
    return str(exc)


def main(argv: list[str] | None = None) -> int:
    parser = _grammar()[0]
    args, extras = parser.parse_known_args(argv)
    if extras:
        # As parse_args would, but with the subcommand's usage and name.
        _usage_error(args, f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (*INPUT_ERRORS, OSError) as exc:
        print(f"error: {_error_text(exc)}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
