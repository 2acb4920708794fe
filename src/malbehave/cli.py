"""Command-line front end: profile parsing through grouping, classification,
scoring, and corpus synthesis. Every subcommand is a pure function of its
input files, flags, and seed; outputs are machine-readable (JSON, CSV,
Newick) and byte-identical across reruns."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

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
    ElementSet,
    FeatureConfig,
    ProfileError,
    corpus_elements,
    extract_elements,
    parse_profile,
    read_corpus,
    read_profile_text,
)
from .similarity import DistanceMatrix, jaccard_matrix
from .synth import CorpusSpec, generate_corpus, write_corpus


# RunConfig annotation -> accepted value types (bool is an int, so it is
# accepted only where the annotation says bool).
_FIELD_TYPES = {"bool": bool, "int": int, "float": (int, float), "int | None": (int, type(None))}

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
            value = getattr(self, field.name)
            if not isinstance(value, _FIELD_TYPES[field.type]) or (
                isinstance(value, bool) and field.type != "bool"
            ):
                raise ValueError(f"{field.name} must be {field.type}, got {value!r}")
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


def _load_config_file(path: str) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"config file {path}: must contain a JSON object")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ValueError(f"config file {path}: unknown keys {unknown}")
    return data


def _resolve_config(args: argparse.Namespace, overrides: dict | None = None) -> RunConfig:
    values = dataclasses.asdict(RunConfig())
    if getattr(args, "config", None):
        values.update(_load_config_file(args.config))
    if overrides:
        values.update(overrides)
    if getattr(args, "ngram", None) is not None:
        values["ngram_n"] = args.ngram
    if getattr(args, "no_params", False):
        values["with_params"] = False
    if getattr(args, "no_return", False):
        values["include_return"] = False
    if getattr(args, "size_weighted", False):
        values["size_weighted"] = True
    for flag in ("threshold", "alpha", "min_score", "tm_threshold", "seed"):
        value = getattr(args, flag, None)
        if value is not None:
            values[flag] = value
    return RunConfig(**values)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_labeled_profiles(path: str):
    source = Path(path)
    if source.is_dir():
        return read_corpus(source)
    return [(source.stem, parse_profile(read_profile_text(source)))]


def _corpus_matrix(path: str, config: RunConfig) -> tuple[dict[str, ElementSet], DistanceMatrix]:
    """The corpus's element set per label and their distance matrix, from
    one tokenization."""
    labeled = read_corpus(path)
    labels = [label for label, _ in labeled]
    element_sets = corpus_elements([profile for _, profile in labeled], config.feature())
    return dict(zip(labels, element_sets)), jaccard_matrix(element_sets, labels)


def _cmd_parse(args: argparse.Namespace) -> int:
    lines = []
    for path in args.paths:
        for label, profile in _load_labeled_profiles(path):
            parent = f" parent={profile.parent_hash}" if profile.parent_hash else ""
            lines.append(
                f"{label}: hash={profile.hash} pid={profile.process_id} "
                f"duration={profile.duration_seconds}s events={len(profile.events)}{parent}"
            )
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
    if source.is_dir():
        _, matrix = _corpus_matrix(args.input, config)
    elif source.suffix.lower() == ".csv":
        matrix = DistanceMatrix.from_csv(source.read_text(encoding="utf-8"))
    else:
        raise ValueError(f"{args.input}: expected a corpus directory or a .csv matrix")
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


def _cmd_classify(args: argparse.Namespace) -> int:
    document = json.loads(Path(args.characteristics).read_text(encoding="utf-8"))
    try:
        feature = document["feature"]
        if not isinstance(feature, dict) or set(feature) - _FEATURE_KEYS:
            raise ValueError(f"{args.characteristics}: invalid feature block {feature!r}")
        overrides = {"alpha": document["alpha"], "min_score": document["min_score"], **feature}
        rows = document["groups"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{args.characteristics}: not a characteristics file ({exc})") from None
    config = _resolve_config(args, overrides)
    chars = characteristics_from_report(rows)
    profile = parse_profile(read_profile_text(args.profile))
    elements = extract_elements(profile, config.feature())
    result = classify(elements, chars, config.endurance())
    _emit(("none" if result is None else str(result)) + "\n", args.out)
    return 0


def _cmd_pcs(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    source = Path(args.table)
    text = source.read_text(encoding="utf-8")
    if source.suffix.lower() == ".csv":
        table = EngineLabelTable.from_csv(text)
    else:
        table = EngineLabelTable.from_json(text)
    if args.normalize:
        table = table.normalized()
    if args.inject_grouping:
        grouping = Grouping.from_json(Path(args.inject_grouping).read_text(encoding="utf-8"))
        if grouping.labels.isdisjoint(table.malware_ids):
            raise ValueError(f"{args.inject_grouping}: no grouping label is a malware id of the label table")
        table = table.with_engine(args.inject_name, grouping_to_labels(grouping))
    extras = []
    if args.text_mining:
        descriptions = json.loads(Path(args.text_mining).read_text(encoding="utf-8"))
        if not isinstance(descriptions, dict):
            raise ValueError(f"{args.text_mining}: expected a JSON object of id -> description")
        extras.append(("Text_Mining", text_mining_grouping(descriptions, threshold=config.tm_threshold)))
    report = pcs_report(table, extras)
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    spec = CorpusSpec.from_json(Path(args.spec).read_text(encoding="utf-8"))
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
    parser.add_argument("--ngram", type=int, default=None, help="n-gram window length (default 1)")
    parser.add_argument("--no-params", action="store_true", help="tokenize API names only")
    parser.add_argument("--no-return", action="store_true", help="drop return values from tokens")


def _add_tree_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--size-weighted",
        action="store_true",
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProfileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
