"""Seeded input generators for the benchmark workloads.

Every workload is built from the public ``malbehave.synth`` API plus the
seed given on the command line, and written to disk; the program under
test only ever sees those files. ``build(name, directory, seed, tracer)``
writes one workload's inputs and a ``manifest.json`` that tells the pass
runner what to run and what a correct answer looks like.

The family-template shape is kept here rather than imported from the test
suite, so that the benchmark inputs stay fixed when the tests change.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from malbehave import (
    ApiEvent,
    CorpusSpec,
    EngineLabelTable,
    FamilyTemplate,
    Grouping,
    generate_corpus,
    write_corpus,
)
from malbehave.cli import main as cli_main

NO_SPAWN = ("drop_event", "duplicate_event", "perturb_param", "insert_noise_event")
ALL_OPS = NO_SPAWN + ("spawn_child",)
FAMILY_NAMES = (
    "alpha", "bravo", "charlie", "delta", "echo",
    "foxtrot", "golf", "hotel", "india", "juliet",
)  # fmt: skip

# cluster-wide: the acceptance-criterion-9 corpus shape (4 families of
# 80-motif, ~54 KB profiles), scaled down in count so that parse and the
# Jaccard matrix, not the O(n^3) tree, dominate a pass.
WIDE_FAMILIES = 4
WIDE_VARIANTS = 10
WIDE_MOTIFS = 80
WIDE_POOL = 8
WIDE_RATE = 0.15

# cluster-many: many short profiles with spawned children, which replay the
# base sequence and so give exact duplicates (distance-0 ties). The tree
# dominates a pass. Each family is cut to the same size so every seed
# gives the same n.
MANY_FAMILIES = 10
MANY_VARIANTS = 14
MANY_PER_FAMILY = 20
MANY_MOTIFS = 4
MANY_POOL = 3
MANY_RATE = 0.15

# classify-stream: characteristics trained on wide-shape profiles, then a
# closed loop of one client sending `classify` requests.
TRAIN_VARIANTS = 15
STREAM_KNOWN_PER_FAMILY = 12
STREAM_UNSEEN = 12
STREAM_LENGTH = 100
STREAM_UNSEEN_SHARE = 5  # every fifth request is from the unseen family
STREAM_MALFORMED_EVERY = 100
MALFORMED_DOCUMENTS = (
    "<Profile><Meta><Hash>x</Hash>",
    "<Sample><Meta/></Sample>",
    '<?xml version="1.0"?>\n<Profile>\n<Meta>\n<Hash>ab</Hash>\n<Process_id>7</Process_id>\n'
    '<Duration>300</Duration>\n</Meta>\n<Execution>\n<CreateFile hName="x" />\n'
    "</Execution>\n</Profile>\n",
)

# pcs-vote: a vendor-style label table over samples named like corpus labels.
PCS_FAMILY_SIZES = (53, 53, 53, 52)
PCS_ENGINES = 12
PCS_UNDETECTED = 0.20
PCS_WRONG_FAMILY = 0.10
PCS_FAMILY_WORDS = ("alphabotnet", "bravoloader", "charliestealer", "deltadropper")
PCS_STYLES = (
    "Trojan.Win32.{fam}.{hex}",
    "W32/{Fam}-{letter}",
    "TROJ_GEN.{FAM}",
    "Backdoor:Win32/{Fam}.{letter}!dll",
    "Gen:Variant.{Fam}.{num}",
    "HEUR:Trojan.Win32.{fam}.gen",
)
PCS_DESCRIPTION_WORDS = (
    "drops", "executable", "writes", "registry", "run", "key", "spawns",
    "process", "loads", "library", "persistence", "payload", "silent",
    "installer", "network", "beacon", "temp", "folder", "copies", "itself",
)  # fmt: skip

def family_template(
    name: str,
    *,
    motif_count: int,
    pool_size: int,
    ops=ALL_OPS,
    value_prefix: str | None = None,
) -> FamilyTemplate:
    """File/registry/process/library motif with family-specific resources."""
    stem = value_prefix or name
    paths = tuple(f"c:\\windows\\temp\\{stem}{i}.exe" for i in range(pool_size))
    keys = tuple(f"hkcu\\software\\{stem}\\run{i}" for i in range(pool_size))
    libs = tuple(f"{stem}mod{i}.dll" for i in range(pool_size))
    events = []
    for i in range(motif_count):
        path, key, lib = paths[i % pool_size], keys[i % pool_size], libs[i % pool_size]
        events += [
            ApiEvent(
                "CreateFile",
                (
                    ("hName", path),
                    ("desiredAccess", "GENERIC_WRITE"),
                    ("creationDisposition", "CREATE_ALWAYS"),
                ),
                "SUCCESS",
            ),
            ApiEvent("WriteFile", (("hName", path),), "SUCCESS"),
            ApiEvent("RegCreateKey", (("hKey", key),), "SUCCESS"),
            ApiEvent(
                "RegSetValue",
                (("hKey", key), ("type", "REG_SZ"), ("data", f"{stem} payload {i}")),
                "SUCCESS",
            ),
            ApiEvent("LoadLibrary", (("lpFileName", lib),), "SUCCESS"),
            ApiEvent(
                "CreateProcessInternal",
                (("lpApplicationName", path), ("lpCommandLine", f"{path} /silent {i}")),
                "SUCCESS",
            ),
        ]
    return FamilyTemplate(
        name, tuple(events), frozenset(ops), {"hName": paths, "hKey": keys, "lpFileName": libs}
    )


def _wide_spec(names, variants: int, seed: int) -> CorpusSpec:
    return CorpusSpec(
        tuple(
            (family_template(name, motif_count=WIDE_MOTIFS, pool_size=WIDE_POOL, ops=NO_SPAWN), variants)
            for name in names
        ),
        WIDE_RATE,
        seed,
    )


def _generate(spec: CorpusSpec, tracer):
    with tracer.span("synth.generate_corpus"):
        return generate_corpus(spec)


def _write(directory: Path, labeled, truth, tracer) -> None:
    with tracer.span("synth.write_corpus"):
        write_corpus(directory, labeled, truth)


def _build_cluster_wide(root: Path, seed: int, tracer) -> dict:
    labeled, truth = _generate(_wide_spec(FAMILY_NAMES[:WIDE_FAMILIES], WIDE_VARIANTS, seed), tracer)
    _write(root / "corpus", labeled, truth, tracer)
    return {"kind": "cluster", "corpus": "corpus", "threshold": 0.7}


def _build_cluster_many(root: Path, seed: int, tracer) -> dict:
    spec = CorpusSpec(
        tuple(
            (family_template(name, motif_count=MANY_MOTIFS, pool_size=MANY_POOL), MANY_VARIANTS)
            for name in FAMILY_NAMES[:MANY_FAMILIES]
        ),
        MANY_RATE,
        seed,
    )
    labeled, truth = _generate(spec, tracer)
    # Keep the first MANY_PER_FAMILY profiles of each family, so n is the
    # same for every seed; the tree's cost grows as n^3.
    if min(len(group) for group in truth.groups) < MANY_PER_FAMILY:
        raise RuntimeError(f"seed {seed}: a cluster-many family has fewer than {MANY_PER_FAMILY} profiles")
    kept = Grouping(0.0, tuple(group[:MANY_PER_FAMILY] for group in truth.groups))
    keep = kept.labels
    _write(root / "corpus", [(label, p) for label, p in labeled if label in keep], kept, tracer)
    return {"kind": "cluster", "corpus": "corpus", "threshold": 0.7}


def _build_classify_stream(root: Path, seed: int, tracer) -> dict:
    known = FAMILY_NAMES[:4]
    labeled, truth = _generate(_wide_spec(known, TRAIN_VARIANTS, seed), tracer)
    _write(root / "train", labeled, truth, tracer)
    status = cli_main(
        ["characterize", str(root / "train"), "--threshold", "0.7", "--out", str(root / "chars.json")]
    )
    if status != 0:
        raise RuntimeError(f"training characterize exited {status}")

    # Expected outcome for a known family: the group holding most of its
    # training members (ties to the lower group id).
    family_of = {label: index for index, group in enumerate(truth.groups) for label in group}
    groups = json.loads((root / "chars.json").read_text(encoding="utf-8"))["groups"]
    expected = []
    for family in range(len(known)):
        votes = [(sum(family_of[m] == family for m in row["members"]), -row["id"]) for row in groups]
        expected.append(str(-max(votes)[1]))

    stream_seed = seed ^ 0x5EED
    fresh, fresh_truth = _generate(_wide_spec(known, STREAM_KNOWN_PER_FAMILY, stream_seed), tracer)
    unseen_template = family_template(
        FAMILY_NAMES[4],
        motif_count=WIDE_MOTIFS,
        pool_size=WIDE_POOL,
        ops=NO_SPAWN,
        value_prefix="program files\\viewer",
    )
    unseen, unseen_truth = _generate(CorpusSpec(((unseen_template, STREAM_UNSEEN),), WIDE_RATE, stream_seed), tracer)
    fresh_family = {label: index for index, group in enumerate(fresh_truth.groups) for label in group}
    requests_dir = root / "requests"
    _write(requests_dir, fresh + unseen, None, tracer)
    known_requests = [(f"requests/{label}.xml", expected[fresh_family[label]]) for label, _ in fresh]
    unseen_requests = [(f"requests/{label}.xml", "none") for label in unseen_truth.groups[0]]
    malformed_requests = []
    for index, text in enumerate(MALFORMED_DOCUMENTS):
        path = requests_dir / f"malformed-{index}.xml"
        path.write_text(text, encoding="utf-8")
        malformed_requests.append((f"requests/{path.name}", "error"))

    # Fixed composition, seeded order: every fifth request is unseen, every
    # hundredth malformed, and the known ones cycle through the pool. The
    # composition fixes the latency mix, so the median is steady.
    rng = random.Random(seed)
    rng.shuffle(known_requests)
    rng.shuffle(unseen_requests)
    stream = []
    for index in range(STREAM_LENGTH):
        if index % STREAM_MALFORMED_EVERY == STREAM_MALFORMED_EVERY - 1:
            stream.append(malformed_requests[(seed + index // STREAM_MALFORMED_EVERY) % len(malformed_requests)])
        elif index % STREAM_UNSEEN_SHARE == STREAM_UNSEEN_SHARE - 1:
            stream.append(unseen_requests[(index // STREAM_UNSEEN_SHARE) % len(unseen_requests)])
        else:
            stream.append(known_requests[index % len(known_requests)])
    return {"kind": "classify", "characteristics": "chars.json", "stream": stream}


def _detection(style: str, family: str, rng: random.Random) -> str:
    return style.format(
        fam=family,
        Fam=family.capitalize(),
        FAM=family.upper(),
        hex=f"{rng.randrange(16 ** 4):04x}",
        letter="ABCDEFGH"[rng.randrange(8)],
        num=rng.randrange(1, 100_000),
    )


def _build_pcs_vote(root: Path, seed: int, tracer) -> dict:
    # Sample ids come from a synth corpus of one-motif families, so they
    # have the <hash>-<ordinal> corpus-label format and the ground-truth
    # grouping covers every sample.
    spec = CorpusSpec(
        tuple(
            (family_template(name, motif_count=1, pool_size=1, ops=()), count)
            for name, count in zip(FAMILY_NAMES, PCS_FAMILY_SIZES)
        ),
        0.0,
        seed,
    )
    labeled, truth = _generate(spec, tracer)
    family_of = {label: index for index, group in enumerate(truth.groups) for label in group}
    ids = tuple(label for label, _ in labeled)
    rng = random.Random(seed)
    engines = tuple(f"engine{k:02d}" for k in range(1, PCS_ENGINES + 1))
    rows = []
    for malware_id in ids:
        row = []
        for k in range(PCS_ENGINES):
            draw = rng.random()
            family = family_of[malware_id]
            if draw < PCS_UNDETECTED:
                row.append(None)
                continue
            if draw < PCS_UNDETECTED + PCS_WRONG_FAMILY:
                family = (family + 1 + rng.randrange(len(PCS_FAMILY_WORDS) - 1)) % len(PCS_FAMILY_WORDS)
            row.append(_detection(PCS_STYLES[k % len(PCS_STYLES)], PCS_FAMILY_WORDS[family], rng))
        rows.append(tuple(row))
    descriptions = {}
    for malware_id in ids:
        words = [PCS_FAMILY_WORDS[family_of[malware_id]]] * 2
        words += rng.sample(PCS_DESCRIPTION_WORDS, 6)
        descriptions[malware_id] = " ".join(words)
    root.mkdir(parents=True, exist_ok=True)
    (root / "table.json").write_text(EngineLabelTable(ids, engines, tuple(rows)).to_json(), encoding="utf-8")
    (root / "ground_truth.json").write_text(truth.to_json(), encoding="utf-8")
    (root / "desc.json").write_text(json.dumps(descriptions, indent=2) + "\n", encoding="utf-8")
    return {
        "kind": "pcs",
        "table": "table.json",
        "grouping": "ground_truth.json",
        "descriptions": "desc.json",
        "engines": list(engines) + ["grouping", "Text_Mining"],
    }


_BUILDERS = {
    "cluster-wide": _build_cluster_wide,
    "cluster-many": _build_cluster_many,
    "classify-stream": _build_classify_stream,
    "pcs-vote": _build_pcs_vote,
}


def build(name: str, root: Path, seed: int, tracer) -> dict:
    """Write one workload's inputs under root and return its manifest,
    which is also saved as root/manifest.json."""
    root.mkdir(parents=True, exist_ok=True)
    manifest = {"workload": name, "seed": seed, **_BUILDERS[name](root, seed, tracer)}
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest
