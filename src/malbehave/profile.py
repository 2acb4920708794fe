r"""Behavior profiles: XML trace format, data model, and feature tokens.

A profile is the recorded execution of one process: a ``<Meta>`` block
(sample hash, process id, capture duration) followed by an ``<Execution>``
block with one XML element per API call, for example::

    <CreateFile hName="C:\tmp\a.exe" desiredAccess="GENERIC_WRITE"
                Return="SUCCESS" Time="317560000" />

``Return`` and ``Time`` are reserved attribute names: ``Return`` carries the
call's return value and ``Time`` its timestamp in 100-ns ticks. Everything
else is treated as a call parameter. Spawned processes are stored as
separate profiles linked through ``parent_hash``.

Profiles are turned into sets of behavior-element tokens for similarity
analysis; tokenization is controlled by :class:`FeatureConfig`. A token
reads only an event's call key, ``(api_name, attributes, return_value)``,
so the commands walk each document to its checked meta fields and call
keys and build no events; :func:`parse_profile` is the same walk plus event
construction, with the same checks and errors.
"""

from __future__ import annotations

import csv
import os
import re
import reprlib
from dataclasses import dataclass
from itertools import pairwise, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar
from xml.etree import ElementTree

# A behavior element is an opaque canonical token; profiles reduce to
# frozensets of them.
BehaviorElement = str
ElementSet = frozenset

# What a token reads of one event: (api_name, attributes, return_value).
CallKey = tuple[str, tuple[tuple[str, str], ...], str | None]

RESERVED_ATTRIBUTES = ("Return", "Time")

# Attribute keys whose values name files, registry keys, or command lines.
# Windows resolves these case-insensitively, so their values are lowercased
# before tokenization (when FeatureConfig.normalize_paths is on) to avoid
# splitting one resource into several elements. Other values (flags, data
# strings) are kept verbatim.
PATH_LIKE_KEYS = frozenset(
    {"hName", "lpFileName", "lpApplicationName", "lpCommandLine", "hKey"}
)

# Tags and attribute keys must be serializable back to XML; restrict to the
# ASCII subset of XML names.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")


class ProfileError(ValueError):
    """Base class for profile format violations."""


class ProfileParseError(ProfileError):
    """Input that is not UTF-8 text or not well-formed XML; carries the
    source line and column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


class ProfileSchemaError(ProfileError):
    """Well-formed input (or field value) that violates the profile schema."""

    def __init__(self, message: str, field_name: str | None = None):
        super().__init__(message)
        self.field_name = field_name


@dataclass(frozen=True)
class ApiEvent:
    """One recorded API call: name, parameters, return value, timestamp."""

    api_name: str
    attributes: tuple[tuple[str, str], ...] = ()
    return_value: str | None = None
    timestamp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(tuple(pair) for pair in self.attributes))
        _check_api_name(self.api_name)
        seen = set()
        for pair in self.attributes:
            if len(pair) != 2 or not all(isinstance(part, str) for part in pair):
                raise ProfileSchemaError("attributes must be (key, value) text pairs")
            key = pair[0]
            _check_attribute_key(key)
            if key in RESERVED_ATTRIBUTES:
                raise ProfileSchemaError(f"attribute key {key!r} is reserved", field_name=key)
            if key in seen:
                raise ProfileSchemaError(f"duplicate attribute key {key!r}", field_name=key)
            seen.add(key)
        if self.return_value is not None and not isinstance(self.return_value, str):
            raise ProfileSchemaError("Return must be text", field_name="Return")
        _check_timestamp(self.timestamp)


def _check_api_name(name) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise ProfileSchemaError(f"api_name must be a non-empty XML name, got {name!r}", field_name="api_name")


def _check_attribute_key(key: str) -> None:
    if not _NAME_RE.match(key):
        raise ProfileSchemaError(f"attribute key {key!r} is not an XML name", field_name=key)


def _check_timestamp(timestamp) -> None:
    if not isinstance(timestamp, int) or isinstance(timestamp, bool) or timestamp < 0:
        raise ProfileSchemaError(f"Time must be a non-negative integer, got {timestamp!r}", field_name="Time")


def _check_positive(value, field_name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
        raise ProfileSchemaError(f"{field_name} must be a positive integer, got {value!r}", field_name=field_name)


def _check_parent_hash(parent_hash) -> None:
    if parent_hash is not None and (not isinstance(parent_hash, str) or not parent_hash):
        raise ProfileSchemaError("Parent_hash must be non-empty text when present", field_name="Parent_hash")


def _check_order(timestamps: Iterable[int]) -> None:
    """Raise for the first timestamp below the one before it. timestamps
    may be lazy: each is drawn just before it is compared."""
    for previous, timestamp in pairwise(timestamps):
        if timestamp < previous:
            raise ProfileSchemaError(
                f"events out of order: Time {timestamp} follows Time {previous}",
                field_name="Time",
            )


_T = TypeVar("_T")


def _checked_record(cls: type[_T], *values) -> _T:
    """An instance of the frozen dataclass cls with values as its fields, in
    field order, built without running __post_init__: only for values the
    caller has checked as the class would. A wrong number of values is a
    ValueError."""
    record = object.__new__(cls)
    # Set as the dataclass __init__ does, so the instance keeps its compact
    # shared-key attribute storage (a __dict__.update doubles its size).
    for name, value in zip(cls.__dataclass_fields__, values, strict=True):
        object.__setattr__(record, name, value)
    return record


def _checked_event(call: CallKey, timestamp: int) -> ApiEvent:
    """_checked_record(ApiEvent, *call, timestamp) written out, as one is
    built per event: its loop takes twice as long (1.5 µs, not 0.8)."""
    api_name, attributes, return_value = call
    event = object.__new__(ApiEvent)
    object.__setattr__(event, "api_name", api_name)
    object.__setattr__(event, "attributes", attributes)
    object.__setattr__(event, "return_value", return_value)
    object.__setattr__(event, "timestamp", timestamp)
    return event


def _event_timestamp(event) -> int:
    if not isinstance(event, ApiEvent):
        raise ProfileSchemaError("events must be ApiEvent instances")
    return event.timestamp


@dataclass(frozen=True)
class Profile:
    """One process's behavior profile."""

    hash: str
    process_id: int
    duration_seconds: int
    events: tuple[ApiEvent, ...] = ()
    parent_hash: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))
        if not isinstance(self.hash, str) or not self.hash:
            raise ProfileSchemaError("Hash must be non-empty text", field_name="Hash")
        _check_positive(self.process_id, "Process_id")
        _check_positive(self.duration_seconds, "Duration")
        _check_parent_hash(self.parent_hash)
        _check_order(map(_event_timestamp, self.events))


@dataclass(frozen=True)
class FeatureConfig:
    """Controls how API events fold into behavior-element tokens.

    with_params=False keeps only API names. With parameters on, the token
    also encodes the attribute pairs (sorted by key) and, when
    include_return is set, the return value. ngram_n > 1 tokenizes windows
    of consecutive calls instead of single calls.
    """

    with_params: bool = True
    ngram_n: int = 1
    normalize_paths: bool = True
    include_return: bool = True

    def __post_init__(self):
        if not isinstance(self.ngram_n, int) or isinstance(self.ngram_n, bool) or self.ngram_n < 1:
            raise ValueError(f"ngram_n must be a positive integer, got {self.ngram_n!r}")


def _meta_text(meta: ElementTree.Element, tag: str) -> str:
    node = meta.find(tag)
    if node is None or node.text is None or not node.text.strip():
        raise ProfileSchemaError(f"missing or empty <{tag}> in <Meta>", field_name=tag)
    return node.text.strip()


def _meta_int(meta: ElementTree.Element, tag: str) -> int:
    text = _meta_text(meta, tag)
    try:
        return int(text)
    except ValueError:
        raise ProfileSchemaError(f"<{tag}> must be an integer, got {text!r}", field_name=tag) from None


class _Walk(NamedTuple):
    """One checked profile document: its meta fields, then each event's
    call key and timestamp in document order."""

    hash: str
    process_id: int
    duration_seconds: int
    parent_hash: str | None
    calls: list[CallKey]
    timestamps: list[int]


def _walk_profile(xml_text: str) -> _Walk:
    """The one checked walk of a profile document. It makes every check
    that ApiEvent and Profile make, in their order: each event's own checks
    in document order, then the meta fields, then the first out-of-order
    Time."""
    try:
        root = ElementTree.fromstring(xml_text)
    except ElementTree.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise ProfileParseError(f"malformed XML: {exc}", line=line, column=column) from exc
    if root.tag != "Profile":
        raise ProfileSchemaError(f"root element must be <Profile>, got <{root.tag}>", field_name="Profile")
    meta = root.find("Meta")
    if meta is None:
        raise ProfileSchemaError("missing <Meta> element", field_name="Meta")
    execution = root.find("Execution")
    if execution is None:
        raise ProfileSchemaError("missing <Execution> element", field_name="Execution")

    # _meta_text returns non-empty text, so Hash needs no further check.
    sample_hash = _meta_text(meta, "Hash")
    process_id = _meta_int(meta, "Process_id")
    duration = _meta_int(meta, "Duration")
    parent_node = meta.find("Parent_hash")
    parent_hash = parent_node.text.strip() if parent_node is not None and parent_node.text else None

    # Expat guarantees well-formed names and unique attribute keys, and
    # Return/Time are split out here, so an event needs only the checks
    # below, made in ApiEvent's order. Expat accepts names outside the
    # ASCII subset (and namespaced ones, as "{uri}name"), so each distinct
    # tag and key is checked once per document.
    names = set()
    calls = []
    timestamps = []
    for index, element in enumerate(execution):
        tag = element.tag
        attrib = element.attrib
        return_value = attrib.pop("Return", None)
        time_text = attrib.pop("Time", None)
        if time_text is None:
            raise ProfileSchemaError(f"event {index} <{tag}>: missing Time attribute", field_name="Time")
        try:
            timestamp = int(time_text)
        except ValueError:
            raise ProfileSchemaError(
                f"event {index} <{tag}>: Time must be an integer, got {time_text!r}",
                field_name="Time",
            ) from None
        if tag not in names:
            _check_api_name(tag)
            names.add(tag)
        if not names.issuperset(attrib):
            for key in attrib:
                _check_attribute_key(key)
                names.add(key)
        if timestamp < 0:  # int() gives an int, never a bool: only the sign is left
            _check_timestamp(timestamp)
        calls.append((tag, tuple(attrib.items()), return_value))
        timestamps.append(timestamp)
    _check_positive(process_id, "Process_id")
    _check_positive(duration, "Duration")
    _check_parent_hash(parent_hash)
    _check_order(timestamps)
    return _Walk(sample_hash, process_id, duration, parent_hash, calls, timestamps)


def parse_profile(xml_text: str) -> Profile:
    """Parse one profile document.

    Raises ProfileParseError for malformed XML (with line/column) and
    ProfileSchemaError, naming the offending field, for documents that do
    not match the profile schema. The walk makes every check that the
    ApiEvent and Profile constructors make, so neither runs them again.
    """
    walk = _walk_profile(xml_text)
    events = tuple(map(_checked_event, walk.calls, walk.timestamps))
    return _checked_record(Profile, walk.hash, walk.process_id, walk.duration_seconds, events, walk.parent_hash)


def _profile_calls(xml_text: str) -> list[CallKey]:
    """The call key of each event of a profile document, in order: what
    _call_elements tokenizes. The document is checked as parse_profile
    checks it, with the same errors, but no event is built."""
    return _walk_profile(xml_text).calls


def _xml_escape(text: str) -> str:
    """xml.sax.saxutils.escape(text): '&' goes first, so no entity this
    writes is escaped again."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


# The characters _xml_quoteattr rewrites in a value, or that make it pick
# single quotes.
_ATTRIBUTE_SPECIALS = frozenset('&<>"\n\r\t')


def _xml_quoteattr(value: str) -> str:
    """xml.sax.saxutils.quoteattr(value). That module is not imported: it
    loads urllib.request, and with it http.client, email, socket and ssl,
    into every process that imports malbehave."""
    if _ATTRIBUTE_SPECIALS.isdisjoint(value):
        return '"' + value + '"'
    value = _xml_escape(value).replace("\n", "&#10;").replace("\r", "&#13;").replace("\t", "&#9;")
    if '"' not in value:
        return '"' + value + '"'
    if "'" not in value:
        return "'" + value + "'"
    return '"' + value.replace('"', "&quot;") + '"'


def _event_head(call: CallKey) -> str:
    """An event's element up to its Time attribute: '<Api key="value" Return="r"'."""
    api_name, attributes, return_value = call
    parts = [api_name]
    for key, value in attributes:
        parts.append(f"{key}={_xml_quoteattr(value)}")
    if return_value is not None:
        parts.append(f"Return={_xml_quoteattr(return_value)}")
    return "<" + " ".join(parts)


def serialize_profile(profile: Profile) -> str:
    """Emit the profile XML document; parse_profile(serialize_profile(p)) == p.

    Each distinct call key is formatted once per document."""
    lines = ['<?xml version="1.0"?>', "<Profile>", "<Meta>"]
    lines.append(f"<Hash>{_xml_escape(profile.hash)}</Hash>")
    lines.append(f"<Process_id>{profile.process_id}</Process_id>")
    lines.append(f"<Duration>{profile.duration_seconds}</Duration>")
    if profile.parent_hash is not None:
        lines.append(f"<Parent_hash>{_xml_escape(profile.parent_hash)}</Parent_hash>")
    lines.append("</Meta>")
    if profile.events:
        lines.append("<Execution>")
        head_of = {}
        for event in profile.events:
            call = (event.api_name, event.attributes, event.return_value)
            head = head_of.get(call)
            if head is None:
                head = head_of[call] = _event_head(call)
            lines.append(f'{head} Time="{event.timestamp}" />')
        lines.append("</Execution>")
    else:
        lines.append("<Execution/>")
    lines.append("</Profile>")
    return "\n".join(lines) + "\n"


def _escape_part(text: str) -> str:
    # Keep tokens unambiguous: '|' separates fields, '=' splits key/value.
    return text.replace("%", "%25").replace("|", "%7C").replace("=", "%3D")


def _call_token(call: CallKey, config: FeatureConfig) -> BehaviorElement:
    # Attribute pairs are sorted by key, so their source order never
    # matters. Only values are escaped: an api_name or attribute key is an
    # XML name (_NAME_RE), which holds no '%', '|' or '='.
    api_name, attributes, return_value = call
    if not config.with_params:
        return api_name
    parts = [api_name]
    for key, value in sorted(attributes):
        if config.normalize_paths and key in PATH_LIKE_KEYS:
            value = value.lower()
        parts.append(f"{key}={_escape_part(value)}")
    if config.include_return and return_value is not None:
        parts.append(f"Return={_escape_part(return_value)}")
    return "|".join(parts)


def _call_elements(call_lists: Iterable[Iterable[CallKey]], config: FeatureConfig) -> list[ElementSet]:
    """Element sets of profiles given as call keys (see _profile_calls), in
    order: distinct tokens, or distinct n-gram tokens.

    With ngram_n=N>1 every window of N consecutive calls becomes one
    token; a profile with fewer than N calls yields the empty set. Each
    distinct call key is tokenized once per call of this function. The
    call lists may be a lazy stream: each is dropped as soon as its set is
    made, before the next is drawn.
    """
    token_of = {}
    n = config.ngram_n

    def element_set(calls: Iterable[CallKey]) -> ElementSet:
        tokens = []
        for call in calls:
            token = token_of.get(call)
            if token is None:
                token = token_of[call] = _call_token(call, config)
            tokens.append(token)
        if n == 1:
            return frozenset(tokens)
        return frozenset("||".join(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    # map, unlike a for loop's variable, holds no call list while it draws
    # the next one.
    return list(map(element_set, call_lists))


def _event_calls(profile: Profile) -> Iterable[CallKey]:
    # The generator holds the events, not the profile.
    return ((event.api_name, event.attributes, event.return_value) for event in profile.events)


def corpus_elements(profiles: Iterable[Profile], config: FeatureConfig) -> list[ElementSet]:
    """Element sets of the profiles, in order; see _call_elements. Events
    that differ only in their timestamp share a token. profiles may be a
    lazy stream: each profile is dropped as soon as its set is made."""
    return _call_elements(map(_event_calls, profiles), config)


def extract_elements(profile: Profile, config: FeatureConfig) -> ElementSet:
    """Element set of one profile; see corpus_elements."""
    return corpus_elements((profile,), config)[0]


# What parsing untrusted text may raise: a format or schema error, a CSV
# field over the csv module's size limit, or JSON nested too deeply.
INPUT_ERRORS = (ValueError, csv.Error, RecursionError)


# A line of CSV text with its "\n", or the last line when no "\n" ends it.
_CSV_LINE = re.compile(r"[^\n]*\n|[^\n]+")


def csv_rows(text: str) -> Iterator[list[str]]:
    r"""The non-empty rows of CSV text, its lines drawn one at a time, each
    split at "\n" alone and keeping it (io.StringIO copies the text at 4
    bytes a character; str.splitlines splits at \f, \u2028 and others)."""
    return filter(None, csv.reader(map(re.Match.group, _CSV_LINE.finditer(text))))


# The most bytes read_input takes from one file. The largest inputs in
# use are matrix CSVs: CI reads one of 186 MB (4,548 labels), 69% of the cap.
MAX_INPUT_BYTES = 256 * 1024 * 1024


def _read_text(path: str | Path) -> str:
    # A function of its own so that the file's bytes are freed before
    # read_input parses the text.
    with open(path, "rb") as stream:
        # A file whose length is over the cap is refused unread. Otherwise
        # one read sized from the length, plus a byte to see whether it
        # holds more; a pipe or a device has length 0 and is read up to
        # the cap. A cap-sized buffer would cost every small file a fresh
        # memory mapping.
        length = os.fstat(stream.fileno()).st_size
        data = b"" if length > MAX_INPUT_BYTES else stream.read((length or MAX_INPUT_BYTES) + 1)
    if max(length, len(data)) > MAX_INPUT_BYTES:
        raise ProfileParseError(f"{path}: larger than MAX_INPUT_BYTES = {MAX_INPUT_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProfileParseError(f"{path}: not UTF-8 text: {exc}") from exc
    # A byte order mark is not text: a label or a JSON document starts
    # after it.
    text = text.removeprefix("\ufeff")
    if "\r" in text:  # universal newlines, as Path.read_text reads text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def read_input(path: str | Path, parse: Callable[[str], _T]) -> _T:
    """parse(text) of the UTF-8 file at path. Every error names the path:
    a file over MAX_INPUT_BYTES or not UTF-8 is a ProfileParseError, and an
    INPUT_ERRORS error from parse keeps its class and fields, the path put
    before its message."""
    text = _read_text(path)
    try:
        return parse(text)
    except INPUT_ERRORS as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# The JSON name of each kind typed checks, for its messages.
_KIND_NAMES = {
    bool: "a boolean", int: "an integer", float: "a float", str: "a string",
    list: "a list", dict: "an object", type(None): "null",
}


def _kind_name(kind, plural: bool = False) -> str:
    if isinstance(kind, list):
        return ("lists" if plural else "a list") + " of " + _kind_name(kind[0], True)
    return _KIND_NAMES[kind].split()[-1] + "s" if plural else _KIND_NAMES[kind]


def _fits(value, kind) -> bool:
    if isinstance(kind, list):
        inner = kind[0]
        if isinstance(inner, type) and not issubclass(bool, inner):
            # No bool is an instance of inner, so isinstance alone is the rule.
            return isinstance(value, list) and all(map(isinstance, value, repeat(inner)))
        return isinstance(value, list) and all(_fits(item, inner) for item in value)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def typed(value, what: str, *kinds):
    """value, checked to have one of kinds. A kind is a type, or [kind] for
    a JSON list of that kind (typed(v, what, [str]) checks a list of
    strings). A bool is never taken for a number unless bool is a kind."""
    if not any(_fits(value, kind) for kind in kinds):
        names = " or ".join(map(_kind_name, kinds))
        raise ValueError(f"{what} must be {names}, got {reprlib.repr(value)}")
    return value


def typed_float(value, what: str) -> float:
    """typed(value, what, int, float) as a float. An integer too large for
    a float is a ValueError naming what, not an OverflowError."""
    try:
        return float(typed(value, what, int, float))
    except OverflowError:
        raise ValueError(f"{what} is too large for a float: {reprlib.repr(value)}") from None


def corpus_paths(directory: str | Path) -> list[Path]:
    """The <hash>-<ordinal>.xml files of a corpus directory, sorted by
    name; the label of each is its stem. Reads no file: a ProfileError
    for a missing directory or one without XML files comes first."""
    path = Path(directory)
    if not path.is_dir():
        raise ProfileError(f"corpus directory not found: {path}")
    # One directory: ordering by name is ordering by path, without PurePath.__lt__.
    paths = sorted(path.glob("*.xml"), key=attrgetter("name"))
    if not paths:
        raise ProfileError(f"no profile XML files in {path}")
    return paths


def read_corpus(directory: str | Path) -> list[tuple[str, Profile]]:
    """Load a corpus directory (see corpus_paths).

    Returns (label, profile) pairs ordered by filename; the label is the
    file stem. Errors name the offending file (see read_input). Every
    profile is kept, so memory grows with the corpus's total events; to
    tokenize a corpus one profile at a time, pass corpus_elements a lazy
    stream of read_input(path, parse_profile) over corpus_paths.
    """
    return [(path.stem, read_input(path, parse_profile)) for path in corpus_paths(directory)]
