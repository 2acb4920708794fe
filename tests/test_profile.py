from __future__ import annotations

import ast
import itertools
import json
import random
import sys
from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import pytest

import malbehave
from malbehave import (
    ApiEvent,
    FeatureConfig,
    Profile,
    ProfileParseError,
    ProfileSchemaError,
    corpus_paths,
    extract_elements,
    generate_corpus,
    parse_profile,
    read_corpus,
    serialize_profile,
)
from malbehave.profile import _checked_record, _xml_escape, _xml_quoteattr, read_input, typed
from conftest import make_random_profile
from _oracles import per_event_xml
from _pipeline import four_family_spec, profile_document


def _named_events(names, start=100):
    return tuple(ApiEvent(name, (), None, start + i) for i, name in enumerate(names))


class TestParse:
    def test_sample_document(self, sample_xml):
        profile = parse_profile(sample_xml)
        assert profile.hash == "61fd4cac9f5429d14d015e7632e3514a"
        assert profile.process_id == 1524
        assert profile.duration_seconds == 300
        assert len(profile.events) == 5
        assert profile.events[0].api_name == "CreateFile"
        assert profile.events[0].return_value == "SUCCESS"
        assert profile.events[0].timestamp == 317560000
        assert ("desiredAccess", "GENERIC_WRITE") in profile.events[0].attributes
        assert profile.parent_hash is None

    def test_empty_execution(self):
        text = (
            "<Profile><Meta><Hash>ab</Hash><Process_id>1</Process_id>"
            "<Duration>10</Duration></Meta><Execution/></Profile>"
        )
        assert parse_profile(text).events == ()

    def test_parent_hash_round_trips(self):
        profile = Profile("aa", 5, 30, _named_events(["ReadFile"]), parent_hash="bb")
        assert parse_profile(serialize_profile(profile)) == profile


class TestParserChecks:
    """The parser makes the ApiEvent checks itself, each name once per
    document: it takes what the checked constructor takes. Its errors are
    pinned by the WALK_REJECTIONS rows of test_cli.py."""

    @pytest.mark.parametrize("text, value", [("+5", 5), (" 7 ", 7), ("1_0", 10)])
    def test_accepted_time_forms(self, text, value):
        profile = parse_profile(profile_document(f'<A Time="{text}"/>'))
        assert profile.events == (ApiEvent("A", (), None, value),)

    def test_synth_round_trip_equals_checked_events(self):
        # Synth's profiles and the parser's are built unchecked: each equals
        # the checked constructor's, field for field and in its storage.
        labeled, _ = generate_corpus(four_family_spec(variants=3, seed=99, motif_count=2))
        for _, profile in labeled:
            parsed = parse_profile(serialize_profile(profile))
            checked = Profile(
                profile.hash, profile.process_id, profile.duration_seconds, profile.events, profile.parent_hash
            )
            for record in (profile, parsed):
                assert type(record) is Profile
                assert record == checked
                assert hash(record) == hash(checked)
                assert sys.getsizeof(vars(record)) == sys.getsizeof(vars(checked))
            for event in parsed.events:
                checked = ApiEvent(event.api_name, event.attributes, event.return_value, event.timestamp)
                assert type(event) is ApiEvent
                assert event == checked
                assert hash(event) == hash(checked)


class TestCheckedRecord:
    def test_wrong_value_count_raises(self):
        for values in (("A", (), None), ("A", (), None, 0, 1)):
            with pytest.raises(ValueError, match=r"^zip\(\) argument 2 is (shorter|longer) than argument 1$"):
                _checked_record(ApiEvent, *values)

    def test_only_record_builders_call_object_new(self):
        # A record built unchecked goes through _checked_record, or through
        # _checked_event, its one unrolled form: no other function of the
        # package names object.__new__.
        package = Path(malbehave.__file__).parent
        callers = []
        for path in sorted(package.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and node.attr == "__new__" and getattr(node.value, "id", "") == "object":
                    enclosing = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                    callers.append((path.name, max(enclosing, key=lambda f: f.lineno).name if enclosing else None))
        assert sorted(callers) == [("profile.py", "_checked_event"), ("profile.py", "_checked_record")]


class TestSerialize:
    def test_empty_execution_element(self):
        profile = Profile("ab", 1, 10)
        assert "<Execution/>" in serialize_profile(profile)

    def test_sample_round_trip(self, sample_xml):
        profile = parse_profile(sample_xml)
        assert parse_profile(serialize_profile(profile)) == profile

    def test_ampersand_and_quotes_escape(self):
        event = ApiEvent("RegSetValue", (("data", 'a & b < "c"'),), "SUCCESS", 3)
        profile = Profile("ab", 1, 10, (event,))
        text = serialize_profile(profile)
        assert "&amp;" in text
        assert parse_profile(text) == profile

    def test_random_profiles_round_trip(self):
        rng = random.Random(1234)
        for _ in range(60):
            profile = make_random_profile(rng)
            assert parse_profile(serialize_profile(profile)) == profile

    def test_quoting_matches_saxutils(self):
        # Every string of up to three characters over quoteattr's specials,
        # both quote kinds, and plain, backslash and non-ASCII characters,
        # then seeded longer strings over the same alphabet.
        alphabet = "&<>\"'\n\r\t a;\\é字"
        short = ("".join(chars) for length in range(4) for chars in itertools.product(alphabet, repeat=length))
        rng = random.Random(5)
        longer = ("".join(rng.choices(alphabet, k=rng.randint(4, 40))) for _ in range(3000))
        for value in itertools.chain(short, longer):
            assert (_xml_escape(value), _xml_quoteattr(value)) == (escape(value), quoteattr(value)), value

    def test_bytes_match_per_event_formatting(self):
        # Repeated calls share one formatted head; values need quoting or not.
        rng = random.Random(99)
        for _ in range(60):
            profile = make_random_profile(rng)
            calls = profile.events * 2
            events = tuple(ApiEvent(e.api_name, e.attributes, e.return_value, tick) for tick, e in enumerate(calls))
            for document in (profile, Profile(profile.hash, 1, 10, events)):
                assert serialize_profile(document) == per_event_xml(document)


def _event_token(event, config):
    """The one token of a one-event profile."""
    [token] = extract_elements(Profile("ab", 1, 10, (event,)), config)
    return token


class TestCanonicalization:
    def test_name_only_mode(self, sample_xml):
        event = parse_profile(sample_xml).events[0]
        assert _event_token(event, FeatureConfig(with_params=False)) == "CreateFile"

    def test_full_mode_token(self, sample_xml):
        event = parse_profile(sample_xml).events[0]
        token = _event_token(event, FeatureConfig())
        assert "c:\\docume~1\\ants\\locals~1\\temp\\n7785\\s7785.exe" in token
        assert "desiredAccess=GENERIC_WRITE" in token
        assert token.endswith("Return=SUCCESS")

    def test_path_values_lowercased_non_path_verbatim(self):
        event = ApiEvent("RegSetValue", (("hKey", "HKCU\\Run"), ("data", "MiXeD")), None, 0)
        token = _event_token(event, FeatureConfig())
        assert "hkcu\\run" in token
        assert "data=MiXeD" in token

    def test_timestamp_never_participates(self):
        a = ApiEvent("ReadFile", (("hName", "x"),), "SUCCESS", 1)
        b = ApiEvent("ReadFile", (("hName", "x"),), "SUCCESS", 99)
        config = FeatureConfig()
        assert _event_token(a, config) == _event_token(b, config)

    def test_attribute_order_invariance(self):
        a = ApiEvent("ReadFile", (("hName", "x"), ("mode", "r")), None, 0)
        b = ApiEvent("ReadFile", (("mode", "r"), ("hName", "x")), None, 0)
        config = FeatureConfig()
        assert _event_token(a, config) == _event_token(b, config)

    def test_xml_attribute_order_invariance(self):
        head = (
            "<Profile><Meta><Hash>ab</Hash><Process_id>1</Process_id><Duration>10</Duration></Meta>"
        )
        one = head + '<Execution><ReadFile hName="x" mode="r" Time="1"/></Execution></Profile>'
        two = head + '<Execution><ReadFile mode="r" hName="x" Time="1"/></Execution></Profile>'
        config = FeatureConfig()
        assert extract_elements(parse_profile(one), config) == extract_elements(
            parse_profile(two), config
        )

    def test_separator_characters_escaped(self):
        a = ApiEvent("ReadFile", (("data", "x|y=z"),), None, 0)
        b = ApiEvent("ReadFile", (("data", "x"), ("extra", "y=z")), None, 0)
        config = FeatureConfig()
        assert _event_token(a, config) != _event_token(b, config)

    def test_return_dropped_when_configured(self):
        event = ApiEvent("ReadFile", (), "SUCCESS", 0)
        assert "Return" not in _event_token(event, FeatureConfig(include_return=False))


class TestExtractElements:
    def test_duplicates_collapse(self):
        profile = Profile("ab", 1, 10, _named_events(["ReadFile", "WriteFile", "ReadFile"]))
        config = FeatureConfig(with_params=False)
        assert extract_elements(profile, config) == {"ReadFile", "WriteFile"}

    def test_bigram_windows(self):
        profile = Profile("ab", 1, 10, _named_events(["ReadFile", "WriteFile", "CloseHandle"]))
        config = FeatureConfig(with_params=False, ngram_n=2)
        assert extract_elements(profile, config) == {
            "ReadFile||WriteFile",
            "WriteFile||CloseHandle",
        }

    def test_window_longer_than_sequence(self):
        profile = Profile("ab", 1, 10, _named_events(["ReadFile", "WriteFile"]))
        assert extract_elements(profile, FeatureConfig(ngram_n=3)) == frozenset()

    def test_element_count_bounds(self):
        rng = random.Random(99)
        for _ in range(40):
            profile = make_random_profile(rng)
            count = len(profile.events)
            assert len(extract_elements(profile, FeatureConfig())) <= count
            for n in (2, 3):
                bound = max(0, count - n + 1)
                assert len(extract_elements(profile, FeatureConfig(ngram_n=n))) <= bound

    def test_timestamp_independence(self):
        rng = random.Random(7)
        config = FeatureConfig()
        for _ in range(20):
            profile = make_random_profile(rng)
            shifted = Profile(
                profile.hash,
                profile.process_id,
                profile.duration_seconds,
                tuple(
                    ApiEvent(e.api_name, e.attributes, e.return_value, e.timestamp + 1000)
                    for e in profile.events
                ),
                profile.parent_hash,
            )
            assert extract_elements(profile, config) == extract_elements(shifted, config)


class TestCorpusIO:
    def test_read_corpus_sorted_labels(self, tmp_path, sample_xml):
        profile = parse_profile(sample_xml)
        (tmp_path / "bb-0.xml").write_text(serialize_profile(profile))
        (tmp_path / "aa-0.xml").write_text(serialize_profile(profile))
        labels = [label for label, _ in read_corpus(tmp_path)]
        assert labels == ["aa-0", "bb-0"]

    def test_corpus_paths_in_name_order(self, tmp_path):
        stems = ["a-10", "a-9", "A-1", "a_1", "B-0", "a-1", "_x-0", "Z9-2", "z-0", "9-0"]
        for stem in stems:
            (tmp_path / f"{stem}.xml").write_text("")
        (tmp_path / "0-0.txt").write_text("")
        paths = corpus_paths(tmp_path)
        assert [path.name for path in paths] == [
            "9-0.xml", "A-1.xml", "B-0.xml", "Z9-2.xml", "_x-0.xml", "a-1.xml", "a-10.xml", "a-9.xml", "a_1.xml", "z-0.xml"
        ]
        assert paths == sorted(tmp_path.glob("*.xml"))

    def test_read_corpus_keeps_parse_position(self, tmp_path):
        with pytest.raises(ProfileParseError) as alone:
            parse_profile("<Profile><Meta>")
        (tmp_path / "bad-0.xml").write_text("<Profile><Meta>")
        with pytest.raises(ProfileParseError) as err:
            read_corpus(tmp_path)
        assert (alone.value.line, alone.value.column) == (1, 15)
        assert (err.value.line, err.value.column) == (1, 15)
        assert str(err.value) == f"{tmp_path / 'bad-0.xml'}: {alone.value}"

    def test_read_corpus_keeps_field_name(self, tmp_path, sample_xml):
        (tmp_path / "aa-0.xml").write_text(sample_xml)
        (tmp_path / "bad-0.xml").write_text(sample_xml.replace("<Duration>300", "<Duration>soon"))
        with pytest.raises(ProfileSchemaError) as err:
            read_corpus(tmp_path)
        assert str(err.value) == f"{tmp_path / 'bad-0.xml'}: <Duration> must be an integer, got 'soon'"
        assert err.value.field_name == "Duration"

    def test_read_corpus_non_utf8_is_parse_error(self, tmp_path, sample_xml):
        (tmp_path / "aa-0.xml").write_text(sample_xml)
        (tmp_path / "bad-0.xml").write_bytes(b"\xff\xfe<Profile/>")
        with pytest.raises(ProfileParseError) as err:
            read_corpus(tmp_path)
        assert str(err.value) == (
            f"{tmp_path / 'bad-0.xml'}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte"
        )


class TestInputBoundary:
    def test_read_input_keeps_class_and_fields(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": 1,\n "b": }')
        with pytest.raises(json.JSONDecodeError) as err:
            read_input(path, json.loads)
        assert (err.value.lineno, err.value.colno) == (2, 7)
        assert str(err.value).startswith(f"{path}: Expecting value")

    def test_read_input_returns_parse_result(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text('{"a": [1, "\u00e9"]}', encoding="utf-8")
        assert read_input(path, json.loads) == {"a": [1, "\u00e9"]}

    def test_read_input_drops_one_byte_order_mark(self, tmp_path):
        # A BOM is not part of the document: JSON after it is read (the
        # json module refuses a str that starts with one), and only one
        # leading mark is dropped.
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xef\xbb\xbf" + '{"a": "\u00e9"}'.encode())
        assert read_input(path, json.loads) == {"a": "\u00e9"}
        path.write_bytes(b"\xef\xbb\xbf" * 2 + b"{}")
        with pytest.raises(json.JSONDecodeError, match="BOM"):
            read_input(path, json.loads)

    def test_byte_order_mark_positions(self, tmp_path):
        # XML error columns count from the first character after the BOM;
        # a decode error keeps its byte position in the file.
        path = tmp_path / "doc.xml"
        document = b"<Profile><Meta></Profile>"
        path.write_bytes(document)
        with pytest.raises(ProfileParseError) as plain:
            read_input(path, parse_profile)
        path.write_bytes(b"\xef\xbb\xbf" + document)
        with pytest.raises(ProfileParseError) as marked:
            read_input(path, parse_profile)
        assert (marked.value.line, marked.value.column) == (plain.value.line, plain.value.column) == (1, 17)
        path.write_bytes(b"\xef\xbb\xbf<\xff")
        with pytest.raises(ProfileParseError, match="in position 4: invalid start byte"):
            read_input(path, parse_profile)

    @pytest.mark.parametrize(
        "value, kinds",
        [(True, (bool,)), (3, (int,)), (2.5, (int, float)), (None, (int, type(None))), ({}, (dict,))],
    )
    def test_typed_accepts(self, value, kinds):
        assert typed(value, "field", *kinds) is value

    def test_list_forms(self):
        assert typed(["a", "b"], "names", [str]) == ["a", "b"]
        assert typed([["a"], []], "groups", [[str]]) == [["a"], []]
        for value, kinds, message in [
            ("ab", ([str],), "names must be a list of strings, got 'ab'"),
            ([1], ([str],), "names must be a list of strings, got [1]"),
            ([["a", None]], ([[str]],), "names must be a list of lists of strings, got [['a', None]]"),
            (["a"], ([list],), "names must be a list of lists, got ['a']"),
            ("7", (int, type(None)), "names must be an integer or null, got '7'"),
            ([True], ([int],), "names must be a list of integers, got [True]"),
        ]:
            with pytest.raises(ValueError) as err:
                typed(value, "names", *kinds)
            assert str(err.value) == message

    @pytest.mark.parametrize(
        "kind, valid, mixed, message",
        [
            (str, ["a", ""], ["a", 1], "items must be a list of strings, got ['a', 1]"),
            (str, ["a"], ["a", True], "items must be a list of strings, got ['a', True]"),
            (list, [[], ["a", 1]], [[], "a"], "items must be a list of lists, got [[], 'a']"),
            (dict, [{}, {"a": 1}], [{}, ["a"]], "items must be a list of objects, got [{}, ['a']]"),
            (int, [1, 0], [1, True], "items must be a list of integers, got [1, True]"),
            (bool, [True, False], [True, 1], "items must be a list of booleans, got [True, 1]"),
            ([str], [["a"], []], [["a"], [None]], "items must be a list of lists of strings, got [['a'], [None]]"),
        ],
    )
    def test_list_check(self, kind, valid, mixed, message):
        assert typed(valid, "items", [kind]) is valid
        assert typed([], "items", [kind]) == []
        with pytest.raises(ValueError) as err:
            typed(mixed, "items", [kind])
        assert str(err.value) == message
