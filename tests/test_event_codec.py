"""Property tests: the event-log codec's fast paths equal their references.

Each fast path of the codec keeps a reference beside it and must be
indistinguishable from that reference on every input:

* ``encode_event`` against the canonical dump of ``_sanitize(event)``,
  byte for byte, over payloads with non-finite floats, enums of every
  flavour, nested containers and unicode;
* ``scan_lines`` against a scan that classifies every line with
  ``_classify_line``, over mutated frames (upper-case hex, wrong
  lengths, flipped CRCs, torn tails, stray spaces);
* ``decode_events`` against per-line ``decode_event``, including the
  adversarial pairs that only parse once joined — the same events, or
  the same :class:`ReplayError` message.
"""

import enum
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.framing import (
    CORRUPT,
    OK,
    TRUNCATED,
    LineScan,
    _classify_line,
    frame_line,
    scan_lines,
)
from repro.replay.events import (
    ReplayError,
    _sanitize,
    decode_event,
    decode_events,
    encode_event,
)


class StrKind(str, enum.Enum):
    A = "alpha"
    B = "béta"


class IntKind(enum.IntEnum):
    ONE = 1
    BIG = 2**40


class FloatKind(float, enum.Enum):
    HALF = 0.5
    FOREVER = math.inf


class PlainKind(enum.Enum):
    NAME = "plain"
    NUMBER = 7
    NESTED = (1.5, math.inf)


def reference_encode(event):
    """The encoding before the fast path: always sanitize, then dump."""
    return json.dumps(
        _sanitize(event), sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def outcome(encode, event):
    """The bytes, or the exception, one encoder gives for ``event``.

    A plain enum whose value holds ``inf`` is refused by both encoders:
    ``_sanitize`` returns an enum's value without walking it.
    """
    try:
        return encode(event)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_LEAVES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.text(max_size=6),
    st.booleans(),
    st.none(),
    st.sampled_from([*StrKind, *IntKind, *FloatKind, *PlainKind]),
)

_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=12,
)


class TestEncoderEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(
        kind=st.text(min_size=1, max_size=12),
        seq=st.integers(min_value=0, max_value=10**6),
        payload=st.dictionaries(st.text(max_size=8), _VALUES, max_size=6),
    )
    def test_bytes_equal_the_sanitized_reference(self, kind, seq, payload):
        event = {"k": kind, "seq": seq, **payload}
        assert outcome(encode_event, event) == outcome(reference_encode, event)

    @pytest.mark.parametrize(
        "value",
        [math.inf, -math.inf, math.nan, PlainKind.NESTED, FloatKind.FOREVER,
         (1.0, (2.0, [math.inf])), StrKind.B, IntKind.BIG, "☃\U0001f600"],
    )
    def test_values_the_sanitizer_rewrites(self, value):
        event = {"k": "decision", "seq": 3, "until": value, "nested": {"v": [value]}}
        assert outcome(encode_event, event) == outcome(reference_encode, event)

    def test_fallback_does_not_mutate_the_event(self):
        event = {"k": "decision", "seq": 0, "until": math.inf, "tracks": ("V1",)}
        encode_event(event)
        assert event["until"] == math.inf and event["tracks"] == ("V1",)


def _event_payload(body):
    return encode_event({"k": "e", **body})


def classifier_scan(data):
    """``scan_lines`` with every line judged by ``_classify_line`` alone."""
    scan = LineScan(payloads=[])
    if not data:
        return scan
    lines = data.split(b"\n")
    for number, line in enumerate(lines[:-1], 1):
        payload, kind, detail = _classify_line(line)
        if kind is not OK:
            scan.damage = CORRUPT
            scan.damage_line = number
            scan.damage_detail = detail or "damaged line"
            return scan
        scan.payloads.append(payload)
    if lines[-1] != b"":
        payload, kind, detail = _classify_line(lines[-1])
        if kind is OK:
            scan.payloads.append(payload)
            scan.damage = TRUNCATED
            scan.damage_detail = "final line missing its terminator"
        else:
            scan.damage = kind
            scan.damage_detail = detail
        scan.damage_line = len(lines)
    return scan


def _swap(line, start, end, new):
    return line[:start] + new + line[end:]


def _rehex(line, start, end, change):
    """Rewrite one hex header field (left alone once it is not hex)."""
    try:
        value = int(line[start:end], 16)
    except ValueError:
        return line
    return _swap(line, start, end, b"%08x" % max(0, change(value)))


# Header layout: b"REV1 llllllll cccccccc <payload>" (length at 5:13,
# CRC at 14:22). Each mutation takes a framed line (no newline); they
# compose, so later ones may see an already-mangled header.
_MUTATIONS = {
    "none": lambda line: line,
    "upper_length": lambda line: _swap(line, 5, 13, line[5:13].upper()),
    "upper_crc": lambda line: _swap(line, 14, 22, line[14:22].upper()),
    "length_plus_one": lambda line: _rehex(line, 5, 13, lambda n: n + 1),
    "length_minus_one": lambda line: _rehex(line, 5, 13, lambda n: n - 1),
    "flipped_crc": lambda line: _rehex(line, 14, 22, lambda n: n ^ 1),
    "signed_length": lambda line: _swap(line, 5, 6, b"+"),
    "space_after_magic": lambda line: line[:4] + b" " + line[4:],
    "space_before_payload": lambda line: line[:22] + b" " + line[22:],
    "space_in_length": lambda line: _swap(line, 5, 6, b" "),
    "payload_byte": lambda line: line[:-1] + (b"x" if line[-1:] != b"x" else b"y"),
    "short_magic": lambda line: line[1:],
}


class TestScanEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        bodies=st.lists(
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
            min_size=1,
            max_size=6,
        ),
        mutations=st.lists(
            st.tuples(st.integers(min_value=0), st.sampled_from(sorted(_MUTATIONS))),
            max_size=3,
        ),
        tear=st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
    )
    def test_scan_equals_classifier_only_scan(self, bodies, mutations, tear):
        lines = [frame_line(_event_payload(body))[:-1] for body in bodies]
        for index, name in mutations:
            index %= len(lines)
            lines[index] = _MUTATIONS[name](lines[index])
        data = b"".join(line + b"\n" for line in lines)
        if tear is not None:
            data = data[: int(len(data) * tear)]
        fast, reference = scan_lines(data), classifier_scan(data)
        assert fast == reference

    @pytest.mark.parametrize("name", sorted(_MUTATIONS))
    def test_each_mutation_mid_log(self, name):
        lines = [
            frame_line(encode_event({"k": "e", "seq": seq, "v": 1.5}))[:-1]
            for seq in range(3)
        ]
        lines[1] = _MUTATIONS[name](lines[1])
        data = b"".join(line + b"\n" for line in lines)
        assert scan_lines(data) == classifier_scan(data)
        assert scan_lines(data[:-1]) == classifier_scan(data[:-1])


def per_line(payloads):
    """The reference decode: ``decode_event`` on each payload."""
    try:
        return [decode_event(payload) for payload in payloads], None
    except ReplayError as exc:
        return None, str(exc)


def one_parse(payloads):
    try:
        return decode_events(payloads), None
    except ReplayError as exc:
        return None, str(exc)


_FRAGMENTS = [
    b"{", b"}", b"[", b"]", b'"k"', b":", b",", b'"', b"1", b"1.5", b"e5",
    b"-", b" ", b"\t", b"null", b'"a"', b"\\", b"\\u00e9", b"\xc3\xa9",
    b"\xff", b"NaN", b"Infinity", b"\r",
]

_PAYLOADS = st.one_of(
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3).map(
        _event_payload
    ),
    st.lists(st.sampled_from(_FRAGMENTS), max_size=8).map(b"".join),
)


class TestDecodeEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(payloads=st.lists(_PAYLOADS, max_size=6))
    def test_one_parse_equals_per_line(self, payloads):
        assert one_parse(payloads) == per_line(payloads)

    def test_split_string_pair_raises_the_per_line_error(self):
        # Joined by a comma, the string opened in the first payload
        # swallows it and the pair reads as one valid object.
        pair = [b'{"k":"a","x":"', b'","y":1}']
        assert json.loads(b"[" + b",".join(pair) + b"]") == [
            {"k": "a", "x": ",", "y": 1}
        ]
        events, error = one_parse(pair)
        assert events is None
        assert (events, error) == per_line(pair)
        assert "invalid JSON" in error and "'{\"k\":\"a\",\"x\":\"'" in error

    def test_split_array_pair_raises_the_per_line_error(self):
        pair = [b'{"k":"a","x":[1', b'2]}']
        assert one_parse(pair) == per_line(pair)
        assert one_parse(pair)[1] is not None

    @pytest.mark.parametrize(
        "payload",
        [b' {"k":"a"}', b'{"k":"a"} ', b'\t{"k":"a"}\r', b'{"k":"\xc3\xa9"}'],
    )
    def test_per_line_leniency_is_kept(self, payload):
        # Whitespace and raw UTF-8 are outside the canonical encoding
        # but always decoded; the fast path hands them to decode_event.
        payloads = [encode_event({"k": "a", "seq": 0}), payload]
        assert one_parse(payloads) == per_line(payloads)
        assert one_parse(payloads)[1] is None

    @pytest.mark.parametrize(
        "payload", [b"", b"[1]", b'{"seq":1}', b"1", b'"k"', b'{"k":"a"}{}']
    )
    def test_rejections_match(self, payload):
        payloads = [encode_event({"k": "a", "seq": 0}), payload]
        assert one_parse(payloads) == per_line(payloads)
        assert one_parse(payloads)[1] is not None
