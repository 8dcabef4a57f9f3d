"""The ``binary1`` codec and framing layer, tested in isolation.

The one property everything else rests on: ``decode(encode(v)) == v``
EXACTLY for every JSON value — float bit patterns included — so the
binary wire can never change what a query answers, only how fast the
answer travels.  The oracle tests below close the loop against the
run-unit results the serve tier actually ships.
"""

import asyncio
import json
import math
import struct
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel.units import execute_unit as run_unit
from repro.serve import wire
from repro.serve.frontend import UNIT_KINDS
from repro.serve.wire import (
    FRAME_DOC,
    FRAME_QREQ,
    FRAME_QRESP,
    KIND_CODES,
    MAGIC,
    MAX_FRAME_LEN,
    SERVED_ORDER,
    BadFrame,
    DecodeMemo,
    EncodeMemo,
    FrameParser,
    ServedConnection,
    WireEndpoint,
    WireError,
    decode_frame,
    decode_value,
    encode_doc_frame,
    encode_value,
)

_HEADER = struct.Struct(">BBI")
_QREQ = struct.Struct(">QBB")
_QRESP = struct.Struct(">QdB")

#: One operating point per reproduced figure — the same set the
#: protocol-contract identity tests pin.
ORACLE_CASES = [
    ("sweep_point", {"mode": "single", "platform": "Tegra2", "freq": 1.0}),
    ("sweep_point", {"mode": "multi", "platform": "Exynos5250", "freq": 1.4}),
    ("fig6_point", {"app": "HPL", "max_nodes": 96, "n": 96}),
]


def bits(x: float) -> int:
    return struct.unpack("!Q", struct.pack("!d", x))[0]


def assert_identical(a, b):
    """Equality with float *bit-pattern* strictness, recursively."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, float):
        assert bits(a) == bits(b), (a.hex(), b.hex())
    elif isinstance(a, list):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_identical(x, y)
    elif isinstance(a, dict):
        assert sorted(a) == sorted(b)
        for k in a:
            assert_identical(a[k], b[k])
    else:
        assert a == b


class TestCodecRoundTrip:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 2**62, -(2**62),
        2**63 - 1, -(2**63),          # i64 edges
        2**63, 2**200, -(2**200),     # bigint spills
        0.0, -0.0, 1.5, -1.5, 1e308, 5e-324, math.inf, -math.inf,
        "", "plain", "uniçødé \U0001f600", "with\nnewline",
        [], [1, 2, 3], [[[]]], [None, True, 0.5, "x", {"k": []}],
        {}, {"a": 1}, {"nested": {"deep": [{"leaf": -0.0}]}},
    ])
    def test_round_trip_exact(self, value):
        assert_identical(decode_value(encode_value(value)), value)

    def test_nan_round_trips_bit_exact(self):
        # json.dumps would choke on NaN with allow_nan=False; the tag
        # codec carries the raw f64, payload bits preserved.
        out = decode_value(encode_value(math.nan))
        assert math.isnan(out) and bits(out) == bits(math.nan)

    def test_negative_zero_survives(self):
        out = decode_value(encode_value(-0.0))
        assert out == 0.0 and math.copysign(1.0, out) == -1.0

    def test_int_stays_int_float_stays_float(self):
        # 1 and 1.0 compare equal in Python; the wire must not conflate
        # them or the JSON and binary paths would answer differently.
        assert type(decode_value(encode_value(1))) is int
        assert type(decode_value(encode_value(1.0))) is float

    def test_dict_keys_coerced_like_json_dumps(self):
        mixed = {True: 1, 3: "x", 2.5: None, None: []}
        expected = json.loads(json.dumps(mixed))
        assert decode_value(encode_value(mixed)) == expected

    def test_canonical_equal_values_equal_bytes(self):
        a = {"b": 2, "a": 1}
        b = {"a": 1, "b": 2}
        assert encode_value(a) == encode_value(b)

    def test_tuple_encodes_as_list(self):
        assert decode_value(encode_value((1, 2))) == [1, 2]

    def test_off_domain_values_raise(self):
        for bad in (object(), {1, 2}, b"bytes", {"k": object()}):
            with pytest.raises(ValueError):
                encode_value(bad)


class TestCodecAdversarial:
    """Malformed payloads must raise, never crash or mis-decode."""

    @pytest.mark.parametrize("blob", [
        b"",                               # empty
        b"\xc1",                           # unknown tag
        b"\xdb\x00\x00\x00\x05ab",         # truncated string
        b"\xcb\x00\x00",                   # truncated float
        b"\xd3\x01",                       # truncated int
        b"\xdd\xff\xff\xff\xff",           # list count over payload
        b"\xdf\xff\xff\xff\xff",           # dict count over payload
        b"\xdf\x00\x00\x00\x01\xc0\xc0",   # non-string dict key
        b"\xd4\x00\x00\x00\x09abc",        # truncated bigint
        encode_value(1) + b"\x00",         # trailing bytes
        b"\xdb\xff\xff\xff\xff" + b"x" * 16,  # str length over payload
    ])
    def test_malformed_payload_raises_valueerror(self, blob):
        with pytest.raises(ValueError):
            decode_value(blob)

    def test_invalid_utf8_raises(self):
        with pytest.raises(ValueError):
            decode_value(b"\xdb\x00\x00\x00\x02\xff\xfe")


class TestFrames:
    def test_doc_frame_round_trip(self):
        doc = {"op": "query", "id": 7, "kind": "sweep_base", "params": {}}
        frame = encode_doc_frame(doc)
        magic, ftype, length = _HEADER.unpack_from(frame)
        assert magic == MAGIC and ftype == FRAME_DOC
        assert length == len(frame) - _HEADER.size
        out = decode_frame(ftype, frame[_HEADER.size:], DecodeMemo())
        assert out == doc

    def test_qreq_frame_decodes_to_query_doc(self):
        """Flag bit 1 is reserved (it carried the removed ``redirect``
        flag): an old client's flagged frame decodes as a plain query."""
        kind = UNIT_KINDS[1]
        params = {"freq": 1.0, "mode": "single", "platform": "Tegra2"}
        payload = (
            _QREQ.pack(42, 0x03, KIND_CODES[kind]) + encode_value(params)
        )
        doc = decode_frame(FRAME_QREQ, payload, DecodeMemo())
        assert doc == {
            "op": "query", "id": 42, "kind": kind, "params": params,
            "via": "direct",
        }

    def test_qresp_frame_decodes_to_response_doc(self):
        payload = _QRESP.pack(9, 0.25, 0) + encode_value({"v": [1.5]})
        doc = decode_frame(FRAME_QRESP, payload, DecodeMemo())
        assert doc == {
            "id": 9, "ok": True, "value": {"v": [1.5]},
            "served": SERVED_ORDER[0], "latency_s": 0.25,
        }

    @pytest.mark.parametrize("ftype,payload", [
        (0x7F, b""),                                    # unknown frame type
        (FRAME_DOC, b"\xc1"),                           # bad codec tag
        (FRAME_DOC, encode_value([1, 2])),              # doc not a dict
        (FRAME_QREQ, b"\x00"),                          # short QREQ header
        (FRAME_QREQ, _QREQ.pack(1, 0, 250) + b"\xc0"),  # unknown kind code
        (FRAME_QREQ, _QREQ.pack(1, 0, 0) + encode_value("x")),  # params not dict
        (FRAME_QRESP, _QRESP.pack(1, 0.0, 250) + b"\xc0"),  # unknown served
        (FRAME_QRESP, b"\x00\x00"),                     # short QRESP header
    ])
    def test_damaged_payload_is_badframe(self, ftype, payload):
        with pytest.raises(BadFrame):
            decode_frame(ftype, payload, DecodeMemo())

    def test_oversized_doc_payload_rejected_at_encode(self):
        with pytest.raises(ValueError):
            encode_doc_frame({"blob": "x" * (MAX_FRAME_LEN + 16)})


class _Transport:
    """A served connection's transport that keeps what is written."""

    def __init__(self):
        self.writes = []
        self.calls = []

    def set_write_buffer_limits(self, high):
        pass

    def is_closing(self):
        return False

    def write(self, data):
        self.writes.append(bytes(data))

    def pause_reading(self):
        self.calls.append("pause_reading")

    def resume_reading(self):
        self.calls.append("resume_reading")

    def close(self):
        self.calls.append("close")


def feed(proto, data, chunk=None):
    """Deliver ``data`` to a buffered protocol as its transport does:
    ``recv_into`` the buffer ``get_buffer`` returns, then
    ``buffer_updated``, at most ``chunk`` bytes (or the buffer's size)
    per read."""
    view = memoryview(data)
    while view:
        buf = proto.get_buffer(-1)
        n = min(len(buf), len(view), chunk or len(buf))
        buf[:n] = view[:n]
        proto.buffer_updated(n)
        view = view[n:]


class TestFramingChosenAtWriteTime:
    """Every byte after the hello ack is binary, also for requests that
    arrived in the same packet as the hello.  The ack is written and
    the mode flipped in one step, before the next request is parsed;
    pre-fix, ``send`` encoded before taking the write lock, so a
    response built during the ack's drain reached the socket as JSON
    after the flip to binary and the client's connection died with
    ``WireError``."""

    def test_responses_written_while_the_ack_drains_are_binary(self):
        async def scenario():
            transport = _Transport()
            conn = ServedConnection(WireEndpoint("127.0.0.1", 0, True))
            conn.connection_made(transport)
            feed(
                conn,
                b'{"op": "ping", "id": 0}\n'
                b'{"op": "hello", "id": 1, "wire": "binary1"}\n'
                + encode_doc_frame({"op": "ping", "id": 2}),
            )
            conn.write_response({"id": 3, "ok": True, "value": [1.5],
                                 "served": "cache", "latency_s": 0.25})
            conn.write_response({"id": 4, "ok": False, "error": "x"})
            return transport.writes

        writes = asyncio.run(scenario())
        assert [json.loads(w) for w in writes[:2]] == [
            {"id": 0, "ok": True}, {"id": 1, "ok": True, "wire": "binary1"},
        ]
        frames = {}
        for data in writes[2:]:
            magic, ftype, length = _HEADER.unpack_from(data)
            assert magic == MAGIC and length == len(data) - _HEADER.size
            doc = decode_frame(ftype, data[_HEADER.size:], DecodeMemo())
            frames[doc["id"]] = (ftype, doc)
        assert sorted(frames) == [2, 3, 4]
        assert frames[3] == (FRAME_QRESP, {
            "id": 3, "ok": True, "value": [1.5], "served": "cache",
            "latency_s": 0.25,
        })
        assert frames[2][0] == frames[4][0] == FRAME_DOC


def _served(stream_parts):
    """The bytes a served connection writes back for ``stream_parts``,
    each delivered as one read."""
    async def scenario():
        transport = _Transport()
        conn = ServedConnection(WireEndpoint("127.0.0.1", 0, True))
        conn.connection_made(transport)
        for part in stream_parts:
            feed(conn, part)
        return b"".join(transport.writes)

    return asyncio.run(scenario())


class TestBufferedRead:
    """Served connections and backend links read into one reused buffer
    per connection (``asyncio.BufferedProtocol``), so a packet costs no
    allocation; what is parsed must not depend on where reads end."""

    STREAM = (
        b'{"op": "ping", "id": 0}\n'
        b'{"op": "hello", "id": 1, "wire": "binary1"}\n'
        + encode_doc_frame({"op": "ping", "id": 2})
        + encode_doc_frame({"op": "ping", "id": 3})
    )

    def test_both_classes_are_buffered_protocols(self):
        from repro.serve.router import _LinkConnection

        for cls in (ServedConnection, _LinkConnection):
            assert issubclass(cls, asyncio.BufferedProtocol)
            assert issubclass(cls, wire.ReadBuffer)
            assert "data_received" not in vars(cls)

    def test_one_buffer_allocated_on_first_read_and_reused(self):
        async def scenario():
            conn = ServedConnection(WireEndpoint("127.0.0.1", 0, True))
            conn.connection_made(_Transport())
            assert conn._read_buf is None
            first = conn.get_buffer(-1)
            feed(conn, b'{"op": "ping", "id": 0}\n')
            return first, conn.get_buffer(4096)

        first, later = asyncio.run(scenario())
        assert later is first
        assert len(first) == wire.READ_CHUNK

    def test_stream_cut_at_every_byte_boundary(self):
        whole = _served([self.STREAM])
        assert whole.count(b'"ok": true') == 2  # ping 0 and the ack
        for cut in range(1, len(self.STREAM)):
            assert _served(
                [self.STREAM[:cut], self.STREAM[cut:]]
            ) == whole, cut

    def test_byte_at_a_time(self):
        async def scenario():
            transport = _Transport()
            conn = ServedConnection(WireEndpoint("127.0.0.1", 0, True))
            conn.connection_made(transport)
            feed(conn, self.STREAM, chunk=1)
            return b"".join(transport.writes)

        assert asyncio.run(scenario()) == _served([self.STREAM])

    def test_json_line_longer_than_the_read_buffer(self):
        pad = "x" * (2 * wire.READ_CHUNK + 17)
        line = json.dumps({"op": "ping", "id": 7, "pad": pad}).encode()
        out = _served([line + b"\n" + b'{"op": "ping", "id": 8}\n'])
        assert [json.loads(x) for x in out.splitlines()] == [
            {"id": 7, "ok": True}, {"id": 8, "ok": True},
        ]

    def test_nothing_parsed_while_reading_is_paused(self):
        async def scenario():
            transport = _Transport()
            conn = ServedConnection(WireEndpoint("127.0.0.1", 0, True))
            conn.connection_made(transport)
            conn.pause_writing()  # one reason to stop reading
            feed(conn, b'{"op": "ping", "id": 0}\n{"op": "ping", "id": 1}\n')
            held = list(transport.writes)
            conn.resume_writing()
            return transport, held

        transport, held = asyncio.run(scenario())
        assert held == []
        assert transport.calls == ["pause_reading", "resume_reading"]
        assert [json.loads(w) for w in transport.writes] == [
            {"id": 0, "ok": True}, {"id": 1, "ok": True},
        ]

    def test_eof_answers_an_unterminated_last_line(self):
        async def scenario():
            transport = _Transport()
            conn = ServedConnection(WireEndpoint("127.0.0.1", 0, True))
            conn.connection_made(transport)
            feed(conn, b'{"op": "ping", "id": 0}\n{"op": "ping", "id": 1}')
            before = len(transport.writes)
            assert conn.eof_received() is True
            return transport, before

        transport, before = asyncio.run(scenario())
        assert before == 1
        assert [json.loads(w) for w in transport.writes] == [
            {"id": 0, "ok": True}, {"id": 1, "ok": True},
        ]
        assert transport.calls[-1] == "close"

    def test_link_replies_cut_at_every_byte_boundary(self):
        from repro.serve.router import BackendLink, _LinkConnection

        replies = b"".join(
            (json.dumps({"id": i, "ok": True, "value": [i, 0.5]}) + "\n")
            .encode()
            for i in range(3)
        )

        async def scenario(parts):
            link = BackendLink("b0", "127.0.0.1", 1)
            got = []
            link._reply = got.append
            conn = _LinkConnection(link)
            conn.connection_made(_Transport())
            for part in parts:
                feed(conn, part)
            return got

        whole = asyncio.run(scenario([replies]))
        assert [doc["id"] for doc in whole] == [0, 1, 2]
        for cut in range(1, len(replies)):
            assert asyncio.run(
                scenario([replies[:cut], replies[cut:]])
            ) == whole, cut


class TestMemos:
    def test_encode_memo_identity_hit(self):
        memo = EncodeMemo()
        value = {"a": [1.5, 2.5]}
        first = memo.encode(value)
        assert memo.encode(value) is first          # same object: cached blob
        assert memo.encode({"a": [1.5, 2.5]}) == first  # equal object: equal bytes

    def test_encode_memo_pins_objects_against_id_reuse(self):
        # The id() key is sound only because the entry holds a strong
        # reference AND re-checks identity: a different object that
        # happens to collide must miss.
        memo = EncodeMemo(max_entries=4)
        blobs = [memo.encode({"i": i}) for i in range(16)]
        assert blobs == [encode_value({"i": i}) for i in range(16)]

    def test_encode_memo_evicts_at_cap(self):
        memo = EncodeMemo(max_entries=2)
        keep = [{"i": i} for i in range(5)]
        for value in keep:
            memo.encode(value)
        assert len(memo._entries) == 2

    def test_decode_memo_returns_shared_object(self):
        memo = DecodeMemo()
        blob = encode_value({"k": [1.0, 2.0]})
        assert memo.decode(blob) is memo.decode(bytes(blob))

    def test_decode_memo_propagates_badness(self):
        with pytest.raises(ValueError):
            DecodeMemo().decode(b"\xc1")


class TestOracleIdentity:
    """The codec round-trips the serve tier's REAL values — one
    representative run-unit result per reproduced figure — with exact
    float equality, and agrees with the JSON encoding byte-for-float."""

    @pytest.mark.parametrize("kind,params", ORACLE_CASES)
    def test_run_unit_value_round_trips_exact(self, kind, params):
        value = run_unit(kind, params)
        assert_identical(decode_value(encode_value(value)), value)

    @pytest.mark.parametrize("kind,params", ORACLE_CASES)
    def test_matches_json_round_trip(self, kind, params):
        # The JSON-lines wire is the reference behaviour: whatever
        # json round-trips a value to, the binary wire must match.
        value = run_unit(kind, params)
        via_json = json.loads(json.dumps(value))
        assert_identical(decode_value(encode_value(value)), via_json)

    @pytest.mark.parametrize("kind,params", ORACLE_CASES)
    def test_params_canonical_both_wires(self, kind, params):
        # Route keys and cache keys are derived from params: the binary
        # decode must hand back params the JSON path would recognise.
        decoded = decode_value(encode_value(params))
        assert json.dumps(decoded, sort_keys=True) == json.dumps(
            params, sort_keys=True
        )


# -- the shared frame parser, over any byte stream ---------------------------

#: A small cap, so that streams of a few hundred bytes cross it.
SMALL_CAP = 96

_docs = st.dictionaries(
    st.sampled_from(["op", "id", "kind", "wire", "x"]),
    st.one_of(st.integers(-5, 5), st.text(max_size=8), st.none()),
    max_size=4,
)
_json_items = st.one_of(
    _docs.map(lambda d: json.dumps(d).encode() + b"\n"),
    st.sampled_from([b"\n", b"  \n", b"{not json\n", b"[1, 2]\n", b"\xab\n",
                     b'{"x": "' + b"y" * SMALL_CAP + b'"}\n']),
    st.binary(max_size=24),
)
_frame_items = st.one_of(
    _docs.map(encode_doc_frame),
    st.sampled_from([
        b"\xab\x01\x00\x00\x00\x01\xc1",                   # undecodable
        b"\xab\x09\x00\x00\x00\x01\xc0",                   # unknown type
        bytes([MAGIC, FRAME_QREQ, 0, 0, 0, _QREQ.size + 5])
        + _QREQ.pack(7, 0, 1) + encode_value({}),          # a QREQ
        bytes([MAGIC, FRAME_DOC]) + struct.pack(">I", SMALL_CAP + 1),
        b"\xff" * 6,                                        # bad magic
    ]),
    st.binary(max_size=24),
)
_hello = json.dumps({"op": "hello", "id": 0, "wire": "binary1"}).encode() + b"\n"

#: JSON lines, optionally a hello and binary frames after it; or any bytes.
streams = st.one_of(
    st.tuples(
        st.lists(_json_items, max_size=6),
        st.booleans(),
        st.lists(_frame_items, max_size=6),
    ).map(lambda t: b"".join(t[0]) + (_hello + b"".join(t[2]) if t[1] else b"")),
    st.binary(max_size=300),
)


def parse_all(stream, cuts, sniff):
    """Feed ``stream`` split at ``cuts``; every outcome in order.  A
    hello offering binary1 flips the parser, as a served connection's
    ack does; a :class:`WireError` ends the stream."""
    parser = FrameParser(sniff)
    bounds = [0, *sorted(set(cuts)), len(stream)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        parser.feed(stream[lo:hi])
        while True:
            try:
                doc = parser.next()
            except BadFrame as exc:
                out.append(("bad", str(exc)))
                continue
            except WireError as exc:
                return out + [("wire", str(exc))]
            if doc is None:
                break
            out.append(("doc", doc))
            if doc.get("op") == "hello" and doc.get("wire") == "binary1":
                parser.binary = True
    try:
        out.append(("eof", parser.eof()))
    except BadFrame as exc:
        out.append(("bad", str(exc)))
    return out


class TestFrameParser:
    """One parser reads every serve connection, so its outcome must not
    depend on how the bytes were cut into reads."""

    @given(stream=streams, cuts=st.lists(st.integers(0, 400)),
           sniff=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_any_chunking_parses_like_one_piece(self, stream, cuts, sniff):
        cuts = [c for c in cuts if c <= len(stream)]
        with mock.patch.object(wire, "MAX_FRAME_LEN", SMALL_CAP):
            whole = parse_all(stream, [], sniff)
            # Only BadFrame/WireError may escape next() and eof(); any
            # other exception fails here.  repr() compares NaNs alike.
            assert repr(parse_all(stream, cuts, sniff)) == repr(whole)
            assert repr(parse_all(stream, range(len(stream)), sniff)) == repr(whole)

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_header_over_the_cap_raises_before_its_payload(self, data):
        """A binary header naming a payload over the cap raises as soon
        as its 6 bytes are in; an unterminated JSON line raises as soon
        as the cap is passed, whatever the read sizes."""
        with mock.patch.object(wire, "MAX_FRAME_LEN", SMALL_CAP):
            parser = FrameParser(sniff=True)
            header = bytes([MAGIC, FRAME_DOC]) + struct.pack(
                ">I", data.draw(st.integers(SMALL_CAP + 1, (1 << 32) - 1))
            )
            for i in range(len(header) - 1):
                parser.feed(header[i:i + 1])
                assert parser.next() is None
            parser.feed(header[-1:])
            with pytest.raises(WireError):
                parser.next()

            parser = FrameParser()
            fed = 0
            with pytest.raises(WireError):
                while True:
                    n = data.draw(st.integers(1, 40))
                    parser.feed(b"x" * n)
                    fed += n
                    assert parser.next() is None
                    assert fed <= SMALL_CAP
            assert fed > SMALL_CAP and fed - n <= SMALL_CAP
