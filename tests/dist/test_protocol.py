"""Unit tests for the dist wire protocol: framing and codecs."""

import dataclasses
import socket

import pytest

from repro.core.config import hetero_btb, ibtb, rbtb
from repro.core.exec import SweepPoint, execute_point
from repro.dist.protocol import (
    DEFAULT_PORT,
    DIST_SCHEMA,
    ConnectionClosed,
    ProtocolError,
    config_from_wire,
    config_to_wire,
    parse_dist_url,
    point_from_wire,
    point_to_wire,
    recv_frame,
    result_from_wire,
    result_to_wire,
    send_frame,
)
from repro.obs.observer import ObsSpec

# -- address parsing ----------------------------------------------------------


@pytest.mark.parametrize(
    "url, expected",
    [
        ("dist://example:9000", ("example", 9000)),
        ("tcp://example:9000", ("example", 9000)),
        ("example:9000", ("example", 9000)),
        ("example", ("example", DEFAULT_PORT)),
        (":9000", ("127.0.0.1", 9000)),
        (" dist://h:1 ", ("h", 1)),
    ],
)
def test_parse_dist_url(url, expected):
    assert parse_dist_url(url) == expected


@pytest.mark.parametrize("url", ["", "dist://", "h:nope", "h:70000", "h:-1"])
def test_parse_dist_url_rejects(url):
    with pytest.raises(ValueError):
        parse_dist_url(url)


# -- framing ------------------------------------------------------------------


def _pair():
    a, b = socket.socketpair()
    a.settimeout(5)
    b.settimeout(5)
    return a, b


def test_frame_round_trip_with_blob():
    a, b = _pair()
    try:
        blob = bytes(range(256)) * 100
        send_frame(a, {"t": "blob", "n": 1}, blob)
        msg, got = recv_frame(b)
        assert msg == {"t": "blob", "n": 1}
        assert got == blob
    finally:
        a.close()
        b.close()


def test_frame_without_blob():
    a, b = _pair()
    try:
        send_frame(a, {"t": "hb"})
        msg, blob = recv_frame(b)
        assert msg == {"t": "hb"}
        assert blob == b""
    finally:
        a.close()
        b.close()


def test_truncated_frame_raises_connection_closed():
    a, b = _pair()
    try:
        # Header promises more bytes than ever arrive.
        a.sendall(b"\x00\x00\x00\x10\x00\x00\x00\x00{}")
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
    finally:
        b.close()


def test_clean_eof_raises_connection_closed():
    a, b = _pair()
    try:
        a.close()
        with pytest.raises(ConnectionClosed):
            recv_frame(b)
    finally:
        b.close()


def test_oversized_header_raises_protocol_error():
    a, b = _pair()
    try:
        a.sendall(b"\xff\xff\xff\xff\x00\x00\x00\x00")
        with pytest.raises(ProtocolError, match="oversized"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_non_json_payload_raises_protocol_error():
    a, b = _pair()
    try:
        a.sendall(b"\x00\x00\x00\x04\x00\x00\x00\x00junk")
        with pytest.raises(ProtocolError, match="bad frame payload"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


def test_non_object_payload_raises_protocol_error():
    a, b = _pair()
    try:
        a.sendall(b"\x00\x00\x00\x02\x00\x00\x00\x00[]")
        with pytest.raises(ProtocolError, match="not a JSON object"):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# -- codecs -------------------------------------------------------------------


@pytest.mark.parametrize(
    "config", [ibtb(16), rbtb(3, interleaved=True), hetero_btb()]
)
def test_config_wire_round_trip(config):
    import json

    doc = json.loads(json.dumps(config_to_wire(config)))
    assert config_from_wire(doc) == config


def test_point_wire_round_trip():
    point = SweepPoint(rbtb(2), "web_frontend", 4000, 1000, 11)
    assert point_from_wire(point_to_wire(point)) == point


def test_point_with_obs_round_trips():
    """Observed points travel to local worker sessions, which store the
    artifact beside the cached result (``dispatch=dist://`` still
    refuses them in ``run_points``)."""
    point = SweepPoint(
        ibtb(16), "web_frontend", 4000, 1000, 7,
        obs=ObsSpec(events=False, interval=500),
    )
    assert point_from_wire(point_to_wire(point)) == point


def test_result_wire_round_trip_is_bit_identical():
    """The acceptance invariant at codec level: a SimResult that crosses
    the wire (including a JSON round trip) equals the original exactly —
    same types, same float bits."""
    import json

    result = execute_point(SweepPoint(ibtb(16), "web_frontend", 3000, 500, 7))
    doc = json.loads(json.dumps(result_to_wire(result), sort_keys=True))
    back = result_from_wire(doc)
    assert back == result
    assert type(back.instructions) is int and type(back.cycles) is int
    assert all(type(v) is float for v in back.stats.values())


def test_dist_schema_is_versioned():
    assert isinstance(DIST_SCHEMA, int) and DIST_SCHEMA >= 1
