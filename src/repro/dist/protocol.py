"""Wire protocol for the distributed sweep fabric.

Framing
-------
Every message is one frame::

    +----------------+----------------+----------~~--+--------~~--+
    | json_len (u32) | blob_len (u32) |  JSON bytes  | blob bytes |
    +----------------+----------------+----------~~--+--------~~--+

Both lengths are big-endian.  The JSON part carries the message
(``{"t": <type>, ...}``); the optional blob carries bulk payloads (trace
shards, batch plans) so they never pass through the JSON encoder.  The
protocol is versioned like ``CACHE_SCHEMA``: the worker sends
``DIST_SCHEMA`` in its hello and the coordinator rejects mismatches.

Wire codecs
-----------
``point_to_wire``/``result_to_wire`` serialize :class:`SweepPoint` and
:class:`SimResult` so that a result decoded on the coordinator is
*bit-identical* to one produced locally: the decoder applies the exact
coercion :meth:`DiskCache.load_result` uses (``int`` counts, ``float``
stat values), and JSON round-trips Python floats exactly.
"""
from __future__ import annotations

import dataclasses
import json
import socket
import struct
from typing import Any, Dict, Optional, Tuple

from ..core.config import MachineConfig
from ..core.exec.engine import SweepPoint
from ..core.simulator import SimResult
from ..obs.observer import ObsSpec

#: Protocol schema version.  Bump on any incompatible frame or message
#: change; the coordinator rejects workers with a different version.
DIST_SCHEMA = 1

_HEADER = struct.Struct(">II")

#: Upper bound on the JSON part of a frame (sanity cap, not a protocol
#: limit): leases carry at most a few thousand points.
MAX_JSON = 64 * 1024 * 1024
#: Upper bound on the blob part (largest legal payload is a trace shard).
MAX_BLOB = 512 * 1024 * 1024

DEFAULT_PORT = 7421


class ProtocolError(Exception):
    """Malformed frame or message (bad header, oversized, bad JSON)."""


class ConnectionClosed(Exception):
    """Peer closed the connection (cleanly or mid-frame)."""


def parse_dist_url(url: str) -> Tuple[str, int]:
    """``dist://host:port`` / ``tcp://host:port`` / ``host:port`` -> (host, port)."""
    spec = url.strip()
    for scheme in ("dist://", "tcp://"):
        if spec.startswith(scheme):
            spec = spec[len(scheme):]
            break
    if not spec:
        raise ValueError(f"empty dist address: {url!r}")
    host, sep, port_s = spec.rpartition(":")
    if not sep:
        return spec, DEFAULT_PORT
    try:
        port = int(port_s)
    except ValueError:
        raise ValueError(f"bad port in dist address: {url!r}") from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in dist address: {url!r}")
    return host or "127.0.0.1", port


# -- sync frame I/O (worker side) -----------------------------------------------


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionClosed(f"connection closed after {len(buf)}/{n} bytes")
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock: socket.socket, msg: Dict[str, Any], blob: bytes = b"") -> None:
    payload = json.dumps(msg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    sock.sendall(_HEADER.pack(len(payload), len(blob)) + payload + blob)


def recv_frame(sock: socket.socket) -> Tuple[Dict[str, Any], bytes]:
    header = _recv_exact(sock, _HEADER.size)
    json_len, blob_len = _HEADER.unpack(header)
    if json_len > MAX_JSON or blob_len > MAX_BLOB:
        raise ProtocolError(f"oversized frame: json={json_len} blob={blob_len}")
    payload = _recv_exact(sock, json_len)
    blob = _recv_exact(sock, blob_len) if blob_len else b""
    try:
        msg = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return msg, blob


# -- async frame I/O (coordinator side) -----------------------------------------


async def read_frame(reader) -> Tuple[Dict[str, Any], bytes]:
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed(str(exc)) from exc
    json_len, blob_len = _HEADER.unpack(header)
    if json_len > MAX_JSON or blob_len > MAX_BLOB:
        raise ProtocolError(f"oversized frame: json={json_len} blob={blob_len}")
    try:
        payload = await reader.readexactly(json_len)
        blob = await reader.readexactly(blob_len) if blob_len else b""
    except (asyncio.IncompleteReadError, ConnectionResetError) as exc:
        raise ConnectionClosed(str(exc)) from exc
    try:
        msg = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad frame payload: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError("frame payload is not a JSON object")
    return msg, blob


async def write_frame(writer, msg: Dict[str, Any], blob: bytes = b"") -> None:
    payload = json.dumps(msg, sort_keys=True, separators=(",", ":")).encode("utf-8")
    writer.write(_HEADER.pack(len(payload), len(blob)) + payload + blob)
    await writer.drain()


# -- wire codecs ----------------------------------------------------------------


def config_to_wire(config: MachineConfig) -> Dict[str, Any]:
    return dataclasses.asdict(config)


def config_from_wire(doc: Dict[str, Any]) -> MachineConfig:
    return MachineConfig(**doc)


def point_to_wire(point: SweepPoint) -> Dict[str, Any]:
    doc = {
        "config": config_to_wire(point.config),
        "workload": point.workload,
        "length": point.length,
        "warmup": point.warmup,
        "seed": point.seed,
    }
    if point.obs is not None:
        doc["obs"] = dataclasses.asdict(point.obs)
    return doc


def point_from_wire(doc: Dict[str, Any]) -> SweepPoint:
    obs = doc.get("obs")
    return SweepPoint(
        config=config_from_wire(doc["config"]),
        workload=str(doc["workload"]),
        length=int(doc["length"]),
        warmup=int(doc["warmup"]),
        seed=int(doc["seed"]),
        obs=ObsSpec(**obs) if obs is not None else None,
    )


def result_to_wire(result: SimResult) -> Dict[str, Any]:
    return {
        "name": result.name,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "stats": result.stats,
        "structure": result.structure,
    }


def result_from_wire(doc: Dict[str, Any]) -> SimResult:
    # Exactly DiskCache.load_result's coercion, so a remote result is
    # indistinguishable from a cache hit.
    return SimResult(
        name=str(doc["name"]),
        instructions=int(doc["instructions"]),
        cycles=int(doc["cycles"]),
        stats={str(k): float(v) for k, v in dict(doc.get("stats") or {}).items()},
        structure={
            str(k): float(v) for k, v in dict(doc.get("structure") or {}).items()
        },
    )
