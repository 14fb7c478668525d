"""Framed asyncio transport: listeners, links, dial-with-retry.

A :class:`Link` is one TCP connection carrying codec frames; a
:class:`PeerTransport` is one node's network identity -- its listening
socket plus every link it holds, keyed by the remote's node id (learned
from the HELLO frame that opens every dialled connection).

Delivery semantics mirror the simulator's RPC fabric: sends are
fire-and-forget (a send to a vanished peer is dropped, not raised) and a
broken connection surfaces as churn -- the owner's ``on_link_lost`` hook
fires, which the net peer maps to the same partner-drop path a BM-silence
timeout takes.  Connect attempts get timeout/retry/exponential-backoff
(:class:`~repro.net.config.NetConfig`); exhausted retries count as
``net.connect_failures``.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, Optional, Tuple

from repro.net.codec import CodecError, FrameDecoder, MsgType, encode_frame
from repro.obs import inc as _obs_inc

__all__ = ["NetStats", "Link", "PeerTransport"]


class NetStats:
    """Deployment-wide transport counters (one instance per backend).

    Mirrored into ambient obs counters under ``net.*``; kept locally too
    so benchmarks and snapshots can read them with observability off.
    """

    __slots__ = ("messages_sent", "messages_received", "bytes_sent",
                 "bytes_received", "connect_failures", "connect_retries",
                 "retransmits", "frames_rejected")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.connect_failures = 0
        self.connect_retries = 0
        self.retransmits = 0
        self.frames_rejected = 0

    def as_dict(self) -> Dict[str, float]:
        """Snapshot for metrics/benchmarks."""
        return {f"net.{name}": float(getattr(self, name))
                for name in self.__slots__}


MessageHandler = Callable[["Link", MsgType, Dict[str, Any]], None]
LinkLostHandler = Callable[["Link"], None]


class Link:
    """One framed TCP connection to a remote node."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        stats: NetStats,
        max_frame_bytes: int,
        remote_id: Optional[int] = None,
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._stats = stats
        self._decoder = FrameDecoder(max_frame_bytes=max_frame_bytes)
        self._max_frame = max_frame_bytes
        self.remote_id = remote_id
        self.closed = False
        self._read_task: Optional[asyncio.Task] = None

    def send(self, msg_type: MsgType, payload: Dict[str, Any]) -> bool:
        """Write one frame; False (never raises) when the link is down."""
        if self.closed:
            return False
        try:
            frame = encode_frame(msg_type, payload,
                                 max_frame_bytes=self._max_frame)
            self._writer.write(frame)
        except (CodecError, ConnectionError, RuntimeError, OSError):
            self.close()
            return False
        stats = self._stats
        stats.messages_sent += 1
        stats.bytes_sent += len(frame)
        _obs_inc("net.messages_sent")
        _obs_inc("net.bytes_sent", len(frame))
        return True

    def start_reading(self, on_message: MessageHandler,
                      on_lost: LinkLostHandler) -> None:
        """Spawn the read loop; ``on_lost`` fires once on EOF/error."""
        self._read_task = asyncio.ensure_future(
            self._read_loop(on_message, on_lost))

    async def _read_loop(self, on_message: MessageHandler,
                         on_lost: LinkLostHandler) -> None:
        stats = self._stats
        try:
            while True:
                data = await self._reader.read(65536)
                if not data:
                    break
                stats.bytes_received += len(data)
                _obs_inc("net.bytes_received", len(data))
                for msg_type, payload in self._decoder.feed(data):
                    stats.messages_received += 1
                    _obs_inc("net.messages_received")
                    on_message(self, msg_type, payload)
        except CodecError:
            # a peer speaking garbage loses its connection, nothing more
            stats.frames_rejected += 1
            _obs_inc("net.frames_rejected")
        except (ConnectionError, OSError, asyncio.CancelledError):
            pass
        finally:
            self.close()
            on_lost(self)

    def close(self) -> None:
        """Close the underlying connection.  Idempotent; buffered writes
        are flushed by the OS before FIN."""
        if self.closed:
            return
        self.closed = True
        try:
            self._writer.close()
        except (ConnectionError, RuntimeError, OSError):  # pragma: no cover
            pass

    def cancel(self) -> None:
        """Tear down abruptly (kill-peer harnesses): stop reading too."""
        self.close()
        if self._read_task is not None:
            self._read_task.cancel()


async def dial(
    host: str,
    port: int,
    *,
    timeout_s: float,
    retries: int,
    backoff_s: float,
    stats: NetStats,
) -> Optional[Tuple[asyncio.StreamReader, asyncio.StreamWriter]]:
    """Connect with timeout/retry/exponential backoff.

    Returns ``None`` after the final attempt fails (counted as one
    ``net.connect_failures``); intermediate failures count as
    ``net.connect_retries``.
    """
    delay = backoff_s
    for attempt in range(retries + 1):
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout=timeout_s)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt == retries:
                break
            stats.connect_retries += 1
            _obs_inc("net.connect_retries")
            await asyncio.sleep(delay)
            delay *= 2
    stats.connect_failures += 1
    _obs_inc("net.connect_failures")
    return None


class PeerTransport:
    """One node's sockets: a listener plus links keyed by remote node id.

    ``on_message``/``on_link_lost`` are installed by the owning peer;
    every dialled connection self-identifies with a HELLO frame so the
    acceptor can key the link before protocol traffic flows.
    """

    def __init__(
        self,
        node_id: int,
        *,
        net,
        stats: NetStats,
        on_message: MessageHandler,
        on_link_lost: LinkLostHandler,
    ) -> None:
        self.node_id = node_id
        self._net = net
        self._stats = stats
        self._on_message = on_message
        self._on_link_lost = on_link_lost
        self.links: Dict[int, Link] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None
        self._dialing: Dict[int, asyncio.Task] = {}
        self.closed = False

    # --- listener -----------------------------------------------------
    async def start(self) -> Tuple[str, int]:
        """Bind the listening socket (ephemeral port) and return its
        address."""
        self._server = await asyncio.start_server(
            self._accept, host=self._net.host, port=0)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    async def _accept(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        link = Link(reader, writer, stats=self._stats,
                    max_frame_bytes=self._net.max_frame_bytes)
        link.start_reading(self._dispatch, self._lost)

    # --- inbound ------------------------------------------------------
    def _dispatch(self, link: Link, msg_type: MsgType,
                  payload: Dict[str, Any]) -> None:
        if self.closed:
            return
        if msg_type is MsgType.HELLO:
            try:
                remote = int(payload["node_id"])
            except (KeyError, TypeError, ValueError):
                link.close()
                return
            link.remote_id = remote
            old = self.links.get(remote)
            if old is not None and old is not link:
                old.close()
            self.links[remote] = link
            # fall through: the owner learns the dialler's listen address
        self._on_message(link, msg_type, payload)

    def _lost(self, link: Link) -> None:
        if link.remote_id is not None:
            if self.links.get(link.remote_id) is link:
                del self.links[link.remote_id]
        if not self.closed:
            self._on_link_lost(link)

    # --- outbound -----------------------------------------------------
    def send(self, dst: int, msg_type: MsgType,
             payload: Dict[str, Any]) -> bool:
        """Send on an existing link; False when there is none (the net
        analogue of an RPC to a departed node -- dropped silently)."""
        link = self.links.get(dst)
        if link is None or link.closed:
            return False
        return link.send(msg_type, payload)

    def connect_and_send(
        self,
        dst: int,
        address: Tuple[str, int],
        msg_type: MsgType,
        payload: Dict[str, Any],
        *,
        on_failure: Optional[Callable[[int], None]] = None,
    ) -> None:
        """Dial ``dst`` (async, with retry/backoff) and send one frame.

        Used for partnership establishment -- the only message legal on a
        fresh connection.  If a link already exists the frame goes on it;
        if a dial to ``dst`` is in flight the call is dropped (the
        partnership layer's pending-request bookkeeping prevents this).
        """
        if self.send(dst, msg_type, payload):
            return
        if dst in self._dialing or self.closed:
            return
        task = asyncio.ensure_future(
            self._dial_and_send(dst, address, msg_type, payload, on_failure))
        self._dialing[dst] = task
        task.add_done_callback(lambda _t: self._dialing.pop(dst, None))

    async def _dial_and_send(self, dst, address, msg_type, payload,
                             on_failure) -> None:
        conn = await dial(
            address[0], address[1],
            timeout_s=self._net.connect_timeout_s,
            retries=self._net.connect_retries,
            backoff_s=self._net.connect_backoff_s,
            stats=self._stats,
        )
        if conn is None or self.closed:
            if conn is not None:
                conn[1].close()
            if on_failure is not None and not self.closed:
                on_failure(dst)
            return
        reader, writer = conn
        link = Link(reader, writer, stats=self._stats,
                    max_frame_bytes=self._net.max_frame_bytes,
                    remote_id=dst)
        old = self.links.get(dst)
        if old is not None:
            old.close()
        self.links[dst] = link
        link.start_reading(self._dispatch, self._lost)
        host, port = self.address if self.address else (self._net.host, 0)
        link.send(MsgType.HELLO,
                  {"node_id": self.node_id, "host": host, "port": port})
        link.send(msg_type, payload)

    def drop_link(self, dst: int) -> None:
        """Close the link to ``dst`` (graceful close already sent)."""
        link = self.links.pop(dst, None)
        if link is not None:
            link.close()

    # --- teardown -----------------------------------------------------
    def close(self, *, abort: bool = False) -> None:
        """Close the listener and every link.  ``abort`` models a crash:
        read loops are cancelled so no goodbye of any kind escapes.  The
        owner's handlers, never called again, are dropped: a link still
        draining holds no departed node."""
        self.closed = True
        self._on_message = self._on_link_lost = lambda *_: None
        for task in list(self._dialing.values()):
            task.cancel()
        self._dialing.clear()
        for link in list(self.links.values()):
            if abort:
                link.cancel()
            else:
                link.close()
        self.links.clear()
        if self._server is not None:
            self._server.close()
            self._server = None
