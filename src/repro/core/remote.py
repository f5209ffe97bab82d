"""Frame protocol, the one frame server, and multi-node corner fan-out.

Every socket in this package speaks one protocol, served by one
:class:`FrameServer` and dialled by one :class:`FrameClient`.  Two
handler sets plug into that skeleton:

* :class:`RemoteWorkerServer` (``seed``/``task``) — run on any host via
  ``repro worker --listen host:port``; unpickles task state into its
  content-addressed seed cache, the worker's one store of warm state,
  and executes items on it across tasks, connections and optimizer
  iterations.  Its client half is :class:`RemoteCornerExecutor`,
  selected with ``--executor remote:host:port[,host:port...]``; it
  registers as an executor backend, so the engine's forward-replay
  seam and the Monte-Carlo seam route through it unchanged.
* :class:`repro.core.serve.ServeDaemon` (``submit``/``status``/``list``/
  ``cancel``/``watch``) — the ``repro serve`` design-job daemon.

Wire protocol
-------------
Every message is a *frame*: an 8-byte big-endian payload length, a
16-byte BLAKE2b digest of the payload, then the pickled payload itself.
The receiver verifies length bounds and the digest before unpickling, so
a truncated or corrupted stream fails loudly instead of poisoning a
trajectory.  On top of the framing, :class:`FrameServer` owns what both
servers share:

* **Handshake** — the client opens with ``hello`` (protocol version +
  its heartbeat interval + its dead-peer timeout); the server answers
  ``welcome`` (version + pid + its gauge snapshot) or a descriptive
  ``error``.  Version skew is detected by both sides and reported as an
  error, never a hang, and the server clamps the heartbeat cadence
  strictly inside the client's timeout window (refusing a window too
  small for any beat to fit).
* **Dispatch** — ``bye`` ends a connection, ``ping`` is answered
  ``pong``, an unknown kind is refused, and every other kind goes to
  the handler the server registered for it.

The worker's handler set:

* **Seeding** — task state (the device-carrying closure) is named by
  its content digest (its *key*) and shipped only on demand: the client
  sends the ``task`` first, and a worker that does not hold the key
  (first contact, restart, LRU eviction) answers ``need-seed``.  The
  client then sends a ``seed`` frame carrying the pickled closure, and
  the server verifies the digest before unpickling (a mismatch is a
  descriptive error) and caches the closure in a bounded LRU shared by
  all its connections.  The cached closure *is* the warm state: its
  device keeps the re-warmed workspace and calibration caches for every
  later task with the same key.  The engine's closures carry no
  per-iteration state (the solver epoch and the Monte-Carlo pattern
  ride each item), so a device ships once per worker for a whole
  optimization, and a fresh connection — every remote Monte-Carlo call
  opens one — reuses what the worker holds.  Content addressing is
  also the isolation: a reconfigured device or a wavelength clone
  pickles to another key and so gets its own entry, and each optimizer
  run tags its design closures so runs never share one.
* **Tasks** — ``task`` frames carry only the key and the item (a few
  design-shaped arrays); the server executes the seeded closure on it
  and replies ``result``.  Two clients can send byte-identical
  closures, so each seed carries a lock and its tasks run one at a time
  (tasks of different seeds still overlap).  While a task runs or waits
  for that lock the server emits ``busy`` heartbeats at the client's
  requested interval, so the client's socket timeout
  (``--remote-timeout``) bounds *dead-worker detection* without
  bounding task duration.

Failure semantics
-----------------
First contact retries: dialing a worker that refuses or resets the
connection (typically one still binding its listen socket) is retried
with exponential backoff and jitter (:data:`_CONNECT_ATTEMPTS` tries)
before the worker is written off.  Worker death after that (socket EOF,
refused reconnect, heartbeat silence) is survivable: the dying worker's
queued and in-flight items are resubmitted to surviving workers, and
because every item is a pure function of its payload the final ordered
reduction is unchanged — for LU-backed solver backends, bitwise.  A task
that *raises* on a worker is not resubmitted (it would raise identically
everywhere); the remote traceback surfaces in the parent as
:class:`RemoteTaskError`.  Only when every worker is dead does the
fan-out raise :class:`RemoteFleetDead`, listing each worker's failure —
the engine catches exactly that to checkpoint and degrade to in-process
execution instead of aborting the run.  On the server side,
SIGTERM/SIGINT (``repro worker``/``repro serve``) trigger a graceful
drain: the accept loop closes, in-flight work finishes and its frames
reach the wire, then the process exits 0.

No authentication or transport encryption yet: run servers on trusted
networks only (the seeded closures are arbitrary pickles).  See the
ROADMAP's multi-node item for what auth/TLS would take.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import random
import socket
import struct
import threading
import time
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.executors import CornerExecutor
from repro.obs.metrics import get_metrics, rss_bytes
from repro.obs.trace import span

__all__ = [
    "PROTOCOL_VERSION",
    "DEFAULT_REMOTE_TIMEOUT",
    "MIN_REMOTE_TIMEOUT",
    "client_heartbeat_interval",
    "negotiate_heartbeat",
    "RemoteProtocolError",
    "RemoteTaskError",
    "RemoteWorkerDied",
    "RemoteFleetDead",
    "FaultInjection",
    "FrameServer",
    "FrameClient",
    "RemoteWorkerServer",
    "RemoteCornerExecutor",
    "parse_worker_addresses",
    "start_worker_subprocess",
]

#: Bumped whenever the frame layout or message schema changes; both ends
#: refuse a peer speaking another version with a descriptive error.
PROTOCOL_VERSION = 1

#: Dead-worker detection bound (seconds): the longest silence — no
#: result, no ``busy`` heartbeat — the client tolerates before declaring
#: a worker dead and resubmitting its work.  CLI ``--remote-timeout``.
DEFAULT_REMOTE_TIMEOUT = 30.0

#: Floor on the ``busy`` heartbeat cadence: beating faster than this
#: would burn worker CPU on liveness traffic without improving
#: detection latency meaningfully.
_MIN_HEARTBEAT = 0.05

#: Smallest usable dead-worker timeout.  The heartbeat cadence must fit
#: *strictly inside* the timeout window (a beat at or past the deadline
#: cannot prove liveness in time), and the cadence itself is floored at
#: ``_MIN_HEARTBEAT`` — so any timeout at or below twice that floor
#: leaves no room for a beat and is refused descriptively.
MIN_REMOTE_TIMEOUT = 2 * _MIN_HEARTBEAT

#: Connection attempts per worker address at checkout time.  A worker
#: still binding its listen socket (fleet and driver launched together)
#: refuses the first dial; retrying with backoff turns that race into a
#: short wait instead of a lost worker.
_CONNECT_ATTEMPTS = 3

#: Exponential-backoff schedule between connect attempts: base doubles
#: per retry, capped, with multiplicative jitter in [0.5, 1.5) so a
#: driver dialing many workers does not retry them in lockstep.
_CONNECT_BACKOFF_BASE = 0.1
_CONNECT_BACKOFF_CAP = 2.0

#: 8-byte payload length + 16-byte BLAKE2b payload digest.
_FRAME_HEADER = struct.Struct(">Q16s")
#: Refuse absurd frames before allocating (a corrupted length field
#: would otherwise ask for petabytes).
_MAX_FRAME_BYTES = 1 << 31
#: Seeded task closures kept per worker server: the one bound on the
#: warm task states it holds.  Each entry can pin a device plus its
#: (re-warmed) workspace, so the bound is small — stale task states age
#: out naturally.
_MAX_SEEDS = 8


class RemoteProtocolError(RuntimeError):
    """Version skew, digest mismatch, or malformed frames — not retried."""


class RemoteTaskError(RuntimeError):
    """A task raised on the worker; carries the remote traceback."""


class RemoteWorkerDied(RuntimeError):
    """Connection lost or heartbeat silence; work is resubmitted."""


class RemoteFleetDead(RuntimeError):
    """Every remote worker died before the fan-out completed.

    Carries the per-worker failure detail (``worker_failures``) and the
    indices of the items left unfinished (``missing``) so the engine's
    degradation path can log exactly what was lost before falling back
    to an in-process executor.
    """

    def __init__(
        self,
        message: str,
        worker_failures: "Sequence[str]" = (),
        missing: "Sequence[int]" = (),
    ):
        super().__init__(message)
        self.worker_failures = list(worker_failures)
        self.missing = list(missing)


def client_heartbeat_interval(timeout: float) -> float:
    """Busy-beat cadence a client requests for a given dead-peer timeout.

    Four beats per timeout window, floored at ``_MIN_HEARTBEAT`` and
    capped at half the timeout so the cadence always sits strictly
    inside the window: a healthy-but-busy peer proves liveness with
    room to spare even when the floor binds.
    """
    return min(max(_MIN_HEARTBEAT, timeout / 4.0), timeout / 2.0)


def negotiate_heartbeat(
    requested: float, client_timeout: "float | None" = None
) -> float:
    """Server-side clamp of a client's requested heartbeat cadence.

    The cadence is floored at ``_MIN_HEARTBEAT``; when the client also
    announced its dead-peer ``timeout`` (protocol v1 clients that
    predate the field simply omit it), the cadence is additionally
    clamped to half that timeout so a busy server always beats in time.
    A timeout so small that even the floor cadence cannot fit inside it
    raises :class:`RemoteProtocolError` — the handshake is refused
    descriptively instead of accepting a config under which every long
    task would be misdeclared dead.
    """
    heartbeat = max(_MIN_HEARTBEAT, float(requested))
    if client_timeout is None:
        return heartbeat
    timeout = float(client_timeout)
    if heartbeat >= timeout:
        heartbeat = max(_MIN_HEARTBEAT, timeout / 2.0)
    if heartbeat >= timeout:
        raise RemoteProtocolError(
            f"client timeout {timeout:g}s leaves no room for liveness "
            f"heartbeats (cadence floor {_MIN_HEARTBEAT:g}s); raise the "
            f"timeout above {MIN_REMOTE_TIMEOUT:g}s"
        )
    return heartbeat


def _digest(payload: bytes) -> bytes:
    return hashlib.blake2b(payload, digest_size=16).digest()


def seed_key(payload: bytes) -> str:
    """Content key of a seed payload (hex BLAKE2b-128)."""
    return _digest(payload).hex()


# --------------------------------------------------------------------- #
# Framing                                                               #
# --------------------------------------------------------------------- #
def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = io.BytesIO()
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise RemoteWorkerDied("connection closed mid-frame")
        buf.write(chunk)
        remaining -= len(chunk)
    return buf.getvalue()


def send_frame(sock: socket.socket, message: dict) -> None:
    """One length-prefixed, digest-checked frame carrying ``message``."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    total = _FRAME_HEADER.size + len(payload)
    metrics = get_metrics()
    metrics.counter_add("remote.frames_sent")
    metrics.counter_add("remote.bytes_sent", total)
    with span("remote.send_frame", "remote",
              kind=message.get("kind"), bytes=total):
        sock.sendall(
            _FRAME_HEADER.pack(len(payload), _digest(payload)) + payload
        )


def recv_frame(sock: socket.socket) -> dict:
    """Receive one frame; verifies the length bound and payload digest."""
    with span("remote.recv_frame", "remote") as frame_span:
        return _recv_frame(sock, frame_span)


def _recv_frame(sock: socket.socket, frame_span) -> dict:
    header = _recv_exact(sock, _FRAME_HEADER.size)
    length, digest = _FRAME_HEADER.unpack(header)
    if length > _MAX_FRAME_BYTES:
        raise RemoteProtocolError(
            f"frame announces {length} bytes (> {_MAX_FRAME_BYTES} bound); "
            "peer is not speaking the repro worker protocol"
        )
    payload = _recv_exact(sock, length)
    total = _FRAME_HEADER.size + length
    metrics = get_metrics()
    metrics.counter_add("remote.frames_received")
    metrics.counter_add("remote.bytes_received", total)
    frame_span.set(bytes=total)
    if _digest(payload) != digest:
        raise RemoteProtocolError(
            "frame payload digest mismatch: the stream was corrupted in "
            "transit"
        )
    try:
        message = pickle.loads(payload)
    except Exception as exc:
        # The digest proves only that the bytes arrived as sent; a peer
        # that is not a repro client can still send a non-pickle.
        raise RemoteProtocolError(
            f"malformed frame payload ({exc!r}); peer is not speaking the "
            "repro frame protocol"
        ) from None
    if not isinstance(message, dict) or not isinstance(
        message.get("kind"), str
    ):
        raise RemoteProtocolError(
            f"malformed frame payload of type {type(message).__name__}; "
            "expected a message dict with a 'kind'"
        )
    return message


def _close_socket(sock: socket.socket) -> None:
    """``shutdown(SHUT_RDWR)`` then ``close``, tolerating dead sockets.

    A ``close`` from another thread does not wake a thread blocked in
    ``accept(2)`` or ``recv(2)`` on that socket on Linux, and the peer
    never sees EOF; ``shutdown`` does both.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # never connected / already closed (ENOTCONN, EBADF)
    try:
        sock.close()
    except OSError:
        pass


def parse_worker_addresses(spec: str) -> "list[tuple[str, int]]":
    """Parse ``host:port[,host:port...]`` into ``[(host, port), ...]``.

    The grammar behind ``--executor remote:...``; raises a descriptive
    :class:`ValueError` on malformed entries so config validation can
    reject bad specs before any socket is opened.
    """
    addresses: list[tuple[str, int]] = []
    for entry in str(spec).split(","):
        entry = entry.strip()
        if not entry:
            continue
        host, sep, port_text = entry.rpartition(":")
        if not sep or not host:
            raise ValueError(
                f"remote worker address {entry!r} is not host:port "
                "(expected e.g. remote:127.0.0.1:7070,10.0.0.2:7070)"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"remote worker address {entry!r} has a non-integer port"
            ) from None
        if not 0 <= port <= 65535:
            raise ValueError(
                f"remote worker address {entry!r} has an out-of-range port"
            )
        addresses.append((host, port))
    if not addresses:
        raise ValueError(
            "remote executor spec names no worker addresses; expected "
            "remote:host:port[,host:port...]"
        )
    return addresses


# --------------------------------------------------------------------- #
# Frame server and client                                               #
# --------------------------------------------------------------------- #
#: A registered frame handler: ``(conn, message, heartbeat)`` -> False
#: to end the connection.
FrameHandler = Callable[[socket.socket, dict, float], bool]


class FrameServer:
    """Listener, handshake and kind dispatch shared by every server.

    Binds immediately (``port=0`` picks a free port, exposed as
    :attr:`address`); :meth:`serve_forever` blocks, accepting one
    handler thread per connection.  A connection opens with the
    ``hello``/``welcome`` handshake, then each frame goes to the handler
    registered for its kind in :attr:`handlers`; kinds listed in
    :attr:`versioned_kinds` must also carry the protocol version.

    Subclasses register handlers and supply :meth:`_gauge_snapshot`
    (carried by ``welcome``); :meth:`_on_start` runs before the accept
    loop and :meth:`_drain` after it, before the connections close.

    ``protocol_version`` is a test knob for exercising version-skew
    handling; leave it at the default everywhere else.
    """

    #: Names this server in version-skew refusals.
    role = "server"
    #: What a client of this server is, for the missing-hello refusal.
    client_name = "repro client"
    #: Kinds whose frames must carry the protocol ``version``.
    versioned_kinds: "frozenset[str]" = frozenset()

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        protocol_version: int = PROTOCOL_VERSION,
    ):
        self.protocol_version = int(protocol_version)
        #: ``kind -> handler``; ``bye`` and ``ping`` are built in.
        self.handlers: "dict[str, FrameHandler]" = {}
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        self._lock = threading.Lock()
        self._connections: "set[socket.socket]" = set()
        self._closed = False
        self._draining = False

    @property
    def address(self) -> "tuple[str, int]":
        return (self.host, self.port)

    def _gauge_snapshot(self) -> dict:
        """Small plain-scalar health dict carried by ``welcome``."""
        raise NotImplementedError

    def _on_start(self) -> None:
        """Runs in :meth:`serve_forever` before the first accept."""

    def _drain(self) -> None:
        """Runs in :meth:`serve_forever` once accepting has stopped."""

    def serve_forever(self) -> None:
        """Accept connections until :meth:`shutdown` or a graceful stop.

        After :meth:`request_graceful_shutdown` the accept loop ends,
        :meth:`_drain` lets started work finish, and only then do the
        connections close and this method return.
        """
        self._on_start()
        try:
            while not self._closed:
                try:
                    conn, _peer = self._listener.accept()
                except OSError:
                    break  # listener closed by a shutdown or drain
                thread = threading.Thread(
                    target=self._handle, args=(conn,), daemon=True
                )
                thread.start()
        finally:
            self._drain()
            self.shutdown()

    def serve_in_thread(self) -> threading.Thread:
        """Run the accept loop in a daemon thread (in-process tests)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    def request_graceful_shutdown(self) -> None:
        """Begin a graceful stop; safe to call from a signal handler.

        Only sets the drain flag and closes the listener (unblocking the
        accept loop); :meth:`serve_forever` then drains before closing
        the connections, and clients see a clean EOF.
        """
        self._draining = True
        _close_socket(self._listener)

    def shutdown(self) -> None:
        """Close the listener and every connection now."""
        self._closed = True
        _close_socket(self._listener)
        with self._lock:
            connections = list(self._connections)
            self._connections.clear()
        for conn in connections:
            _close_socket(conn)

    @staticmethod
    def refuse(conn: socket.socket, message: str) -> bool:
        """Answer with a descriptive ``error`` frame; False ends the loop."""
        send_frame(conn, {"kind": "error", "message": message})
        return False

    def _handle(self, conn: socket.socket) -> None:
        with self._lock:
            self._connections.add(conn)
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Connections legitimately idle between requests (clients
            # pool them across optimizer iterations), so a recv timeout
            # would kill healthy peers.  TCP keepalive instead: a client
            # host that vanishes without FIN/RST (power loss, network
            # partition) is reaped by the kernel in ~2 minutes rather
            # than pinning a handler thread and fd forever.
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
            for opt, value in (
                ("TCP_KEEPIDLE", 60),
                ("TCP_KEEPINTVL", 10),
                ("TCP_KEEPCNT", 6),
            ):
                if hasattr(socket, opt):
                    conn.setsockopt(
                        socket.IPPROTO_TCP, getattr(socket, opt), value
                    )
            heartbeat = self._handshake(conn)
            while not self._closed:
                message = recv_frame(conn)
                if not self._dispatch(conn, message, heartbeat):
                    break
        except (RemoteWorkerDied, OSError):
            pass  # client went away; nothing to answer
        except RemoteProtocolError as exc:
            try:
                self.refuse(conn, str(exc))
            except OSError:
                pass
        finally:
            with self._lock:
                self._connections.discard(conn)
            _close_socket(conn)

    def _handshake(self, conn: socket.socket) -> float:
        """``hello`` -> ``welcome``; returns the negotiated heartbeat.

        Refusals raise :class:`RemoteProtocolError`, which
        :meth:`_handle` answers with an ``error`` frame.
        """
        hello = recv_frame(conn)
        if hello["kind"] != "hello":
            raise RemoteProtocolError(
                f"expected a hello frame, got {hello['kind']!r}; is the "
                f"client a {self.client_name}?"
            )
        if int(hello.get("version", -1)) != self.protocol_version:
            raise RemoteProtocolError(
                f"protocol version mismatch: {self.role} speaks "
                f"v{self.protocol_version}, client sent "
                f"v{hello.get('version')!r} — upgrade the older side"
            )
        heartbeat = negotiate_heartbeat(
            hello.get("heartbeat", 1.0), hello.get("timeout")
        )
        send_frame(
            conn,
            {
                "kind": "welcome",
                "version": self.protocol_version,
                "pid": os.getpid(),
                "gauges": self._gauge_snapshot(),
            },
        )
        return heartbeat

    def _dispatch(
        self, conn: socket.socket, message: dict, heartbeat: float
    ) -> bool:
        """Handle one client frame; False ends the connection loop."""
        kind = message["kind"]
        if kind == "bye":
            return False
        if kind == "ping":
            send_frame(conn, {"kind": "pong"})
            return True
        handler = self.handlers.get(kind)
        if handler is None:
            return self.refuse(conn, f"unknown message kind {kind!r}")
        # Version-pinned like hello: a frame replayed from a stale
        # client is refused descriptively, not misparsed.
        if (
            kind in self.versioned_kinds
            and int(message.get("version", -1)) != self.protocol_version
        ):
            return self.refuse(
                conn,
                f"protocol version mismatch on {kind!r}: {self.role} "
                f"speaks v{self.protocol_version}, frame carries "
                f"v{message.get('version')!r} — upgrade the older side",
            )
        return handler(conn, message, heartbeat)


class FrameClient:
    """One handshaken connection to a :class:`FrameServer`.

    Connects, sends ``hello`` and checks the ``welcome``.  Any failure
    closes the just-connected socket before the exception propagates —
    a half-built client is never returned, so nothing else could close
    it.  Raises :class:`OSError` when the socket fails,
    :class:`RemoteWorkerDied` on EOF and :class:`RemoteProtocolError`
    when the server refuses or answers out of protocol; subclasses
    translate these into the exception types their callers expect.
    """

    #: Names the server in error messages ("worker HOST:PORT ...").
    peer_role = "server"

    def __init__(
        self,
        address: "tuple[str, int]",
        timeout: float,
        heartbeat: float,
        protocol_version: int = PROTOCOL_VERSION,
    ):
        self.address = (str(address[0]), int(address[1]))
        peer = f"{self.peer_role} {self.address[0]}:{self.address[1]}"
        self.sock = socket.create_connection(self.address, timeout=timeout)
        try:
            self.sock.settimeout(timeout)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            send_frame(
                self.sock,
                {
                    "kind": "hello",
                    "version": protocol_version,
                    "heartbeat": heartbeat,
                    # Announcing the dead-peer timeout lets the server
                    # clamp the heartbeat strictly inside it (or refuse
                    # a window no beat can fit).
                    "timeout": timeout,
                },
            )
            welcome = recv_frame(self.sock)
            if welcome["kind"] == "error":
                raise RemoteProtocolError(
                    f"{peer} refused the handshake: {welcome.get('message')}"
                )
            if welcome["kind"] != "welcome":
                raise RemoteProtocolError(
                    f"{peer} answered the handshake with "
                    f"{welcome['kind']!r}, not welcome"
                )
            if int(welcome.get("version", -1)) != protocol_version:
                raise RemoteProtocolError(
                    f"protocol version mismatch: this client speaks "
                    f"v{protocol_version}, {peer} answered "
                    f"v{welcome.get('version')!r} — upgrade the older side"
                )
        except BaseException:
            _close_socket(self.sock)
            raise
        self.pid = int(welcome.get("pid", -1))
        #: Latest server gauge snapshot, refreshed by welcome and every
        #: busy heartbeat.
        self.gauges: dict = dict(welcome.get("gauges") or {})

    def close(self) -> None:
        try:
            send_frame(self.sock, {"kind": "bye"})
        except OSError:
            pass
        _close_socket(self.sock)


# --------------------------------------------------------------------- #
# Worker server                                                         #
# --------------------------------------------------------------------- #
@dataclass
class FaultInjection:
    """Deterministic failure knobs for the fault-injection test harness.

    ``fail_after_tasks=N`` lets the first ``N`` tasks execute normally,
    then kills the server — listener and every open connection closed
    abruptly, no reply — when task ``N + 1`` is about to execute (a task
    frame answered ``need-seed`` executes nothing and is not counted).
    That is the reproducible stand-in for "the worker host died
    mid-iteration": the client sees EOF exactly between two well-defined
    tasks, so tests can assert the resubmission path deterministically.
    """

    fail_after_tasks: int | None = None


class RemoteWorkerServer(FrameServer):
    """One worker host's server: the ``seed`` and ``task`` handlers.

    All connections share one bounded seed cache keyed by content
    digest, and it is the worker's warm state: a device seeded in epoch
    1 stays warm for every later epoch's tasks, whichever connection
    sends them.  Tasks of one seed run one at a time under its lock;
    tasks of different seeds overlap.  A graceful stop waits for
    in-flight tasks: every started task finishes and its result frame
    reaches the wire.
    """

    role = "worker"
    client_name = "repro remote executor"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        fault: FaultInjection | None = None,
        protocol_version: int = PROTOCOL_VERSION,
    ):
        super().__init__(host, port, protocol_version)
        self.fault = fault
        self.handlers.update(seed=self._handle_seed, task=self._handle_task)
        #: ``key -> (closure, lock)``.  The closure holds warm state
        #: (device, workspace, solver epoch) that concurrent tasks must
        #: not share, so its tasks run under the lock.
        self._seeds: "OrderedDict[str, tuple[Callable, threading.Lock]]" = (
            OrderedDict()
        )
        self._tasks_seen = 0
        self._tasks_done = 0
        self._in_flight = 0
        self._drained = threading.Condition(self._lock)

    def _gauge_snapshot(self) -> dict:
        """Worker health gauges shipped on welcome and busy heartbeats.

        Small plain-scalar dict (it rides every heartbeat frame):
        current queue depth (tasks executing or awaiting reply),
        lifetime tasks completed, and resident set size.  The client
        surfaces these per worker in the parent's metrics registry.
        """
        with self._lock:
            queue_depth = self._in_flight
            tasks_completed = self._tasks_done
        return {
            "queue_depth": queue_depth,
            "tasks_completed": tasks_completed,
            "rss_bytes": rss_bytes(),
        }

    def _drain(self) -> None:
        if self._draining and not self._closed:
            self.wait_drained()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until no task is executing; True if drained in time."""
        with self._drained:
            return self._drained.wait_for(
                lambda: self._in_flight == 0, timeout=timeout
            )

    def _fault_triggered(self) -> bool:
        fault = self.fault
        if fault is None or fault.fail_after_tasks is None:
            return False
        with self._lock:
            self._tasks_seen += 1
            return self._tasks_seen > fault.fail_after_tasks

    # ------------------------------------------------------------------ #
    def _handle_seed(
        self, conn: socket.socket, message: dict, heartbeat: float
    ) -> bool:
        payload = message.get("payload")
        key = message.get("key")
        if not isinstance(payload, bytes) or not isinstance(key, str):
            return self.refuse(conn, "malformed seed frame")
        actual = seed_key(payload)
        if actual != key:
            # The per-frame digest already rules out transit corruption,
            # so a key mismatch means client and worker disagree about
            # *which* task state this is — refuse it loudly.
            return self.refuse(
                conn,
                f"task-state digest mismatch: client announced device "
                f"digest {key[:12]}… but the payload hashes to "
                f"{actual[:12]}… — refusing to run a different task state "
                "than the client intended",
            )
        try:
            seed = (pickle.loads(payload), threading.Lock())
        except Exception as exc:
            return self.refuse(
                conn,
                f"could not unpickle task state: {exc!r} (worker and "
                "client must run compatible repro versions)",
            )
        with self._lock:
            # Two connections can race to seed one key; the first copy
            # stays, so the warm state its tasks run on is kept.
            self._seeds.setdefault(key, seed)
            self._seeds.move_to_end(key)
            while len(self._seeds) > _MAX_SEEDS:
                self._seeds.popitem(last=False)
        send_frame(conn, {"kind": "seeded", "key": key})
        return True

    def _handle_task(
        self, conn: socket.socket, message: dict, heartbeat: float
    ) -> bool:
        key = message.get("key")
        with self._lock:
            seed = self._seeds.get(key)
            if seed is not None:
                self._seeds.move_to_end(key)
        if seed is None:
            # First contact with this task state, a restart, or an LRU
            # eviction: ask the client to ship it.
            send_frame(conn, {"kind": "need-seed", "key": key})
            return True
        if self._fault_triggered():
            self.shutdown()  # die abruptly, reply to nothing
            return False
        item = message.get("item")
        box: dict = {}

        fn, lock = seed

        def run() -> None:
            # The lock is taken here, not on the connection thread, so
            # busy heartbeats keep flowing while the task waits for it.
            try:
                with lock:
                    box["value"] = fn(item)
            except BaseException:
                box["error"] = traceback.format_exc()

        # Drain accounting brackets the whole execute-and-reply span:
        # the graceful-shutdown wait releases only after the result
        # frame has hit the wire, so a decommissioned worker never
        # swallows a finished solve.
        with self._drained:
            self._in_flight += 1
        try:
            worker = threading.Thread(target=run, daemon=True)
            worker.start()
            while True:
                worker.join(heartbeat)
                if not worker.is_alive():
                    break
                # Liveness while the task waits or runs: the client
                # resets its death timer on any frame, so long tasks
                # survive short timeouts.  Heartbeats double as health
                # telemetry: each carries the worker's gauge snapshot
                # (additive key — old clients simply ignore it, no
                # version bump needed).
                send_frame(
                    conn, {"kind": "busy", "gauges": self._gauge_snapshot()}
                )
            if "error" in box:
                send_frame(
                    conn,
                    {"kind": "result", "ok": False, "error": box["error"]},
                )
                return True
            try:
                send_frame(
                    conn,
                    {"kind": "result", "ok": True, "value": box["value"]},
                )
            except OSError:
                raise  # the socket itself failed; the client handles death
            except Exception as exc:
                # An unpicklable result is a *task* defect, not a dead
                # worker: send_frame pickles before writing, so nothing
                # hit the wire yet and a clean error-result frame can
                # follow — the client raises RemoteTaskError once instead
                # of "resubmitting" the same failure around the whole
                # fleet.
                send_frame(
                    conn,
                    {
                        "kind": "result",
                        "ok": False,
                        "error": (
                            f"task result could not be serialized for the "
                            f"reply: {exc!r}"
                        ),
                    },
                )
            return True
        finally:
            with self._drained:
                self._in_flight -= 1
                self._tasks_done += 1
                self._drained.notify_all()


def start_worker_subprocess(
    host: str = "127.0.0.1",
    port: int = 0,
    fault: FaultInjection | None = None,
):
    """Fork a :class:`RemoteWorkerServer` into its own process.

    Binds in the parent first — so the chosen port is known without a
    race — then forks; the child inherits the listening socket and runs
    the accept loop.  Returns ``(process, (host, port))``.  Tests use
    this for true process isolation (seed caches, pids, stats deltas
    all behave exactly as they would on a remote host), and
    ``process.terminate()`` is the blunt-instrument counterpart of the
    deterministic :class:`FaultInjection` knob.
    """
    import multiprocessing as mp

    server = RemoteWorkerServer(host, port, fault=fault)
    ctx = mp.get_context("fork")
    process = ctx.Process(target=server.serve_forever, daemon=True)
    process.start()
    # The child owns its inherited copy; drop the parent's so a killed
    # worker's port actually closes.  A plain close: shutdown(2) would
    # stop the child's shared listener too.
    server._listener.close()
    return process, server.address


# --------------------------------------------------------------------- #
# Client executor                                                       #
# --------------------------------------------------------------------- #
class _WorkerConnection(FrameClient):
    """One persistent, handshaken connection to a worker server."""

    peer_role = "worker"

    def __init__(
        self, address: "tuple[str, int]", timeout: float, heartbeat: float
    ):
        host, port = address
        try:
            super().__init__(address, timeout, heartbeat)
        except socket.timeout as exc:
            raise RemoteWorkerDied(
                f"worker {host}:{port} did not answer the handshake "
                f"within {timeout:g}s"
            ) from exc
        except OSError as exc:
            raise RemoteWorkerDied(
                f"could not connect to worker {host}:{port}: {exc}"
            ) from exc

    def _seed(self, key: str, fn_bytes: bytes) -> None:
        send_frame(
            self.sock, {"kind": "seed", "key": key, "payload": fn_bytes}
        )
        reply = recv_frame(self.sock)
        if reply["kind"] == "error":
            raise RemoteProtocolError(
                f"worker {self.address[0]}:{self.address[1]} rejected the "
                f"task state: {reply.get('message')}"
            )
        if reply["kind"] != "seeded":
            raise RemoteProtocolError(
                f"expected a seeded ack, got {reply['kind']!r}"
            )

    def run_task(self, key: str, fn_bytes: bytes, item) -> object:
        """Execute one item remotely; busy heartbeats keep it alive.

        The task goes first; the task state follows only when the worker
        answers ``need-seed``, then the task is sent once more.
        """
        host, port = self.address
        for _attempt in range(2):
            send_frame(self.sock, {"kind": "task", "key": key, "item": item})
            while True:
                try:
                    reply = recv_frame(self.sock)
                except socket.timeout as exc:
                    raise RemoteWorkerDied(
                        f"worker {host}:{port} went silent (no result or "
                        "heartbeat within the remote timeout)"
                    ) from exc
                kind = reply["kind"]
                if kind == "busy":
                    gauges = reply.get("gauges")
                    if gauges:
                        self.gauges = dict(gauges)
                    continue
                if kind == "need-seed":
                    self._seed(key, fn_bytes)
                    break
                if kind == "error":
                    raise RemoteProtocolError(
                        f"worker {host}:{port} reported: "
                        f"{reply.get('message')}"
                    )
                if kind == "result":
                    if reply.get("ok"):
                        return reply.get("value")
                    raise RemoteTaskError(
                        f"task raised on worker {host}:{port}:\n"
                        f"{reply.get('error')}"
                    )
                raise RemoteProtocolError(
                    f"unexpected frame kind {kind!r} while awaiting a result"
                )
        raise RemoteProtocolError(
            f"worker {host}:{port} keeps demanding a seed it was just sent"
        )


class _MapState:
    """Shared bookkeeping of one ordered map: queues, results, failures.

    Items are pre-assigned round-robin to worker slots; an idle worker
    steals from the back of the longest remaining queue, and a dead
    worker's queue (plus its in-flight item) stays stealable — that is
    the transparent-resubmission path.  ``results`` is index-addressed,
    so the reduction order never depends on which worker ran what.
    """

    _UNSET = object()

    def __init__(self, n_items: int, n_slots: int):
        self.cond = threading.Condition()
        self.queues = [
            deque(range(slot, n_items, n_slots)) for slot in range(n_slots)
        ]
        self.results = [self._UNSET] * n_items
        self.remaining = n_items
        self.in_flight = 0
        self.fatal: BaseException | None = None
        self.worker_failures: "list[str]" = []

    def next_index(self, slot: int) -> "tuple[int, bool] | None":
        """The next item index for ``slot``, or ``None`` when done.

        Returns ``(index, stolen)`` — ``stolen`` marks a work-steal
        from another slot's queue, surfaced on the task span so steal
        patterns show up in traces.
        """
        with self.cond:
            while True:
                if self.fatal is not None or self.remaining == 0:
                    return None
                if self.queues[slot]:
                    self.in_flight += 1
                    return self.queues[slot].popleft(), False
                donor = max(self.queues, key=len)
                if donor:
                    self.in_flight += 1
                    return donor.pop(), True
                if self.in_flight == 0:
                    # Unfinished items but nothing queued or running:
                    # every holder died.  map_ordered reports it.
                    return None
                # Items are in flight elsewhere; one may yet be
                # resubmitted here if its worker dies.  The timeout is a
                # safety net against a lost notify, not a poll loop.
                self.cond.wait(timeout=0.5)

    def set_result(self, index: int, value) -> None:
        with self.cond:
            if self.results[index] is self._UNSET:
                self.remaining -= 1
            self.results[index] = value
            self.in_flight -= 1
            self.cond.notify_all()

    def requeue(self, slot: int, index: int) -> None:
        with self.cond:
            self.queues[slot].append(index)
            self.in_flight -= 1
            self.cond.notify_all()

    def record_worker_failure(self, message: str) -> None:
        with self.cond:
            self.worker_failures.append(message)
            self.cond.notify_all()

    def set_fatal(self, exc: BaseException) -> None:
        with self.cond:
            if self.fatal is None:
                self.fatal = exc
            self.cond.notify_all()

    def missing(self) -> "list[int]":
        return [
            i for i, r in enumerate(self.results) if r is self._UNSET
        ]


class RemoteCornerExecutor(CornerExecutor):
    """Ordered fan-out to remote worker servers over TCP.

    Registered as the ``remote`` executor backend
    (``remote:host:port[,host:port...]``).  It advertises
    ``supports_shared_memory = False``, so the engine routes
    taped corner losses through the forward-replay seam and Monte-Carlo
    evaluation through per-sample tasks — this class only has to move
    the already pickle-clean payloads and keep the ordered-reduction
    contract.

    Per map call the task closure is pickled once and named by its
    content digest; a worker receives the closure only when it answers a
    task with ``need-seed``, so unchanged task state crosses the wire
    once per worker, across map calls and connections; items are
    round-robined across workers with work stealing on idle, and a dead
    worker's items are resubmitted to survivors.  Worker-side warm state
    lives in each server's seed cache, not in the connection, so it
    survives whole optimizations and reconnects; connections persist
    across map calls, :meth:`shutdown` closes them and the next map
    call reconnects lazily.
    """

    name = "remote"
    supports_shared_memory = False

    def __init__(
        self,
        addresses: "Sequence[tuple[str, int]] | str",
        timeout: float | None = None,
    ):
        if isinstance(addresses, str):
            addresses = parse_worker_addresses(addresses)
        # Order-preserving dedup: connections are pooled per address, so
        # a repeated entry would hand one socket to two slot threads and
        # interleave their frames.  Per-host concurrency is expressed by
        # running several `repro worker` processes (distinct ports) on
        # that host, not by repeating one address.
        self.addresses = list(
            dict.fromkeys((str(h), int(p)) for h, p in addresses)
        )
        if not self.addresses:
            raise ValueError("remote executor needs at least one address")
        self.timeout = (
            DEFAULT_REMOTE_TIMEOUT if timeout is None else float(timeout)
        )
        if self.timeout <= MIN_REMOTE_TIMEOUT:
            # A timeout at or below twice the heartbeat floor leaves no
            # cadence that beats strictly inside the window: a healthy
            # busy worker could never prove liveness in time and would
            # be misdeclared dead on every long task.
            raise ValueError(
                f"remote timeout must exceed {MIN_REMOTE_TIMEOUT:g}s so a "
                f"busy worker's heartbeat can land inside it, got "
                f"{self.timeout}"
            )
        #: Remote worker pids observed answering handshakes (fan-out
        #: evidence for tests and the benchmark).
        self.observed_pids: "set[int]" = set()
        self._lock = threading.Lock()
        self._connections: "dict[tuple[str, int], _WorkerConnection]" = {}

    @property
    def heartbeat_interval(self) -> float:
        """Server-side ``busy`` cadence, strictly below the timeout."""
        return client_heartbeat_interval(self.timeout)

    # ------------------------------------------------------------------ #
    def _checkout(self, address: "tuple[str, int]") -> _WorkerConnection:
        with self._lock:
            conn = self._connections.get(address)
        if conn is not None:
            return conn
        conn = self._connect_with_retry(address)
        with self._lock:
            self._connections[address] = conn
        self.observed_pids.add(conn.pid)
        return conn

    def _connect_with_retry(
        self, address: "tuple[str, int]"
    ) -> _WorkerConnection:
        """Dial a worker, retrying transient failures with backoff.

        Only :class:`RemoteWorkerDied` (refused/reset/silent — typically
        a worker still binding its socket) is retried; protocol errors
        (version skew, digest refusal) are systemic and surface
        immediately.  Backoff doubles per attempt with jitter so a
        driver dialing a whole fleet staggers its retries.
        """
        host, port = address
        last_exc: RemoteWorkerDied | None = None
        for attempt in range(_CONNECT_ATTEMPTS):
            if attempt:
                delay = min(
                    _CONNECT_BACKOFF_CAP,
                    _CONNECT_BACKOFF_BASE * (2 ** (attempt - 1)),
                )
                time.sleep(delay * (0.5 + random.random()))
            try:
                return _WorkerConnection(
                    address, self.timeout, self.heartbeat_interval
                )
            except RemoteWorkerDied as exc:
                last_exc = exc
        raise RemoteWorkerDied(
            f"worker {host}:{port} unreachable after "
            f"{_CONNECT_ATTEMPTS} connection attempts "
            f"(exponential backoff exhausted): {last_exc}"
        ) from last_exc

    def _discard(self, address: "tuple[str, int]") -> None:
        with self._lock:
            conn = self._connections.pop(address, None)
        if conn is not None:
            _close_socket(conn.sock)

    def map_ordered(
        self, fn: Callable, items: "Sequence | Iterable"
    ) -> list:
        items = list(items)
        if not items:
            return []
        try:
            fn_bytes = pickle.dumps(fn, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise ValueError(
                f"remote executor task state is not picklable: {exc!r} — "
                "only the forward-replay / Monte-Carlo seams' pickle-clean "
                "closures can cross a socket"
            ) from exc
        key = seed_key(fn_bytes)
        # One slot per listed worker, never more than the items.
        n_workers = min(len(items), len(self.addresses))
        state = _MapState(len(items), n_workers)
        threads = []
        with span("remote.map", "remote", items=len(items),
                  workers=n_workers) as map_span:
            for slot in range(n_workers):
                thread = threading.Thread(
                    target=self._worker_loop,
                    args=(
                        slot, self.addresses[slot], key, fn_bytes, items,
                        state, map_span.span_id,
                    ),
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
            for thread in threads:
                thread.join()
        if state.fatal is not None:
            raise state.fatal
        missing = state.missing()
        if missing:
            failures = "; ".join(state.worker_failures) or "no failure detail"
            raise RemoteFleetDead(
                f"all remote workers died before items {missing} completed "
                f"(addresses {self.addresses}); worker failures: {failures}",
                worker_failures=state.worker_failures,
                missing=missing,
            )
        return list(state.results)

    def _publish_gauges(
        self, address: "tuple[str, int]", conn: _WorkerConnection
    ) -> None:
        """Expose a worker's latest gauge snapshot in the parent registry."""
        if not conn.gauges:
            return
        metrics = get_metrics()
        prefix = f"remote.worker.{address[0]}:{address[1]}."
        for name, value in conn.gauges.items():
            if isinstance(value, (int, float)):
                metrics.gauge_set(prefix + name, value)

    def _worker_loop(
        self,
        slot: int,
        address: "tuple[str, int]",
        key: str,
        fn_bytes: bytes,
        items: list,
        state: _MapState,
        map_span_id: "int | None" = None,
    ) -> None:
        host, port = address
        try:
            conn = self._checkout(address)
        except (RemoteWorkerDied, OSError) as exc:
            # This worker never joined (refused, reset, or silent); its
            # pre-assigned queue stays stealable by the survivors.
            state.record_worker_failure(
                f"worker {host}:{port} unavailable: {exc}"
            )
            return
        except RemoteProtocolError as exc:
            # Version skew / digest refusal is systemic, not a lone dead
            # host: fail the whole map with the descriptive message
            # instead of silently shrinking the fleet.
            state.set_fatal(exc)
            return
        self._publish_gauges(address, conn)
        while True:
            wait_t0 = time.perf_counter()
            claim = state.next_index(slot)
            if claim is None:
                return
            index, stolen = claim
            wait_s = time.perf_counter() - wait_t0
            try:
                # Each slot runs in its own thread with an empty span
                # stack, so the task span names the dispatching map span
                # as its parent explicitly — the worker's shipped span
                # tree is later adopted under engine/eval dispatch spans
                # by the caller, while this span records the client-side
                # view (queue wait, steals, wire round-trip).
                with span(
                    "remote.task", "remote", parent=map_span_id,
                    worker=f"{host}:{port}", index=index, stolen=stolen,
                    queue_wait_s=round(wait_s, 6),
                ):
                    result = conn.run_task(key, fn_bytes, items[index])
                self._publish_gauges(address, conn)
            except RemoteTaskError as exc:
                # The task itself raised; it would raise identically on
                # any worker, so resubmission would only mask the bug.
                state.requeue(slot, index)
                state.set_fatal(exc)
                return
            except RemoteProtocolError as exc:
                state.requeue(slot, index)
                state.set_fatal(exc)
                return
            except (RemoteWorkerDied, OSError) as exc:
                # Dead worker: resubmit its in-flight item (and leave its
                # queue) to the survivors, drop the connection so the
                # next map call reconnects from scratch.
                self._discard(address)
                state.requeue(slot, index)
                state.record_worker_failure(
                    f"worker {host}:{port} died mid-run: {exc}"
                )
                return
            except BaseException as exc:
                # Anything else (unpicklable result, client-side bug):
                # fail the map loudly rather than leaving in-flight
                # bookkeeping dangling for the survivors to wait on.
                state.requeue(slot, index)
                state.set_fatal(exc)
                return
            state.set_result(index, result)

    def shutdown(self) -> None:
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()
