"""The HTTP layer: stdlib threaded server translating routes to app calls.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per connection,
which is exactly the concurrency shape the micro-batching queue converts back
into batched engine calls.  The handler is deliberately thin: parse the route
and JSON body, call the matching :class:`~repro.serve.app.SearchApp` method,
serialize the dict it returns; any typed failure renders through the
:mod:`repro.serve.errors` status map.  No framework, no new dependencies.

Routes
------
========  =========================  =============================================
Method    Path                       App call
========  =========================  =============================================
GET       ``/healthz``               :meth:`~repro.serve.app.SearchApp.healthz`
GET       ``/stats``                 :meth:`~repro.serve.app.SearchApp.stats`
GET       ``/indexes``               :meth:`~repro.serve.app.SearchApp.list_indexes`
GET       ``/metrics``               :meth:`~repro.serve.app.SearchApp.metrics_text`
GET       ``/slow_queries``          :meth:`~repro.serve.app.SearchApp.slow_queries`
POST      ``/{index}/knn``           :meth:`~repro.serve.app.SearchApp.knn`
POST      ``/{index}/insert``        :meth:`~repro.serve.app.SearchApp.insert`
POST      ``/{index}/delete``        :meth:`~repro.serve.app.SearchApp.delete`
POST      ``/{index}/compact``       :meth:`~repro.serve.app.SearchApp.compact`
==========================================================================

``/metrics`` is the one non-JSON route: it renders the process-wide metrics
registry in the Prometheus text exposition format (version 0.0.4).
"""

from __future__ import annotations

import json
import math
import selectors
import signal as signal_module
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlsplit

from repro.core.errors import (
    OverloadedError,
    ReadOnlyIndexError,
    ReproError,
    ShutdownError,
    ValidationError,
)
from repro.obs.metrics import get_registry
from repro.serve.app import SearchApp
from repro.serve.errors import error_payload, status_for

_OPEN_CONNECTIONS = get_registry().gauge(
    "repro_serve_open_connections",
    "Client connections the HTTP server holds open (the bound the /knn "
    "micro-batch window closes at).")

_POST_ACTIONS = ("knn", "insert", "delete", "compact")
#: Writes are refused on a worker: a shard-local insert/delete/compact would
#: desync the coordinator's global id maps.
_WRITE_ACTIONS = ("insert", "delete", "compact")
#: Shard RPC routes, enabled only under :attr:`ServeConfig.worker_mode`.
_WORKER_ACTIONS = ("shard_knn", "shard_knn_batch", "shard_probe")


class _Handler(BaseHTTPRequestHandler):
    """One request: route → app method → JSON; errors through the status map."""

    server_version = "repro-serve"
    # HTTP/1.1 keeps client connections alive between requests, which the
    # benchmark's load generators rely on; it requires Content-Length on
    # every response, which _respond always sets.
    protocol_version = "HTTP/1.1"
    # Fully buffer writes and turn off Nagle: status line, headers and body
    # must leave in one TCP segment, or the Nagle/delayed-ACK interaction
    # adds ~40ms to every response on a keep-alive connection — two orders
    # of magnitude over the engine's per-query time.
    wbufsize = -1
    disable_nagle_algorithm = True

    @property
    def app(self) -> SearchApp:
        return self.server.app  # attached by IndexServer

    # ------------------------------------------------------------- plumbing

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # per-request stderr logging would swamp the query storm tests

    def _respond(self, status: int, payload: dict,
                 headers: "dict[str, str] | None" = None) -> None:
        self._respond_bytes(status, json.dumps(payload).encode("utf-8"),
                            "application/json", headers)

    def _respond_bytes(self, status: int, body: bytes, content_type: str,
                       headers: "dict[str, str] | None" = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        # A draining server finishes the request it already accepted, then
        # hangs up so the keep-alive thread can exit within the drain budget.
        if getattr(self.server, "draining", False):
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _respond_error(self, error: BaseException) -> None:
        if isinstance(error, ReproError):
            headers = None
            if isinstance(error, OverloadedError):
                retry_after = math.ceil(self.app.config.retry_after_s)
                headers = {"Retry-After": str(max(1, retry_after))}
            self._respond(status_for(error), error_payload(error), headers)
            return
        # Anything untyped is a server bug; report it as such but keep the
        # response shape uniform so clients never need a second parser.
        self._respond(500, {"error": {
            "type": type(error).__name__,
            "message": str(error),
            "status": 500,
        }})

    def _not_found(self, message: str) -> None:
        self._respond(404, {"error": {
            "type": "NotFound", "message": message, "status": 404}})

    def _read_body(self) -> dict:
        """Parse the JSON request body; typed errors for the status map."""
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            raise ValidationError("Content-Length header is not an integer")
        limit = self.app.config.request_body_limit
        if length > limit:
            raise ValidationError(
                f"request body of {length} bytes exceeds the server's "
                f"limit of {limit} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValidationError(
                f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ValidationError(
                f"request body must be a JSON object, got "
                f"{type(body).__name__}")
        return body

    # --------------------------------------------------------------- routes

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self.server.request_started()
        try:
            self._handle_get()
        finally:
            self.server.request_finished()

    def _handle_get(self) -> None:
        path = urlsplit(self.path).path
        try:
            if path == "/healthz":
                self._respond(200, self.app.healthz())
            elif path == "/readyz":
                payload = self.app.readyz()
                if self.server.draining:
                    payload["ready"] = False
                    payload.setdefault("reasons", []).append(
                        "the server is draining")
                # 503 until ready: load balancers and the cluster supervisor
                # route on the status code alone — and a draining server
                # keeps answering, so the supervisor sees it alive.
                self._respond(200 if payload["ready"] else 503, payload)
            elif path == "/stats":
                self._respond(200, self.app.stats())
            elif path in ("/indexes", "/"):
                self._respond(200, self.app.list_indexes())
            elif path == "/metrics":
                self._respond_bytes(
                    200, self.app.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/slow_queries":
                self._respond(200, self.app.slow_queries())
            else:
                self._not_found(f"no GET route {path!r}; "
                                f"try /healthz, /readyz, /stats, /indexes, "
                                f"/metrics or /slow_queries")
        except Exception as error:  # noqa: BLE001 - rendered via status map
            self._respond_error(error)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self.server.request_started()
        try:
            if self.server.draining:
                # Only requests already in flight are drained; new work gets
                # a typed 503 the client can retry elsewhere.
                self._respond_error(ShutdownError(
                    "the server is draining; retry on another server"))
            else:
                self._handle_post()
        finally:
            self.server.request_finished()

    def _handle_post(self) -> None:
        worker_mode = self.app.config.worker_mode
        actions = _POST_ACTIONS + (_WORKER_ACTIONS if worker_mode else ())
        parts = [part for part in urlsplit(self.path).path.split("/") if part]
        if len(parts) != 2 or parts[1] not in actions:
            self._not_found(
                f"no POST route {self.path!r}; expected /<index>/<action> "
                f"with action in {list(actions)}")
            return
        name, action = unquote(parts[0]), parts[1]
        try:
            if worker_mode and action in _WRITE_ACTIONS:
                raise ReadOnlyIndexError(
                    f"this server is a shard worker; {action} must go "
                    f"through the cluster coordinator")
            body = self._read_body()
            if action == "knn":
                payload = self.app.knn(name, body.get("query"),
                                       k=body.get("k", 1),
                                       timeout_s=body.get("timeout_s"),
                                       trace=bool(body.get("trace", False)))
            elif action == "shard_knn":
                payload = self.app.shard_knn(
                    name, body.get("query"), k=body.get("k", 1),
                    timeout_s=body.get("timeout_s"))
            elif action == "shard_knn_batch":
                payload = self.app.shard_knn_batch(
                    name, body.get("queries"), k=body.get("k", 1),
                    timeout_s=body.get("timeout_s"))
            elif action == "shard_probe":
                payload = self.app.shard_probe(name)
            elif action == "insert":
                payload = self.app.insert(name, body.get("series"))
            elif action == "delete":
                payload = self.app.delete(name, body.get("row"))
            else:
                payload = self.app.compact(name)
            self._respond(200, payload)
        except Exception as error:  # noqa: BLE001 - rendered via status map
            self._respond_error(error)


class SignalTrigger:
    """What :meth:`IndexServer.install_signal_handlers` returns.

    Python runs a signal handler in the main thread, between two bytecodes.
    A main thread parked in an untimed ``Event.wait`` can sleep through the
    signal: under CPU contention a shard worker ignored SIGTERM in 3 of 25
    trials, its main thread still blocked in the wait 15 s later.  And the
    handler cannot safely call ``Event.set`` — the frame it interrupts may
    hold that event's own lock.  So the handler only stores the signal
    number, and :meth:`wait` sleeps in short slices: each return to the
    interpreter runs whatever handler is pending.
    """

    poll_s = 0.05

    def __init__(self) -> None:
        self.signum: "int | None" = None

    def set(self, signum: int) -> None:
        self.signum = signum

    def is_set(self) -> bool:
        return self.signum is not None

    def wait(self, timeout: "float | None" = None) -> bool:
        """Block until a signal arrived; ``False`` if ``timeout`` ran out."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.signum is None:
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self.poll_s)
        return True


class _DrainingHTTPServer(ThreadingHTTPServer):
    """Threaded server that counts its open connections and in-flight requests.

    *Connections* are counted from accept (on the acceptor thread, before
    the handler thread runs) to close.  ``http.server`` answers one request
    at a time per connection, so :attr:`open_connections` bounds how many
    requests can be in flight at once — the bound the ``/knn`` micro-batch
    window closes at.

    *Requests* are counted separately: a keep-alive thread idling between
    requests holds nothing in flight, so a drain does not wait on clients
    that merely keep sockets open.  :meth:`wait_idle` lets
    :meth:`IndexServer.stop` block — bounded — until every request already
    being handled has been answered before the micro-batch queues close
    underneath it.
    """

    daemon_threads = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.draining = False
        self._connections = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._idle.set()
        # serve_forever sleeps in select(); one byte on this pair wakes it
        # for shutdown() instead of a 0.5 s poll.
        self._wake_reader, self._wake_writer = socket.socketpair()
        self._stop_accepting = False
        self._acceptor_done = threading.Event()
        self._acceptor_done.set()

    def process_request(self, request, client_address) -> None:
        with self._lock:
            self._connections += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self._lock:
            self._connections -= 1

    @property
    def open_connections(self) -> int:
        with self._lock:
            return self._connections

    def request_started(self) -> None:
        with self._lock:
            self._in_flight += 1
            self._idle.clear()

    def request_finished(self) -> None:
        with self._lock:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def wait_idle(self, timeout: "float | None") -> bool:
        """Block until no request is in flight; ``False`` on timeout."""
        return self._idle.wait(timeout)

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Accept connections until :meth:`shutdown`, which wakes the loop
        at once (``poll_interval`` is accepted for compatibility only)."""
        self._acceptor_done.clear()
        try:
            with selectors.DefaultSelector() as selector:
                selector.register(self, selectors.EVENT_READ)
                selector.register(self._wake_reader, selectors.EVENT_READ)
                while not self._stop_accepting:
                    for key, _ in selector.select():
                        if key.fileobj is self and not self._stop_accepting:
                            self._handle_request_noblock()
        finally:
            self._acceptor_done.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` and wait until it has returned."""
        self._stop_accepting = True
        self._wake_writer.send(b"\0")
        self._acceptor_done.wait()

    def server_close(self) -> None:
        super().server_close()
        self._wake_reader.close()
        self._wake_writer.close()


class IndexServer:
    """A threaded HTTP server over one :class:`~repro.serve.app.SearchApp`.

    ``config.port = 0`` (the default) binds an ephemeral port; read
    :attr:`port` / :attr:`url` after construction.  Works as a context
    manager::

        app = SearchApp()
        app.add_index("lendb", index)
        with IndexServer(app) as server:
            print(server.url)  # http://127.0.0.1:<port>
            ...
    """

    def __init__(self, app: SearchApp) -> None:
        self.app = app
        self._httpd = _DrainingHTTPServer(
            (app.config.host, app.config.port), _Handler)
        self._httpd.app = app
        self._thread: "threading.Thread | None" = None
        httpd = self._httpd
        app.open_connections = lambda: httpd.open_connections
        _OPEN_CONNECTIONS.set_function(app.open_connections)

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "IndexServer":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._httpd.serve_forever,
                                            name="repro-serve", daemon=True)
            self._thread.start()
        return self

    def drain(self) -> None:
        """Finish in-flight requests and close the app; keep the listener.

        (1) Mark the server draining — keep-alive handlers hang up after
        their current response, ``/readyz`` answers 503 and new requests get
        a typed 503 (:class:`~repro.core.errors.ShutdownError`), (2) wait up
        to :attr:`ServeConfig.shutdown_drain_s` for every request already in
        flight (including those blocked inside a micro-batch queue) to
        finish, (3) close the app, which drains whatever is still queued and
        then rejects stragglers with a typed
        :class:`~repro.core.errors.ShutdownError`.

        The listener keeps answering until :meth:`stop` closes it or the
        process exits.  A supervised worker ends with this rather than
        :meth:`stop`: its heartbeats get an answer right up to the exit, so
        a clean stop is never mistaken for a hang.
        """
        self._httpd.draining = True
        self._httpd.wait_idle(self.app.config.shutdown_drain_s)
        self.app.close()

    def stop(self) -> None:
        """Graceful shutdown: :meth:`drain`, then stop accepting.

        The acceptor stops and the listening socket closes only after the
        drain — new connections are refused from there on.
        """
        self.drain()
        if self._thread is not None:
            self._httpd.shutdown()
            self._thread.join(timeout=10.0)
            self._thread = None
        self._httpd.server_close()

    def install_signal_handlers(
            self, signals=(signal_module.SIGTERM, signal_module.SIGINT),
    ) -> SignalTrigger:
        """Route SIGTERM/SIGINT into the graceful drain; returns the trigger.

        The handler only records the signal — it must not run the
        multi-second drain itself (it interrupts arbitrary bytecode, and
        :meth:`stop` takes locks the interrupted frame may hold).  The
        returned :class:`SignalTrigger` is what :meth:`serve_until_signal`
        (or a caller's own main loop) waits on before calling :meth:`stop`.
        Must be called from the main thread (a CPython signal-API
        constraint).
        """
        triggered = SignalTrigger()

        def _handle(signum, frame):  # noqa: ARG001 - stdlib signature
            triggered.set(signum)

        for signum in signals:
            signal_module.signal(signum, _handle)
        return triggered

    def serve_until_signal(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully and return.

        The bounded drain is the same one :meth:`stop` always runs: refuse
        new requests, finish in-flight ones (up to ``shutdown_drain_s``),
        close the queues, stop accepting.  A supervised worker built on this exits 0 on
        SIGTERM — which is how the cluster supervisor tells a deliberate
        stop from a crash.
        """
        triggered = self.install_signal_handlers()
        self.start()
        triggered.wait()
        self.stop()

    def __enter__(self) -> "IndexServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
