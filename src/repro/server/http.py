"""The stdlib HTTP face of the query service.

A ``ThreadingHTTPServer`` front end over
:class:`~repro.server.service.QueryService`: handler threads do only
protocol work — parse, authenticate, admit, then either return JSON
or pump NDJSON frames from a stream task's buffer to the socket —
while every sample is drawn on the scheduler's single engine thread.

:data:`ROUTES` is the canonical route table.  ``docs/service.md``
documents exactly these routes, and ``tests/test_server.py`` fails if
either side drifts.

Streaming responses use ``Content-Type: application/x-ndjson`` with
connection-close framing: one JSON object per line, terminated by an
``end`` or ``error`` frame (see :mod:`repro.server.protocol`).  A
client that stops reading fills the per-stream buffer and the
scheduler parks the stream (backpressure) — and reaps it as abandoned
past ``abandon_seconds``; a client that disconnects outright is
counted in ``storm.server.client_disconnects`` and its stream is
cancelled, never logged as a handler traceback.

Requests may carry an ``X-Storm-Deadline: <seconds>`` header bounding
the stream's whole life (queue wait included); past it the stream
fails with a terminal ``error`` frame, code ``deadline_exceeded``.
"""

from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs import render_prometheus
from repro.server.protocol import ApiError, encode_frame, parse_body
from repro.server.service import QueryService

__all__ = ["ROUTES", "StormServer", "match_route"]

#: (method, path template, summary) — the documented API surface.
ROUTES = [
    ("GET", "/health",
     "liveness, drain state and stream depth (503 while draining)"),
    ("GET", "/metrics",
     "Prometheus 0.0.4 text metrics (storm.server.* per tenant)"),
    ("GET", "/metrics.json",
     "metrics registry snapshot plus sliding-window view"),
    ("GET", "/v1/datasets",
     "queryable datasets with sizes and sampler suites"),
    ("POST", "/v1/query",
     "run one query through the scheduler to completion; JSON result"),
    ("POST", "/v1/stream",
     "run one query; progressive NDJSON frames until end/error"),
    ("POST", "/v1/sessions",
     "create a named session for the authenticated tenant"),
    ("GET", "/v1/sessions",
     "list the caller's sessions"),
    ("GET", "/v1/sessions/{session}",
     "inspect one session and its streams"),
    ("DELETE", "/v1/sessions/{session}",
     "close a session, cancelling its live streams"),
    ("POST", "/v1/sessions/{session}/streams",
     "launch a detached stream; frames accumulate server-side"),
    ("GET", "/v1/sessions/{session}/streams/{stream}",
     "poll a detached stream's frames from ?from=N (resume point)"),
    ("DELETE", "/v1/sessions/{session}/streams/{stream}",
     "cancel a detached stream"),
]


def match_route(method: str, path: str
                ) -> "tuple[str, dict[str, str]] | None":
    """Resolve a request against :data:`ROUTES`.

    Returns ``(template, params)`` for the matching route, a
    ``("405", ...)`` marker when only the method mismatches, or None.
    """
    segments = [s for s in path.split("/") if s]
    path_matched = False
    for route_method, template, _ in ROUTES:
        t_segments = [s for s in template.split("/") if s]
        if len(t_segments) != len(segments):
            continue
        params: dict[str, str] = {}
        ok = True
        for t_seg, seg in zip(t_segments, segments):
            if t_seg.startswith("{") and t_seg.endswith("}"):
                params[t_seg[1:-1]] = seg
            elif t_seg != seg:
                ok = False
                break
        if not ok:
            continue
        path_matched = True
        if route_method == method:
            return template, params
    if path_matched:
        return "405", {}
    return None


class _Handler(BaseHTTPRequestHandler):
    """One request; all shared state lives on ``self.server``."""

    server_version = "storm-server/1.0"

    # Server-attached: server.service (QueryService)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, method: str) -> None:
        service: QueryService = self.server.service
        path = self.path.split("?", 1)[0]
        matched = match_route(method, path)
        route = matched[0] if matched else "unmatched"
        tenant = ""
        code = 500
        tracer = service.obs.tracer
        span = tracer.begin("http_request", route=route,
                            method=method)
        try:
            if matched is None:
                code = self._send_error(ApiError(
                    404, "not_found", f"no route {method} {path}"))
                return
            if matched[0] == "405":
                code = self._send_error(ApiError(
                    405, "bad_request",
                    f"method {method} not allowed on {path}"))
                return
            template, params = matched
            try:
                tenant = self._tenant(service, template)
                span.set("tenant", tenant)
                code = self._handle(service, method, template,
                                    params, tenant)
            except ApiError as exc:
                code = self._send_error(exc)
        except (BrokenPipeError, ConnectionResetError):
            code = 499  # client went away mid-response
        finally:
            span.set("code", code)
            tracer.end(span)
            registry = service.obs.registry
            if registry.enabled:
                registry.counter("storm.server.requests",
                                 route=route, code=code,
                                 tenant=tenant).inc()
                registry.histogram(
                    "storm.server.latency_seconds",
                    route=route,
                    tenant=tenant).observe(span.duration)

    def _tenant(self, service: QueryService, template: str) -> str:
        """Authenticate; ops routes stay token-free."""
        if template in ("/health", "/metrics", "/metrics.json"):
            return ""
        token = None
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            token = auth[len("Bearer "):].strip()
        if token is None:
            token = self.headers.get("X-Storm-Token")
        hint = self.headers.get("X-Storm-Tenant")
        return service.authenticate(token, hint)

    def _handle(self, service: QueryService, method: str,
                template: str, params: dict[str, str],
                tenant: str) -> int:
        if template == "/health":
            doc = service.health_doc()
            return self._send_json(
                503 if doc["status"] != "ok" else 200, doc)
        if template == "/metrics":
            body = render_prometheus(service.obs.registry).encode()
            return self._send_bytes(
                200, body, "text/plain; version=0.0.4; charset=utf-8")
        if template == "/metrics.json":
            registry = service.obs.registry
            return self._send_json(200, {
                "snapshot": registry.snapshot(),
                "window": registry.window_snapshot()})
        if template == "/v1/datasets":
            return self._send_json(200, service.datasets_doc())
        if template == "/v1/query":
            body = parse_body(self._read_body())
            return self._send_json(
                200, service.run_query(tenant, body,
                                       deadline=self._deadline()))
        if template == "/v1/stream":
            body = parse_body(self._read_body())
            task = service.submit_stream(tenant, body,
                                         deadline=self._deadline())
            return self._stream_frames(task)
        if template == "/v1/sessions" and method == "POST":
            body = parse_body(self._read_body())
            doc = service.create_session(
                tenant, str(body.get("name", "")))
            return self._send_json(201, doc)
        if template == "/v1/sessions":
            return self._send_json(200, service.list_sessions(tenant))
        if template == "/v1/sessions/{session}" and method == "GET":
            return self._send_json(200, service.session_doc(
                tenant, params["session"]))
        if template == "/v1/sessions/{session}":
            return self._send_json(200, service.close_session(
                tenant, params["session"]))
        if template == "/v1/sessions/{session}/streams":
            body = parse_body(self._read_body())
            task = service.submit_stream(
                tenant, body, detached=True,
                session_id=params["session"],
                deadline=self._deadline())
            return self._send_json(202, {
                "stream": task.task_id,
                "session": params["session"],
                "state": task.state})
        if template == "/v1/sessions/{session}/streams/{stream}" \
                and method == "GET":
            task = service.get_task(tenant, params["session"],
                                    params["stream"])
            start = self._query_int("from", 0)
            frames, next_index, state = task.frames_since(start)
            return self._send_json(200, {
                "stream": task.task_id, "state": state,
                "from": start, "next": next_index,
                "frames": frames})
        if template == "/v1/sessions/{session}/streams/{stream}":
            return self._send_json(200, service.cancel_task(
                tenant, params["session"], params["stream"]))
        raise ApiError(404, "not_found",
                       f"no route {method} {template}")

    # -- request helpers -------------------------------------------------

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(raw)
        except ValueError:
            raise ApiError(400, "bad_request",
                           "Content-Length must be an integer, "
                           f"got {raw!r}")
        if length <= 0:
            return b""
        return self.rfile.read(length)

    def _deadline(self) -> float | None:
        """Parse ``X-Storm-Deadline: <seconds>`` (400 on garbage)."""
        raw = self.headers.get("X-Storm-Deadline")
        if raw is None:
            return None
        try:
            deadline = float(raw)
        except ValueError:
            raise ApiError(400, "bad_request",
                           "X-Storm-Deadline must be a number of "
                           f"seconds, got {raw!r}")
        if deadline <= 0:
            raise ApiError(400, "bad_request",
                           "X-Storm-Deadline must be > 0 seconds, "
                           f"got {raw!r}")
        return deadline

    def _query_int(self, key: str, default: int) -> int:
        query = ""
        if "?" in self.path:
            query = self.path.split("?", 1)[1]
        for pair in query.split("&"):
            if pair.startswith(key + "="):
                try:
                    return int(pair[len(key) + 1:])
                except ValueError:
                    raise ApiError(400, "bad_request",
                                   f"?{key}= must be an integer")
        return default

    # -- response helpers ------------------------------------------------

    def _send_json(self, code: int, doc: dict,
                   retry_after: float | None = None) -> int:
        body = (json.dumps(doc, sort_keys=True, default=str)
                + "\n").encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After",
                             str(max(1, round(retry_after))))
        self.end_headers()
        self.wfile.write(body)
        return code

    def _send_bytes(self, code: int, body: bytes, ctype: str) -> int:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)
        return code

    def _send_error(self, exc: ApiError) -> int:
        return self._send_json(exc.status, exc.to_doc(),
                               retry_after=exc.retry_after)

    def _stream_frames(self, task) -> int:
        """Pump NDJSON frames to the socket until the terminal one."""
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("X-Storm-Stream", task.task_id)
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            while True:
                frame = task.pop(timeout=1.0)
                if frame is None:
                    if task.terminal and task.pending() == 0:
                        return 200
                    continue
                self.wfile.write(encode_frame(frame))
                self.wfile.flush()
                if frame.get("frame") in ("end", "error"):
                    return 200
        except (BrokenPipeError, ConnectionResetError):
            # The client vanished mid-stream: cancel the task so the
            # engine reclaims its quanta and the tenant its quota
            # slot, count it, and swallow — a dead socket is routine
            # operation, not a handler traceback.
            task.cancel("client disconnected")
            registry = self.server.service.obs.registry
            if registry.enabled:
                registry.counter("storm.server.client_disconnects",
                                 tenant=task.tenant).inc()
            return 499

    def log_message(self, fmt: str, *args) -> None:
        pass  # storm.server.requests is the access log


class _StormHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that treats vanished clients as routine.

    ``BaseHTTPRequestHandler`` flushes the response in ``finish()``
    *after* the handler returns; a client that disconnected makes
    that flush raise, and stock socketserver prints a full traceback
    per dead socket.  Those are counted, not logged.
    """

    daemon_threads = True
    service: QueryService | None = None

    def handle_error(self, request, client_address) -> None:
        exc = sys.exc_info()[1]
        if isinstance(exc, (BrokenPipeError, ConnectionResetError,
                            TimeoutError)):
            service = self.service
            if service is not None:
                registry = service.obs.registry
                if registry.enabled:
                    registry.counter(
                        "storm.server.client_disconnects",
                        tenant="").inc()
            return
        super().handle_error(request, client_address)


class StormServer:
    """The service bound to a socket, on a background thread.

    ``port=0`` picks an ephemeral port (tests/bench); ``start()``
    returns after the socket is bound, so ``server.port`` is real.
    """

    def __init__(self, service: QueryService, *,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._httpd is not None

    def start(self) -> "StormServer":
        if self._httpd is not None:
            raise RuntimeError("server already started")
        httpd = _StormHTTPServer((self.host, self.port), _Handler)
        httpd.service = self.service
        self.port = httpd.server_address[1]
        self._httpd = httpd
        self._thread = threading.Thread(
            target=httpd.serve_forever, name="storm-server",
            daemon=True)
        self._thread.start()
        return self

    def stop(self, drain: bool = True) -> bool:
        """Graceful shutdown: drain in-flight streams, then unbind.

        Returns True when every stream finished inside the service's
        drain budget.
        """
        drained = self.service.shutdown(drain=drain)
        httpd, self._httpd = self._httpd, None
        thread, self._thread = self._thread, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if thread is not None:
            thread.join(timeout=10.0)
        return drained

    def __enter__(self) -> "StormServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
