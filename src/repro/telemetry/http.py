"""A minimal metrics/JSON HTTP endpoint (stdlib-only).

:class:`MetricsServer` serves a :class:`~repro.telemetry.metrics.MetricsRegistry`
over HTTP from a daemon thread:

* ``GET /metrics`` — Prometheus text exposition (format 0.0.4);
* ``GET /health``  — ``{"status": "ok"}`` liveness JSON, plus the fields
  of an optional ``health`` callable (the service adds its workers).

It backs ``repro watch --metrics-port`` — scrape the live run with any
Prometheus-compatible collector, or just ``curl`` it — and the ``repro
serve`` service extends it with JSON routes: ``json_routes`` maps a path
prefix (``"/jobs"``) to a ``subpath -> (status, payload)`` callable serving
``GET``, ``post_routes`` maps a path to a ``body -> (status, payload)``
callable serving ``POST`` (the service's job-submission API).  Unknown paths
get a JSON 404 body; every response declares an explicit charset.

Binding port 0 picks a free ephemeral port; the actual port is on
:attr:`MetricsServer.port` after :meth:`start`.
"""

from __future__ import annotations

import json
import threading
from types import TracebackType
from typing import Any, Callable, Mapping
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .metrics import MetricsRegistry

__all__ = ["MetricsServer"]

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: ``GET`` route: receives the subpath after the registered prefix (no
#: leading slash, possibly empty) and returns ``(status, JSON payload)``.
JsonRoute = Callable[[str], "tuple[int, Any]"]
#: ``POST`` route: receives the decoded JSON body, returns ``(status, payload)``.
PostRoute = Callable[[Any], "tuple[int, Any]"]


class MetricsServer:
    """Serves a metrics registry (plus JSON routes) from a daemon thread."""

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        json_routes: Mapping[str, JsonRoute] | None = None,
        post_routes: Mapping[str, PostRoute] | None = None,
        health: Callable[[], Mapping[str, Any]] | None = None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.requested_port = port
        self.json_routes = dict(json_routes or {})
        self.post_routes = dict(post_routes or {})
        self.health = health
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self.requested_port

    def start(self) -> "MetricsServer":
        """Bind and start serving in a daemon thread; returns ``self``."""
        if self._server is not None:
            return self
        registry = self.registry
        json_routes = self.json_routes
        post_routes = self.post_routes
        health = self.health

        class Handler(BaseHTTPRequestHandler):
            def _send(self, status: int, body: bytes, content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _send_json(self, status: int, payload: Any) -> None:
                body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
                self._send(status, body, JSON_CONTENT_TYPE)

            def _not_found(self, path: str) -> None:
                self._send_json(404, {"error": "not found", "path": path})

            def do_GET(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                if path.rstrip("/") in ("", "/metrics"):
                    body = registry.exposition().encode("utf-8")
                    self._send(200, body, EXPOSITION_CONTENT_TYPE)
                    return
                if path == "/health":
                    self._send_json(200, {"status": "ok", **(health() if health is not None else {})})
                    return
                prefix, _, subpath = path.lstrip("/").partition("/")
                route = json_routes.get(f"/{prefix}")
                if route is None:
                    self._not_found(path)
                    return
                try:
                    status, payload = route(subpath)
                except Exception as exc:  # noqa: BLE001 - served, not crashed
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                    return
                self._send_json(status, payload)

            def do_POST(self) -> None:  # noqa: N802 - http.server API
                path = self.path.split("?", 1)[0]
                route = post_routes.get(path.rstrip("/") or path)
                if route is None:
                    self._not_found(path)
                    return
                length = int(self.headers.get("Content-Length") or 0)
                raw = self.rfile.read(length) if length else b""
                try:
                    body = json.loads(raw.decode("utf-8")) if raw else {}
                except (UnicodeDecodeError, json.JSONDecodeError):
                    self._send_json(400, {"error": "request body is not valid JSON"})
                    return
                try:
                    status, payload = route(body)
                except Exception as exc:  # noqa: BLE001 - served, not crashed
                    self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                    return
                self._send_json(status, payload)

            def log_message(self, *args: object) -> None:  # noqa: A003
                """Silence per-request stderr lines (the CLI owns stderr)."""

        self._server = ThreadingHTTPServer((self.host, self.requested_port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever, name="repro-metrics", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down and join its thread (idempotent)."""
        server, thread = self._server, self._thread
        self._server = self._thread = None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        self.stop()
