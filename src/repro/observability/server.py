"""The scrape endpoint: ``/metrics`` and ``/healthz`` over stdlib HTTP.

The sweep-service coordinator (``repro serve-sweep --metrics-port``)
runs a :class:`MetricsServer` beside its poll loop so operators can
watch a fleet live instead of tailing republished files:

* ``GET /metrics`` — the active registry rendered in Prometheus text
  exposition format 0.0.4 (queue depth, leases by state, reclamations,
  per-worker throughput, route-cache totals, engine counters).
* ``GET /healthz`` — a JSON liveness document built by a caller-supplied
  callable; the coordinator wires in fresh
  :func:`repro.observability.telemetry.service_telemetry` output so the
  health answer reflects the queue *now*, not the last publish.  The
  document defaults to ``{"status": "ok", …}``, and a ``"status"`` key
  in the callable's payload **overrides** the default — the
  coordinator reports ``"draining"`` once the drain marker is set, so a
  scraper can follow the lifecycle from the endpoint alone.

The server is a :class:`~http.server.ThreadingHTTPServer` on a daemon
thread: scrapes never block the coordinator, and an abandoned server
dies with the process.  Binding to port 0 picks an ephemeral port
(reported by :meth:`MetricsServer.start` and the ``port`` attribute),
which is what the test suite uses.

>>> from repro.observability.metrics import MetricsRegistry
>>> server = MetricsServer(MetricsRegistry())
>>> server.port is None   # not bound until start()
True
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.observability.metrics import CONTENT_TYPE, MetricsRegistry

__all__ = ["MetricsServer"]


class _ScrapeHandler(BaseHTTPRequestHandler):
    """Routes ``GET /metrics`` and ``GET /healthz``; silences logging."""

    server_version = "repro-metrics/1"

    def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
        """Serve one scrape request."""
        owner: "MetricsServer" = self.server.owner  # type: ignore[attr-defined]
        if self.path in ("/metrics", "/metrics/"):
            body = owner.registry.render_prometheus().encode("utf-8")
            self._respond(200, CONTENT_TYPE, body)
        elif self.path in ("/healthz", "/healthz/"):
            try:
                payload = owner.health() if owner.health is not None else {}
                # A "status" key in the payload wins over the default —
                # the daemon's lifecycle signal ("draining").
                document = {"status": "ok", **payload}
                status = 200
            except Exception as error:  # pragma: no cover — defensive
                document = {"status": "error", "error": str(error)}
                status = 500
            body = json.dumps(document, sort_keys=True).encode("utf-8")
            self._respond(status, "application/json", body)
        else:
            self._respond(404, "text/plain; charset=utf-8", b"not found\n")

    def _respond(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:
        """Drop per-request stderr logging (scrapes are periodic noise)."""


class MetricsServer:
    """Serves a registry's scrape endpoints from a daemon thread.

    Parameters: ``registry`` is the
    :class:`~repro.observability.metrics.MetricsRegistry` to expose;
    ``port`` 0 (the default) binds an ephemeral port; ``host`` defaults
    to loopback — a metrics endpoint is an operator surface, not a
    public one; ``health`` is an optional zero-argument callable
    returning the JSON-serialisable ``/healthz`` payload.

    >>> from repro.observability.metrics import MetricsRegistry
    >>> registry = MetricsRegistry()
    >>> registry.gauge("repro_queue_depth", "Pending cells.").set(5)
    >>> server = MetricsServer(registry)
    >>> port = server.start()
    >>> import urllib.request
    >>> with urllib.request.urlopen(
    ...     f"http://127.0.0.1:{port}/metrics") as response:
    ...     text = response.read().decode()
    >>> "repro_queue_depth 5" in text
    True
    >>> server.stop()
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int = 0,
        host: str = "127.0.0.1",
        health=None,
    ):
        self.registry = registry
        self.health = health
        self.host = host
        self.requested_port = port
        self.port: "int | None" = None
        self._server: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    def start(self) -> int:
        """Bind, start serving on a daemon thread, return the bound port."""
        if self._server is not None:
            raise RuntimeError("metrics server already started")
        server = ThreadingHTTPServer(
            (self.host, self.requested_port), _ScrapeHandler
        )
        server.daemon_threads = True
        server.owner = self  # type: ignore[attr-defined]
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self.port

    def stop(self) -> None:
        """Shut the server down and release the port (idempotent)."""
        server, self._server = self._server, None
        thread, self._thread = self._thread, None
        if server is not None:
            server.shutdown()
            server.server_close()
        if thread is not None:
            thread.join(timeout=5.0)

    @property
    def url(self) -> "str | None":
        """Base URL once started (``http://host:port``), else ``None``."""
        if self.port is None:
            return None
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "MetricsServer":
        """Start on entry so ``with MetricsServer(...) as s:`` just works."""
        self.start()
        return self

    def __exit__(self, *exc) -> bool:
        """Stop on exit; exceptions propagate."""
        self.stop()
        return False
