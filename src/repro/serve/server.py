"""Stdlib HTTP front for the stream cluster, plus a blocking client.

The cluster (:mod:`repro.serve.shard`) speaks plain dicts; this module
puts JSON-over-HTTP in front of it with nothing beyond the standard
library — ``http.server.ThreadingHTTPServer`` on the server side,
``urllib`` on the client side — because the repository's no-new-
dependencies rule applies to the service tier too, and because a
reviewer should be able to ``curl`` the thing.

Routes (all JSON bodies/responses)::

    POST /v1/streams                               create a stream
    POST /v1/streams/{tenant}/{stream}/append      ingest values (202)
    GET  /v1/streams/{tenant}/{stream}/scores      read scores [?start=]
    GET  /v1/streams/{tenant}/{stream}             stream stats
    POST /v1/streams/{tenant}/{stream}/snapshot    capture portable state
    POST /v1/restore                               register from snapshot
    GET  /metrics                                  per-tenant counters
    GET  /alerts                                   watch rule states
    GET  /healthz                                  liveness + alert summary

Backpressure maps to ``429`` with a ``Retry-After`` header (fractional
seconds) — the one HTTP status whose retry semantics every off-the-
shelf client already implements.  Unknown streams are ``404``, bad
payloads ``400``; error bodies are ``{"error": ...}``.

:class:`ServeClient` is the matching blocking client.  Its ``append``
retries through backpressure with the server-suggested pause (bounded
attempts), which is the behaviour every well-mannered producer wants
and the load generator relies on.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from .shard import Backpressure, StreamCluster

__all__ = ["ServeServer", "ServeClient", "ServeError"]

_MAX_BODY = 64 * 1024 * 1024  # refuse absurd payloads before reading them


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY on every accepted connection: a reply split into small
    # segments (the stdlib's send_error writes head and body apart) must
    # not wait on the peer's delayed ACK under Nagle's algorithm
    disable_nagle_algorithm = True

    # quiet by default: the access log is noise at bench rates
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    @property
    def cluster(self) -> StreamCluster:
        return self.server.cluster  # type: ignore[attr-defined]

    # -- plumbing -----------------------------------------------------

    def _reply(self, status: int, payload: dict, *, headers=None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send(status, body, "application/json", headers)

    def _reply_text(self, status: int, text: str) -> None:
        # Prometheus exposition format 0.0.4 content type
        self._send(
            status,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            None,
        )

    def _send(self, status, body, content_type, headers) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # no head, as end_headers
            self.wfile.write(body)
            return
        # status line, headers and body leave in one write, so a reply is
        # one segment and never a head waiting for the peer to ACK it
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _body(self) -> dict:
        raw = (self.headers.get("Content-Length") or "0").strip()
        length = int(raw) if raw.isascii() and raw.isdigit() else -1
        if length < 0 or length > _MAX_BODY:
            # the body is left unread, so nothing after it on this
            # connection can be framed: answer 400, then close
            self.close_connection = True
            if length < 0:
                raise ValueError(f"bad Content-Length {raw!r}")
            raise ValueError(f"request body over {_MAX_BODY} bytes")
        if length == 0:
            return {}
        payload = json.loads(self.rfile.read(length).decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _route(self, method: str) -> None:
        split = urlsplit(self.path)
        parts = [part for part in split.path.split("/") if part]
        query = {
            key: values[-1] for key, values in parse_qs(split.query).items()
        }
        try:
            self._dispatch(method, parts, query)
        except Backpressure as error:
            self._reply(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{error.retry_after:.3f}"},
            )
        except KeyError as error:
            self._reply(404, {"error": str(error.args[0])})
        except (ValueError, TypeError) as error:
            self._reply(400, {"error": str(error)})

    def _dispatch(self, method, parts, query) -> None:
        if method == "GET" and parts == ["healthz"]:
            self._reply(200, self.cluster.healthz_json())
            return
        if method == "GET" and parts == ["metrics"]:
            # same registry both ways: ?format=prometheus renders the
            # text exposition, default stays the JSON cluster view
            if query.get("format") == "prometheus":
                self._reply_text(200, self.cluster.metrics_prometheus())
            else:
                self._reply(200, self.cluster.metrics_json())
            return
        if method == "GET" and parts == ["alerts"]:
            if query.get("format") == "prometheus":
                self._reply_text(200, self.cluster.alerts_prometheus())
            else:
                self._reply(200, self.cluster.alerts_json())
            return
        if method == "POST" and parts == ["v1", "streams"]:
            body = self._body()
            missing = [
                name
                for name in ("tenant", "stream", "detector")
                if name not in body
            ]
            if missing:
                raise ValueError(f"create body missing {missing}")
            result = self.cluster.create_stream(
                body["tenant"],
                body["stream"],
                body["detector"],
                body.get("train", []),
                window=body.get("window"),
                refit_every=body.get("refit_every"),
                refit_policy=body.get("refit_policy"),
            )
            self._reply(201, result)
            return
        if method == "POST" and parts == ["v1", "restore"]:
            body = self._body()
            missing = [
                name
                for name in (
                    "tenant",
                    "stream",
                    "detector",
                    "points_seen",
                    "scores_total",
                    "state",
                )
                if name not in body
            ]
            if missing:
                raise ValueError(f"restore body missing {missing}")
            self._reply(201, self.cluster.restore_stream(body))
            return
        if len(parts) >= 4 and parts[:2] == ["v1", "streams"]:
            tenant, stream = parts[2], parts[3]
            tail = parts[4:]
            if method == "POST" and tail == ["append"]:
                values = self._body().get("values")
                if not values:
                    raise ValueError("append body needs a 'values' array")
                self._reply(
                    202, self.cluster.append(tenant, stream, values)
                )
                return
            if method == "GET" and tail == ["scores"]:
                start = int(query.get("start", 0))
                self._reply(
                    200, self.cluster.scores(tenant, stream, start=start)
                )
                return
            if method == "POST" and tail == ["snapshot"]:
                self._reply(
                    200, self.cluster.snapshot_stream(tenant, stream)
                )
                return
            if method == "GET" and not tail:
                self._reply(200, self.cluster.stream_stats(tenant, stream))
                return
        self._reply(404, {"error": f"no route for {method} {self.path}"})

    def do_GET(self):  # noqa: N802 - stdlib naming
        self._route("GET")

    def do_POST(self):  # noqa: N802 - stdlib naming
        self._route("POST")


class _Httpd(ThreadingHTTPServer):
    daemon_threads = True
    # socketserver's default listen backlog is 5 — a burst of concurrent
    # producers would see connection resets before a thread ever spawns
    request_queue_size = 128


class ServeServer:
    """A :class:`StreamCluster` behind a threading HTTP server."""

    def __init__(
        self,
        cluster: StreamCluster,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.cluster = cluster
        self._httpd = _Httpd((host, port), _Handler)
        self._httpd.cluster = cluster  # type: ignore[attr-defined]
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "ServeServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self.cluster.close()

    def __enter__(self) -> "ServeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


class ServeError(RuntimeError):
    """Non-backpressure HTTP error from the serve API."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """Blocking JSON client for :class:`ServeServer` (urllib only)."""

    def __init__(
        self, base_url: str, *, timeout: float = 30.0, max_retries: int = 8
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries

    # -- raw request --------------------------------------------------

    def request(
        self, method: str, path: str, payload: dict | None = None
    ) -> dict:
        data = (
            None
            if payload is None
            else json.dumps(payload).encode("utf-8")
        )
        req = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", "replace")
            try:
                message = json.loads(body).get("error", body)
            except (json.JSONDecodeError, AttributeError):
                message = body
            if error.code == 429:
                retry_after = float(
                    error.headers.get("Retry-After") or 0.05
                )
                raise Backpressure("server", retry_after) from None
            raise ServeError(error.code, message) from None

    # -- API ----------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def create_stream(
        self,
        tenant: str,
        stream: str,
        detector: str,
        train,
        *,
        window: int | None = None,
        refit_every: int | None = None,
        refit_policy: str | None = None,
    ) -> dict:
        return self.request(
            "POST",
            "/v1/streams",
            {
                "tenant": tenant,
                "stream": stream,
                "detector": detector,
                "train": [float(v) for v in train],
                "window": window,
                "refit_every": refit_every,
                "refit_policy": refit_policy,
            },
        )

    def append(self, tenant: str, stream: str, values) -> dict:
        """Ingest, retrying through backpressure with the server's hint."""
        payload = {"values": [float(v) for v in values]}
        path = f"/v1/streams/{tenant}/{stream}/append"
        for attempt in range(self.max_retries):
            try:
                return self.request("POST", path, payload)
            except Backpressure as pressure:
                if attempt == self.max_retries - 1:
                    raise
                time.sleep(pressure.retry_after)
        raise AssertionError("unreachable")

    def scores(self, tenant: str, stream: str, *, start: int = 0) -> dict:
        return self.request(
            "GET", f"/v1/streams/{tenant}/{stream}/scores?start={start}"
        )

    def stream_stats(self, tenant: str, stream: str) -> dict:
        return self.request("GET", f"/v1/streams/{tenant}/{stream}")

    def snapshot(self, tenant: str, stream: str) -> dict:
        return self.request(
            "POST", f"/v1/streams/{tenant}/{stream}/snapshot"
        )

    def restore(self, payload: dict) -> dict:
        return self.request("POST", "/v1/restore", payload)

    def metrics(self) -> dict:
        return self.request("GET", "/metrics")

    def metrics_text(self) -> str:
        """The Prometheus text exposition of ``/metrics``."""
        return self._text("/metrics?format=prometheus")

    def alerts(self) -> dict:
        return self.request("GET", "/alerts")

    def alerts_text(self) -> str:
        """The Prometheus ``ALERTS`` exposition of ``/alerts``."""
        return self._text("/alerts?format=prometheus")

    def _text(self, path: str) -> str:
        req = urllib.request.Request(self.base_url + path, method="GET")
        with urllib.request.urlopen(req, timeout=self.timeout) as resp:
            return resp.read().decode("utf-8")
