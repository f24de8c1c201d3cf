"""HTTP front: routes, status mapping, client retry, restore portability,
and the wire contract (one write per reply, Nagle off, pipelining)."""

import base64
import http.client
import json
import socket

import numpy as np
import pytest

from repro.serve import (
    Backpressure,
    ServeClient,
    ServeError,
    ServeServer,
    StreamCluster,
)
from repro.serve.server import _Handler


@pytest.fixture()
def served():
    with ServeServer(StreamCluster(num_shards=2)) as server:
        yield ServeClient(server.address), server


def wave(n=700, seed=0, at=520, width=8):
    rng = np.random.default_rng(seed)
    values = np.sin(2 * np.pi * np.arange(n) / 80) + 0.05 * rng.standard_normal(n)
    values[at : at + width] += 8.0
    return values


class TestRoutes:
    def test_health(self, served):
        client, _ = served
        health = client.health()
        assert health["ok"] is True
        assert health["uptime_seconds"] >= 0
        assert health["shards"] == 2
        assert set(health["queue_depths"]) == {"shard-0", "shard-1"}
        assert all(depth >= 0 for depth in health["queue_depths"].values())

    def test_create_append_scores_stats(self, served):
        client, _ = served
        created = client.create_stream("acme", "s1", "diff", np.arange(40.0))
        assert created["train_len"] == 40
        client.append("acme", "s1", np.arange(25.0))
        out = client.scores("acme", "s1")
        assert out["total"] == 25 and len(out["scores"]) == 25
        paged = client.scores("acme", "s1", start=20)
        assert paged["start"] == 20 and len(paged["scores"]) == 5
        stats = client.stream_stats("acme", "s1")
        assert stats["points_seen"] == 65
        assert stats["detector"] == "diff"

    def test_unknown_stream_is_404(self, served):
        client, _ = served
        with pytest.raises(ServeError) as caught:
            client.scores("acme", "ghost")
        assert caught.value.status == 404

    def test_unknown_route_is_404(self, served):
        client, _ = served
        with pytest.raises(ServeError) as caught:
            client.request("GET", "/v2/nothing")
        assert caught.value.status == 404

    def test_bad_payloads_are_400(self, served):
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        with pytest.raises(ServeError) as caught:
            client.request(
                "POST", "/v1/streams/acme/s1/append", {"values": []}
            )
        assert caught.value.status == 400
        with pytest.raises(ServeError) as caught:
            client.request("POST", "/v1/streams", {"tenant": "only"})
        assert caught.value.status == 400
        with pytest.raises(ServeError) as caught:
            client.create_stream("acme", "s2", "warp-drive", [])
        assert caught.value.status == 400

    def test_metrics_endpoint_shape(self, served):
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(30.0))
        client.append("acme", "s1", np.arange(15.0))
        client.scores("acme", "s1")
        payload = client.metrics()
        assert payload["totals"]["points_ingested"] == 15
        assert payload["totals"]["scores_emitted"] == 15
        assert {row["tenant"] for row in payload["tenants"]} == {"acme"}
        assert set(payload["queue_depths"]) == {"shard-0", "shard-1"}


class TestBackpressureMapping:
    def test_client_retries_through_429(self, served):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        calls = {"n": 0}
        original = server.cluster.append

        def flaky(tenant, stream, values):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise Backpressure("shard-0", 0.01)
            return original(tenant, stream, values)

        server.cluster.append = flaky
        result = client.append("acme", "s1", [1.0, 2.0])
        assert result["queued"] == 2
        assert calls["n"] == 3  # two 429s absorbed by the retry loop

    def test_429_carries_retry_after_hint(self, served):
        _, server = served

        def full(tenant, stream, values):
            raise Backpressure("shard-0", 0.25)

        server.cluster.append = full
        impatient = ServeClient(server.address, max_retries=1)
        with pytest.raises(Backpressure) as caught:
            impatient.append("acme", "s1", [1.0])
        assert caught.value.retry_after == pytest.approx(0.25, abs=0.01)


class TestRestoreOverHttp:
    def test_snapshot_restores_into_another_server(self):
        # the snapshot payload is a portable JSON object: capture over
        # HTTP on one server, POST it to a different server, and the
        # continuation scores must match the uninterrupted stream's
        values = wave(seed=5)
        with ServeServer(StreamCluster(num_shards=2)) as origin:
            a = ServeClient(origin.address)
            a.create_stream("acme", "s1", "moving_zscore(k=30)", values[:250])
            for start in range(250, 460, 30):
                a.append("acme", "s1", values[start : start + 30])
            snap = a.snapshot("acme", "s1")
            cut = snap["scores_total"]
            for start in range(460, 700, 30):
                a.append("acme", "s1", values[start : start + 30])
            original = a.scores("acme", "s1", start=cut)["scores"]

            with ServeServer(StreamCluster(num_shards=1)) as target:
                b = ServeClient(target.address)
                restored = b.restore(snap)
                assert restored["points_seen"] == snap["points_seen"]
                for start in range(460, 700, 30):
                    b.append("acme", "s1", values[start : start + 30])
                replayed = b.scores("acme", "s1", start=cut)["scores"]
                assert b.metrics()["totals"]["restores"] == 1
        assert replayed == original

    def test_restore_into_occupied_name_is_400(self, served):
        client, _ = served
        client.create_stream("acme", "s1", "diff", np.arange(30.0))
        snap = client.snapshot("acme", "s1")
        with pytest.raises(ServeError) as caught:
            client.restore(snap)
        assert caught.value.status == 400


# -- the wire ----------------------------------------------------------


def raw_request(method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("ascii") + body


def read_response(reader):
    """One HTTP/1.1 response off a buffered socket reader."""
    status = reader.readline()
    if not status:
        return None
    headers = {}
    while (line := reader.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers["content-length"]))
    return int(status.split()[1]), headers, body


class _CountingSocket:
    """A socket whose ``sendall`` calls are recorded, one entry each."""

    def __init__(self, sock, writes):
        self._sock = sock
        self._writes = writes

    def sendall(self, data):
        self._writes.append(bytes(data))
        return self._sock.sendall(data)

    def __getattr__(self, name):
        return getattr(self._sock, name)


@pytest.fixture()
def wire():
    """A server whose handlers record TCP_NODELAY and every socket write."""
    writes, nodelay = [], []

    class Spy(_Handler):
        def setup(self):
            self.request = _CountingSocket(self.request, writes)
            super().setup()
            nodelay.append(
                self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY
                )
            )

    server = ServeServer(StreamCluster(num_shards=2))
    server._httpd.RequestHandlerClass = Spy
    with server:
        yield server, writes, nodelay


class TestWireContract:
    def test_accepted_connection_has_nagle_off(self, wire):
        server, _, nodelay = wire
        ServeClient(server.address).health()
        assert len(nodelay) == 1 and nodelay[0] != 0

    def test_each_reply_is_one_write(self, wire):
        server, writes, _ = wire
        host, port = server._httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)

        def exchange(method, path, payload=None):
            before = len(writes)
            body = None if payload is None else json.dumps(payload)
            conn.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            data = response.read()
            # the whole response was read, so every write made for it
            # has happened: no timing involved in this count
            sent = writes[before:]
            assert len(sent) == 1, (path, response.status, sent)
            assert sent[0].startswith(f"HTTP/1.1 {response.status} ".encode())
            assert sent[0].endswith(b"\r\n\r\n" + data)
            return response

        created = exchange(
            "POST", "/v1/streams",
            {"tenant": "acme", "stream": "s1", "detector": "diff",
             "train": [0.0] * 20},
        )
        assert created.status == 201
        assert exchange(
            "POST", "/v1/streams/acme/s1/append", {"values": [1.0, 2.0]}
        ).status == 202
        scores = exchange("GET", "/v1/streams/acme/s1/scores")
        assert scores.status == 200
        assert sorted(name.lower() for name in scores.headers) == [
            "content-length", "content-type", "date", "server",
        ]
        assert exchange(
            "POST", "/v1/streams/acme/s1/append", {"values": []}
        ).status == 400
        assert exchange("GET", "/v2/nothing").status == 404
        text = exchange("GET", "/metrics?format=prometheus")
        assert text.status == 200
        assert text.headers["Content-Type"].startswith("text/plain")

        def full(tenant, stream, values):
            raise Backpressure("shard-0", 0.25)

        server.cluster.append = full
        pressured = exchange(
            "POST", "/v1/streams/acme/s1/append", {"values": [3.0]}
        )
        assert pressured.status == 429
        assert pressured.headers["Retry-After"] == "0.250"
        conn.close()

    def test_pipelined_requests_answer_in_order(self, served):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        host, port = server._httpd.server_address[:2]
        requests = [
            raw_request("POST", "/v1/streams/acme/s1/append",
                        {"values": [float(i)]})
            if i % 2 == 0
            else raw_request("GET", "/v1/streams/acme/s1/scores")
            for i in range(50)
        ]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"".join(requests))
            reader = sock.makefile("rb")
            for i in range(50):
                status, _, body = read_response(reader)
                payload = json.loads(body)
                if i % 2 == 0:
                    assert (status, payload["queued"]) == (202, 1)
                else:
                    # each read is a barrier behind the appends before it
                    assert status == 200
                    assert payload["total"] == (i + 1) // 2

    def test_http09_request_gets_the_bare_body(self, served):
        # a request line without a version is HTTP/0.9: no status line
        # and no headers go back, only the body, then the server closes
        _, server = served
        host, port = server._httpd.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            reply = sock.makefile("rb").read()
        assert json.loads(reply)["ok"] is True


class TestMalformedRequests:
    @pytest.mark.parametrize("length", ("-1", "12abc", "+5"))
    def test_bad_content_length_is_400_then_close(self, served, length):
        # -1 used to reach rfile.read(-1): the handler read until the
        # client hung up and never answered
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(20.0))
        host, port = server._httpd.server_address[:2]
        head = (
            "POST /v1/streams/acme/s1/append HTTP/1.1\r\nHost: test\r\n"
            f"Content-Length: {length}\r\n\r\n"
        )
        with socket.create_connection((host, port), timeout=3) as sock:
            sock.sendall(head.encode("ascii"))
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 400
            assert "Content-Length" in json.loads(body)["error"]
            # the unread body cannot be framed, so the server closes
            assert read_response(reader) is None
        assert client.scores("acme", "s1")["total"] == 0

    def test_truncated_snapshot_is_400_and_connection_survives(
        self, served
    ):
        client, server = served
        client.create_stream("acme", "s1", "diff", np.arange(30.0))
        snap = client.snapshot("acme", "s1")
        blob = base64.b64decode(snap["state"])
        snap["stream"] = "s2"
        snap["state"] = base64.b64encode(blob[:10]).decode("ascii")
        host, port = server._httpd.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        conn.request(
            "POST", "/v1/restore", body=json.dumps(snap),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert "truncated" in json.loads(response.read())["error"]
        sock = conn.sock
        conn.request("GET", "/healthz")
        health = conn.getresponse()
        assert health.status == 200 and json.loads(health.read())["ok"]
        assert conn.sock is sock  # same keep-alive connection
        conn.close()
