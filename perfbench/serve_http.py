"""The ``serve_http`` workload: `repro serve` driven over real sockets.

One single-threaded asyncio loop generates **open-loop** traffic: every
request has a due time fixed in advance, and it is sent at that time
whether or not earlier requests were answered.  Latency is measured
from the due time, so a stall also counts against every request that
was due while it lasted, and the loop reports how late it ran.

Each of the 32 streams (over 8 tenants) has one keep-alive connection
that carries its requests in order (HTTP/1.1 pipelining), so the
server applies a stream's appends in the order they were scheduled and
the final scores can be checked against a local replay of the same
batches.  The mix is 90% appends of 10 points (answered 202, scored
later by the shard worker) and 10% score reads, which are barriers
through the shard queue.

The run is one phase at a fixed nominal rate (the end-to-end latency
metrics), then a ladder of rising rates that stops at the first rate
whose append p99 misses the limit, fails a request, leaves a backlog
in the shard queues, or finds the generator itself running late.
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    ROOT,
    WORK,
    BenchError,
    child_env,
    peak_rss_mb,
    provenance,
    tail,
    timing,
)

STREAMS = 32
TENANTS = 8
DETECTORS = ("streaming_zscore(k=48)", "streaming_range(k=48)")
APPEND_POINTS = 10
READ_SHARE = 0.10
TRAIN_POINTS = 500
# series of the seeded UCR-sim archive the streams' values come from
SOURCE_SERIES = 4
# This traffic sustained ~2,200 requests/s on a quiet 2-vCPU host and
# ~1,000 when the hypervisor took back 20-45% of it.  At 650 the server
# stays clear of overload in either state, and the median is set by a
# kernel timer (see README) rather than by how much CPU the host leaves.
NOMINAL_RPS = 650.0
LADDER_START = 1.25
LADDER_STEP = 1.25
LADDER_RUNGS = 10
RUNG_SECONDS = 2.0
APPEND_P99_LIMIT_MS = 100.0
# a rung whose generator ran later than this at p99 measured the
# generator, not the server
LATE_LIMIT_MS = APPEND_P99_LIMIT_MS / 5
# shard-queue depth (summed over shards) that counts as a backlog
BACKLOG_LIMIT = 256
HEALTH_POLL_S = 0.25
SETUP_REPEATS = 3
SPAWN_TIMEOUT = 60.0
DRAIN_TIMEOUT = 30.0


def config() -> dict:
    return {
        "workload": "serve_http",
        "server": ["repro", "serve", "--port", "0"],
        "streams": STREAMS,
        "tenants": TENANTS,
        "detectors": list(DETECTORS),
        "append_points": APPEND_POINTS,
        "read_share": READ_SHARE,
        "nominal_rps": NOMINAL_RPS,
        "ladder": [LADDER_START, LADDER_STEP, LADDER_RUNGS, RUNG_SECONDS],
        "append_p99_limit_ms": APPEND_P99_LIMIT_MS,
        "late_limit_ms": LATE_LIMIT_MS,
        "backlog_limit": BACKLOG_LIMIT,
    }


# -- inputs ----------------------------------------------------------------


class Stream:
    """One stream's identity, its values, and what the server accepted."""

    def __init__(self, index: int, values, train) -> None:
        self.tenant = f"tenant-{index % TENANTS}"
        self.name = f"stream-{index}"
        self.detector = DETECTORS[index % len(DETECTORS)]
        self.values = values
        self.train = train
        self.cursor = 0
        self.accepted: list[list[float]] = []  # batches answered 202
        self.accepted_points = 0
        self.read_scores: list[float] = []  # concatenated incremental reads

    @property
    def path(self) -> str:
        return f"/v1/streams/{self.tenant}/{self.name}"

    def next_batch(self) -> "list[float]":
        n = len(self.values)
        batch = [self.values[(self.cursor + i) % n] for i in range(APPEND_POINTS)]
        self.cursor += APPEND_POINTS
        return batch


def make_streams(seed: int) -> "tuple[list[Stream], str]":
    from repro.datasets.ucr import UcrSimConfig, make_ucr
    from repro.runner.manifest import archive_fingerprint

    archive = make_ucr(UcrSimConfig(seed=seed, size=SOURCE_SERIES))
    streams = []
    for index in range(STREAMS):
        series = archive.series[index % SOURCE_SERIES]
        test = [float(v) for v in series.values[series.train_len :]]
        # streams on one series start at different points of its test part
        offset = (index // SOURCE_SERIES) * len(test) // (STREAMS // SOURCE_SERIES)
        train = [float(v) for v in series.values[: series.train_len][-TRAIN_POINTS:]]
        streams.append(Stream(index, test[offset:] + test[:offset], train))
    return streams, archive_fingerprint(archive)


def schedule(rate: float, seconds: float, rng: random.Random):
    """(offset, stream index, is_read) at a fixed rate, streams shuffled."""
    count = int(rate * seconds)
    order: list[int] = []
    plan = []
    for i in range(count):
        if not order:
            order = list(range(STREAMS))
            rng.shuffle(order)
        plan.append((i / rate, order.pop(), rng.random() < READ_SHARE))
    return plan


# -- the server process ----------------------------------------------------


class Server:
    """A `repro serve --port 0` subprocess."""

    def __init__(self, index: int) -> None:
        self.log = WORK / "serve_http" / f"server-{index}.log"
        self.log.parent.mkdir(parents=True, exist_ok=True)
        self._log_file = open(self.log, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=self._log_file,
        )
        self.host = self.port = None

    async def started(self) -> None:
        """Wait for the address the server prints once it listens."""
        deadline = time.monotonic() + SPAWN_TIMEOUT
        marker = "listening on http://"
        while time.monotonic() < deadline and self.proc.poll() is None:
            text = self.log.read_text()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                self.host, self.port = host, int(port)
                return
            await asyncio.sleep(0.005)
        raise BenchError(f"repro serve did not start; see {self.log}")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log_file.close()


# -- HTTP over asyncio -----------------------------------------------------


class Connection:
    """One keep-alive connection; responses arrive in request order."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: deque = deque()
        self.dead = False

    def fail_pending(self) -> None:
        """The connection broke: its unanswered requests failed."""
        self.dead = True
        for ticket in self.pending:
            ticket.done = True
        self.pending.clear()

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(host, port)
        sock = writer.get_extra_info("socket")
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(reader, writer)

    def send(self, method: str, path: str, body: "bytes | None", ticket) -> None:
        head = f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self.pending.append(ticket)
        if self.dead:
            self.fail_pending()
        else:
            self.writer.write(head.encode() + b"\r\n" + (body or b""))

    async def response(self) -> "tuple[int, bytes]":
        line = await self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        status = int(line.split()[1])
        length = 0
        while True:
            header = await self.reader.readline()
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    async def request(self, method: str, path: str, payload=None) -> bytes:
        """A request outside the schedule, on an idle connection."""
        body = None if payload is None else json.dumps(payload).encode()
        self.send(method, path, body, None)
        status, data = await self.response()
        self.pending.popleft()
        if status >= 300:
            raise BenchError(f"{method} {path}: HTTP {status} {data[:200]!r}")
        return data

    async def call(self, method: str, path: str, payload=None) -> dict:
        return json.loads(await self.request(method, path, payload))

    def close(self) -> None:
        self.writer.close()


class Ticket:
    """One scheduled request: an append's batch, or a read's start index."""

    __slots__ = ("stream", "read", "due", "sent", "batch", "done", "ok", "latency")

    def __init__(self, stream: Stream, read: bool, due: float, batch) -> None:
        self.stream = stream
        self.read = read
        self.due = due
        self.sent = None
        self.batch = batch
        self.done = False
        self.ok = False
        self.latency = None


async def _receive(conn: Connection, loop) -> None:
    """Match responses to tickets in order; record and check each."""
    while True:
        try:
            status, body = await conn.response()
        except (ConnectionError, asyncio.IncompleteReadError):
            conn.fail_pending()
            return
        ticket = conn.pending.popleft()
        ticket.latency = loop.time() - ticket.due
        ticket.done = True
        stream = ticket.stream
        if ticket.read:
            if status != 200:
                continue
            payload = json.loads(body)
            start, scores = ticket.batch, payload["scores"]
            known = stream.read_scores[start:]
            # a read is a barrier: it sees every append accepted before
            # it, and agrees with what earlier reads returned
            ticket.ok = (
                payload["total"] == stream.accepted_points
                and payload["start"] == start
                and scores[: len(known)] == known
            )
            stream.read_scores.extend(scores[len(known) :])
        elif status == 202:
            ticket.ok = True
            stream.accepted.append(ticket.batch)
            stream.accepted_points += len(ticket.batch)


class Phase:
    """The outcome of one scheduled phase."""

    def __init__(self, rate: float, tickets: "list[Ticket]", started: float):
        self.rate = rate
        self.tickets = tickets
        self.started = started
        self.backlog: list[int] = []
        self.outstanding = 0  # requests unanswered when the schedule ended

    def latencies(self, read: bool) -> "list[float]":
        return [t.latency for t in self.tickets if t.read is read and t.ok]

    @property
    def failed(self) -> int:
        return sum(1 for t in self.tickets if not t.ok)

    def late_ms(self) -> "list[float]":
        return [(t.sent - t.due) * 1e3 for t in self.tickets if t.sent is not None]

    def offered_rps(self) -> float:
        """The rate the generator actually sent at, as measured."""
        sent = [t.sent for t in self.tickets]
        return (len(sent) - 1) / (max(sent) - min(sent))


class Driver:
    def __init__(self, server: Server, streams: "list[Stream]") -> None:
        self.server = server
        self.streams = streams
        self.conns: list[Connection] = []
        self.control: "Connection | None" = None
        self.receivers: list[asyncio.Task] = []

    async def create_streams(self) -> None:
        self.control = await Connection.open(self.server.host, self.server.port)
        for stream in self.streams:
            await self.control.call(
                "POST",
                "/v1/streams",
                {
                    "tenant": stream.tenant,
                    "stream": stream.name,
                    "detector": stream.detector,
                    "train": stream.train,
                },
            )

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in self.streams:
            conn = await Connection.open(self.server.host, self.server.port)
            self.conns.append(conn)
            self.receivers.append(asyncio.create_task(_receive(conn, loop)))

    async def _poll_backlog(self, phase: Phase, stop: asyncio.Event) -> None:
        while not stop.is_set():
            health = await self.control.call("GET", "/healthz")
            phase.backlog.append(sum(health["queue_depths"].values()))
            try:
                await asyncio.wait_for(stop.wait(), HEALTH_POLL_S)
            except asyncio.TimeoutError:
                pass

    async def phase(self, rate: float, seconds: float, rng, *, poll: bool) -> Phase:
        loop = asyncio.get_running_loop()
        plan = schedule(rate, seconds, rng)
        started = loop.time() + 0.05
        tickets = []
        phase = Phase(rate, tickets, started)
        stop = asyncio.Event()
        poller = asyncio.create_task(self._poll_backlog(phase, stop)) if poll else None
        for offset, index, read in plan:
            due = started + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            stream = self.streams[index]
            conn = self.conns[index]
            if read:
                # reads still in flight may return the same scores again
                start = len(stream.read_scores)
                ticket = Ticket(stream, True, due, start)
                conn.send("GET", f"{stream.path}/scores?start={start}", None, ticket)
            else:
                batch = stream.next_batch()
                ticket = Ticket(stream, False, due, batch)
                body = json.dumps({"values": batch}).encode()
                conn.send("POST", f"{stream.path}/append", body, ticket)
            ticket.sent = loop.time()
            tickets.append(ticket)
        # the backlog the rate left behind, before the drain
        phase.outstanding = sum(not t.done for t in tickets)
        if poller is not None:
            stop.set()
            await poller
        await self._drain(tickets)
        return phase

    async def _drain(self, tickets: "list[Ticket]") -> None:
        deadline = time.monotonic() + DRAIN_TIMEOUT
        while not all(t.done for t in tickets):
            if time.monotonic() > deadline:
                raise BenchError("responses still missing after the drain")
            await asyncio.sleep(0.002)

    async def final_scores(self) -> "list[list[float]]":
        """Every stream's scores from the start, as served."""
        served = []
        for stream in self.streams:
            reply = await self.control.call("GET", f"{stream.path}/scores?start=0")
            served.append(reply["scores"])
        return served

    def check(self, served: "list[list[float]]") -> "tuple[int, int]":
        """Served scores against a local replay of the accepted batches.

        Returns (streams checked, streams wrong).
        """
        from repro.stream.adapters import as_streaming

        wrong = 0
        for stream, scores in zip(self.streams, served):
            local = as_streaming(stream.detector)
            local.fit(stream.train)
            expected = [
                float(s) for batch in stream.accepted for s in local.update(batch)
            ]
            if (
                scores != expected
                or scores[: len(stream.read_scores)] != stream.read_scores
            ):
                wrong += 1
        return len(self.streams), wrong

    async def metrics_text(self) -> str:
        return (await self.control.request("GET", "/metrics?format=prometheus")).decode()

    async def close(self) -> None:
        for task in self.receivers:
            task.cancel()
        for task in self.receivers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        for conn in self.conns + ([self.control] if self.control else []):
            conn.close()
        self.receivers, self.conns, self.control = [], [], None


# -- server-side layer metrics ---------------------------------------------


def _prometheus(text: str) -> "dict[tuple[str, str], list[float]]":
    """{(metric, quantile or ''): [value per label set]}."""
    found: dict = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        name, _, labels = series.partition("{")
        q = ""
        if 'quantile="' in labels:
            q = labels.split('quantile="', 1)[1].split('"', 1)[0]
        found.setdefault((name, q), []).append(float(value))
    return found


def server_layers(text: str, phase: Phase) -> dict:
    """Queue-wait/score split, coalescing and backpressure from /metrics.

    The reservoirs are per tenant: the p50 reported is the median of
    the tenants' medians, the p99 the worst tenant's p99.
    """
    found = _prometheus(text)

    def pooled(name: str, q: str, pick) -> float:
        values = found.get((name, q), [])
        return pick(values) * 1e3 if values else 0.0

    appends = sum(1 for t in phase.tickets if not t.read and t.ok)
    groups = sum(found.get(("serve_append_batches", ""), []))
    return {
        "serve.queue_wait_ms.p50": pooled(
            "serve_queue_wait_seconds", "0.5", statistics.median
        ),
        "serve.queue_wait_ms.p99": pooled("serve_queue_wait_seconds", "0.99", max),
        "serve.score_ms.p50": pooled("serve_score_seconds", "0.5", statistics.median),
        "serve.score_ms.p99": pooled("serve_score_seconds", "0.99", max),
        "serve.coalesce_ratio": appends / groups if groups else 0.0,
        "serve.queue_depth.max": max(phase.backlog, default=0),
        "serve.backpressure_total": sum(
            found.get(("serve_backpressure_total", ""), [])
        ),
    }


# -- the workload ------------------------------------------------------------


def _phase_summary(phase: Phase) -> dict:
    appends = phase.latencies(read=False)
    reads = phase.latencies(read=True)
    return {
        "rate": phase.rate,
        "requests": len(phase.tickets),
        "failed": phase.failed,
        "append_ms": timing(appends, 1e3) if appends else None,
        "read_ms": timing(reads, 1e3) if reads else None,
        "late_ms": timing(phase.late_ms()),
        "backlog_max": max(phase.backlog, default=None),
        "outstanding_at_end": phase.outstanding,
        "offered_rps": phase.offered_rps(),
    }


def _verdict(phase: Phase, summary: dict) -> str:
    if tail(phase.late_ms())[0] > LATE_LIMIT_MS:
        return "generator-limited"
    if phase.failed:
        return "failed requests"
    if summary["append_ms"]["p99"] > APPEND_P99_LIMIT_MS:
        return "append p99 over limit"
    if (phase.backlog and phase.backlog[-1] > BACKLOG_LIMIT) or (
        phase.outstanding > phase.rate * APPEND_P99_LIMIT_MS / 1e3
    ):
        return "growing backlog"
    return "meets limit"


async def _ladder(driver: Driver, rng) -> "tuple[list[dict], str]":
    """Rising rates until one misses the limit twice in a row.

    One miss is repeated once, so a single pause (a collection, a
    neighbour's burst) does not end the ladder below capacity.
    """
    rungs = []
    rate = NOMINAL_RPS * LADDER_START
    for _ in range(LADDER_RUNGS):
        for _ in range(2):
            phase = await driver.phase(rate, RUNG_SECONDS, rng, poll=True)
            summary = _phase_summary(phase)
            summary["verdict"] = _verdict(phase, summary)
            rungs.append(summary)
            if summary["verdict"] == "meets limit":
                break
        else:
            return rungs, summary["verdict"]
        rate *= LADDER_STEP
    return rungs, "top rung met the limit"


async def _nominal(driver: Driver, seconds: float, rng, *, poll: bool):
    """One nominal phase and the final-score check that closes it."""
    loop = asyncio.get_running_loop()
    phase = await driver.phase(NOMINAL_RPS, seconds, rng, poll=poll)
    text = await driver.metrics_text() if poll else None
    served = await driver.final_scores()
    wall = loop.time() - phase.started
    checked, wrong = driver.check(served)
    return phase, text, wall, checked, wrong


async def _traced(driver: Driver, seconds: float, rng) -> dict:
    """The nominal phase read through the server's telemetry, then not,
    then the rate ladder.

    The traced phase runs first, so the server's latency reservoirs
    hold only its samples when ``/metrics`` is read at its end.
    """
    traced, text, traced_wall, checked, wrong = await _nominal(
        driver, seconds, rng, poll=True
    )
    plain, _, plain_wall, checked2, wrong2 = await _nominal(
        driver, seconds, rng, poll=False
    )
    rungs, stopped = await _ladder(driver, rng)
    checked3, wrong3 = driver.check(await driver.final_scores())
    passing = [r for r in rungs if r["verdict"] == "meets limit"]
    layers = server_layers(text, traced)
    layers["client.late_p99_ms"] = tail(traced.late_ms())[0]
    layers["obs.trace_overhead_pct.serve_http"] = (
        (traced_wall - plain_wall) / plain_wall * 100.0
    )
    # the nominal rate is the ladder's floor
    layers["serve.sustained_rps"] = (
        passing[-1]["offered_rps"] if passing else plain.offered_rps()
    )
    return {
        "traced": _phase_summary(traced),
        "plain": _phase_summary(plain),
        "ladder": rungs,
        "ladder_stopped": stopped,
        "layers": layers,
        # rungs past capacity may fail by design: they end the ladder and
        # are reported there; the streams must still check out
        "attempted": len(traced.tickets) + len(plain.tickets)
        + checked + checked2 + checked3,
        "failed": traced.failed + plain.failed + wrong + wrong2 + wrong3,
    }


async def _session(streams, seed: int, seconds: int, trace: bool, setup_times):
    servers, drivers = [], []
    try:
        for index in range(SETUP_REPEATS):
            if drivers:
                await drivers[-1].close()
                servers[-1].stop()
            began = time.perf_counter()
            servers.append(Server(index))
            await servers[-1].started()
            drivers.append(Driver(servers[-1], streams))
            await drivers[-1].create_streams()
            setup_times.append(time.perf_counter() - began)
        driver = drivers[-1]
        await driver.connect()
        rng = random.Random(seed)
        if trace:
            return await _traced(driver, seconds, rng)
        phase, _, wall, checked, wrong = await _nominal(
            driver, seconds, rng, poll=False
        )
        await driver.close()
        servers[-1].stop()
        return {
            "nominal": _phase_summary(phase),
            "wall": wall,
            # the peak over every server started, read once all are reaped
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_CHILDREN),
            "attempted": len(phase.tickets) + checked,
            "failed": phase.failed + wrong,
        }
    finally:
        for driver in drivers:
            await driver.close()
        for server in servers:
            server.stop()


def run(seed: int, seconds: int, trace: bool):
    streams, fingerprint = make_streams(seed)
    setup_times: list[float] = []
    outcome = asyncio.run(_session(streams, seed, seconds, trace, setup_times))
    report = {
        "provenance": provenance(
            "serve_http", seed, config(), archive_fingerprint=fingerprint
        ),
        "setup_s": setup_times,
        "outcome": outcome,
    }
    attempted, failed = outcome["attempted"], outcome["failed"]
    if trace:
        return report, failed == 0, attempted, failed, outcome["layers"]
    nominal = outcome["nominal"]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": outcome["wall"],
        "append_p50_ms": nominal["append_ms"]["p50"],
        "append_p99_ms": nominal["append_ms"]["p99"],
        "read_p50_ms": nominal["read_ms"]["p50"],
        "read_p99_ms": nominal["read_ms"]["p99"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }
    return report, failed == 0, attempted, failed, metrics
