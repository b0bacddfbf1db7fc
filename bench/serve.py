"""The two ``serve_*`` workloads: HTTP reads (and writes) against a child server.

The system under test runs in its own process — a 4-shard
``ServingRuntime`` warmed with the head of a generated stream, behind
``ServingApp`` and ``ServingHTTPServer``. Load is a closed loop from one
thread that keeps four keep-alive connections busy: each sends its next
request the moment its previous response is complete. Four in flight
keep the server's event loop from ever going idle, so what is measured
is the server's processor cost per request — ``throughput_per_s`` is its
capacity and ``latency_p50_ms`` what a client sees at that load — and
not how long this virtual machine takes to wake a sleeping process,
which drifts by ±30 % over an hour and made a one-request-at-a-time loop
unrepeatable. (One thread per connection was tried first and was
bimodal: 3.4 k to 5.9 k requests/s within one process, as the client
threads handed the interpreter lock back and forth.) The request
sequence is seeded; requests go out in sequence order on whichever
connection is free.

- ``hot``: the default ``RequestMix`` over the warm entity ids, a 4×4
  range lattice and three query texts — a working set far below the
  result cache, no writes.
- ``churn``: the same mix, but range boxes come from a 64×64 lattice and
  forecast horizons are continuous (a working set above the cache's 1024
  entries), and every 20th operation is a ``POST /v1/ingest`` of the
  next 32 held-back reports. The timed phase ends early rather than run
  out of writes, so the mix never changes mid-run.

Every 50th response's ``X-Result-Digest`` is recomputed from its body.
"""

from __future__ import annotations

import asyncio
import json
import os
import pickle
import random
import selectors
import signal
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from time import perf_counter
from typing import Iterator

from bench.ingest import Measured
from bench.inputs import Stream, generate
from repro.core.pipeline import PipelineSpec
from repro.core.results import digest_of
from repro.model.reports import PositionReport
from repro.obs import MetricsRegistry
from repro.serving import (
    RequestMix,
    ServingApp,
    ServingConfig,
    ServingHTTPServer,
    ServingRuntime,
    Workload,
)

KINDS = {"serve_hot": "hot", "serve_churn": "churn"}

N_SHARDS = 4
#: Requests kept in flight (see the module docs).
CONNECTIONS = 4
INGEST_CHUNK = 256
#: Share of the stream ingested before the server takes requests.
WARM_SHARE = {"hot": 2 / 3, "churn": 1 / 3}
WRITE_EVERY = 20
WRITE_REPORTS = 32
CHURN_LATTICE = 64
VERIFY_EVERY = 50
WARMUP_REQUESTS = 200
QUERIES = (
    "SELECT ?o WHERE { ?n dac:ofMovingObject ?o . }",
    "SELECT DISTINCT ?o WHERE { ?n dac:ofMovingObject ?o . }",
    "SELECT ?t WHERE { ?n time:inSeconds ?t . } ORDER BY ?t LIMIT 25",
)

Request = tuple[str, dict]


# -- the server side ---------------------------------------------------------


def build_runtime(
    spec: PipelineSpec, warm: list[PositionReport], enabled: bool
) -> ServingRuntime:
    """The runtime both the child server and the traced replay build."""
    runtime = ServingRuntime(
        spec,
        ServingConfig(n_shards=N_SHARDS),
        metrics=MetricsRegistry(enabled=enabled),
    )
    for start in range(0, len(warm), INGEST_CHUNK):
        runtime.ingest(warm[start : start + INGEST_CHUNK])
    return runtime


async def _serve(path: str) -> None:
    with open(path, "rb") as source:
        # Written by the parent benchmark process a moment ago.
        spec, warm, enabled = pickle.load(source)
    server = ServingHTTPServer(ServingApp(build_runtime(spec, warm, enabled)))
    await server.start()
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    print(json.dumps({"port": server.port}), flush=True)
    await stop.wait()
    await server.stop()


def child_main(path: str) -> None:
    """Entry point of the server process (``run.py --serve-child FILE``)."""
    asyncio.run(_serve(path))


class Connection:
    """One keep-alive HTTP/1.1 connection, spoken directly over a socket.

    ``http.client`` costs about 110 µs a request on this box — more than
    the server spends on a cached read — and that cost wanders by 15 %
    from run to run; these few lines cost about 20 µs, so the latency
    measured is the server's, not the client's.
    """

    def __init__(self, port: int) -> None:
        self.socket = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._received = b""
        #: When the request in flight was sent, and what the sender noted about it.
        self.sent_at = 0.0
        self.note: object = None

    def close(self) -> None:
        self.socket.close()

    def send(self, method: str, path: str, body: bytes | None, note: object = None) -> None:
        body = body or b""
        self._received = b""
        self.note = note
        self.sent_at = perf_counter()
        self.socket.sendall(
            b"%s %s HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n\r\n%s"
            % (method.encode("ascii"), path.encode("ascii"), len(body), body)
        )

    def receive(self) -> tuple[int, bytes, bytes] | None:
        """Read what has arrived; ``(status, header block, body)`` once complete."""
        chunk = self.socket.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._received += chunk
        split = self._received.find(b"\r\n\r\n")
        if split < 0:
            return None
        head = self._received[:split]
        if len(self._received) < split + 4 + int(header(head, b"content-length")):
            return None
        return (int(head[9:12]), head, self._received[split + 4 :])

    def exchange(
        self, method: str, path: str, body: bytes | None = None
    ) -> tuple[int, bytes, bytes]:
        """One request and its whole response, waited for."""
        self.send(method, path, body)
        while (response := self.receive()) is None:
            pass
        return response


def header(head: bytes, name: bytes) -> bytes:
    """The value of one header of a response's header block."""
    for line in head.split(b"\r\n")[1:]:
        key, __, value = line.partition(b":")
        if key.strip().lower() == name:
            return value.strip()
    raise KeyError(name.decode("ascii"))


class Server:
    """Parent-side handle of one child server process."""

    def __init__(
        self, spec: PipelineSpec, warm: list[PositionReport], enabled: bool, out_dir: str
    ) -> None:
        self._path = os.path.join(out_dir, f"serve-{os.getpid()}.pickle")
        with open(self._path, "wb") as sink:
            pickle.dump((spec, warm, enabled), sink)
        run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
        self._proc = subprocess.Popen(
            [sys.executable, run_py, "--serve-child", self._path],
            stdout=subprocess.PIPE,
            text=True,
        )
        watchdog = threading.Timer(60.0, self._proc.kill)
        watchdog.start()
        try:
            line = self._proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            self.stop()
            raise RuntimeError("serving child exited before it was ready")
        self.port: int = json.loads(line)["port"]

    def stop(self) -> None:
        """Terminate the child and wait until it has ended."""
        if self._proc.poll() is None:
            self._proc.terminate()
        try:
            self._proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        if os.path.exists(self._path):
            os.remove(self._path)

    def stats(self) -> dict:
        """``GET /stats`` — the server registry's snapshot."""
        connection = Connection(self.port)
        try:
            return json.loads(connection.exchange("GET", "/stats")[2])
        finally:
            connection.close()


# -- the request sequences ----------------------------------------------------


def request_stream(
    kind: str, seed: int, stream: Stream, entity_ids: list[str]
) -> Iterator[Request]:
    """The endless seeded ``(endpoint, params)`` request sequence."""
    rng = random.Random(f"{seed}:{kind}")
    mix = RequestMix()
    box = stream.spec.bbox
    workload = Workload(
        entity_ids=tuple(entity_ids),
        bbox=(box.min_lon, box.min_lat, box.max_lon, box.max_lat),
        queries=QUERIES,
    )
    if kind == "hot":
        while True:
            yield workload.make_request(rng, mix)
    width = (box.max_lon - box.min_lon) / CHURN_LATTICE
    height = (box.max_lat - box.min_lat) / CHURN_LATTICE
    while True:
        endpoint, params = workload.make_request(rng, mix)
        if endpoint == "forecast":
            params["horizon_s"] = rng.uniform(60.0, 3600.0)
        elif endpoint == "range":
            # Boxes of the hot size (a quarter of each axis), placed on a
            # lattice fine enough that repeats are rare.
            lo_lon = box.min_lon + rng.randrange(CHURN_LATTICE * 3 // 4) * width
            lo_lat = box.min_lat + rng.randrange(CHURN_LATTICE * 3 // 4) * height
            params["bbox"] = [
                lo_lon,
                lo_lat,
                lo_lon + (box.max_lon - box.min_lon) / 4.0,
                lo_lat + (box.max_lat - box.min_lat) / 4.0,
            ]
        yield (endpoint, params)


def to_http(endpoint: str, params: dict) -> tuple[str, str, bytes | None]:
    """``(method, path, body)`` of one read request."""
    if endpoint in ("state", "trajectory"):
        return ("GET", f"/v1/entities/{params['entity_id']}/{endpoint}", None)
    if endpoint == "forecast":
        return (
            "GET",
            f"/v1/entities/{params['entity_id']}/forecast?horizon_s={params['horizon_s']!r}",
            None,
        )
    if endpoint == "events":
        return ("GET", f"/v1/events?since={params['since']}&limit={params['limit']}", None)
    return ("POST", f"/v1/{endpoint}", json.dumps(params).encode("utf-8"))


def write_chunks(held_back: list[PositionReport]) -> list[list[PositionReport]]:
    return [
        held_back[start : start + WRITE_REPORTS]
        for start in range(0, len(held_back) - WRITE_REPORTS + 1, WRITE_REPORTS)
    ]


def ingest_body(reports: list[PositionReport]) -> bytes:
    return json.dumps(
        {
            "reports": [
                {
                    "entity_id": r.entity_id,
                    "t": r.t,
                    "lon": r.lon,
                    "lat": r.lat,
                    "alt": r.alt,
                    "speed": r.speed,
                    "heading": r.heading,
                    "domain": r.domain.name,
                }
                for r in reports
            ]
        }
    ).encode("utf-8")


# -- the load generator -------------------------------------------------------


@dataclass
class Client:
    """The load generator: one thread, :data:`CONNECTIONS` requests in flight."""

    connections: list[Connection]
    requests: Iterator[Request]
    writes: Iterator[bytes] | None
    sent: int = 0
    ok: int = 0
    failed: int = 0
    checks: int = 0
    mismatches: int = 0
    read_s: list[float] = field(default_factory=list)
    write_s: list[float] = field(default_factory=list)
    out_of_writes: bool = False

    def reset(self) -> None:
        self.ok = self.failed = self.checks = self.mismatches = 0
        self.read_s = []
        self.write_s = []

    def _send_next(self, connection: Connection) -> bool:
        """Put the next operation of the sequence on an idle connection."""
        self.sent += 1
        write = self.writes is not None and self.sent % WRITE_EVERY == 0
        if write:
            body = next(self.writes, None)
            if body is None:
                self.out_of_writes = True
                return False
            method, path = "POST", "/v1/ingest"
        else:
            method, path, body = to_http(*next(self.requests))
        verify = not write and self.sent % VERIFY_EVERY == 0
        connection.send(method, path, body, (write, verify))
        return True

    def _finish(self, connection: Connection, response: tuple[int, bytes, bytes]) -> float:
        """Time, count and (every 50th read) verify one completed response."""
        ended = perf_counter()
        status, head, data = response
        write, verify = connection.note
        (self.write_s if write else self.read_s).append(ended - connection.sent_at)
        if 200 <= status < 300:
            self.ok += 1
        else:
            self.failed += 1
        if verify:
            self.checks += 1
            payload = json.loads(data)["payload"]
            if digest_of(payload).encode("ascii") != header(head, b"x-result-digest"):
                self.mismatches += 1
        return ended

    def write_now(self, body: bytes) -> None:
        """One ``POST /v1/ingest`` outside the closed loop, timed like the rest."""
        connection = self.connections[0]
        connection.send("POST", "/v1/ingest", body, (True, False))
        while (response := connection.receive()) is None:
            pass
        self._finish(connection, response)

    def drive(self, seconds: float | None, operations: int | None) -> float:
        """The closed loop, for ``seconds`` or ``operations``; returns its wall.

        Every connection sends its next request the moment its previous
        response is complete. Once the time (or count) is up, or the
        writes run out — ending there keeps the read/write mix constant —
        nothing new is sent and the requests in flight are waited for.
        """
        started = ended = perf_counter()
        stop_at = None if seconds is None else started + seconds
        issued = 0
        with selectors.DefaultSelector() as selector:
            for connection in self.connections:
                if (operations is None or issued < operations) and self._send_next(connection):
                    issued += 1
                    selector.register(connection.socket, selectors.EVENT_READ, connection)
            while selector.get_map():
                for key, __ in selector.select():
                    connection = key.data
                    response = connection.receive()
                    if response is None:
                        continue
                    ended = self._finish(connection, response)
                    more = (
                        not self.out_of_writes
                        and (stop_at is None or ended < stop_at)
                        and (operations is None or issued < operations)
                    )
                    if more and self._send_next(connection):
                        issued += 1
                    else:
                        selector.unregister(connection.socket)
        return ended - started


@dataclass
class ServeState:
    kind: str
    stream: Stream
    held_back: list[PositionReport]
    server: Server
    client: Client


def split(kind: str, stream: Stream) -> tuple[list[PositionReport], list[PositionReport]]:
    """``(warm, held back)`` — the stream head the server starts with, and the rest."""
    cut = int(len(stream.reports) * WARM_SHARE[kind])
    return (stream.reports[:cut], stream.reports[cut:])


def connect(
    kind: str,
    seed: int,
    stream: Stream,
    warm: list[PositionReport],
    held_back: list[PositionReport],
    port: int,
) -> Client:
    connections = [Connection(port) for __ in range(CONNECTIONS)]
    writes = None
    if kind == "churn":
        writes = iter([ingest_body(chunk) for chunk in write_chunks(held_back)])
    entity_ids = sorted({r.entity_id for r in warm})
    return Client(connections, request_stream(kind, seed, stream, entity_ids), writes)


def setup(
    workload: str,
    seed: int,
    out_dir: str,
    tiny: bool,
    enabled: bool = False,
    stream: Stream | None = None,
) -> ServeState:
    """Generate, start the warmed server, connect, and send the warm-up requests."""
    kind = KINDS[workload]
    if stream is None:
        stream = generate(workload, seed, tiny)
    warm, held_back = split(kind, stream)
    server = Server(stream.spec, warm, enabled, out_dir)
    try:
        client = connect(kind, seed, stream, warm, held_back, server.port)
        client.drive(None, 20 if tiny else WARMUP_REQUESTS)
    except BaseException:
        server.stop()
        raise
    state = ServeState(kind, stream, held_back, server, client)
    if client.failed or client.mismatches:
        teardown(state)
        raise RuntimeError(f"{client.failed + client.mismatches} warm-up requests failed")
    return state


def teardown(state: ServeState) -> None:
    for connection in state.client.connections:
        connection.close()
    state.server.stop()


def measure(state: ServeState, seconds: float, operations: int | None = None) -> Measured:
    """The timed closed loop (``operations`` caps it in ``--tiny``)."""
    client = state.client
    client.reset()
    wall = client.drive(seconds, operations)
    return Measured(
        operations=client.ok,
        attempted=len(client.read_s) + len(client.write_s) + client.checks,
        failed=client.failed + client.mismatches,
        wall_s=[wall],
        latencies_s=client.read_s,
        write_s=client.write_s,
        notes={
            "reads": len(client.read_s),
            "writes": len(client.write_s),
            "out_of_writes": client.out_of_writes,
        },
    )
