"""Distributed sweep execution: a work-stealing coordinator over TCP.

:class:`SocketQueueBackend` turns ``run_sweep`` into a coordinator: it
listens on a TCP socket and any number of workers — in-process threads,
other processes on the same machine (``repro scenarios worker``), or
other hosts entirely — connect and *pull* one :class:`RunKey` at a
time, execute it, and stream the rows back.  Pull scheduling is what
makes the queue work-stealing: a fast worker simply comes back for more
while a slow one is still busy, so load balances itself without any
up-front partitioning.  A worker that disconnects mid-run has its key
re-queued for the survivors, and a duplicate result for a re-queued key
is ignored — determinism makes both copies identical anyway.

Wire protocol: one JSON object per line in each direction; scenario
specs and run keys ride along as base64-pickled payloads, so workers
must be trusted (run on localhost or inside your own cluster only).
When the coordinator has a ``cache_dir`` on a filesystem the workers
share, each worker persists its finished runs straight into the per-run
JSON cache — the cache doubles as the sweep's shared result store, so
results survive lost connections and the next resume skips everything
any worker ever finished.

Handshake and steady state::

    worker  -> {"type": "hello", "worker": "<name>"}
    coord   -> {"type": "welcome", "specs": <b64>, "cache_dir": ...}
    worker  -> {"type": "next"}
    coord   -> {"type": "run", "key": <b64>, "token": "..."}   (or "done")
    worker  -> {"type": "result", "token": "...", "rows": [...]}
    worker  -> {"type": "next"}                                (and so on)

Pickled payloads only ever flow *from* the coordinator *to* workers
(workers must trust the sweep they join); results come back as plain
JSON rows plus the run's token, matched against the run this
connection checked out — the coordinator never unpickles client data.
Both sides enable TCP keepalive so a peer that vanishes without a FIN
(power loss, network partition) is detected and its run re-queued
instead of hanging the sweep.

Distributed trace collection rides the same frames: with a
:class:`~repro.obs.collect.TraceCollector` attached, each ``run``
message additionally carries the plain-JSON trace context (``"ctx"``)
and each ``result`` message may carry the captured span/counter chunk
(``"trace"`` — plain JSON, validated field by field, **never**
unpickled).  The coordinator samples its own clock around the exchange
to estimate each worker's wall offset; a worker that predates
collection simply ignores ``ctx`` and returns no chunk.
"""

from __future__ import annotations

import base64
import collections
import json
import os
import pickle
import socket
import threading
import time
import warnings
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from ... import obs
from ...errors import ConfigurationError
from ...obs.collect import TraceCollector, TraceContext, collect_run
from .backends import EmitFn, SweepBackend, install_shipped_specs, pickled_sweep_specs
from .engine import RunKey, execute_run, store_cached

logger = obs.get_logger("sweep.distributed")


def _send(writer, message: Dict[str, Any]) -> None:
    writer.write(json.dumps(message) + "\n")
    writer.flush()


def _recv(reader) -> Dict[str, Any]:
    line = reader.readline()
    if not line:
        raise ConnectionError("peer closed the connection")
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ConnectionError(f"malformed message: {line!r}")
    return message


def _encode_key(key: RunKey) -> str:
    return base64.b64encode(pickle.dumps(key)).decode("ascii")


def _decode_key(payload: str) -> RunKey:
    """Worker side only: unpickle a run key shipped by the coordinator."""
    key = pickle.loads(base64.b64decode(payload))
    if not isinstance(key, RunKey):
        raise ConnectionError(f"payload is not a RunKey: {key!r}")
    return key


def _enable_keepalive(conn: socket.socket) -> None:
    """Detect silently-dead peers without bounding how long a run takes.

    A worker mid-run sends nothing for the whole computation, so a plain
    read timeout would kill slow-but-healthy workers; OS-level keepalive
    probes the idle connection instead and surfaces a dead peer as a
    read error, which re-queues the checked-out run.
    """
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for option, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 10),
        ("TCP_KEEPCNT", 3),
    ):
        if hasattr(socket, option):
            try:
                conn.setsockopt(
                    socket.IPPROTO_TCP, getattr(socket, option), value
                )
            except OSError:
                pass  # platform exposes but rejects the knob


class _Coordinator:
    """Shared queue + results bookkeeping, one instance per sweep."""

    def __init__(
        self,
        keys: Sequence[RunKey],
        emit: EmitFn,
        *,
        specs_b64: str,
        cache_dir: Optional[str],
        collector: Optional[TraceCollector] = None,
    ) -> None:
        self.specs_b64 = specs_b64
        self.cache_dir = cache_dir
        self.collector = collector
        self._pending: Deque[RunKey] = collections.deque(keys)
        self._remaining: Set[RunKey] = set(keys)
        self._emit = emit
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self.failure: Optional[BaseException] = None
        #: Worker-churn accounting, exposed on the backend after the
        #: sweep as ``SocketQueueBackend.worker_stats``.
        self.worker_stats: Dict[str, int] = {
            "connects": 0,
            "disconnects": 0,
            "requeues": 0,
            "results": 0,
        }
        self._checkout_at: Dict[RunKey, float] = {}

    def on_connect(self, worker: str) -> None:
        with self._lock:
            self.worker_stats["connects"] += 1
        obs.inc("coordinator.connects")
        logger.debug("worker %s connected", worker)

    def on_disconnect(self, worker: str) -> None:
        with self._lock:
            self.worker_stats["disconnects"] += 1
        obs.inc("coordinator.disconnects")
        logger.debug("worker %s disconnected", worker)

    @property
    def finished(self) -> bool:
        with self._lock:
            return not self._remaining or self.failure is not None

    def checkout(self) -> Optional[RunKey]:
        """Next key for a hungry worker; blocks while the queue is empty
        but other workers are still out executing (their keys may come
        back for stealing).  ``None`` means the sweep is over."""
        with self._changed:
            while True:
                if self.failure is not None or not self._remaining:
                    return None
                if self._pending:
                    key = self._pending.popleft()
                    self._checkout_at[key] = time.monotonic()
                    return key
                self._changed.wait(timeout=0.1)

    def complete(
        self,
        key: RunKey,
        rows: List[Dict[str, Any]],
        *,
        chunk: Optional[Dict[str, Any]] = None,
        request_s: Optional[float] = None,
        response_s: Optional[float] = None,
    ) -> None:
        with self._changed:
            if key not in self._remaining:
                return  # duplicate delivery of a re-queued run (chunk too)
            self._remaining.discard(key)
            self.worker_stats["results"] += 1
            checked_out = self._checkout_at.pop(key, None)
            try:
                self._pending.remove(key)
            except ValueError:
                pass
            try:
                self._emit(key, rows)
            except BaseException as exc:  # surface sink/recorder errors
                self.failure = exc
            self._changed.notify_all()
        if self.collector is not None and chunk is not None:
            # Merge only the accepted (first) delivery; skew-normalise
            # with the coordinator clock samples around this exchange.
            self.collector.add_chunk(
                chunk, request_s=request_s, response_s=response_s
            )
        if checked_out is not None:
            obs.observe(
                "coordinator.run_latency_ms",
                (time.monotonic() - checked_out) * 1000.0,
            )

    def requeue(self, key: RunKey, *, worker: str = "?") -> None:
        with self._changed:
            if key in self._remaining and key not in self._pending:
                self._pending.append(key)
                self.worker_stats["requeues"] += 1
                self._checkout_at.pop(key, None)
                self._changed.notify_all()
                requeued = True
            else:
                requeued = False
        if requeued:
            logger.warning(
                "worker %s disconnected mid-run; re-queued %s",
                worker,
                key.canonical(),
            )
            obs.event("coordinator.requeue", worker=worker)
            if self.collector is not None:
                self.collector.on_requeue(key, worker)

    def abort(self, exc: BaseException) -> None:
        """Fail the sweep with ``exc``, unless every run already reported.

        A worker that errors once the last result is in (a late local
        worker whose hello meets the closed server, say) cannot cost
        the sweep anything, so it does not fail it.
        """
        with self._changed:
            if self.failure is None and self._remaining:
                self.failure = exc
            self._changed.notify_all()

    def wait(self, timeout: Optional[float]) -> bool:
        """Block until every run reported (True) or the deadline passed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._changed:
            while self._remaining and self.failure is None:
                if deadline is not None and time.monotonic() >= deadline:
                    return False
                self._changed.wait(timeout=0.2)
        return True


def _serve_client(conn: socket.socket, coordinator: _Coordinator) -> None:
    """One worker connection: handshake, then the next/run/result loop."""
    checked_out: Optional[RunKey] = None
    request_s: Optional[float] = None
    worker = "?"
    connected = False
    reader = conn.makefile("r", encoding="utf-8")
    writer = conn.makefile("w", encoding="utf-8")
    try:
        hello = _recv(reader)
        if hello.get("type") != "hello":
            return
        worker = str(hello.get("worker") or "?")
        connected = True
        coordinator.on_connect(worker)
        _send(
            writer,
            {
                "type": "welcome",
                "specs": coordinator.specs_b64,
                "cache_dir": coordinator.cache_dir,
            },
        )
        while True:
            message = _recv(reader)
            kind = message.get("type")
            if kind == "next":
                key = coordinator.checkout()
                if key is None:
                    _send(writer, {"type": "done"})
                    return
                checked_out = key
                dispatch = {
                    "type": "run",
                    "key": _encode_key(key),
                    "token": key.token(),
                }
                if coordinator.collector is not None:
                    dispatch["ctx"] = (
                        coordinator.collector.context_for(key).as_wire()
                    )
                request_s = time.time()
                _send(writer, dispatch)
            elif kind == "result":
                # Results are matched against the run this connection
                # checked out — never unpickled from the client.
                response_s = time.time()
                rows = message.get("rows")
                if (
                    checked_out is None
                    or message.get("token") != checked_out.token()
                    or not isinstance(rows, list)
                ):
                    raise ConnectionError(
                        "result does not match the checked-out run"
                    )
                chunk = message.get("trace")
                coordinator.complete(
                    checked_out,
                    rows,
                    chunk=chunk if isinstance(chunk, dict) else None,
                    request_s=request_s,
                    response_s=response_s,
                )
                checked_out = None
                request_s = None
            elif kind == "error":
                # The run itself failed on the worker: re-queueing would
                # just crash the next worker too, so fail the sweep.
                coordinator.abort(
                    ConfigurationError(
                        f"worker failed a sweep run: {message.get('error')}"
                    )
                )
                checked_out = None
                return
            else:
                return  # protocol violation: drop the client
    except (OSError, ConnectionError, ValueError, KeyError, pickle.PickleError):
        pass  # client is gone or spoke garbage; its run is re-queued below
    finally:
        if checked_out is not None:
            coordinator.requeue(checked_out, worker=worker)
        if connected:
            coordinator.on_disconnect(worker)
        try:
            conn.close()
        except OSError:
            pass


class SocketQueueBackend(SweepBackend):
    """Work-stealing sweep execution over TCP sockets.

    Args:
        host / port: coordinator bind address; port ``0`` picks an
            ephemeral port (read it from :attr:`address` or the
            ``announce`` callback once ``execute`` starts listening).
        local_workers: in-process worker threads the coordinator starts
            against itself — with ``local_workers >= 1`` a sweep is
            self-contained, with ``0`` it waits for external workers
            (``repro scenarios worker --connect HOST:PORT``) to join.
        timeout: overall deadline in seconds for the whole batch
            (``None`` waits forever, e.g. for workers started by hand).
        announce: called with ``(host, port)`` once listening — the CLI
            uses it to print the coordinator address before blocking.
    """

    name = "socket"

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        local_workers: int = 0,
        timeout: Optional[float] = None,
        announce: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> None:
        if local_workers < 0:
            raise ConfigurationError(
                f"local_workers must be >= 0, got {local_workers}"
            )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")
        self.host = host
        self.port = port
        self.local_workers = local_workers
        self.timeout = timeout
        self.announce = announce
        #: (host, port) actually bound, set while ``execute`` runs.
        self.address: Optional[Tuple[str, int]] = None
        #: Worker-churn counters of the most recent ``execute``:
        #: connects / disconnects / requeues / results.
        self.worker_stats: Dict[str, int] = {}

    def execute(
        self,
        keys: Sequence[RunKey],
        emit: EmitFn,
        *,
        cache_dir: Optional[str] = None,
        collector: Optional[TraceCollector] = None,
    ) -> None:
        if not keys:
            return
        try:
            specs = pickled_sweep_specs(keys)
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            warnings.warn(
                f"socket sweep cannot ship a swept scenario spec to "
                f"workers ({exc}); remote workers will only resolve "
                f"built-in scenarios",
                RuntimeWarning,
                stacklevel=2,
            )
            specs = pickle.dumps([])
        coordinator = _Coordinator(
            keys,
            emit,
            specs_b64=base64.b64encode(specs).decode("ascii"),
            cache_dir=os.path.abspath(cache_dir) if cache_dir else None,
            collector=collector,
        )
        server = socket.create_server((self.host, self.port))
        server.settimeout(0.2)
        self.address = server.getsockname()[:2]
        if self.announce is not None:
            self.announce(self.address)

        handlers: List[threading.Thread] = []

        def accept_loop() -> None:
            while not coordinator.finished:
                try:
                    conn, _ = server.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return  # server closed
                _enable_keepalive(conn)
                handler = threading.Thread(
                    target=_serve_client,
                    args=(conn, coordinator),
                    daemon=True,
                )
                handler.start()
                handlers.append(handler)

        acceptor = threading.Thread(target=accept_loop, daemon=True)
        acceptor.start()

        locals_: List[threading.Thread] = []
        host, port = self.address
        for index in range(self.local_workers):

            def local_loop(worker_index: int = index) -> None:
                try:
                    run_worker(
                        host, port, worker_name=f"local-{worker_index}"
                    )
                except Exception as exc:
                    coordinator.abort(exc)

            thread = threading.Thread(target=local_loop, daemon=True)
            thread.start()
            locals_.append(thread)

        try:
            finished = coordinator.wait(self.timeout)
            if not finished and coordinator.failure is None:
                # Unblock every handler parked in checkout() so workers
                # get a clean "done" instead of lingering forever.
                coordinator.abort(
                    ConfigurationError(
                        f"socket sweep timed out after {self.timeout}s "
                        f"with runs still outstanding; are any workers "
                        f"connected?"
                    )
                )
        finally:
            server.close()
            self.address = None
            self.worker_stats = coordinator.worker_stats
        for thread in locals_:
            thread.join(timeout=5.0)
        for handler in handlers:
            handler.join(timeout=1.0)
        if coordinator.failure is not None:
            raise coordinator.failure


def run_worker(
    host: str,
    port: int,
    *,
    worker_name: Optional[str] = None,
    connect_timeout: float = 10.0,
) -> int:
    """Join a socket-backend sweep as a pull worker; returns runs executed.

    Connects to the coordinator, installs any shipped scenario specs,
    then pulls keys, executes them with the exact same deterministic
    :func:`~repro.scenarios.sweep.engine.execute_run` a serial sweep
    uses, and streams the rows back until the coordinator says ``done``.
    When the coordinator announced a ``cache_dir`` and this worker can
    reach it (shared filesystem), every finished run is persisted there
    before the result is sent — so even a result lost to a dropped
    connection survives for the next resume.
    """
    conn = socket.create_connection((host, port), timeout=connect_timeout)
    conn.settimeout(None)
    _enable_keepalive(conn)
    executed = 0
    try:
        reader = conn.makefile("r", encoding="utf-8")
        writer = conn.makefile("w", encoding="utf-8")
        name = worker_name or f"{socket.gethostname()}:{os.getpid()}"
        _send(writer, {"type": "hello", "worker": name})
        welcome = _recv(reader)
        if welcome.get("type") != "welcome":
            raise ConnectionError(
                f"expected a welcome, got {welcome.get('type')!r}"
            )
        shipped = welcome.get("specs")
        if shipped:
            install_shipped_specs(base64.b64decode(shipped))
        cache_dir = welcome.get("cache_dir")
        while True:
            _send(writer, {"type": "next"})
            message = _recv(reader)
            kind = message.get("type")
            if kind == "done":
                return executed
            if kind != "run":
                raise ConnectionError(f"expected run/done, got {kind!r}")
            key = _decode_key(message["key"])
            token = message.get("token") or key.token()
            context: Optional[TraceContext] = None
            ctx_wire = message.get("ctx")
            if ctx_wire is not None:
                try:
                    context = TraceContext.from_wire(ctx_wire)
                except ConfigurationError:
                    context = None  # malformed context: run uncollected
            chunk: Optional[Dict[str, Any]] = None
            try:
                if context is not None:
                    rows, chunk = collect_run(
                        execute_run, (key,), context=context, worker=name
                    )
                else:
                    rows = execute_run(key)
            except Exception as exc:
                # Tell the coordinator before dying: a failing run would
                # otherwise be re-queued onto the next worker forever.
                _send(
                    writer,
                    {
                        "type": "error",
                        "token": token,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
                raise
            if cache_dir:
                try:
                    store_cached(cache_dir, key, rows)
                except OSError:
                    pass  # cache not shared/writable; coordinator persists
            result: Dict[str, Any] = {
                "type": "result",
                "token": token,
                "rows": rows,
            }
            if chunk is not None:
                result["trace"] = chunk
            _send(writer, result)
            executed += 1
    finally:
        try:
            conn.close()
        except OSError:
            pass
