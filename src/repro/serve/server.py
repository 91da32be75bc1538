"""Hand-rolled HTTP/1.1 on ``asyncio`` streams — the serving transport.

Stdlib only, matching the project's minimal-deps stance: requests are
parsed straight off the stream reader (request line, headers,
``Content-Length`` body), handed to :meth:`repro.serve.app.ServeApp.handle`,
and answered as JSON with keep-alive connections so a load generator can
pipeline thousands of requests over a handful of sockets.  The subset of
HTTP implemented is exactly what the protocol needs — no chunked encoding,
no TLS, and exactly one piece of content negotiation: a request whose
``Accept`` includes :data:`repro.serve.protocol.FRAME_CONTENT_TYPE` gets
its response wrapped in a binary frame (the app handles framed *request*
bodies via the ``Content-Type`` it is passed).  Malformed requests are
answered with the protocol's structured errors, never a traceback.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve.app import ServeApp, ServeConfig
from repro.serve.protocol import FRAME_CONTENT_TYPE, error_payload, pack_frame

__all__ = ["HttpServer", "run_server"]

_MAX_HEADER_LINE = 16 * 1024
_MAX_HEADERS = 100

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 500: "Internal Server Error",
}


class _BadHttp(Exception):
    """A request the HTTP layer itself must reject (status attached)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class HttpServer:
    """One listening serving instance: app + asyncio stream server.

    ``port=0`` binds an ephemeral port; :attr:`port` holds the real one
    after :meth:`start` — the tests and the spawned load generator rely
    on that.
    """

    def __init__(
        self,
        app: ServeApp | None = None,
        host: str | None = None,
        port: int | None = None,
    ) -> None:
        self.app = app or ServeApp()
        self.host = host if host is not None else self.app.config.host
        self.port = port if port is not None else self.app.config.port
        self._server: asyncio.AbstractServer | None = None
        #: Open connections: handler task -> its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: Connections currently processing a request (vs idle keep-alive).
        self._busy: set[asyncio.Task] = set()
        #: Set by aclose(): handlers finish their in-flight request, send
        #: the response with ``Connection: close``, and exit the loop.
        self._closing = False

    async def start(self) -> None:
        """Start the app (worker pool) and begin accepting connections."""
        await self.app.startup()
        self._server = await asyncio.start_server(
            self._client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Block serving requests until cancelled."""
        if self._server is None:
            raise RuntimeError("call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, settle open connections, drain, stop workers."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
        # Idle keep-alive connections are parked in readline(): closing
        # their transport feeds it EOF, and the handler returns as it does
        # when a client hangs up.  (Cancelling the handler instead makes
        # asyncio's stream protocol log the CancelledError.)  Busy
        # handlers see the closing flag, answer their in-flight request
        # with ``Connection: close``, and exit on their own — the timeout
        # only cancels genuinely stuck stragglers.
        self._closing = True
        for task, writer in list(self._connections.items()):
            if task not in self._busy:
                writer.close()
        busy = list(self._busy)
        if busy:
            _, pending = await asyncio.wait(busy, timeout=5.0)
            for task in pending:
                task.cancel()
        if self._connections:
            await asyncio.gather(
                *list(self._connections), return_exceptions=True
            )
        if server is not None:
            # Last: on newer Pythons wait_closed() also waits for every
            # open connection, so it must not run before they are closed.
            await server.wait_closed()
        await self.app.shutdown()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: a keep-alive loop of request/response."""
        task = asyncio.current_task()
        if task is not None:
            self._connections[task] = writer
            task.add_done_callback(
                lambda done: self._connections.pop(done, None)
            )
        try:
            while True:
                try:
                    parsed = await self._read_request(reader, writer)
                except _BadHttp as exc:
                    await self._write_response(
                        writer, exc.status,
                        error_payload("bad-http", str(exc)),
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break  # clean EOF between requests
                method, path, body, headers, keep_alive = parsed
                if task is not None:
                    self._busy.add(task)
                try:
                    status, payload = await self.app.handle(
                        method, path, body, headers
                    )
                    keep_alive = keep_alive and not self._closing
                    await self._write_response(
                        writer, status, payload, keep_alive=keep_alive,
                        framed=FRAME_CONTENT_TYPE
                        in headers.get("accept", ""),
                    )
                finally:
                    if task is not None:
                        self._busy.discard(task)
                if not keep_alive:
                    break
        except (
            ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError, BrokenPipeError, asyncio.CancelledError
            ):
                pass

    async def _read_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        """Parse one request; ``None`` on clean EOF before a request line."""
        try:
            return await self._parse_request(reader, writer)
        except ValueError as exc:
            # StreamReader raises LimitOverrunError/ValueError when a line
            # exceeds its buffer limit (64 KiB default) — answer 400, the
            # same as our own oversize-header guard, instead of dying.
            raise _BadHttp(400, f"unparseable request: {exc}") from None

    async def _parse_request(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ):
        """The raw parse behind :meth:`_read_request` (may raise ValueError)."""
        line = await reader.readline()
        if not line:
            return None
        if len(line) > _MAX_HEADER_LINE:
            raise _BadHttp(400, "request line too long")
        parts = line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
            raise _BadHttp(400, "malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        for _ in range(_MAX_HEADERS):
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n"):
                break
            if not raw:
                raise _BadHttp(400, "truncated headers")
            if len(raw) > _MAX_HEADER_LINE:
                raise _BadHttp(400, "header line too long")
            name, sep, value = raw.decode("latin-1").partition(":")
            if not sep:
                raise _BadHttp(400, f"malformed header {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadHttp(400, "too many headers")
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _BadHttp(400, "malformed Content-Length") from None
        if length < 0 or length > self.app.config.max_body:
            raise _BadHttp(413, f"body of {length} bytes exceeds the limit")
        if headers.get("expect", "").lower() == "100-continue":
            # curl sends this for bodies over 1 KiB and waits up to a
            # second before giving up on the ack; answer immediately.
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            await writer.drain()
        body = await reader.readexactly(length) if length else b""
        default = "keep-alive" if version == "HTTP/1.1" else "close"
        keep_alive = headers.get("connection", default).lower() != "close"
        path = target.split("?", 1)[0]
        return method.upper(), path, body, headers, keep_alive

    @staticmethod
    async def _write_response(
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool,
        framed: bool = False,
    ) -> None:
        """Serialize one response with explicit framing headers.

        ``framed`` wraps the payload in a zero-array binary frame whose
        header is serialized with the same compact separators as the
        plain path — a framed response therefore decodes to the
        byte-identical JSON body a plain client would have received.
        """
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
        content_type = "application/json"
        if framed:
            body = pack_frame(payload)
            content_type = FRAME_CONTENT_TYPE
        reason = _STATUS_TEXT.get(status, "Response")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()


async def _serve(config: ServeConfig, ready=None) -> None:
    """Start a server and run until cancelled (KeyboardInterrupt drains)."""
    server = HttpServer(ServeApp(config))
    await server.start()
    print(
        f"repro serve: listening on http://{server.host}:{server.port} "
        f"(workers={config.workers}, "
        f"max_batch={config.max_batch}, max_delay={config.max_delay_ms}ms)",
        flush=True,
    )
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.aclose()


def run_server(config: ServeConfig | None = None) -> int:
    """Blocking CLI entry point for ``python -m repro serve``.

    A SIGINT/Ctrl-C lands either as a ``KeyboardInterrupt`` (3.10) or as
    a clean cancellation of the serve task (3.11+ ``asyncio.Runner``);
    both paths drain gracefully and exit 0.
    """
    try:
        asyncio.run(_serve(config or ServeConfig()))
    except KeyboardInterrupt:
        pass
    print("repro serve: shut down cleanly", flush=True)
    return 0
