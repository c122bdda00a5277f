"""Minimal HTTP/1.1 JSON transport for the solve service (stdlib only).

The server speaks just enough HTTP for interoperability with ``curl``
and :class:`~repro.serve.client.ServeClient` - no external web framework,
matching the repository's numpy-only dependency policy:

* ``POST /v1/solve`` - body is one request document
  ``{"kind": ..., "params": {...}}`` or a JSON list of them; the
  response is the matching response document (or list).  A list is
  resolved concurrently, so its identical entries coalesce and its
  ``fixed_point`` entries micro-batch exactly like separate clients'.
* ``GET /healthz`` - liveness probe, ``{"ok": true}``.
* ``GET /stats`` - the service's monotonic counters
  (:meth:`~repro.serve.service.ServiceStats.snapshot`).

Connections are keep-alive by default (``Connection: close`` honoured);
request bodies are bounded by ``MAX_BODY_BYTES``.  Every response body
is encoded through :func:`repro.serve.requests.encode_json`, so
non-finite floats leave the process as ``null``, never as the
non-standard ``NaN``/``Infinity`` tokens.

Malformed requests map to ``400`` with ``{"error": ..., "type": ...}``;
unknown paths to ``404``; unexpected solver failures to ``500``.  The
error payload carries the exception's class name so clients can tell a
request-shape problem from a solver crash without parsing prose.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from repro.errors import ReproError, ServeError
from repro.serve.requests import encode_json
from repro.serve.service import EquilibriumService

__all__ = ["ServeServer", "MAX_BODY_BYTES"]

#: Upper bound on accepted request bodies (1 MiB of JSON is plenty).
MAX_BODY_BYTES = 1 << 20

#: Upper bound on one header line / total header section.
_MAX_HEADER_BYTES = 1 << 14

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """Internal: transport-level protocol violation (maps to 400)."""


class ServeServer:
    """Asyncio TCP server exposing one :class:`EquilibriumService`.

    ``port=0`` binds an ephemeral port; read :attr:`port` after
    :meth:`start` to learn the bound address (the tests and the
    in-process benchmark rely on this).
    """

    def __init__(
        self,
        service: EquilibriumService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def port(self) -> int:
        """The bound TCP port (only valid after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise ServeError("server is not started")
        return int(self._server.sockets[0].getsockname()[1])

    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self._server is not None:
            raise ServeError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )

    async def serve_forever(self) -> None:
        """Run until cancelled (the CLI's foreground mode)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting connections and shut the service down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    # -- connection handling -------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    parsed = await self._read_request(reader)
                except _BadRequest as error:
                    await self._respond(
                        writer,
                        400,
                        {"error": str(error), "type": "BadRequest"},
                        keep_alive=False,
                    )
                    break
                if parsed is None:
                    break  # clean EOF between requests
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload = await self._dispatch(method, path, body)
                await self._respond(writer, status, payload, keep_alive=keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (
                ConnectionError,
                OSError,
                asyncio.CancelledError,
            ):  # pragma: no cover - teardown best-effort
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one request; None on clean EOF before a request line."""
        try:
            request_line = await reader.readuntil(b"\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None
            raise _BadRequest("truncated request line") from error
        except asyncio.LimitOverrunError as error:
            raise _BadRequest("request line too long") from error
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        total = 0
        while True:
            try:
                line = await reader.readuntil(b"\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as error:
                raise _BadRequest("truncated headers") from error
            total += len(line)
            if total > _MAX_HEADER_BYTES:
                raise _BadRequest("header section too large")
            text = line.decode("latin-1").strip()
            if not text:
                break
            name, _, value = text.partition(":")
            if not _:
                raise _BadRequest(f"malformed header line {text!r}")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as error:
            raise _BadRequest(
                f"invalid Content-Length {length_text!r}"
            ) from error
        if length < 0 or length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"Content-Length {length} outside [0, {MAX_BODY_BYTES}]"
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise _BadRequest("truncated request body") from error
        return method, path, headers, body

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any]:
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/stats":
            return 200, self.service.stats.snapshot()
        if method == "POST" and path == "/v1/solve":
            try:
                document = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                return 400, {
                    "error": f"request body is not valid JSON: {error}",
                    "type": "JSONDecodeError",
                }
            return await self._solve(document)
        return 404, {"error": f"no route for {method} {path}", "type": "NotFound"}

    async def _solve(self, document: Any) -> Tuple[int, Any]:
        if isinstance(document, list):
            # Entries resolve concurrently (coalescing/batching apply);
            # per-entry failures become inline error documents so one
            # bad entry never voids its siblings' results.
            responses = await asyncio.gather(
                *(self.service.solve_document(entry) for entry in document),
                return_exceptions=True,
            )
            documents = []
            for response in responses:
                if isinstance(response, BaseException):
                    if not isinstance(response, ReproError):
                        raise response
                    documents.append(
                        {
                            "error": str(response),
                            "type": type(response).__name__,
                        }
                    )
                else:
                    documents.append(response)
            return 200, documents
        try:
            return 200, await self.service.solve_document(document)
        except ServeError as error:
            return 400, {"error": str(error), "type": type(error).__name__}
        except ReproError as error:
            return 500, {"error": str(error), "type": type(error).__name__}

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        *,
        keep_alive: bool,
    ) -> None:
        body = encode_json(payload)
        connection = "keep-alive" if keep_alive else "close"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            f"\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()
