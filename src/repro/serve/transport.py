"""JSON-lines transports for :class:`~repro.serve.server.InferenceServer`.

Two server loops (stdin/stdout for pipelines and tests, a TCP socket for
concurrent clients) plus the small client used by ``credo query``.  Both
loops speak the protocol in :mod:`repro.serve.protocol`: one JSON object
per line in, one per line out, same order.
"""

from __future__ import annotations

import socket
import socketserver
import sys
import threading
import time
from typing import IO

from repro.serve.admission import AdmissionRejected
from repro.serve.protocol import (
    ProtocolError,
    QueryRequest,
    UpdateRequest,
    dump,
    parse_line,
)
from repro.serve.server import InferenceServer

__all__ = ["handle_op", "serve_stdin", "serve_socket", "request_over_socket"]


def handle_op(server: InferenceServer, payload: dict) -> tuple[dict, bool]:
    """Dispatch one parsed request; returns ``(response_payload, keep_going)``."""
    op = payload["op"]
    if op == "query":
        try:
            request = QueryRequest.from_payload(payload)
        except ProtocolError as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}, True
        try:
            ticket = server.submit(request)
        except AdmissionRejected as exc:
            return (
                {
                    "ok": False,
                    "id": request.id,
                    "error": "rejected",
                    "retry_after": exc.retry_after,
                    "detail": str(exc),
                },
                True,
            )
        response = ticket.future.result(None)
        return response.to_payload(), True
    if op == "stats":
        return {"ok": True, "stats": server.stats()}, True
    if op == "models":
        return {"ok": True, "models": server.registry.describe()}, True
    if op == "load":
        name, path = payload.get("model"), payload.get("path")
        if not name or not path:
            return {"ok": False, "error": "bad_request",
                    "detail": "'load' needs 'model' and 'path'"}, True
        try:
            model = server.load_model(name, path, payload.get("edge_path"))
        except Exception as exc:
            return {"ok": False, "error": "load_failed", "detail": str(exc)}, True
        return {"ok": True, "model": model.describe()}, True
    if op == "reload":
        name = payload.get("model")
        if not name:
            return {"ok": False, "error": "bad_request",
                    "detail": "'reload' needs 'model'"}, True
        try:
            model = server.reload_model(name)
        except Exception as exc:
            return {"ok": False, "error": "reload_failed", "detail": str(exc)}, True
        return {"ok": True, "model": model.describe()}, True
    if op == "update":
        try:
            request = UpdateRequest.from_payload(payload)
        except ProtocolError as exc:
            return {"ok": False, "error": "bad_request", "detail": str(exc)}, True
        try:
            model, result = server.update_model(request.model, request.delta)
        except Exception as exc:
            return {"ok": False, "error": "update_failed", "detail": str(exc)}, True
        response = {
            "ok": True,
            "model": model.describe(),
            "update": {
                "structural": bool(result.structural),
                "dirty_nodes": int(len(result.dirty_nodes)),
                "dirty_fraction": float(result.dirty_fraction),
                "added_nodes": int(result.added_nodes),
                "added_edges": int(result.added_edges),
                "removed_edges": int(result.removed_edges),
            },
        }
        if request.id is not None:
            response["id"] = request.id
        return response, True
    if op == "shutdown":
        return {"ok": True, "stopping": True}, False
    return {"ok": False, "error": "unknown_op", "detail": f"op {op!r}"}, True


def _serve_stream(server: InferenceServer, lines, out: IO[str]) -> None:
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            payload = parse_line(line)
        except ProtocolError as exc:
            out.write(dump({"ok": False, "error": "bad_request", "detail": str(exc)}))
            out.write("\n")
            out.flush()
            continue
        response, keep_going = handle_op(server, payload)
        out.write(dump(response))
        out.write("\n")
        out.flush()
        if not keep_going:
            break


def serve_stdin(server: InferenceServer) -> None:
    """Serve requests from stdin until EOF or a shutdown op."""
    _serve_stream(server, sys.stdin, sys.stdout)


def serve_socket(
    server: InferenceServer,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    announce: IO[str] | None = None,
) -> None:
    """Serve concurrent TCP clients; blocks until a shutdown op arrives.

    With ``port=0`` the OS picks a free port; the bound address is
    announced as ``listening on HOST:PORT`` (clients and the CI smoke
    step parse that line).
    """
    done = threading.Event()

    class Handler(socketserver.StreamRequestHandler):
        def handle(self) -> None:
            writer = self.wfile
            for raw in self.rfile:
                line = raw.decode("utf-8", "replace").strip()
                if not line:
                    continue
                try:
                    payload = parse_line(line)
                except ProtocolError as exc:
                    response, keep_going = (
                        {"ok": False, "error": "bad_request", "detail": str(exc)},
                        True,
                    )
                else:
                    response, keep_going = handle_op(server, payload)
                writer.write((dump(response) + "\n").encode())
                writer.flush()
                if not keep_going:
                    done.set()
                    return

    class TCP(socketserver.ThreadingTCPServer):
        allow_reuse_address = True
        daemon_threads = True

    with TCP((host, port), Handler) as tcp:
        bound_host, bound_port = tcp.server_address[:2]
        out = announce or sys.stdout
        out.write(f"listening on {bound_host}:{bound_port}\n")
        out.flush()
        poller = threading.Thread(target=tcp.serve_forever, args=(0.1,), daemon=True)
        poller.start()
        try:
            while not done.is_set():
                done.wait(0.2)
        except KeyboardInterrupt:
            pass
        tcp.shutdown()


def request_over_socket(
    host: str,
    port: int,
    payload: dict,
    *,
    timeout: float = 30.0,
    retries: int = 20,
    retry_delay: float = 0.25,
) -> dict:
    """Send one request line and read one response line.

    Connection refusals are retried (the server may still be booting);
    admission rejections are surfaced to the caller, who owns that retry.
    """
    last: Exception | None = None
    for _ in range(max(retries, 1)):
        try:
            with socket.create_connection((host, port), timeout=timeout) as conn:
                conn.sendall((dump(payload) + "\n").encode())
                reader = conn.makefile("r", encoding="utf-8")
                line = reader.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            return parse_line(line)
        except (ConnectionRefusedError, ConnectionResetError, OSError) as exc:
            last = exc
            time.sleep(retry_delay)
    raise ConnectionError(f"could not reach {host}:{port}: {last}")
