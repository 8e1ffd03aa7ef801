"""HTTP/JSON binding for the profiler gateway.

Standalone counterpart of the in-process binding; both share the
request codec in :mod:`blockjack.profiler` so behavior is identical.

Endpoints (bodies are UTF-8 JSON):

    POST /admin/enroll    {"name": ...}
    POST /router/profile  {"router_id": "asn.index", "asn": ...}
    POST /prefix          {"router_id", "prefix", "asn"}
    POST /prefix/status   {"router_id", "prefix", "asn", "active"}
    GET  /prefix?prefix=...&asn=...&router_id=...

Errors come back as {"error": {"class": ..., "message": ...}}: 400 for a
malformed request, 401 for a failed authentication, 404 for an unknown
path, 413 for a body above MAX_BODY_BYTES and 500 for anything else.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .ledger import CommitResult, CredentialError, Denial, VerifyResult
from .profiler import (
    ACTION_ADD,
    ACTION_UPDATE,
    ACTION_VERIFY,
    AuthenticationError,
    GatewayRequest,
    Profiler,
)
from .types import RouterId

# Largest request body the server reads; a gateway request is ~100 bytes.
MAX_BODY_BYTES = 64 * 1024
# How often the serving loop checks for shutdown; stop() waits up to this long.
POLL_INTERVAL_S = 0.05


class PayloadTooLarge(Exception):
    """Content-Length above MAX_BODY_BYTES; the body is left unread."""


class UnknownPath(Exception):
    """A request for a path the gateway does not serve."""


_STATUS_BY_ERROR = {
    UnknownPath: 404,
    PayloadTooLarge: 413,
    AuthenticationError: 401,
    CredentialError: 401,
    KeyError: 400,
    ValueError: 400,
    TypeError: 400,
}


def result_payload(result) -> dict:
    if isinstance(result, CommitResult):
        return {"status": "committed", "block_index": result.block_index,
                "completed_at": result.completed_at}
    if isinstance(result, Denial):
        return {"status": "denied", "reason": result.reason,
                "completed_at": result.completed_at}
    if isinstance(result, VerifyResult):
        return {"signal": result.signal.value, "completed_at": result.completed_at}
    raise TypeError(f"unexpected result type: {result!r}")


class GatewayHTTPServer:
    """Serves one profiler over HTTP; requests are handled serially."""

    def __init__(self, profiler: Profiler, host: str = "127.0.0.1", port: int = 0):
        self.profiler = profiler
        self.admin_subject: str | None = None
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):
                pass

            def _reply(self, code: int, payload: dict):
                body = json.dumps(payload).encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", "application/json; charset=utf-8")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _fail(self, exc: Exception):
                code = 500
                for klass, status in _STATUS_BY_ERROR.items():
                    if isinstance(exc, klass):
                        code = status
                        break
                self._reply(code, {"error": {"class": exc.__class__.__name__,
                                             "message": str(exc)}})

            def _body(self) -> dict:
                text = self.headers.get("Content-Length", "0")
                if not (text.isascii() and text.isdigit()):
                    raise ValueError(f"bad Content-Length: {text!r}")
                length = int(text)
                if length > MAX_BODY_BYTES:
                    raise PayloadTooLarge(f"body of {length} bytes exceeds "
                                          f"{MAX_BODY_BYTES}")
                raw = self.rfile.read(length) if length else b"{}"
                return json.loads(raw.decode("utf-8"))

            def do_POST(self):
                try:
                    payload = self._body()
                    with outer._lock:
                        self._reply(200, outer._post(self.path, payload))
                except Exception as exc:  # noqa: BLE001 - mapped to wire error
                    self._fail(exc)

            def do_GET(self):
                try:
                    url = urlparse(self.path)
                    if url.path != "/prefix":
                        raise UnknownPath(f"unknown path {url.path}")
                    query = {k: v[0] for k, v in parse_qs(url.query).items()}
                    req = GatewayRequest.from_payload(ACTION_VERIFY, query)
                    with outer._lock:
                        result = outer.profiler.handle_request(req)
                    self._reply(200, result_payload(result))
                except Exception as exc:  # noqa: BLE001
                    self._fail(exc)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread: threading.Thread | None = None

    def _post(self, path: str, payload: dict) -> dict:
        profiler = self.profiler
        if path == "/admin/enroll":
            cred = profiler.enroll_admin(payload["name"])
            if self.admin_subject is None:
                self.admin_subject = cred.subject
            return {"status": "ok", "subject": cred.subject}
        if path == "/router/profile":
            if self.admin_subject is None:
                raise AuthenticationError("no administrator enrolled")
            admin = profiler.wallet.get(self.admin_subject)
            rid = RouterId.parse(payload["router_id"])
            if rid.asn != int(payload["asn"]):
                raise ValueError("router_id and asn fields disagree")
            cred = profiler.create_router_profile(rid, admin)
            return {"status": "ok", "router_id": cred.subject, "asn": cred.asn}
        if path == "/prefix":
            req = GatewayRequest.from_payload(ACTION_ADD, payload)
            return result_payload(profiler.handle_request(req))
        if path == "/prefix/status":
            req = GatewayRequest.from_payload(ACTION_UPDATE, payload)
            return result_payload(profiler.handle_request(req))
        raise UnknownPath(f"unknown path {path}")

    @property
    def address(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self):
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": POLL_INTERVAL_S},
                                        daemon=True)
        self._thread.start()

    def stop(self):
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
