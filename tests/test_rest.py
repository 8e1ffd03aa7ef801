import http.client
import json
import urllib.error
import urllib.request

import pytest

from blockjack.ledger import ConsortiumLedger, CostModel
from blockjack.profiler import Profiler
from blockjack.rest import MAX_BODY_BYTES, GatewayHTTPServer
from blockjack.types import RouterId


@pytest.fixture()
def server():
    gateway = GatewayHTTPServer(Profiler(ConsortiumLedger(
        cost_model=CostModel(0.1, 1.0, 0.5, 2))))
    gateway.start()
    yield gateway
    gateway.stop()


def call(server, method, path, payload=None):
    url = server.address + path
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


def enroll_and_profile(server):
    call(server, "POST", "/admin/enroll", {"name": "admin"})
    call(server, "POST", "/router/profile", {"router_id": "10.0", "asn": 10})
    call(server, "POST", "/router/profile", {"router_id": "99.0", "asn": 99})


def test_full_http_flow(server):
    status, body = call(server, "POST", "/admin/enroll", {"name": "admin"})
    assert status == 200 and body["status"] == "ok"

    status, body = call(server, "POST", "/router/profile",
                        {"router_id": "10.0", "asn": 10})
    assert status == 200 and body["asn"] == 10

    status, body = call(server, "POST", "/prefix",
                        {"router_id": "10.0", "prefix": "10.0.0.0/24", "asn": 10})
    assert status == 200
    assert body["status"] == "committed" and body["block_index"] == 1

    status, body = call(server, "GET",
                        "/prefix?prefix=10.0.0.0/24&asn=10&router_id=10.0")
    assert status == 200 and body["signal"] == "valid"

    status, body = call(server, "GET",
                        "/prefix?prefix=10.0.0.0/24&asn=99&router_id=10.0")
    assert body["signal"] == "invalid"

    status, body = call(server, "GET",
                        "/prefix?prefix=172.16.0.0/20&asn=7&router_id=10.0")
    assert body["signal"] == "unknown"


def test_http_status_update_and_denial(server):
    enroll_and_profile(server)
    call(server, "POST", "/prefix",
         {"router_id": "10.0", "prefix": "10.0.0.0/24", "asn": 10})

    status, body = call(server, "POST", "/prefix",
                        {"router_id": "99.0", "prefix": "10.0.0.0/24", "asn": 99})
    assert status == 200
    assert body == {"status": "denied", "reason": "conflict",
                    "completed_at": body["completed_at"]}

    status, body = call(server, "POST", "/prefix/status",
                        {"router_id": "10.0", "prefix": "10.0.0.0/24",
                         "asn": 10, "active": False})
    assert status == 200 and body["status"] == "committed"

    status, body = call(server, "GET",
                        "/prefix?prefix=10.0.0.0/24&asn=10&router_id=10.0")
    assert body["signal"] == "unknown"


def test_http_error_shape(server):
    enroll_and_profile(server)
    status, body = call(server, "POST", "/prefix",
                        {"router_id": "55.0", "prefix": "10.0.0.0/24", "asn": 55})
    assert status == 401
    assert body["error"]["class"] == "AuthenticationError"

    status, body = call(server, "POST", "/prefix",
                        {"router_id": "10.0", "prefix": "10.0.0.0/24", "asn": 99})
    assert status == 401  # asn mismatch on add

    status, body = call(server, "POST", "/prefix", {"router_id": "10.0"})
    assert status == 400 and "class" in body["error"]

    status, body = call(server, "POST", "/no/such/path", {})
    assert status == 404 and body["error"]["class"] == "UnknownPath"


def test_http_profile_requires_admin_first():
    gateway = GatewayHTTPServer(Profiler(ConsortiumLedger(
        cost_model=CostModel(0.1, 1.0, 0.5, 2))))
    gateway.start()
    try:
        status, body = call(gateway, "POST", "/router/profile",
                            {"router_id": "10.0", "asn": 10})
        assert status == 401
        assert body["error"]["class"] == "AuthenticationError"
    finally:
        gateway.stop()


def test_http_and_inprocess_bindings_agree(server):
    enroll_and_profile(server)
    call(server, "POST", "/prefix",
         {"router_id": "10.0", "prefix": "10.0.0.0/24", "asn": 10})

    from blockjack.profiler import ACTION_VERIFY, GatewayRequest
    req = GatewayRequest.from_payload(
        ACTION_VERIFY, {"router_id": "99.0", "prefix": "10.0.0.0/24", "asn": 99})
    direct = server.profiler.handle_request(req)
    _, via_http = call(server, "GET",
                       "/prefix?prefix=10.0.0.0/24&asn=99&router_id=99.0")
    assert via_http["signal"] == direct.signal.value == "invalid"


def test_http_status_update_refuses_a_non_bool_active(server):
    # bool("false") is True: read that way, the update would reactivate the prefix
    enroll_and_profile(server)
    prefix = {"router_id": "10.0", "prefix": "10.0.0.0/24", "asn": 10}
    call(server, "POST", "/prefix", prefix)
    status, _ = call(server, "POST", "/prefix/status", dict(prefix, active=False))
    assert status == 200
    for active in ("false", "true", 1, None):
        status, body = call(server, "POST", "/prefix/status", dict(prefix, active=active))
        assert status == 400 and body["error"]["class"] == "TypeError", active
    assert server.profiler.ledger.world_state.get("10.0.0.0/24").active is False


def test_http_refuses_a_fractional_asn_or_a_number_for_a_router(server):
    # int(99.7) is 99, and str(99.0) names router 99.0: either would act for AS 99
    enroll_and_profile(server)
    blocks = server.profiler.ledger.chain_length
    for payload in ({"router_id": "99.0", "prefix": "10.0.0.0/24", "asn": 99.7},
                    {"router_id": "99.0", "prefix": "10.0.0.0/24", "asn": True},
                    {"router_id": 99.0, "prefix": "10.0.0.0/24", "asn": 99}):
        status, _ = call(server, "POST", "/prefix", payload)
        assert status == 400, payload
    assert server.profiler.ledger.world_state.get("10.0.0.0/24") is None
    assert server.profiler.ledger.chain_length == blocks
    status, _ = call(server, "POST", "/router/profile", {"router_id": "20.0", "asn": 20.0})
    assert status == 400
    assert RouterId(20) not in server.profiler.profiles


def test_http_verify_query_takes_plain_digits_only(server):
    # a '+' in a query is a space, and int() reads each of these as AS 10
    enroll_and_profile(server)
    call(server, "POST", "/prefix",
         {"router_id": "10.0", "prefix": "10.0.0.0/24", "asn": 10})
    for asn in ("+10", "%2B10", "1_0", "010%20"):
        status, body = call(server, "GET",
                            f"/prefix?prefix=10.0.0.0/24&asn={asn}&router_id=10.0")
        assert status == 400 and body["error"]["class"] == "ValueError", asn
    status, _ = call(server, "GET", "/prefix?prefix=10.0.0.0/24&asn=10&router_id=+10.0")
    assert status == 400


def raw_post(server, content_length):
    """POST /admin/enroll claiming `content_length`, sending no body."""
    host, port = server._server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.putrequest("POST", "/admin/enroll")
        conn.putheader("Content-Length", content_length)
        conn.endheaders()
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode())
    finally:
        conn.close()


def test_http_unknown_paths_are_not_found(server):
    host, port = server._server.server_address[:2]
    for method, path in [("GET", "/no/such/path"), ("GET", "/prefix/status"),
                         ("POST", "/prefixes"), ("POST", "/")]:
        conn = http.client.HTTPConnection(host, port, timeout=5)
        try:
            conn.request(method, path, body=b"{}" if method == "POST" else None)
            resp = conn.getresponse()
            body = json.loads(resp.read().decode())
        finally:
            conn.close()
        assert resp.status == 404, (method, path)
        assert body["error"]["class"] == "UnknownPath"


def test_http_refuses_oversized_body_unread(server):
    # the body is never sent: a server that tried to read it would time out
    status, body = raw_post(server, str(MAX_BODY_BYTES + 1))
    assert status == 413 and body["error"]["class"] == "PayloadTooLarge"
    status, _ = raw_post(server, str(10 ** 12))
    assert status == 413


def test_http_rejects_malformed_content_length(server):
    for length in ["-1", "abc", "1.5", "+3", ""]:
        status, body = raw_post(server, length)
        assert status == 400 and "class" in body["error"], length


def test_http_refuses_a_body_nested_too_deeply_and_serves_the_next(server):
    host, port = server._server.server_address[:2]
    body = b"[" * 60_000
    assert len(body) <= MAX_BODY_BYTES
    conn = http.client.HTTPConnection(host, port, timeout=5)
    try:
        conn.request("POST", "/admin/enroll", body=body)
        resp = conn.getresponse()
        payload = json.loads(resp.read().decode())
    finally:
        conn.close()
    assert resp.status == 400
    assert payload["error"] == {"class": "ValueError", "message": "body nested too deeply"}
    assert call(server, "POST", "/admin/enroll", {"name": "admin"})[0] == 200
