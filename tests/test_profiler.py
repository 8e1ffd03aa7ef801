import pytest

from blockjack.ledger import (
    CommitResult,
    ConsortiumLedger,
    CostModel,
    Denial,
    REASON_CONFLICT,
    VerificationSignal,
    VerifyResult,
)
from blockjack.profiler import (
    ACTION_ADD,
    ACTION_UPDATE,
    ACTION_VERIFY,
    AuthenticationError,
    GatewayRequest,
    Profiler,
)
from blockjack.types import Prefix, RouterId

MODEL = CostModel(0.5, 1.0, 1.0, 2)
R1 = RouterId(10)
R2 = RouterId(99)
PFX = Prefix.parse("10.0.0.0/24")


def make_gateway():
    profiler = Profiler(ConsortiumLedger(cost_model=MODEL))
    admin = profiler.enroll_admin("admin-as10")
    profiler.create_router_profile(R1, admin)
    profiler.create_router_profile(R2, admin)
    return profiler


def add_req(asn=10, router=R1, prefix=PFX):
    return GatewayRequest(action=ACTION_ADD, prefix=prefix, asn=asn,
                          claimed_router=router)


def test_profile_creation_and_wallet():
    profiler = Profiler(ConsortiumLedger(cost_model=MODEL))
    admin = profiler.enroll_admin("admin-as10")
    profiler.create_router_profile(R1, admin)
    assert profiler.profiles[R1].subject == str(R1)
    assert profiler.profiles[R1].asn == 10
    with pytest.raises(AuthenticationError):
        profiler.create_router_profile(R1, admin)


def test_authenticate_own_asn_for_add():
    profiler = make_gateway()
    cred = profiler.authenticate_request(add_req(asn=10))
    assert cred.asn == 10
    with pytest.raises(AuthenticationError):
        profiler.authenticate_request(add_req(asn=99))


def test_verify_may_query_any_asn():
    profiler = make_gateway()
    req = GatewayRequest(action=ACTION_VERIFY, prefix=PFX, asn=99,
                         claimed_router=R1)
    cred = profiler.authenticate_request(req)
    assert cred.subject == str(R1)


def test_unknown_router_rejected_without_ledger_touch():
    profiler = make_gateway()
    before = dict(profiler.ledger.stats)
    req = GatewayRequest(action=ACTION_VERIFY, prefix=PFX, asn=10,
                         claimed_router=RouterId(777))
    with pytest.raises(AuthenticationError):
        profiler.handle_request(req)
    assert profiler.ledger.stats == before
    assert profiler.stats["rejected"] == 1


def test_add_then_verify_roundtrip():
    profiler = make_gateway()
    result = profiler.handle_request(add_req(), now=5.0)
    assert isinstance(result, CommitResult)
    verify = profiler.handle_request(
        GatewayRequest(action=ACTION_VERIFY, prefix=PFX, asn=10,
                       claimed_router=R2), now=6.0)
    assert isinstance(verify, VerifyResult)
    assert verify.signal is VerificationSignal.VALID
    assert abs(verify.completed_at - 6.5) < 1e-9  # request leg only


def test_denial_forwarded_verbatim():
    profiler = make_gateway()
    profiler.handle_request(add_req())
    result = profiler.handle_request(add_req(asn=99, router=R2))
    assert isinstance(result, Denial)
    assert result.reason == REASON_CONFLICT


def test_update_status_flow():
    profiler = make_gateway()
    profiler.handle_request(add_req())
    result = profiler.handle_request(
        GatewayRequest(action=ACTION_UPDATE, prefix=PFX, asn=10,
                       claimed_router=R1, active=False))
    assert isinstance(result, CommitResult)
    signal = profiler.handle_request(
        GatewayRequest(action=ACTION_VERIFY, prefix=PFX, asn=10,
                       claimed_router=R1)).signal
    assert signal is VerificationSignal.UNKNOWN


def test_every_forwarded_request_carried_a_credential():
    profiler = make_gateway()
    base = profiler.ledger.stats["credentialed_requests"]
    profiler.handle_request(add_req())
    for asn in (10, 99, 55):
        profiler.handle_request(GatewayRequest(
            action=ACTION_VERIFY, prefix=PFX, asn=asn, claimed_router=R2))
    with pytest.raises(AuthenticationError):
        profiler.handle_request(add_req(asn=99))
    assert profiler.stats["forwarded"] == 4
    assert profiler.ledger.stats["credentialed_requests"] - base == 4


def test_auth_failures_never_mutate_ledger():
    profiler = make_gateway()
    length = profiler.ledger.chain_length
    attempts = [
        add_req(asn=99),                             # asn mismatch
        add_req(router=RouterId(444)),               # unknown router
        GatewayRequest(action=ACTION_UPDATE, prefix=PFX, asn=99,
                       claimed_router=R1, active=True),
    ]
    for req in attempts:
        with pytest.raises(AuthenticationError):
            profiler.handle_request(req)
    assert profiler.ledger.chain_length == length


def test_replay_against_fresh_profiler_is_identical():
    log = [
        ("add", add_req()),
        ("add", add_req(asn=99, router=R2, prefix=Prefix.parse("10.9.0.0/16"))),
        ("verify", GatewayRequest(action=ACTION_VERIFY, prefix=PFX, asn=99,
                                  claimed_router=R2)),
        ("update", GatewayRequest(action=ACTION_UPDATE, prefix=PFX, asn=10,
                                  claimed_router=R1, active=False)),
        ("verify", GatewayRequest(action=ACTION_VERIFY, prefix=PFX, asn=10,
                                  claimed_router=R1)),
    ]

    def run():
        profiler = make_gateway()
        return [profiler.handle_request(req, now=float(i))
                for i, (_, req) in enumerate(log)]

    assert run() == run()


def test_one_profiler_per_as_sharing_a_ledger():
    # deployment style: each AS runs its own gateway, all of
    # them bound to the same consortium ledger
    ledger = ConsortiumLedger(cost_model=MODEL)
    gw10, gw99 = Profiler(ledger), Profiler(ledger)
    admin10 = gw10.enroll_admin("admin-as10")
    admin99 = gw99.enroll_admin("admin-as99")
    gw10.create_router_profile(R1, admin10)
    gw99.create_router_profile(R2, admin99)

    assert isinstance(gw10.handle_request(add_req()), CommitResult)
    # the other AS's gateway sees the commit at once
    signal = gw99.handle_request(GatewayRequest(
        action=ACTION_VERIFY, prefix=PFX, asn=10, claimed_router=R2)).signal
    assert signal is VerificationSignal.VALID
    # neither gateway can authenticate the other AS's router
    with pytest.raises(AuthenticationError):
        gw10.handle_request(GatewayRequest(
            action=ACTION_VERIFY, prefix=PFX, asn=10, claimed_router=R2))


def test_request_codec_roundtrip():
    req = GatewayRequest(action=ACTION_UPDATE, prefix=PFX, asn=10,
                         claimed_router=RouterId(10, 3), active=False)
    wire = req.to_payload()
    assert wire["router_id"] == "10.3"
    back = GatewayRequest.from_payload(ACTION_UPDATE, wire)
    assert back == req
    with pytest.raises(ValueError):
        GatewayRequest(action="frobnicate", prefix=PFX, asn=10, claimed_router=R1)
    with pytest.raises(ValueError):
        GatewayRequest(action=ACTION_UPDATE, prefix=PFX, asn=10, claimed_router=R1)


@pytest.mark.parametrize("action", [ACTION_UPDATE, ACTION_VERIFY])
@pytest.mark.parametrize("active", [0, 1, "false"])
def test_request_refuses_an_active_that_is_not_a_bool(action, active):
    with pytest.raises(TypeError):
        GatewayRequest(action=action, prefix=PFX, asn=10, claimed_router=R1, active=active)


@pytest.mark.parametrize("field,value,error", [
    ("active", "false", TypeError), ("active", 0, TypeError), ("active", None, TypeError),
    ("asn", 99.7, ValueError), ("asn", True, ValueError), ("asn", "10.0", ValueError),
    ("router_id", 10.0, TypeError), ("prefix", 167772160, TypeError),
], ids=["active-string", "active-zero", "active-null", "asn-fraction", "asn-bool",
        "asn-fraction-text", "router-float", "prefix-number"])
def test_request_codec_refuses_a_field_of_the_wrong_type(field, value, error):
    wire = dict(GatewayRequest(action=ACTION_UPDATE, prefix=PFX, asn=10,
                               claimed_router=R1, active=False).to_payload())
    wire[field] = value
    with pytest.raises(error):
        GatewayRequest.from_payload(ACTION_UPDATE, wire)
