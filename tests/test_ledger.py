import hashlib
import itertools
import json
import math
import random
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjack.ledger import (
    CALIBRATED_COST,
    DOC_TYPE,
    Block,
    CommitResult,
    ConsortiumLedger,
    CostModel,
    Credential,
    CredentialError,
    Denial,
    GENESIS_PREV_HASH,
    LedgerError,
    LedgerRecord,
    REASON_CONFLICT,
    REASON_CONSENSUS_FAILURE,
    REASON_CREDENTIAL_MISMATCH,
    REASON_NOT_FOUND,
    Transaction,
    VerificationSignal,
    VerifyResult,
    WorldState,
    _canonical_block,
    canonical_bytes,
    chaincode_evaluate,
    estimate_authorization_cost,
)
from blockjack.profiler import ACTION_VERIFY, GatewayRequest
from blockjack.types import Prefix, RouterId

UNIT_COST = CostModel(1.0, 1.0, 1.0, 4)


def make_ledger(model=UNIT_COST):
    ledger = ConsortiumLedger(cost_model=model)
    admin = ledger.enroll_admin("admin")
    r10 = ledger.register_router(RouterId(10), admin)
    r99 = ledger.register_router(RouterId(99), admin)
    return ledger, admin, r10, r99


# -- credentials ----------------------------------------------------------


def test_enroll_admin_once():
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    ledger.enroll_admin("admin-as10")
    with pytest.raises(CredentialError):
        ledger.enroll_admin("admin-as10")


@pytest.mark.parametrize("name", ["admin", "a", "admin-as10", "admin-as99", "64512.x",
                                  " 64512.0"])
def test_enroll_admin_takes_text_that_names_no_router(name):
    admin = ConsortiumLedger(cost_model=UNIT_COST).enroll_admin(name)
    assert (admin.subject, admin.asn) == (name, None)


@pytest.mark.parametrize("name,error", [
    (5, TypeError), (None, TypeError), (True, TypeError), (b"admin", TypeError),
    ("64512.0", ValueError), ("64512", ValueError), ("064512.0", ValueError),
])
def test_enroll_admin_refuses_a_name_that_is_not_text_or_is_router_text(name, error):
    """An admin holding router text as its subject would block that router's
    registration for good."""
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    with pytest.raises(error):
        ledger.enroll_admin(name)
    admin = ledger.enroll_admin("admin")
    assert ledger.register_router(RouterId(64512), admin).asn == 64512


def test_register_router_requires_admin():
    ledger, admin, r10, _ = make_ledger()
    with pytest.raises(CredentialError):
        ledger.register_router(RouterId(33), r10)  # router cred is not admin
    forged = Credential(subject="admin", asn=None, secret="deadbeef")
    with pytest.raises(CredentialError):
        ledger.register_router(RouterId(33), forged)
    with pytest.raises(CredentialError):
        ledger.register_router(RouterId(10), admin)  # duplicate router


def test_router_credential_carries_asn():
    ledger, admin, r10, _ = make_ledger()
    assert r10.asn == 10
    assert admin.asn is None


@pytest.mark.parametrize("write", ["register", "update_status"])
def test_credential_presented_under_another_asn_is_refused(write):
    """A router may not relabel its own credential to act as another AS."""
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.9.0.0/16", 99, r99)
    spoofed = replace(r10, asn=99)
    with pytest.raises(CredentialError):
        if write == "register":
            ledger.submit_authorization("10.8.0.0/16", 99, spoofed)
        else:
            ledger.submit_status_update("10.9.0.0/16", 99, False, spoofed)
    assert ledger.world_state.records == {"10.9.0.0/16": LedgerRecord("10.9.0.0/16", 99)}
    assert ledger.chain_length == 2


# -- chaincode ------------------------------------------------------------


def tx(kind, prefix, asn, submitter_asn=None, active=True):
    return Transaction(kind=kind, record=LedgerRecord(prefix, asn, active=active),
                       submitter=f"{asn}.0", submitter_asn=submitter_asn or asn,
                       endorsements=(), submitted_at=0.0)


def test_chaincode_register_on_empty_state_approves():
    assert chaincode_evaluate(tx("register", "10.0.0.0/24", 10), WorldState()) is None


def test_chaincode_register_conflict_denied():
    state = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10)})
    assert chaincode_evaluate(tx("register", "10.0.0.0/24", 99), state) == REASON_CONFLICT


def test_chaincode_reactivation_paths():
    inactive = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10, active=False)})
    assert chaincode_evaluate(tx("register", "10.0.0.0/24", 10), inactive) is None
    cross = chaincode_evaluate(tx("register", "10.0.0.0/24", 99), inactive)
    assert cross == REASON_CONFLICT
    assert chaincode_evaluate(tx("update_status", "10.0.0.0/24", 10), inactive) is None


def test_chaincode_update_not_found_and_mismatch():
    state = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10)})
    missing = chaincode_evaluate(tx("update_status", "172.16.0.0/20", 10), state)
    assert missing == REASON_NOT_FOUND
    wrong = chaincode_evaluate(tx("update_status", "10.0.0.0/24", 99), state)
    assert wrong == REASON_CREDENTIAL_MISMATCH


def test_chaincode_credential_asn_mismatch():
    reason = chaincode_evaluate(tx("register", "10.0.0.0/24", 20, submitter_asn=10),
                                WorldState())
    assert reason == REASON_CREDENTIAL_MISMATCH


def test_chaincode_is_pure():
    state = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10)})
    before = dict(state.records), state.version
    chaincode_evaluate(tx("register", "172.16.0.0/20", 99), state)
    assert (dict(state.records), state.version) == before


# -- authorization pipeline -------------------------------------------------


def test_first_registration_commits_with_majority():
    ledger, _, r10, _ = make_ledger()
    result = ledger.submit_authorization("10.0.0.0/24", 10, r10, now=0.0)
    assert isinstance(result, CommitResult)
    assert result.block_index == 1
    block = ledger.blocks[1]
    assert len(block.transactions[0].endorsements) >= 2  # ceil(4/2)
    assert ledger.world_state.get("10.0.0.0/24").active
    assert ledger.world_state.version == 1


def test_conflicting_registration_leaves_state_unchanged():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    length = ledger.chain_length
    version = ledger.world_state.version
    result = ledger.submit_authorization("10.0.0.0/24", 99, r99)
    assert isinstance(result, Denial) and result.reason == REASON_CONFLICT
    assert ledger.chain_length == length
    assert ledger.world_state.version == version
    assert ledger.world_state.get("10.0.0.0/24").asn == 10


def test_cost_model_hand_values():
    model = CostModel(1.0, 1.0, 1.0, 4)
    assert estimate_authorization_cost(model) == 7.0  # 1 + 2*1 + 4*1
    assert estimate_authorization_cost(CostModel(0, 0, 0, 3)) == 0.0
    assert abs(estimate_authorization_cost(CALIBRATED_COST) - 2.15) < 1e-9
    assert abs(CALIBRATED_COST.verification_cost() - 0.09) < 1e-9


def test_commit_elapsed_matches_estimate():
    rng = random.Random(5)
    for n in (2, 4, 8):
        model = CostModel(rng.uniform(0, 2), rng.uniform(0, 2),
                          rng.uniform(0, 2), n)
        ledger = ConsortiumLedger(cost_model=model)
        admin = ledger.enroll_admin("a")
        cred = ledger.register_router(RouterId(7), admin)
        start = rng.uniform(0, 100)
        result = ledger.submit_authorization("192.0.2.0/24", 7, cred, now=start)
        assert abs((result.completed_at - start) - estimate_authorization_cost(model)) <= 1e-9


def test_authorization_cost_strictly_increasing_in_members():
    costs = [estimate_authorization_cost(CostModel(0.1, 0.5, 0.2, n))
             for n in range(1, 10)]
    assert all(b > a for a, b in zip(costs, costs[1:]))


def test_verification_cost_independent_of_members():
    kwargs = dict(request_latency=0.09, endorse_latency=1.0, distribute_latency=0.5)
    costs = {CostModel(member_count=n, **kwargs).verification_cost()
             for n in range(1, 10)}
    assert costs == {0.09}


def test_invalid_credential_raises():
    ledger, _, r10, _ = make_ledger()
    bogus = Credential(subject="10.0", asn=10, secret="nope")
    with pytest.raises(CredentialError):
        ledger.submit_authorization("10.0.0.0/24", 10, bogus)
    with pytest.raises(CredentialError):
        ledger.query_verify("10.0.0.0/24", 10, bogus)


def test_secrets_follow_the_order_of_issue():
    # each secret hashes the CA name, the subject and the credential's serial
    # in issue order; a refused re-enrolment takes no serial
    ledger = ConsortiumLedger()
    admin = ledger.enroll_admin("admin")
    with pytest.raises(CredentialError):
        ledger.enroll_admin("admin")
    secrets = [admin.secret,
               ledger.register_router(RouterId(10, 1), admin).secret,
               ledger.register_router(RouterId(20), admin).secret]
    assert secrets == [
        "b5a1e31053151f16b1071a38aa8c5a9897165e3a9b27bdd11ee3efb6cf88ac3d",
        "bf3c069f16b18bc01e7a93c929bf7ca41b993687fa5cd37020f8c0f601276611",
        "fb5df5e725496975eab289e7521b7153a2b37a48675fa2051ebc7adb5c975829",
    ]


def test_cost_model_refuses_a_non_finite_latency_or_a_non_integer_member_count():
    for name in ("request_latency", "endorse_latency", "distribute_latency"):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0"):
                replace(CALIBRATED_COST, **{name: bad})
    for bad in (2.5, True, "2"):
        with pytest.raises(TypeError, match="member_count must be an integer"):
            replace(CALIBRATED_COST, member_count=bad)
    with pytest.raises(ValueError, match="member_count must be >= 1"):
        replace(CALIBRATED_COST, member_count=0)


# -- status updates ---------------------------------------------------------


def test_status_flip_keeps_record_count():
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    keys = set(ledger.world_state.records)
    result = ledger.submit_status_update("10.0.0.0/24", 10, False, r10)
    assert isinstance(result, CommitResult)
    assert set(ledger.world_state.records) == keys
    assert not ledger.world_state.get("10.0.0.0/24").active
    ledger.submit_status_update("10.0.0.0/24", 10, True, r10)
    assert set(ledger.world_state.records) == keys
    assert ledger.world_state.get("10.0.0.0/24").active
    assert ledger.chain_length == 4  # genesis + register + two flips


def test_status_update_by_wrong_asn_denied():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    result = ledger.submit_status_update("10.0.0.0/24", 99, False, r99)
    assert isinstance(result, Denial)
    assert result.reason == REASON_CREDENTIAL_MISMATCH
    assert ledger.world_state.get("10.0.0.0/24").active


# -- verification -------------------------------------------------------------


def test_verify_truth_table():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    assert ledger.query_verify("10.0.0.0/24", 10, r10).signal is VerificationSignal.VALID
    assert ledger.query_verify("10.0.0.0/24", 99, r10).signal is VerificationSignal.INVALID
    assert ledger.query_verify("192.168.5.0/24", 7, r10).signal is VerificationSignal.UNKNOWN
    ledger.submit_status_update("10.0.0.0/24", 10, False, r10)
    assert ledger.query_verify("10.0.0.0/24", 10, r10).signal is VerificationSignal.UNKNOWN
    assert ledger.query_verify("10.0.0.0/24", 99, r10).signal is VerificationSignal.UNKNOWN
    ledger.submit_status_update("10.0.0.0/24", 10, True, r10)
    assert ledger.query_verify("10.0.0.0/24", 10, r10).signal is VerificationSignal.VALID


def test_verification_is_pure():
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    length, version = ledger.chain_length, ledger.world_state.version
    for _ in range(10_000):
        ledger.query_verify("10.0.0.0/24", 10, r10)
    assert ledger.chain_length == length
    assert ledger.world_state.version == version


@pytest.mark.parametrize("now", [True, False, "5", None, 1j], ids=repr)
def test_verify_refuses_a_time_that_is_not_a_number_before_counting_it(now):
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    stats = dict(ledger.stats)
    with pytest.raises(TypeError, match="now must be an int or a float"):
        ledger.query_verify("10.0.0.0/24", 10, r10, now=now)
    assert ledger.stats == stats
    assert ledger.query_verify("10.0.0.0/24", 10, r10, now=2).completed_at == 3


@pytest.mark.parametrize("now", [math.nan, math.inf, -math.inf, 2 ** 1024],
                         ids=["nan", "inf", "-inf", "2**1024"])
def test_a_non_finite_request_time_is_refused_before_counting_it(now):
    # a NaN or an infinity has no JSON form in the dump, and 2**1024 has
    # no float form for the completion time
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    before = ledger.to_json(), dict(ledger.stats)
    requests = {
        "register": lambda: ledger.submit_authorization("10.1.0.0/24", 10, r10, now=now),
        "status": lambda: ledger.submit_status_update("10.0.0.0/24", 10, False, r10,
                                                      now=now),
        "verify": lambda: ledger.query_verify("10.0.0.0/24", 10, r10, now=now),
    }
    for name, request in requests.items():
        with pytest.raises(ValueError, match="now must be finite"):
            request()
        assert (ledger.to_json(), ledger.stats) == before, name


# -- consensus threshold -------------------------------------------------------


def test_consensus_threshold_exhaustive():
    """Every vote pattern for N in 1..9: commit iff approvals >= ceil(N/2)."""
    for n in range(1, 10):
        threshold = (n + 1) // 2
        for pattern in itertools.product([True, False], repeat=n):
            ledger = ConsortiumLedger(cost_model=CostModel(0, 0, 0, n))
            admin = ledger.enroll_admin("a")
            cred = ledger.register_router(RouterId(5), admin)
            for member, vote in zip(ledger.members, pattern):
                member.endorse = (lambda tx, v=vote: v)
            result = ledger.submit_authorization("198.51.100.0/24", 5, cred)
            if sum(pattern) >= threshold:
                assert isinstance(result, CommitResult)
                assert len(ledger.blocks[1].transactions[0].endorsements) >= threshold
            else:
                assert isinstance(result, Denial)
                assert result.reason == REASON_CONSENSUS_FAILURE
                assert ledger.chain_length == 1
                assert ledger.world_state.records == {}


def test_no_two_active_records_share_a_prefix():
    rng = random.Random(17)
    ledger, _, r10, r99 = make_ledger()
    creds = {10: r10, 99: r99}
    prefixes = [f"10.{i}.0.0/16" for i in range(6)]
    for _ in range(300):
        asn = rng.choice([10, 99])
        prefix = rng.choice(prefixes)
        if rng.random() < 0.6:
            ledger.submit_authorization(prefix, asn, creds[asn])
        else:
            ledger.submit_status_update(prefix, asn, rng.random() < 0.5, creds[asn])
        owners = {}
        for record in ledger.world_state.records.values():
            assert record.prefix not in owners
            owners[record.prefix] = record.asn
    assert ledger.verify_chain() is None


# -- chain integrity -------------------------------------------------------------


def test_genesis_only_chain_is_ok():
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    assert ledger.verify_chain() is None
    assert ledger.blocks[0].prev_hash == GENESIS_PREV_HASH
    assert ledger.blocks[0].transactions == []


def test_chain_without_genesis_is_broken_at_zero():
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    ledger.blocks = []
    assert ledger.verify_chain() == 0


def test_chain_ok_after_commits():
    ledger, _, r10, _ = make_ledger()
    for i in range(20):
        ledger.submit_authorization(f"10.{i}.0.0/16", 10, r10)
    assert ledger.verify_chain() is None


def tampered_copies(block):
    """Single-field corruptions of one block, as (label, mutator) pairs."""
    tx0 = block.transactions[0]
    rec = tx0.record
    flip = lambda s, i: s[:i] + chr((ord(s[i]) + 1 - 48) % 75 + 48) + s[i + 1:]
    yield "record.prefix", replace(tx0, record=replace(rec, prefix=flip(rec.prefix, 0)))
    yield "record.asn", replace(tx0, record=replace(rec, asn=rec.asn + 1))
    yield "record.active", replace(tx0, record=replace(rec, active=not rec.active))
    yield "record.doc_type", replace(tx0, record=replace(rec, doc_type=flip(rec.doc_type, 2)))
    yield "submitter", replace(tx0, submitter=flip(tx0.submitter, 0))
    yield "kind", replace(tx0, kind=flip(tx0.kind, 1))
    yield "endorsements", replace(tx0, endorsements=tx0.endorsements[:-1] or ("x",))
    yield "submitted_at", replace(tx0, submitted_at=tx0.submitted_at + 1.0)


def test_tampering_detected_at_exact_block_100_block_fuzz():
    ledger, _, r10, _ = make_ledger()
    for i in range(100):
        ledger.submit_authorization(f"10.{i // 250}.{i % 250}.0/24", 10, r10)
    assert ledger.verify_chain() is None
    rng = random.Random(42)
    for index in range(1, 101):
        block = ledger.blocks[index]
        original = block.transactions[0]
        label, mutated = rng.choice(list(tampered_copies(block)))
        block.transactions[0] = mutated
        assert ledger.verify_chain() == index, f"missed tamper of {label} at {index}"
        block.transactions[0] = original
        assert ledger.verify_chain() is None
    # link-level tampering
    ledger.blocks[50].prev_hash = "f" + ledger.blocks[50].prev_hash[1:]
    assert ledger.verify_chain() == 50


def test_any_single_byte_flip_changes_digest():
    ledger, _, r10, _ = make_ledger()
    for i in range(10):
        ledger.submit_authorization(f"172.16.{i}.0/24", 10, r10)
    rng = random.Random(3)
    for _ in range(200):
        block = ledger.blocks[rng.randint(1, 10)]
        payload = canonical_bytes(body(block))
        pos = rng.randrange(len(payload))
        corrupted = payload[:pos] + bytes([payload[pos] ^ 0x01]) + payload[pos + 1:]
        assert hashlib.sha256(corrupted).hexdigest() != block.hash


def body(block):
    """The hashed document of a block, built from its fields, as the reference
    for the renderer that writes its text."""
    return {"index": block.index, "prev_hash": block.prev_hash,
            "transactions": [{"kind": tx.kind, "record": tx.record.to_dict(),
                              "submitter": tx.submitter,
                              "submitter_asn": tx.submitter_asn,
                              "endorsements": list(tx.endorsements),
                              "submitted_at": tx.submitted_at}
                             for tx in block.transactions]}


# Values of every type ``load`` accepts for each field: text with escapes
# and non-ASCII characters, ints and floats for the submission time
# (-0.0 and 1e-7 render as "-0.0" and "1e-07"), no submitter ASN, and
# empty endorsements.
hash_text = st.one_of(st.sampled_from(["", '"', "\\", "\u00e9\u2603", "\U0001f600", "\x00\n"]),
                      st.text(max_size=8))
hash_transaction = st.builds(
    Transaction, hash_text,
    st.builds(LedgerRecord, hash_text, st.integers(0, 2**32), hash_text, st.booleans()),
    hash_text, st.one_of(st.none(), st.integers(-2**70, 2**70)),
    st.lists(hash_text, max_size=4).map(tuple),
    st.one_of(st.integers(-2**70, 2**70), st.floats(), st.sampled_from([-0.0, 1e-7, 1e300])))


@settings(derandomize=True, deadline=None)
@given(index=st.integers(0, 2**40), prev_hash=hash_text,
       transactions=st.lists(hash_transaction, max_size=4))
def test_block_bytes_rendered_from_fields_equal_the_encoded_body(index, prev_hash,
                                                                   transactions):
    block = Block(index, prev_hash, transactions)
    assert _canonical_block(block) == canonical_bytes(body(block))
    assert block.compute_hash() == hashlib.sha256(canonical_bytes(body(block))).hexdigest()


def hand_built_odd_block():
    """A block whose fields hold containers and a tuple, which ``load`` never takes."""
    odd = Transaction("register", LedgerRecord("10.0.0.0/24", [10, 2.5]), "admin",
                      {"b": [None, -0.0], "a": "\u00e9"}, ["member-1", ("x", 1)], 3)
    return Block(1, GENESIS_PREV_HASH, [odd])


def test_block_bytes_of_a_hand_built_non_scalar_field_equal_the_encoded_body():
    block = hand_built_odd_block()
    assert _canonical_block(block) == canonical_bytes(body(block))


def test_dump_is_the_parse_of_the_text_even_for_a_hand_built_odd_block():
    """One format: dump() holds what the dump file says, a list for a tuple."""
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    ledger.blocks.append(hand_built_odd_block().seal())
    doc = ledger.dump()
    assert doc == json.loads(ledger.to_json())
    assert doc["blocks"][1]["transactions"][0]["endorsements"] == ["member-1", ["x", 1]]


# -- export/import ------------------------------------------------------------


# Writes whose transaction ``load`` would refuse; each must raise before it commits.
UNLOADABLE_WRITES = {
    "active zero": lambda ledger, r10: ledger.submit_status_update(
        "10.0.0.0/24", 10, 0, r10),
    "now a bool": lambda ledger, r10: ledger.submit_authorization(
        "10.1.0.0/24", 10, r10, now=True),
    "now text": lambda ledger, r10: ledger.submit_status_update(
        "10.0.0.0/24", 10, False, r10, now="5"),
}


@pytest.mark.parametrize("case", sorted(UNLOADABLE_WRITES))
def test_a_write_that_load_would_refuse_commits_nothing(case):
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    before = ledger.to_json(), dict(ledger.stats)
    with pytest.raises(TypeError):
        UNLOADABLE_WRITES[case](ledger, r10)
    assert (ledger.to_json(), ledger.stats) == before


def test_an_integer_time_is_dumped_and_loaded_as_an_integer():
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10, now=5)
    text = ledger.to_json()
    assert '"submitted_at": 5,' in text
    assert ConsortiumLedger.load(json.loads(text), cost_model=UNIT_COST).to_json() == text


def test_dump_roundtrip_lossless_and_byte_stable():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10, now=1.5)
    ledger.submit_authorization("10.1.0.0/24", 99, r99, now=2.5)
    ledger.submit_status_update("10.0.0.0/24", 10, False, r10, now=3.5)
    blob = ledger.to_json()
    doc = json.loads(blob)
    loaded = ConsortiumLedger.load(doc, cost_model=UNIT_COST)
    assert loaded.to_json() == blob
    assert loaded.verify_chain() is None
    assert loaded.world_state.get("10.0.0.0/24").active is False


# -- record layout ---------------------------------------------------------------

SLOTTED = [LedgerRecord("10.0.0.0/24", 10), Credential("admin", None, "s"),
           tx("register", "10.0.0.0/24", 10), Block(0, GENESIS_PREV_HASH, []),
           CommitResult(1, 0.0), Denial(REASON_CONFLICT, 0.0),
           VerifyResult(VerificationSignal.VALID, 0.0),
           GatewayRequest(ACTION_VERIFY, Prefix.parse("10.0.0.0/24"), 10, RouterId(10))]


@pytest.mark.parametrize("record", SLOTTED, ids=lambda record: type(record).__name__)
def test_record_types_hold_no_instance_dict(record):
    assert not hasattr(record, "__dict__")
    # a frozen slotted class can raise TypeError here (CPython 3.11 does): its
    # __setattr__ calls super() on the class as it was before slots were added
    with pytest.raises((AttributeError, TypeError)):
        record.note = "x"


def test_transactions_share_one_tuple_per_endorser_set_committed_or_loaded():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    ledger.submit_authorization("10.1.0.0/24", 99, r99)
    for replica in (ledger, ConsortiumLedger.load(ledger.dump(), cost_model=UNIT_COST),
                    ConsortiumLedger.load(json.loads(ledger.to_json()), cost_model=UNIT_COST)):
        first, second = (block.transactions[0] for block in replica.blocks[1:])
        assert first.endorsements == ALL_MEMBERS
        assert first.endorsements is second.endorsements


def test_load_refuses_broken_chain():
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    doc = ledger.dump()
    doc["blocks"][1]["transactions"][0]["record"]["asn"] = 99
    with pytest.raises(LedgerError):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


# Single edits of a valid dump's world state; the blocks stay intact.
FORGERIES = {
    "asn": lambda doc: doc["world_state"]["10.0.0.0/24"].update(asn=99),
    "active": lambda doc: doc["world_state"]["10.0.0.0/24"].update(active=False),
    "extra key": lambda doc: doc["world_state"].update(
        {"192.0.2.0/24": LedgerRecord("192.0.2.0/24", 99).to_dict()}),
    "missing key": lambda doc: doc["world_state"].pop("10.1.0.0/24"),
    "version": lambda doc: doc.update(version=doc["version"] + 1),
    # same record count, one prefix swapped for an unregistered one
    "renamed key": lambda doc: doc["world_state"].update(
        {"192.0.2.0/24": dict(doc["world_state"].pop("10.1.0.0/24"),
                              prefix="192.0.2.0/24")}),
    "record is null": lambda doc: doc["world_state"].update({"10.0.0.0/24": None}),
    "record is a list": lambda doc: doc["world_state"].update(
        {"10.0.0.0/24": list(doc["world_state"]["10.0.0.0/24"].items())}),
}


@pytest.mark.parametrize("forgery", sorted(FORGERIES))
def test_load_refuses_world_state_that_disagrees_with_blocks(forgery):
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    ledger.submit_authorization("10.1.0.0/24", 99, r99)
    doc = ledger.dump()
    FORGERIES[forgery](doc)
    with pytest.raises(LedgerError):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


WS_PREFIXES = ["10.0.0.0/24", "10.1.0.0/24", "10.2.0.0/24", "192.0.2.0/24"]
ws_values = st.sampled_from([None, [], ["10.0.0.0/24", 10], {}, "", "10.0.0.0/24",
                             DOC_TYPE, 10, 99, 10.0, 1, 0, True, False])
# One edit of a dump's world state: drop a key, set it to a value, move a
# record to another key, or set or remove one field of a record (of a new
# record copied from the first, for the unregistered prefix).
ws_edits = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(WS_PREFIXES)),
    st.tuples(st.just("set"), st.sampled_from(WS_PREFIXES), ws_values),
    st.tuples(st.just("move"), st.sampled_from(WS_PREFIXES), st.sampled_from(WS_PREFIXES)),
    st.tuples(st.just("field"), st.sampled_from(WS_PREFIXES),
              st.sampled_from(["prefix", "asn", "doc_type", "active", "extra"]), ws_values),
    st.tuples(st.just("unset"), st.sampled_from(WS_PREFIXES),
              st.sampled_from(["prefix", "asn", "doc_type", "active"])),
)


@settings(derandomize=True, deadline=None)
@given(ws_edits)
def test_load_refuses_an_edited_world_state_exactly_when_it_differs(edit):
    """The record-by-record check agrees with comparing whole copies as JSON."""
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    ledger.submit_authorization("10.1.0.0/24", 99, r99)
    ledger.submit_authorization("10.2.0.0/24", 10, r10)
    ledger.submit_status_update("10.2.0.0/24", 10, False, r10)
    doc = json.loads(ledger.to_json())
    edited = doc["world_state"]
    op, prefix, *args = edit
    if op == "drop":
        edited.pop(prefix, None)
    elif op == "set":
        edited[prefix] = args[0]
    elif op == "move":
        if prefix in edited:
            edited[args[0]] = edited.pop(prefix)
    else:
        record = edited.setdefault(prefix, dict(edited["10.0.0.0/24"]))
        if op == "field":
            record[args[0]] = args[1]
        else:
            del record[args[0]]
    # as JSON text, where 1, 1.0 and true differ although == holds for them
    if json.dumps(reference_doc(ledger)["world_state"], sort_keys=True) != \
            json.dumps(edited, sort_keys=True):
        with pytest.raises(LedgerError, match="world state disagrees"):
            ConsortiumLedger.load(doc, cost_model=UNIT_COST)
    else:
        assert ConsortiumLedger.load(doc, cost_model=UNIT_COST).to_json() == \
            ledger.to_json()


@pytest.mark.parametrize("field,value", [("active", 1), ("active", 1.0), ("asn", 10.0)])
def test_load_refuses_a_world_state_field_of_the_wrong_json_type(field, value):
    """== holds for 1 and 1.0 against true and for 10.0 against 10; JSON types differ."""
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    doc = json.loads(ledger.to_json())
    doc["world_state"]["10.0.0.0/24"][field] = value
    with pytest.raises(LedgerError, match="world state disagrees"):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


def test_load_refuses_rehashed_chain_that_does_not_replay():
    """Hashes are unkeyed, so a rebuilt chain verifies; its replay must not."""
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    orphan = tx("update_status", "10.0.0.0/24", 10, active=False)
    ledger.blocks.append(Block(index=1, prev_hash=ledger.blocks[0].hash,
                               transactions=[orphan]).seal())
    doc = ledger.dump()
    assert ledger.verify_chain() is None
    with pytest.raises(LedgerError):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


def test_load_refuses_member_count_mismatch():
    ledger, _, r10, _ = make_ledger(CostModel(1.0, 1.0, 1.0, 7))
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    doc = ledger.dump()
    with pytest.raises(LedgerError):
        ConsortiumLedger.load(doc)  # the calibrated model has 2 members
    loaded = ConsortiumLedger.load(doc, cost_model=CostModel(1.0, 1.0, 1.0, 7))
    assert loaded.to_json() == ledger.to_json()


def assert_members_read_live_state(ledger):
    """Every member denies a cross-AS grab of a taken prefix, approves a free one."""
    taken = tx("register", "10.0.0.0/24", 99)
    free = tx("register", "203.0.113.0/24", 99)
    for member in ledger.members:
        assert not member.endorse(taken), member.member_id
        assert member.endorse(free), member.member_id


def test_members_endorse_against_current_world_state():
    ledger, _, r10, _ = make_ledger()
    assert all(m.endorse(tx("register", "10.0.0.0/24", 99)) for m in ledger.members)
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    assert_members_read_live_state(ledger)
    loaded = ConsortiumLedger.load(ledger.dump(), cost_model=UNIT_COST)
    assert_members_read_live_state(loaded)


def two_commit_dump():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    ledger.submit_authorization("10.1.0.0/24", 99, r99)
    return ledger.dump()


# Malformed dumps: each must raise LedgerError, not KeyError or TypeError.
MALFORMED = {
    "empty object": lambda doc: doc.clear(),
    "no member_count": lambda doc: doc.pop("member_count"),
    "no version": lambda doc: doc.pop("version"),
    "no world_state": lambda doc: doc.pop("world_state"),
    "no blocks": lambda doc: doc.pop("blocks"),
    "blocks is a string": lambda doc: doc.update(blocks="x"),
    "blocks is an object": lambda doc: doc.update(blocks={"0": {}}),
    "no genesis block": lambda doc: doc.update(blocks=[]),
    "block is a list": lambda doc: doc["blocks"].append([]),
    "block without transactions": lambda doc: doc["blocks"][1].pop("transactions"),
    "transactions is a string": lambda doc: doc["blocks"][1].update(transactions="x"),
    "transaction without record": lambda doc: doc["blocks"][1]["transactions"][0].pop(
        "record"),
    "record without asn": lambda doc: doc["blocks"][1]["transactions"][0]["record"].pop(
        "asn"),
    "asn is a string": lambda doc: doc["blocks"][1]["transactions"][0]["record"].update(
        asn="10"),
    "endorsement is a list": lambda doc: doc["blocks"][1]["transactions"][0].update(
        endorsements=[["member-0"]]),
    "member_count is a string": lambda doc: doc.update(member_count="4"),
    "no hash_algorithm": lambda doc: doc.pop("hash_algorithm"),
    "hash_algorithm is md5": lambda doc: doc.update(hash_algorithm="md5"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_load_refuses_malformed_dump_with_ledger_error(case):
    doc = two_commit_dump()
    MALFORMED[case](doc)
    with pytest.raises(LedgerError, match="malformed dump"):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


def test_load_refuses_a_dump_that_is_not_an_object():
    with pytest.raises(LedgerError, match="malformed dump"):
        ConsortiumLedger.load([], cost_model=UNIT_COST)


def resealed_with(ledger, transaction):
    """The ledger's dump with one more block, hashed and applied as a commit is."""
    ledger.blocks.append(Block(index=len(ledger.blocks),
                               prev_hash=ledger.blocks[-1].hash,
                               transactions=[transaction]).seal())
    ledger.world_state.apply(transaction)
    assert ledger.verify_chain() is None
    return ledger.dump()


ALL_MEMBERS = tuple(f"member-{i}" for i in range(UNIT_COST.member_count))
# Appended transactions that a chain check alone lets through.
FORGED_COMMITS = {
    # AS 99 takes AS 10's active prefix with no endorsements at all
    "hijack, unendorsed": (tx("register", "10.0.0.0/24", 99), ()),
    "hijack, endorsed by all": (tx("register", "10.0.0.0/24", 99), ALL_MEMBERS),
    "free prefix, unendorsed": (tx("register", "10.9.0.0/24", 99), ()),
    "free prefix, one member twice": (tx("register", "10.9.0.0/24", 99),
                                      ("member-0", "member-0")),
    "free prefix, unknown members": (tx("register", "10.9.0.0/24", 99),
                                     ("member-7", "member-8")),
    "status update by another AS": (tx("update_status", "10.0.0.0/24", 99,
                                       active=False), ALL_MEMBERS),
    # a free prefix, endorsed by all, but its submitter is not a router of AS 99
    **{f"submitter {text!r}": (replace(tx("register", "10.9.0.0/24", 99), submitter=text),
                               ALL_MEMBERS)
       for text in ["10.0", "admin", "", " 99.0", "99.0.1", "0.0"]},
}


@pytest.mark.parametrize("case", sorted(FORGED_COMMITS))
def test_load_replays_chaincode_and_counts_endorsements(case):
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    forged, endorsements = FORGED_COMMITS[case]
    doc = resealed_with(ledger, replace(forged, endorsements=endorsements))
    with pytest.raises(LedgerError):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


def test_load_accepts_an_appended_commit_that_meets_both_checks():
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    free = replace(tx("register", "10.9.0.0/24", 99), endorsements=ALL_MEMBERS[:2])
    doc = resealed_with(ledger, free)
    loaded = ConsortiumLedger.load(doc, cost_model=UNIT_COST)
    assert loaded.world_state.get("10.9.0.0/24").asn == 99


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the ledger takes prefix text that is not canonical")
@pytest.mark.parametrize("text", ["10.0.0.1/24", "banana"])
def test_the_ledger_refuses_prefix_text_that_is_not_canonical(text):
    """The gateway asks in canonical text, so a record kept under
    10.0.0.1/24 never answers for 10.0.0.0/24: the dispatcher hears
    unknown and accepts the hijack."""
    ledger, _, r10, _ = make_ledger()
    try:
        result = ledger.submit_authorization(text, 10, r10)
    except (LedgerError, ValueError):
        result = None
    assert not isinstance(result, CommitResult)
    ledger, *_ = make_ledger()
    doc = resealed_with(ledger, replace(tx("register", text, 10), endorsements=ALL_MEMBERS))
    try:
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)
        refused = False
    except LedgerError:
        refused = True
    assert refused


@pytest.mark.parametrize("submitter", ["99", "99.0", "99.5", "099.0"])
def test_load_accepts_a_submitter_that_is_router_text_of_its_as(submitter):
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    free = replace(tx("register", "10.9.0.0/24", 99), submitter=submitter,
                   endorsements=ALL_MEMBERS)
    loaded = ConsortiumLedger.load(resealed_with(ledger, free), cost_model=UNIT_COST)
    assert loaded.world_state.get("10.9.0.0/24").asn == 99


def rewritten_to_as_666(**changes):
    """A registration by AS 100 moved to AS 666: its record ASN and
    submitter_asn set to 666 (plus ``changes``), the world state edited to
    match and every block hash recomputed, so the chain verifies."""
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    admin = ledger.enroll_admin("admin")
    ledger.submit_authorization("10.0.0.0/24", 100,
                                ledger.register_router(RouterId(100), admin))
    original = ledger.to_json()
    registration = ledger.blocks[1].transactions[0]
    ledger.blocks[1].transactions = [replace(
        registration, record=replace(registration.record, asn=666), submitter_asn=666,
        **changes)]
    prev_hash = GENESIS_PREV_HASH
    for block in ledger.blocks:
        block.prev_hash = prev_hash
        prev_hash = block.seal().hash
    ledger.world_state.records["10.0.0.0/24"] = ledger.blocks[1].transactions[0].record
    assert ledger.verify_chain() is None and ledger.to_json() != original
    return json.loads(ledger.to_json())


def test_load_refuses_a_rewrite_whose_submitter_names_another_as():
    doc = rewritten_to_as_666()
    assert doc["blocks"][1]["transactions"][0]["submitter"] == "100.0"
    with pytest.raises(LedgerError, match="submitter '100.0' is not a router of AS 666"):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


def test_a_rewrite_that_also_renames_the_submitter_still_loads():
    """Without an anchored head hash, a consistent rewrite cannot be told apart."""
    loaded = ConsortiumLedger.load(rewritten_to_as_666(submitter="666.0"),
                                   cost_model=UNIT_COST)
    assert loaded.world_state.get("10.0.0.0/24").asn == 666


def test_loaded_blocks_share_the_previous_blocks_hash():
    ledger, _, r10, r99 = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    ledger.submit_authorization("10.1.0.0/24", 99, r99)
    text = ledger.to_json()
    loaded = ConsortiumLedger.load(json.loads(text), cost_model=UNIT_COST)
    assert loaded.blocks[1].prev_hash is loaded.blocks[0].hash
    assert loaded.blocks[2].prev_hash is loaded.blocks[1].hash
    assert loaded.to_json() == text


@pytest.mark.parametrize("asn", [0, -5, 2**40])
def test_load_refuses_a_record_asn_out_of_range(asn):
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    doc = resealed_with(ledger, replace(tx("register", "10.0.0.0/24", asn),
                                        endorsements=ALL_MEMBERS))
    with pytest.raises(LedgerError, match=r"ASN out of range .*\(block 1\)"):
        ConsortiumLedger.load(doc, cost_model=UNIT_COST)


@pytest.mark.parametrize("submitted_at", [math.nan, math.inf, -math.inf, 2 ** 1024],
                         ids=["nan", "inf", "-inf", "2**1024"])
def test_load_refuses_a_submission_time_that_writes_refuse(submitted_at):
    # with the block hash recomputed, so only the time check can refuse it;
    # a loaded NaN or infinity would re-dump as text that is not JSON
    ledger, _, r10, _ = make_ledger()
    ledger.submit_authorization("10.0.0.0/24", 10, r10)
    doc = resealed_with(ledger, replace(tx("register", "10.9.0.0/24", 99),
                                        endorsements=ALL_MEMBERS,
                                        submitted_at=submitted_at))
    for dumped in (doc, json.loads(ledger.to_json())):
        with pytest.raises(LedgerError, match=r"submitted_at is not finite \(block 2\)"):
            ConsortiumLedger.load(dumped, cost_model=UNIT_COST)


# -- invariants under any write sequence ------------------------------------------


def reference_doc(ledger):
    """The dump's document, built from the ledger's fields, not from its text."""
    records = ledger.world_state.records
    return {"hash_algorithm": "sha256", "member_count": ledger.cost_model.member_count,
            "version": ledger.world_state.version,
            "world_state": {prefix: records[prefix].to_dict() for prefix in sorted(records)},
            "blocks": [dict(body(block), hash=block.hash) for block in ledger.blocks]}


def reference_json(ledger):
    """The dump as the indent encoder renders it; to_json must match it byte for byte."""
    return json.dumps(reference_doc(ledger), sort_keys=True, indent=2) + "\n"


def check_ledger_invariants(ledger, model):
    replayed = WorldState()
    for block in ledger.blocks:
        for transaction in block.transactions:
            replayed.apply(transaction)
    assert replayed == ledger.world_state
    assert ledger.verify_chain() is None
    members = {member.member_id for member in ledger.members}
    for block in ledger.blocks:
        for transaction in block.transactions:
            assert len(members.intersection(transaction.endorsements)) \
                >= model.endorsements_required
    text = ledger.to_json()
    assert text == reference_json(ledger)
    assert ConsortiumLedger.load(json.loads(text), cost_model=model).to_json() == text


PROP_PREFIXES = ("10.0.0.0/24", "10.1.0.0/24", "192.0.2.0/24")
PROP_ASNS = (10, 20, 30)
# One write: (kind, prefix, submitter, claimed ASN, active, now).  Submitter
# len(PROP_ASNS) is the admin, whose credential carries no ASN.  Claiming
# another AS's number is a spoof; registering a prefix that another AS
# holds is a cross-AS grab.
ledger_writes = st.lists(st.tuples(
    st.sampled_from(["register", "update_status"]),
    st.sampled_from(PROP_PREFIXES),
    st.integers(0, len(PROP_ASNS)),
    st.sampled_from(PROP_ASNS),
    st.booleans(),
    st.sampled_from([0.0, 1.5, 2.25, 1e300])), max_size=30)


@settings(derandomize=True, deadline=None)
@given(member_count=st.integers(1, 7), writes=ledger_writes)
def test_ledger_invariants_hold_for_any_write_sequence(member_count, writes):
    model = CostModel(1.0, 1.0, 1.0, member_count)
    ledger = ConsortiumLedger(cost_model=model)
    admin = ledger.enroll_admin("admin")
    submitters = [ledger.register_router(RouterId(asn), admin) for asn in PROP_ASNS]
    submitters.append(admin)
    commits = 0
    for kind, prefix, who, asn, active, now in writes:
        if kind == "register":
            result = ledger.submit_authorization(prefix, asn, submitters[who], now=now)
        else:
            result = ledger.submit_status_update(prefix, asn, active, submitters[who],
                                                 now=now)
        commits += isinstance(result, CommitResult)
    assert ledger.chain_length == commits + 1
    check_ledger_invariants(ledger, model)


def append_commit(ledger, transaction):
    """Seal one more block holding transaction and apply it, as a commit does."""
    ledger.blocks.append(Block(index=len(ledger.blocks),
                               prev_hash=ledger.blocks[-1].hash,
                               transactions=[transaction]).seal())
    ledger.world_state.apply(transaction)


# Strings with quotes, escapes and non-ASCII characters, and submission
# times in every form ``load`` takes back: ints, finite floats, -0.0 and
# 1e300.  A submitter must be router text of its AS to load, so only its
# router index varies; the render-only tests below give it any text, and
# their times include NaN and the infinities.
odd_text = st.one_of(st.sampled_from(['"', "\\", "\u00e9\"\u00fc", "\u2603\n\t", "\U0001f600",
                                      "\x00\x7f", ""]),
                     st.text(max_size=6))
odd_time = st.one_of(st.integers(-10**20, 10**20),
                     st.floats(allow_nan=False, allow_infinity=False),
                     st.sampled_from([1e300, -0.0, 5]))
odd_transactions = st.lists(st.tuples(
    st.sampled_from(["register", "update_status"]), odd_text, st.sampled_from([10, 99]),
    odd_text, st.booleans(), st.sampled_from(["", ".0", ".7", ".4294967295"]),
    odd_time), max_size=8)


@settings(derandomize=True, deadline=None)
@given(odd_transactions)
def test_to_json_renders_odd_loaded_values_as_json_dumps(entries):
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    for kind, prefix, asn, doc_type, active, router_index, submitted_at in entries:
        transaction = Transaction(kind, LedgerRecord(prefix, asn, doc_type, active),
                                  f"{asn}{router_index}", asn, ALL_MEMBERS[:2],
                                  submitted_at)
        if chaincode_evaluate(transaction, ledger.world_state) is None:
            append_commit(ledger, transaction)
    check_ledger_invariants(ledger, UNIT_COST)


def test_to_json_renders_values_that_never_pass_load():
    """No submitter ASN, no endorsements and no blocks: load refuses them all."""
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    assert ledger.to_json() == reference_json(ledger)
    orphan = Transaction("register", LedgerRecord("10.0.0.0/24", 10), "admin", None,
                         (), 3)
    append_commit(ledger, orphan)
    assert ledger.to_json() == reference_json(ledger)
    with pytest.raises(LedgerError):
        ConsortiumLedger.load(json.loads(ledger.to_json()), cost_model=UNIT_COST)
    ledger.blocks = []
    assert ledger.to_json() == reference_json(ledger)


@settings(derandomize=True, deadline=None)
@given(st.lists(st.lists(hash_transaction, max_size=4), max_size=3))
def test_to_json_renders_blocks_of_several_transactions_as_json_dumps(blocks):
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    for transactions in blocks:
        ledger.blocks.append(Block(len(ledger.blocks), ledger.blocks[-1].hash,
                                   transactions).seal())
    assert ledger.to_json() == reference_json(ledger)


def test_to_json_peaks_at_about_one_copy_of_its_text():
    """The dump grows in one string, so rendering it needs about its own size.

    A list of the pieces joined at the end needs about 2.2x on this ledger.
    CPython 3.11 appends by copying while a tracer or profiler is set.
    """
    if sys.gettrace() is not None or sys.getprofile() is not None:
        pytest.skip("a tracer or profiler turns the in-place append off")
    ledger, _, r10, _ = make_ledger()
    for i in range(2000):
        ledger.submit_authorization(f"10.{i // 256}.{i % 256}.0/24", 10, r10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = ledger.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.25 * len(text)
