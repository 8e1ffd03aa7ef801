import itertools
import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjack.ledger import (
    CALIBRATED_COST,
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
    WorldState,
    canonical_bytes,
    chaincode_evaluate,
    estimate_authorization_cost,
)
from blockjack.types import RouterId

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


def test_register_router_requires_admin():
    ledger, admin, r10, _ = make_ledger()
    with pytest.raises(CredentialError):
        ledger.register_router(RouterId(33), r10)  # router cred is not admin
    forged = Credential(subject="admin", asn=None, secret="deadbeef",
                        issued_by="blockjack-ca")
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
    assert ledger.world_state.to_dict() == {
        "10.9.0.0/16": LedgerRecord("10.9.0.0/16", 99).to_dict()}
    assert ledger.chain_length == 2


# -- chaincode ------------------------------------------------------------


def tx(kind, prefix, asn, submitter_asn=None, active=True):
    return Transaction(kind=kind, record=LedgerRecord(prefix, asn, active=active),
                       submitter=f"{asn}.0", submitter_asn=submitter_asn or asn,
                       endorsements=(), submitted_at=0.0)


def test_chaincode_register_on_empty_state_approves():
    verdict = chaincode_evaluate(tx("register", "10.0.0.0/24", 10), WorldState())
    assert verdict.approved


def test_chaincode_register_conflict_denied():
    state = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10)})
    verdict = chaincode_evaluate(tx("register", "10.0.0.0/24", 99), state)
    assert not verdict.approved and verdict.reason == REASON_CONFLICT


def test_chaincode_reactivation_paths():
    inactive = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10, active=False)})
    assert chaincode_evaluate(tx("register", "10.0.0.0/24", 10), inactive).approved
    cross = chaincode_evaluate(tx("register", "10.0.0.0/24", 99), inactive)
    assert not cross.approved and cross.reason == REASON_CONFLICT
    assert chaincode_evaluate(tx("update_status", "10.0.0.0/24", 10), inactive).approved


def test_chaincode_update_not_found_and_mismatch():
    state = WorldState({"10.0.0.0/24": LedgerRecord("10.0.0.0/24", 10)})
    missing = chaincode_evaluate(tx("update_status", "172.16.0.0/20", 10), state)
    assert missing.reason == REASON_NOT_FOUND
    wrong = chaincode_evaluate(tx("update_status", "10.0.0.0/24", 99), state)
    assert wrong.reason == REASON_CREDENTIAL_MISMATCH


def test_chaincode_credential_asn_mismatch():
    verdict = chaincode_evaluate(tx("register", "10.0.0.0/24", 20, submitter_asn=10),
                                 WorldState())
    assert verdict.reason == REASON_CREDENTIAL_MISMATCH


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
    bogus = Credential(subject="10.0", asn=10, secret="nope", issued_by="blockjack-ca")
    with pytest.raises(CredentialError):
        ledger.submit_authorization("10.0.0.0/24", 10, bogus)
    with pytest.raises(CredentialError):
        ledger.query_verify("10.0.0.0/24", 10, bogus)


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
        payload = canonical_bytes(block.body())
        pos = rng.randrange(len(payload))
        corrupted = payload[:pos] + bytes([payload[pos] ^ 0x01]) + payload[pos + 1:]
        import hashlib
        assert hashlib.sha256(corrupted).hexdigest() != block.hash


# -- export/import ------------------------------------------------------------


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


# -- invariants under any write sequence ------------------------------------------


def reference_json(ledger):
    """The dump as the indent encoder renders it; to_json must match it byte for byte."""
    return json.dumps(ledger.dump(), sort_keys=True, indent=2) + "\n"


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
# times that JSON renders in every form: ints, NaN, infinities, 1e300.
odd_text = st.one_of(st.sampled_from(['"', "\\", "\u00e9\"\u00fc", "\u2603\n\t", "\U0001f600",
                                      "\x00\x7f", ""]),
                     st.text(max_size=6))
odd_time = st.one_of(st.integers(-10**20, 10**20), st.floats(),
                     st.sampled_from([1e300, -0.0, 5]))
odd_transactions = st.lists(st.tuples(
    st.sampled_from(["register", "update_status"]), odd_text, st.sampled_from([10, 99]),
    odd_text, st.booleans(), odd_text, odd_time), max_size=8)


@settings(derandomize=True, deadline=None)
@given(odd_transactions)
def test_to_json_renders_odd_loaded_values_as_json_dumps(entries):
    ledger = ConsortiumLedger(cost_model=UNIT_COST)
    for kind, prefix, asn, doc_type, active, submitter, submitted_at in entries:
        transaction = Transaction(kind, LedgerRecord(prefix, asn, doc_type, active),
                                  submitter, asn, ALL_MEMBERS[:2], submitted_at)
        if chaincode_evaluate(transaction, ledger.world_state).approved:
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
