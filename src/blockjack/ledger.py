"""Permissioned consortium ledger for prefix ownership.

World state is the live prefix -> record table; every committed change
is also sealed into a hash-chained block log, so the history stays
tamper-evident.  Writes need endorsement from at least half of the
consortium members; reads go straight to world state.

Timing is simulated, not measured: every mutating call is billed the
full request + endorsement + distribution latency of the cost model,
and verification is billed the request leg only, so elapsed simulated
time reflects how expensive each pipeline is rather than host speed.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .types import RouterId, check_asn

DOC_TYPE = "prefix-ownership"
CA_NAME = "blockjack-ca"
HASH_ALGORITHM = "sha256"
GENESIS_PREV_HASH = "0" * 64

KIND_REGISTER = "register"
KIND_UPDATE_STATUS = "update_status"

REASON_CONFLICT = "conflict"
REASON_NOT_FOUND = "not-found"
REASON_CREDENTIAL_MISMATCH = "credential-mismatch"
REASON_CONSENSUS_FAILURE = "consensus-failure"


class LedgerError(Exception):
    """Misuse of the ledger API (not a chaincode denial)."""


class CredentialError(LedgerError):
    """Unknown, forged, or otherwise unusable credential."""


class VerificationSignal(str, Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class LedgerRecord:
    """The four-column ownership row held in world state."""

    prefix: str
    asn: int
    doc_type: str = DOC_TYPE
    active: bool = True

    def to_dict(self) -> dict:
        return {"prefix": self.prefix, "asn": self.asn,
                "doc_type": self.doc_type, "active": self.active}


@dataclass(frozen=True)
class Credential:
    """Opaque bearer token bound to a subject (and its ASN, for routers)."""

    subject: str
    asn: Optional[int]
    secret: str
    issued_by: str


@dataclass(frozen=True)
class Transaction:
    kind: str
    record: LedgerRecord
    submitter: str
    submitter_asn: Optional[int]
    endorsements: tuple[str, ...]
    submitted_at: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "record": self.record.to_dict(),
            "submitter": self.submitter,
            "submitter_asn": self.submitter_asn,
            "endorsements": list(self.endorsements),
            "submitted_at": self.submitted_at,
        }


@dataclass
class Block:
    index: int
    prev_hash: str
    transactions: list[Transaction]
    hash: str = ""

    def body(self) -> dict:
        return {
            "index": self.index,
            "prev_hash": self.prev_hash,
            "transactions": [tx.to_dict() for tx in self.transactions],
        }

    def compute_hash(self) -> str:
        return digest(self.body())

    def seal(self) -> "Block":
        self.hash = self.compute_hash()
        return self


# json.dumps(obj, sort_keys=True, separators=(",", ":")), without building
# an encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj) -> bytes:
    """Field-ordered, length-prefixed serialization used for hashing."""
    payload = _CANONICAL_ENCODER.encode(obj).encode("utf-8")
    return len(payload).to_bytes(8, "big") + payload


def digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()


_encode_str = json.encoder.encode_basestring_ascii


def _json_value(value) -> str:
    """One scalar of the dump as ``json.dumps`` renders it.

    Strings, ints, bools and finite floats take the C paths ``json``
    itself takes for them; NaN, the infinities, None and anything else
    go through ``json.dumps``.
    """
    kind = type(value)
    if kind is str:
        return _encode_str(value)
    if kind is int:
        return int.__repr__(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def _record_json(record: LedgerRecord, pad: str) -> str:
    """A record as an indented JSON object whose keys sit at indent ``pad``."""
    return (f'{{\n{pad}"active": {_json_value(record.active)},\n'
            f'{pad}"asn": {_json_value(record.asn)},\n'
            f'{pad}"doc_type": {_json_value(record.doc_type)},\n'
            f'{pad}"prefix": {_json_value(record.prefix)}\n{pad[2:]}}}')


def _append_transaction(append, tx: Transaction):
    """Append a transaction of a block's list to to_json's pieces."""
    if tx.endorsements:
        append('        {\n          "endorsements": [\n            '
               + ",\n            ".join(map(_json_value, tx.endorsements))
               + '\n          ],\n')
    else:
        append('        {\n          "endorsements": [],\n')
    append(f'          "kind": {_json_value(tx.kind)},\n          "record": ')
    append(_record_json(tx.record, "            "))
    append(f',\n          "submitted_at": {_json_value(tx.submitted_at)},\n'
           f'          "submitter": {_json_value(tx.submitter)},\n'
           f'          "submitter_asn": {_json_value(tx.submitter_asn)}\n        }}')


@dataclass
class WorldState:
    """Current prefix -> record view, derivable from the block log."""

    records: dict[str, LedgerRecord] = field(default_factory=dict)
    version: int = 0

    def get(self, prefix: str) -> Optional[LedgerRecord]:
        return self.records.get(prefix)

    def apply(self, tx: Transaction):
        """Commit one endorsed transaction; a commit and a replay share this.

        A registration stores its transaction's record itself when that
        record is already active (both are frozen), else an active copy;
        a status update stores a copy of the held record with the new flag.
        """
        record = tx.record
        prefix = record.prefix
        if tx.kind == KIND_REGISTER:
            self.records[prefix] = record if record.active is True else \
                LedgerRecord(prefix, record.asn, record.doc_type, True)
        elif tx.kind == KIND_UPDATE_STATUS and prefix in self.records:
            held = self.records[prefix]
            self.records[prefix] = LedgerRecord(held.prefix, held.asn, held.doc_type,
                                                record.active)
        else:
            raise LedgerError(f"cannot apply {tx.kind!r} to {prefix!r}")
        self.version += 1

    def to_dict(self) -> dict:
        return {prefix: self.records[prefix].to_dict()
                for prefix in sorted(self.records)}


@dataclass(frozen=True)
class ChaincodeVerdict:
    approved: bool
    reason: Optional[str] = None


_APPROVED = ChaincodeVerdict(True)
_DENIED_CONFLICT = ChaincodeVerdict(False, REASON_CONFLICT)
_DENIED_NOT_FOUND = ChaincodeVerdict(False, REASON_NOT_FOUND)
_DENIED_CREDENTIAL_MISMATCH = ChaincodeVerdict(False, REASON_CREDENTIAL_MISMATCH)


def chaincode_evaluate(tx: Transaction, state: WorldState) -> ChaincodeVerdict:
    """The deterministic contract every member runs before endorsing.

    Registration passes on a free prefix or when re-activating an
    inactive record of the same owner; a status update passes only
    against an existing record of the same owner.  Never mutates state.
    Verdicts are frozen and shared: every call returns one of four
    module-level objects, one approval and one per denial reason.
    """
    if tx.submitter_asn != tx.record.asn:
        return _DENIED_CREDENTIAL_MISMATCH
    existing = state.get(tx.record.prefix)
    if tx.kind == KIND_REGISTER:
        if existing is None:
            return _APPROVED
        if not existing.active and existing.asn == tx.record.asn:
            return _APPROVED  # re-activation path
        return _DENIED_CONFLICT
    if tx.kind == KIND_UPDATE_STATUS:
        if existing is None:
            return _DENIED_NOT_FOUND
        if existing.asn != tx.record.asn:
            return _DENIED_CREDENTIAL_MISMATCH
        return _APPROVED
    return _DENIED_CONFLICT


@dataclass(frozen=True)
class CostModel:
    """Latency model for the authorization pipeline.

    Authorizing one prefix costs the request latency, one endorsement
    latency per required endorsement, and one distribution latency per
    member receiving the new world state.
    """

    request_latency: float
    endorse_latency: float
    distribute_latency: float
    member_count: int

    def __post_init__(self):
        for name in ("request_latency", "endorse_latency", "distribute_latency"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.member_count < 1:
            raise ValueError("member_count must be >= 1")

    @property
    def endorsements_required(self) -> int:
        return math.ceil(self.member_count / 2)

    def authorization_cost(self) -> float:
        return (self.request_latency
                + self.endorsements_required * self.endorse_latency
                + self.member_count * self.distribute_latency)

    def verification_cost(self) -> float:
        # reads skip consensus entirely; only the request leg is paid
        return self.request_latency


# Two-member preset tuned so one authorization takes ~2.15 simulated
# seconds and one verification ~0.09, the reference throughput shape.
CALIBRATED_COST = CostModel(request_latency=0.09, endorse_latency=1.00,
                            distribute_latency=0.53, member_count=2)


def estimate_authorization_cost(model: CostModel) -> float:
    """Simulated seconds to authorize one prefix under the model."""
    return model.authorization_cost()


class CertificateAuthority:
    """Issues and validates admin and router credentials."""

    def __init__(self):
        self._issued: dict[str, Credential] = {}
        self._minted = 0

    def _mint(self, subject: str, asn: Optional[int]) -> Credential:
        if subject in self._issued:
            raise CredentialError(f"subject already enrolled: {subject}")
        self._minted += 1
        secret = hashlib.sha256(
            f"{CA_NAME}|{subject}|{self._minted}".encode()).hexdigest()
        cred = Credential(subject=subject, asn=asn, secret=secret,
                          issued_by=CA_NAME)
        self._issued[subject] = cred
        return cred

    def enroll_admin(self, name: str) -> Credential:
        return self._mint(name, None)

    def register_router(self, router_id: RouterId, admin: Credential) -> Credential:
        if not self.is_valid(admin) or admin.asn is not None:
            raise CredentialError("router registration requires a valid admin credential")
        return self._mint(str(router_id), router_id.asn)

    def is_valid(self, cred: Credential) -> bool:
        """True only for the very credential issued to its subject, ASN
        included, so a router cannot relabel its own to act for another AS."""
        return self._issued.get(cred.subject) == cred


@dataclass(frozen=True)
class CommitResult:
    block_index: int
    completed_at: float


@dataclass(frozen=True)
class Denial:
    reason: str
    completed_at: float


@dataclass(frozen=True)
class VerifyResult:
    signal: VerificationSignal
    completed_at: float


class ConsortiumMember:
    """One consortium peer; endorses against the consortium's one world state.

    It holds that world state, not the ledger, so a finished ledger is
    freed by reference counting.
    """

    def __init__(self, member_id: str, world_state: WorldState):
        self.member_id = member_id
        self.world_state = world_state

    def endorse(self, tx: Transaction) -> bool:
        return chaincode_evaluate(tx, self.world_state).approved


class ConsortiumLedger:
    """The ordering point: endorsement, block commit, and queries.

    All mutations are serialized through this object; concurrent
    submitters must queue in arrival order.
    """

    def __init__(self, cost_model: CostModel = CALIBRATED_COST):
        self.cost_model = cost_model
        self.ca = CertificateAuthority()
        self.world_state = WorldState()
        self.members = [ConsortiumMember(f"member-{i}", self.world_state)
                        for i in range(cost_model.member_count)]
        genesis = Block(index=0, prev_hash=GENESIS_PREV_HASH, transactions=[])
        self.blocks: list[Block] = [genesis.seal()]
        self.stats = {"credentialed_requests": 0, "commits": 0, "denials": 0,
                      "verifies": 0}

    # -- identity ---------------------------------------------------------

    def enroll_admin(self, name: str) -> Credential:
        return self.ca.enroll_admin(name)

    def register_router(self, router_id: RouterId, admin: Credential) -> Credential:
        return self.ca.register_router(router_id, admin)

    def _require_credential(self, cred: Credential):
        if not self.ca.is_valid(cred):
            raise CredentialError(f"invalid credential for {cred.subject!r}")
        self.stats["credentialed_requests"] += 1

    # -- writes -----------------------------------------------------------

    def submit_authorization(self, prefix: str, asn: int, cred: Credential,
                             now: float = 0.0) -> CommitResult | Denial:
        check_asn(asn)
        record = LedgerRecord(prefix=str(prefix), asn=asn, active=True)
        return self._submit(KIND_REGISTER, record, cred, now)

    def submit_status_update(self, prefix: str, asn: int, active: bool,
                             cred: Credential, now: float = 0.0) -> CommitResult | Denial:
        check_asn(asn)
        record = LedgerRecord(prefix=str(prefix), asn=asn, active=active)
        return self._submit(KIND_UPDATE_STATUS, record, cred, now)

    def _submit(self, kind: str, record: LedgerRecord, cred: Credential,
                now: float) -> CommitResult | Denial:
        self._require_credential(cred)
        draft = Transaction(kind=kind, record=record, submitter=cred.subject,
                            submitter_asn=cred.asn, endorsements=(),
                            submitted_at=now)
        approvals = tuple(sorted(m.member_id for m in self.members
                                 if m.endorse(draft)))
        model = self.cost_model
        if len(approvals) < model.endorsements_required:
            # cost of a refused round: request plus the endorsement fan-out
            when = now + model.request_latency \
                + model.endorsements_required * model.endorse_latency
            verdict = chaincode_evaluate(draft, self.world_state)
            reason = verdict.reason if not verdict.approved else REASON_CONSENSUS_FAILURE
            self.stats["denials"] += 1
            return Denial(reason=reason, completed_at=when)
        tx = Transaction(kind, record, cred.subject, cred.asn, approvals, now)
        block = Block(index=len(self.blocks), prev_hash=self.blocks[-1].hash,
                      transactions=[tx]).seal()
        self.blocks.append(block)
        self.world_state.apply(tx)
        self.stats["commits"] += 1
        return CommitResult(block_index=block.index,
                            completed_at=now + model.authorization_cost())

    # -- reads ------------------------------------------------------------

    def query_verify(self, prefix: str, asn: int, cred: Credential,
                     now: float = 0.0) -> VerifyResult:
        """Answer valid/invalid/unknown from world state; no consensus."""
        self._require_credential(cred)
        check_asn(asn)
        self.stats["verifies"] += 1
        when = now + self.cost_model.verification_cost()
        record = self.world_state.get(str(prefix))
        if record is None or not record.active:
            return VerifyResult(VerificationSignal.UNKNOWN, when)
        if record.asn == asn:
            return VerifyResult(VerificationSignal.VALID, when)
        return VerifyResult(VerificationSignal.INVALID, when)

    # -- integrity ---------------------------------------------------------

    def verify_chain(self) -> Optional[int]:
        """Recheck every hash and link; None if intact, else first broken index.

        A chain without its genesis block is broken at index 0.
        """
        if not self.blocks:
            return 0
        for i, block in enumerate(self.blocks):
            if block.index != i:
                return i
            if i == 0:
                if block.prev_hash != GENESIS_PREV_HASH or block.transactions:
                    return 0
            elif block.prev_hash != self.blocks[i - 1].hash:
                return i
            if block.hash != block.compute_hash():
                return i
        return None

    @property
    def chain_length(self) -> int:
        return len(self.blocks)

    # -- export/import -------------------------------------------------------

    def dump(self) -> dict:
        return {
            "hash_algorithm": HASH_ALGORITHM,
            "member_count": self.cost_model.member_count,
            "version": self.world_state.version,
            "world_state": self.world_state.to_dict(),
            "blocks": [dict(b.body(), hash=b.hash) for b in self.blocks],
        }

    def to_json(self) -> str:
        """The dump as the JSON text that ``--dump-ledger`` writes.

        The bytes are those of ``json.dumps(self.dump(), sort_keys=True,
        indent=2) + "\n"``, but rendered straight from the blocks and the
        world state, keys in sorted order: CPython's encoder runs in pure
        Python when it indents, and makes a string per token of the dump.
        """
        out = ['{\n  "blocks": [']
        append = out.append
        sep = "\n    {\n"
        for block in self.blocks:
            append(f'{sep}      "hash": {_json_value(block.hash)},\n'
                   f'      "index": {_json_value(block.index)},\n'
                   f'      "prev_hash": {_json_value(block.prev_hash)},\n'
                   f'      "transactions": ')
            if block.transactions:
                tx_sep = "[\n"
                for tx in block.transactions:
                    append(tx_sep)
                    _append_transaction(append, tx)
                    tx_sep = ",\n"
                append("\n      ]\n    }")
            else:
                append("[]\n    }")
            sep = ",\n    {\n"
        append("\n  ],\n" if self.blocks else "],\n")
        append(f'  "hash_algorithm": {_json_value(HASH_ALGORITHM)},\n'
               f'  "member_count": {_json_value(self.cost_model.member_count)},\n'
               f'  "version": {_json_value(self.world_state.version)},\n'
               f'  "world_state": ')
        records = self.world_state.records
        sep = "{\n    "
        for prefix in sorted(records):
            append(f"{sep}{_json_value(prefix)}: ")
            append(_record_json(records[prefix], "      "))
            sep = ",\n    "
        append("\n  }\n}\n" if records else "{}\n}\n")
        return "".join(out)

    @classmethod
    def load(cls, doc: dict,
             cost_model: CostModel = CALIBRATED_COST) -> "ConsortiumLedger":
        """Rebuild a ledger by replaying a dump's blocks.

        Raises LedgerError for a dump of the wrong shape, a broken chain,
        a transaction that the chaincode denies against the state replayed
        before it or that lacks ``endorsements_required`` distinct member
        endorsements, and a member count or world state that disagrees
        with the blocks.
        """
        member_count, version, world_state, raw_blocks = _fields(doc, _DUMP_FIELDS,
                                                                  "the dump")
        if not raw_blocks:
            raise LedgerError("malformed dump: no genesis block")
        if member_count != cost_model.member_count:
            raise LedgerError(f"dump has {member_count} members, "
                              f"cost model has {cost_model.member_count}")
        ledger = cls(cost_model=cost_model)
        ledger.blocks = [_load_block(raw, i) for i, raw in enumerate(raw_blocks)]
        broken = ledger.verify_chain()
        if broken is not None:
            raise LedgerError(f"refusing to load broken chain at block {broken}")
        state = ledger.world_state
        members = {member.member_id for member in ledger.members}
        required = cost_model.endorsements_required
        for block in ledger.blocks:
            for tx in block.transactions:
                verdict = chaincode_evaluate(tx, state)
                if not verdict.approved:
                    raise LedgerError(f"block {block.index}: the chaincode denies "
                                      f"{tx.kind} of {tx.record.prefix!r} "
                                      f"({verdict.reason})")
                if len(members.intersection(tx.endorsements)) < required:
                    raise LedgerError(f"block {block.index}: fewer than {required} "
                                      f"member endorsements")
                state.apply(tx)
        if state.version != version or state.to_dict() != world_state:
            raise LedgerError("dump's world state disagrees with its blocks")
        return ledger


# A dump's fields with their types as ``json.loads`` gives them, each dict
# in the order of the constructor its values are passed to.
_DUMP_FIELDS = {"member_count": (int,), "version": (int,), "world_state": (dict,),
                "blocks": (list,)}
_BLOCK_FIELDS = {"index": (int,), "prev_hash": (str,), "transactions": (list,),
                 "hash": (str,)}
_TX_FIELDS = {"kind": (str,), "record": (dict,), "submitter": (str,),
              "submitter_asn": (int, type(None)), "endorsements": (list,),
              "submitted_at": (float, int)}
_RECORD_FIELDS = {"prefix": (str,), "asn": (int,), "doc_type": (str,),
                  "active": (bool,)}


def _fields(obj, spec: dict, what: str) -> list:
    """The values of spec's keys in obj; LedgerError if one is missing or mistyped."""
    if type(obj) is not dict:
        raise LedgerError(f"malformed dump: {what} is not an object")
    for key, kinds in spec.items():
        if key not in obj:
            raise LedgerError(f"malformed dump: {what} lacks {key!r}")
        if type(obj[key]) not in kinds:
            raise LedgerError(f"malformed dump: {what} has a "
                              f"{type(obj[key]).__name__} {key!r}")
    return [obj[key] for key in spec]


def _load_block(raw, position: int) -> Block:
    try:
        index, prev_hash, raw_txs, block_hash = _fields(raw, _BLOCK_FIELDS, "a block")
        return Block(index, prev_hash, [_load_transaction(t) for t in raw_txs],
                     block_hash)
    except LedgerError as exc:
        raise LedgerError(f"{exc} (block {position})") from None


def _load_transaction(raw) -> Transaction:
    kind, raw_record, submitter, submitter_asn, endorsements, submitted_at = \
        _fields(raw, _TX_FIELDS, "a transaction")
    if not all(type(member_id) is str for member_id in endorsements):
        raise LedgerError("malformed dump: an endorsement is not a string")
    record = LedgerRecord(*_fields(raw_record, _RECORD_FIELDS, "a record"))
    return Transaction(kind, record, submitter, submitter_asn, tuple(endorsements),
                       submitted_at)
