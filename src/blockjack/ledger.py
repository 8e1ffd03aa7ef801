"""Permissioned consortium ledger for prefix ownership.

World state is the live prefix -> record table; every committed change
is also sealed into a hash-chained block log, so the history stays
tamper-evident.  Writes need endorsement from at least half of the
consortium members; reads go straight to world state.

Timing is simulated, not measured: every mutating call is billed the
full request + endorsement + distribution latency of the cost model,
and verification is billed the request leg only, so elapsed simulated
time reflects how expensive each pipeline is rather than host speed.

A ledger holds one record per committed transaction, so its record
types (records, transactions, blocks, credentials and results) are
slotted dataclasses: no instance has a ``__dict__``, and none takes an
attribute its class does not declare.  Each distinct endorser set is one
tuple per ledger, shared by every transaction it endorsed, whether
committed or replayed by ``load``; each block ``load`` rebuilds holds
the previous block's hash string as its ``prev_hash``, not a copy; and
``load`` compares a dump's world state with the replayed one record by
record, building no second copy.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .types import RouterId, check_asn, flag

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


@dataclass(frozen=True, slots=True)
class LedgerRecord:
    """The four-column ownership row held in world state."""

    prefix: str
    asn: int
    doc_type: str = DOC_TYPE
    active: bool = True

    def to_dict(self) -> dict:
        return {"prefix": self.prefix, "asn": self.asn,
                "doc_type": self.doc_type, "active": self.active}


@dataclass(frozen=True, slots=True)
class Credential:
    """Opaque bearer token bound to a subject (and its ASN, for routers),
    issued by ``CA_NAME``, which goes into its secret."""

    subject: str
    asn: Optional[int]
    secret: str


@dataclass(frozen=True, slots=True)
class Transaction:
    kind: str
    record: LedgerRecord
    submitter: str
    submitter_asn: Optional[int]
    endorsements: tuple[str, ...]
    submitted_at: float


@dataclass(slots=True)
class Block:
    index: int
    prev_hash: str
    transactions: list[Transaction]
    hash: str = ""

    def compute_hash(self) -> str:
        """The sha256 hex digest of the block's ``canonical_bytes``, rendered
        straight from its fields (see :func:`_canonical_block`)."""
        return hashlib.sha256(_canonical_block(self)).hexdigest()

    def seal(self) -> "Block":
        self.hash = self.compute_hash()
        return self


# json.dumps(obj, sort_keys=True, separators=(",", ":")), without building
# an encoder per call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_bytes(obj) -> bytes:
    """Field-ordered, length-prefixed serialization used for hashing.

    A block hashes this of ``{index, prev_hash, transactions}``, each
    transaction an object with its record and its list of endorsements.
    """
    payload = _CANONICAL_ENCODER.encode(obj).encode("utf-8")
    return len(payload).to_bytes(8, "big") + payload


_encode_str = json.encoder.encode_basestring_ascii


def _json_value(value) -> str:
    """One scalar as ``json.dumps`` and the canonical encoder both render it.

    Strings, ints, bools and finite floats take the C paths ``json``
    itself takes for them, and None is ``null``; NaN, the infinities and
    anything else go through the canonical encoder, so a block's hash
    text is exact for any value.  A container field, which ``load``
    never accepts, is thus rendered compact and key-sorted, in the dump
    as in the hash, and a tuple as a list: the dump's parse, ``dump()``,
    holds lists.
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
    if value is None:
        return "null"
    return _CANONICAL_ENCODER.encode(value)


def _record_labels(brk: str, colon: str) -> tuple[str, ...]:
    """The text around a record's four values, each key after ``brk``."""
    return (f'{{{brk}"active"{colon}', f',{brk}"asn"{colon}',
            f',{brk}"doc_type"{colon}', f',{brk}"prefix"{colon}', f'{brk[:-2]}}}')


def _record_text(record: LedgerRecord, labels: tuple[str, ...]) -> str:
    """A record as a JSON object, around ``labels`` from :func:`_record_labels`."""
    active, asn, doc_type, prefix, close = labels
    return (f'{active}{_json_value(record.active)}{asn}{_json_value(record.asn)}'
            f'{doc_type}{_json_value(record.doc_type)}'
            f'{prefix}{_json_value(record.prefix)}{close}')


class _Layout:
    """One JSON layout of a block: the text between its values, built once.

    ``brk`` comes before each key of a block and ``colon`` after it, keys
    in sorted order.  ``brk=""`` and ``colon=":"`` give the compact text
    that is hashed; a newline plus the keys' indent and ``": "`` give the
    text of ``json.dumps(..., indent=2)``, each level two spaces deeper
    and closed two spaces out.  A render only puts values between labels.
    """

    __slots__ = ("block", "tx", "tx_record", "record")

    def __init__(self, brk: str, colon: str):
        step = brk and "  "
        item = brk + step  # a transaction in the block's list
        key = item + step  # a transaction's keys
        inner = key + step  # its endorsements and its record's keys
        close = f"{brk[:-2]}}}"
        self.block = (f'{brk}"index"{colon}', f',{brk}"prev_hash"{colon}',
                      f',{brk}"transactions"{colon}[', f"{brk}]{close}", f"]{close}")
        self.tx = (f'{item}{{{key}"endorsements"{colon}[', inner, "," + inner, key,
                   f'],{key}"kind"{colon}', f',{key}"record"{colon}',
                   f',{key}"submitted_at"{colon}', f',{key}"submitter"{colon}',
                   f',{key}"submitter_asn"{colon}', f"{item}}}")
        self.tx_record = _record_labels(inner, colon)
        self.record = _record_labels(brk, colon)  # a world-state record


_DUMP_BREAK = "\n      "  # before the keys of a block and of a world-state record
_HASHED = _Layout("", ":")
_DUMPED = _Layout(_DUMP_BREAK, ": ")


def _block_text(block: Block, layout: _Layout, head: str = "") -> str:
    """A block as a JSON object in ``layout``.

    ``head``, written first, is the dump's ``"hash"`` entry.
    """
    index, prev_hash, transactions, close, close_empty = layout.block
    (open_tx, inner, id_sep, key, kind, record, submitted_at, submitter,
     submitter_asn, close_tx) = layout.tx
    record_labels = layout.tx_record
    txs = ""
    for tx in block.transactions:
        try:  # member ids, so strings, which the C encoder takes whole
            ids = id_sep.join(map(_encode_str, tx.endorsements))
        except TypeError:  # a hand-built list holding anything else
            ids = id_sep.join(map(_json_value, tx.endorsements))
        txs += (f'{txs and ","}{open_tx}{ids and inner}{ids}{ids and key}'
                f'{kind}{_json_value(tx.kind)}'
                f'{record}{_record_text(tx.record, record_labels)}'
                f'{submitted_at}{_json_value(tx.submitted_at)}'
                f'{submitter}{_json_value(tx.submitter)}'
                f'{submitter_asn}{_json_value(tx.submitter_asn)}{close_tx}')
    return (f'{{{head}{index}{_json_value(block.index)}'
            f'{prev_hash}{_json_value(block.prev_hash)}'
            f'{transactions}{txs}{close if txs else close_empty}')


def _canonical_block(block: Block) -> bytes:
    """``canonical_bytes`` of the block's ``{index, prev_hash, transactions}``
    document, rendered from the block's fields."""
    payload = _block_text(block, _HASHED).encode("utf-8")
    return len(payload).to_bytes(8, "big") + payload


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


def chaincode_evaluate(tx: Transaction, state: WorldState) -> Optional[str]:
    """The deterministic contract every member runs before endorsing.

    Registration passes on a free prefix or when re-activating an
    inactive record of the same owner; a status update passes only
    against an existing record of the same owner.  Never mutates state.
    Returns None when the transaction passes, else the denial reason.
    """
    if tx.submitter_asn != tx.record.asn:
        return REASON_CREDENTIAL_MISMATCH
    existing = state.get(tx.record.prefix)
    if tx.kind == KIND_REGISTER:
        if existing is None:
            return None
        if not existing.active and existing.asn == tx.record.asn:
            return None  # re-activation path
        return REASON_CONFLICT
    if tx.kind == KIND_UPDATE_STATUS:
        if existing is None:
            return REASON_NOT_FOUND
        if existing.asn != tx.record.asn:
            return REASON_CREDENTIAL_MISMATCH
        return None
    return REASON_CONFLICT


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
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not isinstance(self.member_count, int) or isinstance(self.member_count, bool):
            raise TypeError(f"member_count must be an integer, got {self.member_count!r}")
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


@dataclass(frozen=True, slots=True)
class CommitResult:
    block_index: int
    completed_at: float


@dataclass(frozen=True, slots=True)
class Denial:
    reason: str
    completed_at: float


@dataclass(frozen=True, slots=True)
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
        return chaincode_evaluate(tx, self.world_state) is None


class ConsortiumLedger:
    """The ordering point: credentials, endorsement, block commit, and queries.

    All mutations are serialized through this object; concurrent
    submitters must queue in arrival order.
    """

    def __init__(self, cost_model: CostModel = CALIBRATED_COST):
        self.cost_model = cost_model
        # the one record of who holds which credential, in issue order
        self._issued: dict[str, Credential] = {}
        self.world_state = WorldState()
        self.members = [ConsortiumMember(f"member-{i}", self.world_state)
                        for i in range(cost_model.member_count)]
        genesis = Block(index=0, prev_hash=GENESIS_PREV_HASH, transactions=[])
        self.blocks: list[Block] = [genesis.seal()]
        # one tuple per distinct endorser set, shared by every transaction
        # it endorsed, so commits by the same members hold no copies
        self._endorser_sets: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.stats = {"credentialed_requests": 0, "commits": 0, "denials": 0,
                      "verifies": 0}

    # -- identity ---------------------------------------------------------

    def _mint(self, subject: str, asn: Optional[int]) -> Credential:
        if subject in self._issued:
            raise CredentialError(f"subject already enrolled: {subject}")
        serial = len(self._issued) + 1
        secret = hashlib.sha256(
            f"{CA_NAME}|{subject}|{serial}".encode()).hexdigest()
        cred = Credential(subject=subject, asn=asn, secret=secret)
        self._issued[subject] = cred
        return cred

    def enroll_admin(self, name: str) -> Credential:
        """An admin credential for ``name``, which must be text and not
        router text: an admin named ``64512.0`` would hold that router's
        subject, so the router could never register."""
        if type(name) is not str:
            raise TypeError(f"admin name must be text, got {name!r}")
        if _router_asn(name) is not None:
            raise ValueError(f"admin name is router text: {name!r}")
        return self._mint(name, None)

    def register_router(self, router_id: RouterId, admin: Credential) -> Credential:
        if not self.is_valid(admin) or admin.asn is not None:
            raise CredentialError("router registration requires a valid admin credential")
        return self._mint(str(router_id), router_id.asn)

    def is_valid(self, cred: Credential) -> bool:
        """True only for the very credential issued to its subject, ASN
        included, so a router cannot relabel its own to act for another AS."""
        return self._issued.get(cred.subject) == cred

    def _require_credential(self, cred: Credential):
        if not self.is_valid(cred):
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
        record = LedgerRecord(prefix=str(prefix), asn=asn, active=flag(active, "active"))
        return self._submit(KIND_UPDATE_STATUS, record, cred, now)

    def _submit(self, kind: str, record: LedgerRecord, cred: Credential,
                now: float) -> CommitResult | Denial:
        _check_time(now)  # stored as given, so it must be a value ``load`` takes back
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
            reason = chaincode_evaluate(draft, self.world_state) or REASON_CONSENSUS_FAILURE
            self.stats["denials"] += 1
            return Denial(reason=reason, completed_at=when)
        approvals = self._endorser_sets.setdefault(approvals, approvals)
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
        _check_time(now)
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
        """The dump file's document: ``to_json()`` parsed, which ``load`` takes."""
        return json.loads(self.to_json())

    def to_json(self) -> str:
        """The dump as the JSON text that ``--dump-ledger`` writes: the
        ledger's one record format, of which ``dump()`` is the parse.

        Keys are sorted and indented as by ``json.dumps(..., sort_keys=True,
        indent=2)``, but the text is rendered straight from the blocks, by
        their hash renderer, and the world state: CPython's encoder runs in
        pure Python when it indents, and makes a string per token.

        The text grows in one local string, one block or record at a
        time.  CPython appends to a string that only a local names in
        place, so beside the result just one block's text is alive, and a
        dump peaks at about 1x its size, where a list of the pieces and a
        join need about 2x.  CPython 3.11 skips the in-place append while
        a profiler or tracer is set, and each append then copies all the
        text before it.
        """
        text = '{\n  "blocks": ['
        sep = "\n    "
        for block in self.blocks:
            text += sep
            text += _block_text(block, _DUMPED,
                                f'{_DUMP_BREAK}"hash": {_json_value(block.hash)},')
            sep = ",\n    "
        text += "\n  ],\n" if self.blocks else "],\n"
        text += (f'  "hash_algorithm": {_json_value(HASH_ALGORITHM)},\n'
                 f'  "member_count": {_json_value(self.cost_model.member_count)},\n'
                 f'  "version": {_json_value(self.world_state.version)},\n'
                 f'  "world_state": ')
        records, labels = self.world_state.records, _DUMPED.record
        sep = "{\n    "
        for prefix in sorted(records):
            text += f"{sep}{_json_value(prefix)}: "
            text += _record_text(records[prefix], labels)
            sep = ",\n    "
        text += "\n  }\n}\n" if records else "{}\n}\n"
        return text

    @classmethod
    def load(cls, doc: dict,
             cost_model: CostModel = CALIBRATED_COST) -> "ConsortiumLedger":
        """Rebuild a ledger by replaying a dump's blocks.

        Raises LedgerError for a dump of the wrong shape or with a hash
        algorithm other than sha256, a ``submitted_at`` that writes refuse
        (NaN, an infinity, an int beyond the float range), a broken
        chain, a transaction that the chaincode denies against the state
        replayed before it, that lacks ``endorsements_required`` distinct
        member endorsements or whose ``submitter`` is not router text of
        its ``submitter_asn``, and a member count or world state that
        disagrees with the blocks (a world-state field of another JSON
        type, such as ``1`` for ``true``, included).
        """
        algorithm, member_count, version, world_state, raw_blocks = \
            _fields(doc, _DUMP_FIELDS, "the dump")
        if algorithm != HASH_ALGORITHM:
            raise LedgerError(f"malformed dump: hash algorithm {algorithm!r}, "
                              f"expected {HASH_ALGORITHM!r}")
        if not raw_blocks:
            raise LedgerError("malformed dump: no genesis block")
        if member_count != cost_model.member_count:
            raise LedgerError(f"dump has {member_count} members, "
                              f"cost model has {cost_model.member_count}")
        ledger = cls(cost_model=cost_model)
        shared = ledger._endorser_sets
        ledger.blocks = [_load_block(raw, i, shared) for i, raw in enumerate(raw_blocks)]
        broken = ledger.verify_chain()
        if broken is not None:
            raise LedgerError(f"refusing to load broken chain at block {broken}")
        # equal, so each link can hold the previous block's hash string itself
        for previous, block in zip(ledger.blocks, ledger.blocks[1:]):
            block.prev_hash = previous.hash
        state = ledger.world_state
        members = {member.member_id for member in ledger.members}
        required = cost_model.endorsements_required
        submitter_asns: dict[str, Optional[int]] = {}
        for block in ledger.blocks:
            for tx in block.transactions:
                reason = chaincode_evaluate(tx, state)
                if reason is not None:
                    raise LedgerError(f"block {block.index}: the chaincode denies "
                                      f"{tx.kind} of {tx.record.prefix!r} ({reason})")
                if len(members.intersection(tx.endorsements)) < required:
                    raise LedgerError(f"block {block.index}: fewer than {required} "
                                      f"member endorsements")
                if tx.submitter not in submitter_asns:
                    submitter_asns[tx.submitter] = _router_asn(tx.submitter)
                if submitter_asns[tx.submitter] != tx.submitter_asn:
                    raise LedgerError(f"block {block.index}: submitter "
                                      f"{tx.submitter!r} is not a router of AS "
                                      f"{tx.submitter_asn}")
                state.apply(tx)
        # record by record, so no second copy of the world state is built;
        # == alone takes 1 and 1.0 for true and 10.0 for 10, so the JSON
        # types of the ASN and the flag are checked too
        records = state.records
        if (state.version != version or len(world_state) != len(records)
                or any((raw := world_state.get(prefix)) != record.to_dict()
                       or type(raw["asn"]) is not int
                       or raw["active"] is not record.active
                       for prefix, record in records.items())):
            raise LedgerError("dump's world state disagrees with its blocks")
        return ledger


# A dump's fields with their types as ``json.loads`` gives them, each dict
# in the order of the constructor its values are passed to.
_DUMP_FIELDS = {"hash_algorithm": (str,), "member_count": (int,), "version": (int,),
                "world_state": (dict,), "blocks": (list,)}
_BLOCK_FIELDS = {"index": (int,), "prev_hash": (str,), "transactions": (list,),
                 "hash": (str,)}
_TX_FIELDS = {"kind": (str,), "record": (dict,), "submitter": (str,),
              "submitter_asn": (int, type(None)), "endorsements": (list,),
              "submitted_at": (float, int)}
_RECORD_FIELDS = {"prefix": (str,), "asn": (int,), "doc_type": (str,),
                  "active": (bool,)}
# The largest request time: each time up to it has a float and a JSON form.
_MAX_TIME = sys.float_info.max


def _check_time(now) -> None:
    """Refuse a request time that is not a finite int or float, before any count."""
    if type(now) not in _TX_FIELDS["submitted_at"]:
        raise TypeError(f"now must be an int or a float, got {now!r}")
    # false for NaN as well as for the infinities and larger ints
    if not abs(now) <= _MAX_TIME:
        raise ValueError(f"now must be finite, got {now}")


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


def _router_asn(text: str) -> Optional[int]:
    """The ASN of ``asn.index`` router text, or None for any other text."""
    try:
        return RouterId.parse(text).asn
    except ValueError:
        return None


def _load_block(raw, position: int, endorser_sets: dict) -> Block:
    try:
        index, prev_hash, raw_txs, block_hash = _fields(raw, _BLOCK_FIELDS, "a block")
        return Block(index, prev_hash,
                     [_load_transaction(t, endorser_sets) for t in raw_txs], block_hash)
    except LedgerError as exc:
        raise LedgerError(f"{exc} (block {position})") from None


def _load_transaction(raw, endorser_sets: dict) -> Transaction:
    """A transaction, its endorsements the tuple ``endorser_sets`` holds for them."""
    kind, raw_record, submitter, submitter_asn, endorsements, submitted_at = \
        _fields(raw, _TX_FIELDS, "a transaction")
    if not all(type(member_id) is str for member_id in endorsements):
        raise LedgerError("malformed dump: an endorsement is not a string")
    try:  # the times writes take, so a loaded ledger dumps as JSON
        _check_time(submitted_at)
    except ValueError:
        raise LedgerError("malformed dump: a transaction's submitted_at is not "
                          "finite") from None
    record = LedgerRecord(*_fields(raw_record, _RECORD_FIELDS, "a record"))
    try:
        check_asn(record.asn)
    except ValueError as exc:
        raise LedgerError(f"malformed dump: a record's {exc}") from None
    endorsements = tuple(endorsements)
    return Transaction(kind, record, submitter, submitter_asn,
                       endorser_sets.setdefault(endorsements, endorsements), submitted_at)
