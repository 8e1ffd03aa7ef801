"""Gateway between dispatchers and the ledger.

The profiler keeps each enrolled router's credential, also saved in its
wallet of credentials.  Every request is authenticated against the
claimed router's credential, equipped with it, and forwarded to the
matching ledger operation.  Ownership-changing actions must claim the
caller's own ASN; verification may ask about any ASN.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .ledger import (
    CommitResult,
    ConsortiumLedger,
    Credential,
    Denial,
    VerifyResult,
)
from .types import Prefix, RouterId, check_asn

ACTION_ADD = "add_prefix"
ACTION_UPDATE = "update_status"
ACTION_VERIFY = "verify"
ACTIONS = (ACTION_ADD, ACTION_UPDATE, ACTION_VERIFY)


class AuthenticationError(Exception):
    """Request rejected before it ever reaches the ledger."""


@dataclass(frozen=True)
class GatewayRequest:
    """One gateway call; `active` is meaningful for update_status only."""

    action: str
    prefix: Prefix
    asn: int
    claimed_router: RouterId
    active: Optional[bool] = None

    def __post_init__(self):
        if self.action not in ACTIONS:
            raise ValueError(f"unknown action: {self.action}")
        check_asn(self.asn)
        if self.action == ACTION_UPDATE and self.active is None:
            raise ValueError("update_status requires 'active'")

    @classmethod
    def from_payload(cls, action: str, payload: dict) -> "GatewayRequest":
        """Shared wire codec for the in-process and HTTP bindings."""
        return cls(action=action,
                   prefix=Prefix.parse(payload["prefix"]),
                   asn=check_asn(int(payload["asn"])),
                   claimed_router=RouterId.parse(payload["router_id"]),
                   active=None if "active" not in payload else bool(payload["active"]))

    def to_payload(self) -> dict:
        payload = {"prefix": str(self.prefix), "asn": self.asn,
                   "router_id": str(self.claimed_router)}
        if self.active is not None:
            payload["active"] = self.active
        return payload


class Wallet:
    """Credential store keyed by subject name; exact-match lookups."""

    def __init__(self):
        self.entries: dict[str, Credential] = {}

    def put(self, cred: Credential):
        self.entries[cred.subject] = cred

    def get(self, subject: str) -> Credential:
        try:
            return self.entries[subject]
        except KeyError:
            raise AuthenticationError(f"no credential in wallet for {subject!r}") from None

    def __contains__(self, subject: str) -> bool:
        return subject in self.entries

    def save(self, path) -> None:
        doc = {subject: {"subject": c.subject, "asn": c.asn, "secret": c.secret,
                         "issued_by": c.issued_by}
               for subject, c in sorted(self.entries.items())}
        Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Wallet":
        wallet = cls()
        for entry in json.loads(Path(path).read_text()).values():
            wallet.put(Credential(**entry))
        return wallet


class Profiler:
    """Authenticating gateway; stateless apart from profiles and wallet.

    A router's profile is its credential: the credential's ``asn`` is the
    AS the router may act for, and its ``subject`` is the wallet key.
    """

    def __init__(self, ledger: ConsortiumLedger):
        self.ledger = ledger
        self.wallet = Wallet()
        self.profiles: dict[RouterId, Credential] = {}
        self.stats = {"forwarded": 0, "rejected": 0}

    def enroll_admin(self, name: str) -> Credential:
        cred = self.ledger.enroll_admin(name)
        self.wallet.put(cred)
        return cred

    def create_router_profile(self, router_id: RouterId, admin: Credential) -> Credential:
        """Register the router with the ledger's CA; returns its credential."""
        if router_id in self.profiles:
            raise AuthenticationError(f"profile already exists for {router_id}")
        cred = self.ledger.register_router(router_id, admin)
        self.wallet.put(cred)
        self.profiles[router_id] = cred
        return cred

    def authenticate_request(self, req: GatewayRequest) -> Credential:
        """Resolve the caller's credential, or refuse the request.

        add/update must claim the credential's own ASN; verify may query
        any ASN (verification is cross-AS by design).
        """
        cred = self.profiles.get(req.claimed_router)
        if cred is None:
            self.stats["rejected"] += 1
            raise AuthenticationError(f"unknown router {req.claimed_router}")
        if req.action in (ACTION_ADD, ACTION_UPDATE) and req.asn != cred.asn:
            self.stats["rejected"] += 1
            raise AuthenticationError(
                f"{req.claimed_router} may not act for AS{req.asn}")
        return cred

    def handle_request(self, req: GatewayRequest,
                       now: float = 0.0) -> CommitResult | Denial | VerifyResult:
        """Authenticate, attach the credential, forward, return verbatim.

        The ledger's cost model bills the request leg, so the returned
        completion stamps already include the gateway latency.
        """
        cred = self.authenticate_request(req)
        self.stats["forwarded"] += 1
        prefix = str(req.prefix)
        if req.action == ACTION_ADD:
            return self.ledger.submit_authorization(prefix, req.asn, cred, now=now)
        if req.action == ACTION_UPDATE:
            return self.ledger.submit_status_update(prefix, req.asn, req.active,
                                                    cred, now=now)
        return self.ledger.query_verify(prefix, req.asn, cred, now=now)
