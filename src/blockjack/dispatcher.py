"""The per-router agent that keeps the routing table honest.

On its own clock, independent of routing-plane signaling, the
dispatcher snapshots its home router's table, reduces valid+best rows
to (prefix, origin, next hop) triples, and diffs them against two local
caches: internally originated prefixes are pushed to the ledger
(authorization), externally learned ones are checked against it
(verification).  An invalid answer turns into an inbound filter against
the contributing neighbor for the offending origin AS.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .bgp import FilterRule, Simulation
from .profiler import (
    ACTION_ADD,
    ACTION_UPDATE,
    ACTION_VERIFY,
    GatewayRequest,
    Profiler,
)
from .ledger import CommitResult, VerificationSignal
from .types import Prefix, RouterId

log = logging.getLogger(__name__)

ACCEPT = "accept"
FILTER = "filter"


class OriginEntry(NamedTuple):
    """One valid-best table row reduced to what the ledger cares about."""

    prefix: Prefix
    origin: int
    next_hop: RouterId


@dataclass
class DispatcherConfig:
    home_router: RouterId
    scan_interval: float = 1.0
    treat_unknown_as_valid: bool = True

    def __post_init__(self):
        if self.scan_interval <= 0:
            raise ValueError("scan_interval must be positive")


@dataclass
class DispatcherReport:
    """Per-tick activity summary, serialized as one JSON line."""

    t: float
    router: str
    verifies: int = 0
    adds: int = 0
    status_updates: int = 0
    filters: list[dict] = field(default_factory=list)
    errors: int = 0

    def to_json_line(self) -> str:
        return json.dumps({
            "t": self.t, "router": self.router, "verifies": self.verifies,
            "adds": self.adds, "status_updates": self.status_updates,
            "filters": self.filters, "errors": self.errors,
        }, sort_keys=True)


def scan(snapshot: list[dict], own_asn: int) -> tuple[set[OriginEntry], set[OriginEntry]]:
    """Partition valid+best snapshot rows into own-AS and external triples.

    Non-best rows contribute nothing; the origin is the AS-path tail
    (or the scanning AS itself for a locally originated row).
    """
    roa_var: set[OriginEntry] = set()
    rov_var: set[OriginEntry] = set()
    for row in snapshot:
        if not (row["is_valid"] and row["is_best"]):
            continue
        path = row["as_path"]
        origin = path[-1] if path else own_asn
        entry = OriginEntry(row["prefix"], origin, row["next_hop"])
        (roa_var if origin == own_asn else rov_var).add(entry)
    return roa_var, rov_var


class Dispatcher:
    """Monitor/sender/verifier loop for one home router."""

    def __init__(self, sim: Simulation, gateway: Profiler, config: DispatcherConfig):
        self.sim = sim
        self.gateway = gateway
        self.config = config
        self.home = config.home_router
        self.own_asn = config.home_router.asn
        # triples seen at the last scan: own-AS (ROA) and neighbor-announced (ROV)
        self.roa_cache: set[OriginEntry] = set()
        self.rov_cache: set[OriginEntry] = set()
        self.registered: set[Prefix] = set()   # prefixes this agent ever added
        self.reports: list[DispatcherReport] = []
        self._filters_sent: set[tuple[RouterId, int]] = set()
        # callbacks fired when a filter actually lands: (rule, install_time)
        self.on_filter: list[Callable[[FilterRule, float], None]] = []

    # -- routines ---------------------------------------------------------

    def tick(self, t: float) -> DispatcherReport:
        """One scheduled pass: snapshot, scan, sender sync, verifier sync."""
        report = DispatcherReport(t=t, router=str(self.home))
        snapshot = self.sim.snapshot_table(self.home)
        roa_var, rov_var = scan(snapshot, self.own_asn)
        self.sender_sync(roa_var, t, report)
        self.verifier_sync(rov_var, t, report)
        self.reports.append(report)
        return report

    def sender_sync(self, roa_var: set[OriginEntry], now: float,
                    report: Optional[DispatcherReport] = None) -> list[tuple[OriginEntry, str]]:
        """Push announcements/withdrawals of own prefixes to the ledger."""
        report = report if report is not None else DispatcherReport(now, str(self.home))
        next_entries = set(roa_var)
        actions: list[tuple[OriginEntry, str]] = []
        for entry in sorted(roa_var - self.roa_cache):
            known = entry.prefix in self.registered
            req = self._own_request(ACTION_UPDATE if known else ACTION_ADD,
                                    entry.prefix, active=True if known else None)
            try:
                result = self.gateway.handle_request(req, now=now)
            except Exception as exc:  # noqa: BLE001 - retried next tick
                log.debug("sender error for %s: %s", entry, exc)
                report.errors += 1
                next_entries.discard(entry)
                continue
            if known:
                report.status_updates += 1
                actions.append((entry, "reactivate"))
            else:
                report.adds += 1
                actions.append((entry, "add"))
                if isinstance(result, CommitResult):
                    self.registered.add(entry.prefix)
        for entry in sorted(self.roa_cache - roa_var):
            req = self._own_request(ACTION_UPDATE, entry.prefix, active=False)
            try:
                self.gateway.handle_request(req, now=now)
            except Exception as exc:  # noqa: BLE001
                log.debug("sender withdrawal error for %s: %s", entry, exc)
                report.errors += 1
                next_entries.add(entry)  # still owed; retry next tick
                continue
            report.status_updates += 1
            actions.append((entry, "deactivate"))
        self.roa_cache = next_entries
        return actions

    def verifier_sync(self, rov_var: set[OriginEntry], now: float,
                      report: Optional[DispatcherReport] = None
                      ) -> list[tuple[OriginEntry, VerificationSignal, str]]:
        """Verify newly seen external triples; filter the invalid ones."""
        report = report if report is not None else DispatcherReport(now, str(self.home))
        next_entries = set(rov_var)
        results = []
        for entry in sorted(rov_var - self.rov_cache):
            req = GatewayRequest(action=ACTION_VERIFY, prefix=entry.prefix,
                                 asn=entry.origin, claimed_router=self.home)
            try:
                answer = self.gateway.handle_request(req, now=now)
            except Exception as exc:  # noqa: BLE001 - retried next tick
                log.debug("verifier error for %s: %s", entry, exc)
                report.errors += 1
                next_entries.discard(entry)
                continue
            report.verifies += 1
            signal = answer.signal
            accepted = signal is VerificationSignal.VALID or (
                signal is VerificationSignal.UNKNOWN
                and self.config.treat_unknown_as_valid)
            if accepted:
                results.append((entry, signal, ACCEPT))
                continue
            rule = FilterRule(neighbor=entry.next_hop, deny_origin=entry.origin,
                              deny_prefix=entry.prefix)
            self._emit_filter(rule, answer.completed_at, report)
            results.append((entry, signal, FILTER))
        self.rov_cache = next_entries
        return results

    def schedule_ticks(self, until: float):
        """Queue ticks at every multiple of the scan interval up to `until`."""
        step = self.config.scan_interval
        k = 0
        while k * step <= until:
            self.sim.schedule(k * step, lambda t=k * step: self.tick(t))
            k += 1

    # -- internals ----------------------------------------------------------

    def _own_request(self, action: str, prefix: Prefix,
                     active: Optional[bool]) -> GatewayRequest:
        return GatewayRequest(action=action, prefix=prefix, asn=self.own_asn,
                              claimed_router=self.home, active=active)

    def _emit_filter(self, rule: FilterRule, when: float, report: DispatcherReport):
        key = (rule.neighbor, rule.deny_origin)
        if key in self._filters_sent:
            return
        self._filters_sent.add(key)
        report.filters.append({"prefix": str(rule.deny_prefix),
                               "origin": rule.deny_origin,
                               "neighbor": str(rule.neighbor)})

        def install():
            self.sim.install_inbound_filter(self.home, rule)
            at = self.sim.clock.now
            for callback in self.on_filter:
                callback(rule, at)

        self.sim.schedule(max(when, self.sim.clock.now), install)
