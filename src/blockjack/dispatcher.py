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
import math
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
DEFAULT_SCAN_INTERVAL = 1.0


class OriginEntry(NamedTuple):
    """One valid-best table row reduced to what the ledger cares about."""

    prefix: Prefix
    origin: int
    next_hop: RouterId


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
        return json.dumps(vars(self), sort_keys=True)


def scan(snapshot: list[dict], own_asn: int) -> tuple[set[OriginEntry], set[OriginEntry]]:
    """Partition valid+best snapshot rows into own-AS and external triples.

    Non-best rows contribute nothing; the origin is the AS-path tail,
    which for a locally originated row is the scanning AS itself.
    """
    roa_var: set[OriginEntry] = set()
    rov_var: set[OriginEntry] = set()
    for row in snapshot:
        if not (row["is_valid"] and row["is_best"]):
            continue
        origin = row["as_path"][-1]
        entry = OriginEntry(row["prefix"], origin, row["next_hop"])
        (roa_var if origin == own_asn else rov_var).add(entry)
    return roa_var, rov_var


class Dispatcher:
    """Monitor/sender/verifier loop for one home router.

    A prefix the ledger does not know (an UNKNOWN answer) is accepted:
    the paper's conservative approach towards non-participant ASes.
    """

    def __init__(self, sim: Simulation, gateway: Profiler, home: RouterId,
                 scan_interval: float = DEFAULT_SCAN_INTERVAL):
        # a chained comparison, which NaN fails as well as the infinities
        if not 0 < scan_interval < math.inf:
            raise ValueError(f"scan_interval must be positive and finite, "
                             f"got {scan_interval}")
        self.sim = sim
        self.gateway = gateway
        self.home = home
        self.scan_interval = scan_interval
        # triples seen at the last scan: own-AS (ROA) and neighbor-announced (ROV)
        self.roa_cache: set[OriginEntry] = set()
        self.rov_cache: set[OriginEntry] = set()
        self.registered: set[Prefix] = set()   # prefixes this agent ever added
        # the last tick's snapshot and its scan, reused while the table is unchanged
        self._snapshot: Optional[list[dict]] = None
        self._scanned: tuple[set[OriginEntry], set[OriginEntry]] = (set(), set())
        self.reports: list[DispatcherReport] = []
        self._filters_sent: set[tuple[RouterId, int]] = set()
        # callbacks fired when a filter actually lands: (rule, install_time)
        self.on_filter: list[Callable[[FilterRule, float], None]] = []

    # -- routines ---------------------------------------------------------

    def tick(self, t: float) -> DispatcherReport:
        """One scheduled pass: snapshot, scan, sender sync, verifier sync.

        A snapshot equal to the last tick's is not scanned again: its
        scan is reused.  Both syncs still run, so an entry whose request
        raised is retried while the table stays unchanged.
        """
        report = DispatcherReport(t=t, router=str(self.home))
        snapshot = self.sim.snapshot_table(self.home)
        if snapshot != self._snapshot:
            self._snapshot = snapshot
            self._scanned = scan(snapshot, self.home.asn)
        roa_var, rov_var = self._scanned
        self.sender_sync(roa_var, t, report)
        self.verifier_sync(rov_var, t, report)
        self.reports.append(report)
        return report

    def sender_sync(self, roa_var: set[OriginEntry], now: float,
                    report: DispatcherReport) -> None:
        """Push announcements/withdrawals of own prefixes to the ledger.

        Counts what it did in ``report``.  Leaves ``roa_var`` as it is;
        ``roa_cache`` becomes a new set.
        """
        next_entries = set(roa_var)
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
            else:
                report.adds += 1
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
        self.roa_cache = next_entries

    def verifier_sync(self, rov_var: set[OriginEntry], now: float,
                      report: DispatcherReport
                      ) -> list[tuple[OriginEntry, VerificationSignal, str]]:
        """Verify newly seen external triples; filter the invalid ones.

        Counts what it did in ``report`` and returns each verified
        triple's answer and action.  Leaves ``rov_var`` as it is;
        ``rov_cache`` becomes a new set.
        """
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
            if signal is not VerificationSignal.INVALID:
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
        if not math.isfinite(until):
            raise ValueError(f"until must be finite, got {until}")
        step = self.scan_interval
        k = 0
        while k * step <= until:
            self.sim.schedule(k * step, lambda t=k * step: self.tick(t))
            k += 1

    # -- internals ----------------------------------------------------------

    def _own_request(self, action: str, prefix: Prefix,
                     active: Optional[bool]) -> GatewayRequest:
        return GatewayRequest(action=action, prefix=prefix, asn=self.home.asn,
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
