"""Attack scenarios end to end: build, inject, measure, emit.

A scenario wires one simulated network to one fresh ledger (genesis
only) through a gateway, parks the dispatcher on the monitored router,
pre-registers every victim prefix to its true owner, then lets the
adversaries originate those same prefixes mid-run.  Per attack we
record when the hijacked route first won valid-best at the monitored
router (prepending done) and when the responding filter left the table
clean again (neutralized).
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from typing import Optional

from .bgp import DEFAULT_LINK_DELAY, DEFAULT_MARI, FilterRule, Route, Simulation
from .dispatcher import DEFAULT_SCAN_INTERVAL, Dispatcher
from .ledger import CALIBRATED_COST, CommitResult, ConsortiumLedger, CostModel
from .profiler import ACTION_ADD, GatewayRequest, Profiler
from .topology import (DEFAULT_CONNECTIVITY, DEFAULT_CONNECTIVITY_AT, KINDS,
                       ScenarioTopology, gen_topology)
from .types import Prefix, RouterId

HOME_PREFIX = Prefix.parse("203.0.113.0/24")

CSV_HEADER = ["scenario", "routers", "seed", "trial", "prefix", "adversary",
              "prepend_s", "neutralize_s", "paths_filtered", "no_impact"]


class ScenarioError(Exception):
    pass


@dataclass
class ScenarioConfig:
    kind: str
    routers: int = 20
    connectivity: Optional[float] = None   # random only; resolved below
    adversarial_prefixes: int = 5
    seed: int = 1
    duration: float = 600.0
    mari: float = DEFAULT_MARI
    scan_interval: float = DEFAULT_SCAN_INTERVAL
    link_delay: float = DEFAULT_LINK_DELAY
    cost_model: CostModel = field(default_factory=lambda: CALIBRATED_COST)
    attack_at: Optional[float] = None      # default: mid-run

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ScenarioError(f"unknown scenario kind: {self.kind}")
        for name in ("routers", "adversarial_prefixes", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ScenarioError(f"{name} must be an integer, got {value!r}")
        if self.routers < 3:
            raise ScenarioError(f"need at least 3 routers, got {self.routers}")
        if self.adversarial_prefixes < 1:
            raise ScenarioError("need at least one adversarial prefix")
        for name in ("duration", "mari", "scan_interval", "link_delay", "attack_at",
                     "connectivity"):
            value = getattr(self, name)
            if value is None and name in ("attack_at", "connectivity"):
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ScenarioError(f"{name} must be a number, got {value!r}")
        # chained comparisons, which NaN fails as well as the infinities
        for name in ("duration", "mari", "scan_interval"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ScenarioError(f"{name} must be positive and finite, got {value}")
        for name in ("link_delay", "attack_at"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ScenarioError(f"{name} must be finite and >= 0, got {value}")

    @property
    def resolved_connectivity(self) -> float:
        if self.connectivity is not None:
            return self.connectivity
        return DEFAULT_CONNECTIVITY_AT.get(self.routers, DEFAULT_CONNECTIVITY)

    @property
    def resolved_attack_at(self) -> float:
        return self.duration / 2 if self.attack_at is None else self.attack_at


@dataclass
class AttackRecord:
    prefix: Prefix
    true_owner: int
    adversary: int
    injected_at: float
    first_best_at: Optional[float] = None
    neutralized_at: Optional[float] = None
    paths_filtered: int = 0

    @property
    def no_impact(self) -> bool:
        return self.first_best_at is None

    @property
    def prepend_time(self) -> Optional[float]:
        if self.first_best_at is None:
            return None
        return self.first_best_at - self.injected_at

    @property
    def neutralize_time(self) -> Optional[float]:
        if self.neutralized_at is None or self.first_best_at is None:
            return None
        return self.neutralized_at - self.first_best_at


@dataclass
class Appearance:
    """One adversarial valid-best episode at the monitored router."""

    start: float
    prefix: Prefix
    origin: int
    next_hop: RouterId
    end: Optional[float] = None


@dataclass
class ScenarioMetrics:
    config: ScenarioConfig
    records: list[AttackRecord]
    end_state_safe: bool
    collateral_ok: bool
    ledger: ConsortiumLedger
    reports: list[str] = field(default_factory=list)
    appearances: list[Appearance] = field(default_factory=list)
    filter_installs: list[tuple[float, FilterRule]] = field(default_factory=list)

    @property
    def topology_doc(self) -> dict:
        """The run's topology document, generated again from its config.

        Built on read, not during the run, so a caller that never reads
        it never holds a dict per link beside the live routing plane.
        """
        return scenario_topology(self.config).document()

    @functools.cached_property
    def ledger_dump(self) -> dict:
        """The run's ledger dump document, the parsed ``ledger.to_json()``,
        built on the first read and kept."""
        return self.ledger.dump()

    @property
    def attack_count(self) -> int:
        """Adversarial valid-best episodes at the monitored router."""
        return len(self.appearances)

    @property
    def needs_reseed(self) -> bool:
        """No attack reached the monitored router, so the run shows nothing."""
        return all(r.no_impact for r in self.records)

    @property
    def impactful(self) -> list[AttackRecord]:
        return [r for r in self.records if not r.no_impact]

    @property
    def all_impactful_neutralized(self) -> bool:
        return all(r.neutralized_at is not None for r in self.impactful)


class AttackMonitor:
    """Times adversarial takeovers and filter responses at one router.

    Keeps the clock and the home router, not the simulation, which holds
    this monitor's callback: a finished scenario then frees itself by
    reference counting, without waiting for the cyclic collector.
    """

    def __init__(self, sim: Simulation, home: RouterId):
        self.clock = sim.clock
        self.router = sim.routers[home]
        self.home = home
        self.records: dict[Prefix, AttackRecord] = {}
        self.appearance_events: list[Appearance] = []
        self.filter_events: list[tuple[float, FilterRule]] = []
        self._live: dict[Prefix, Appearance] = {}
        sim.on_best_change.append(self._best_changed)

    def watch(self, record: AttackRecord):
        self.records[record.prefix] = record

    def on_filter(self, rule: FilterRule, at: float):
        self.filter_events.append((at, rule))
        for record in self.records.values():
            if record.adversary != rule.deny_origin:
                continue
            if record.prefix == rule.deny_prefix:
                record.paths_filtered += 1
            self._maybe_stamp(record, at)

    def _best_changed(self, rid: RouterId, prefix: Prefix,
                      old: Optional[Route], new: Optional[Route]):
        if rid != self.home:
            return
        record = self.records.get(prefix)
        if record is None:
            return
        now = self.clock.now
        was = old is not None and old.origin == record.adversary
        is_now = new is not None and new.origin == record.adversary
        if is_now:
            if not (was and old.next_hop == new.next_hop):
                self._close_live(prefix, now)
                episode = Appearance(start=now, prefix=prefix,
                                     origin=record.adversary,
                                     next_hop=new.next_hop)
                self.appearance_events.append(episode)
                self._live[prefix] = episode
            if record.first_best_at is None:
                record.first_best_at = now
        elif was:
            self._close_live(prefix, now)
            self._maybe_stamp(record, now)

    def _close_live(self, prefix: Prefix, now: float):
        episode = self._live.pop(prefix, None)
        if episode is not None:
            episode.end = now

    def _maybe_stamp(self, record: AttackRecord, now: float):
        """Neutralized: the home router filters the adversary, and no
        adversarial best remains."""
        if record.neutralized_at is not None or record.first_best_at is None:
            return
        if not any(origin == record.adversary for _, origin in self.router.filters):
            return
        best = self.router.best.get(record.prefix)
        if best is None or best.origin != record.adversary:
            record.neutralized_at = now


def build_simulation(topo: ScenarioTopology, mari: float) -> Simulation:
    sim = Simulation(mari=mari)
    for rid in topo.routers:
        sim.add_router(rid)
    for a, b, delay in topo.links:
        sim.add_link(a, b, delay)
    return sim


def victim_prefix(k: int) -> Prefix:
    if not 0 <= k <= 255:
        raise ScenarioError("attack index outside the benchmark prefix block")
    return Prefix(198 << 24 | 18 << 16 | k << 8, 24)   # 198.18.k.0/24


def inject_attack(sim: Simulation, ledger: ConsortiumLedger, monitor: AttackMonitor,
                  prefix: Prefix, adversary: RouterId, t: float) -> AttackRecord:
    """Schedule an adversarial origination of an already-registered prefix."""
    record = ledger.world_state.get(str(prefix))
    if record is None or not record.active:
        raise ScenarioError(f"{prefix} is not an active ledger record")
    if record.asn == adversary.asn:
        raise ScenarioError(f"{adversary} owns {prefix}; not an attack")
    attack = AttackRecord(prefix=prefix, true_owner=record.asn,
                          adversary=adversary.asn, injected_at=t)
    monitor.watch(attack)
    sim.originate_prefix(adversary, prefix, t)
    return attack


def scenario_topology(cfg: ScenarioConfig) -> ScenarioTopology:
    """The topology a run of ``cfg`` uses; the same one on every call."""
    return gen_topology(cfg.kind, cfg.routers, cfg.adversarial_prefixes,
                        seed=cfg.seed, connectivity=cfg.resolved_connectivity,
                        delay=cfg.link_delay)


def run_scenario(cfg: ScenarioConfig) -> ScenarioMetrics:
    topo = scenario_topology(cfg)
    sim = build_simulation(topo, cfg.mari)
    ledger = ConsortiumLedger(cost_model=cfg.cost_model)  # genesis only
    profiler = Profiler(ledger)
    admin = profiler.enroll_admin("admin")
    for rid in topo.routers:
        profiler.create_router_profile(rid, admin)

    dispatcher = Dispatcher(sim, profiler, topo.dispatcher, cfg.scan_interval)
    monitor = AttackMonitor(sim, topo.dispatcher)
    dispatcher.on_filter.append(monitor.on_filter)

    # setup phase: owners register their prefixes before anything moves
    prefixes = [victim_prefix(k) for k in range(cfg.adversarial_prefixes)]
    for prefix, owner in zip(prefixes, topo.victims):
        result = profiler.handle_request(GatewayRequest(
            action=ACTION_ADD, prefix=prefix, asn=owner.asn,
            claimed_router=owner), now=0.0)
        if not isinstance(result, CommitResult):
            raise ScenarioError(f"setup registration failed for {prefix}: {result}")

    # benign announcements: victims plus one prefix on the monitored router
    for prefix, owner in zip(prefixes, topo.victims):
        sim.originate_prefix(owner, prefix, 0.0)
    sim.originate_prefix(topo.dispatcher, HOME_PREFIX, 0.0)

    attacks = [inject_attack(sim, ledger, monitor, prefix, adversary,
                             cfg.resolved_attack_at)
               for prefix, adversary in zip(prefixes, topo.adversaries)]

    dispatcher.schedule_ticks(cfg.duration)
    sim.run_until(cfg.duration)

    best_rows = [r for r in sim.snapshot_table(topo.dispatcher) if r["is_best"]]
    end_state_safe = True
    for row in best_rows:
        record = ledger.world_state.get(str(row["prefix"]))
        if record and record.active and record.asn != row["as_path"][-1]:
            end_state_safe = False
    present = {row["prefix"]: row["as_path"][-1] for row in best_rows}
    collateral_ok = all(present.get(prefix) == owner.asn
                        for prefix, owner in zip(prefixes, topo.victims))

    return ScenarioMetrics(
        config=cfg,
        records=attacks,
        end_state_safe=end_state_safe,
        collateral_ok=collateral_ok,
        ledger=ledger,
        reports=[rep.to_json_line() for rep in dispatcher.reports],
        appearances=monitor.appearance_events,
        filter_installs=monitor.filter_events,
    )


# -- emission -----------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def metrics_csv(metrics_list: list[ScenarioMetrics]) -> str:
    """CSV with one row per attack of each run."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for metrics in metrics_list:
        cfg = metrics.config
        writer.writerows(
            [cfg.kind, str(cfg.routers), str(cfg.seed),
             "0", str(record.prefix), str(record.adversary),   # trial: always 0
             _fmt(record.prepend_time), _fmt(record.neutralize_time),
             str(record.paths_filtered),
             "true" if record.no_impact else "false"]
            for record in metrics.records)
    return buffer.getvalue()


def summarize(metrics_list: list[ScenarioMetrics]) -> dict:
    """Mean/stddev of prepend and neutralization times over impactful attacks."""
    prepend = [r.prepend_time for m in metrics_list for r in m.impactful]
    neutralize = [r.neutralize_time for m in metrics_list for r in m.impactful
                  if r.neutralize_time is not None]

    def stats(values):
        if not values:
            return {"mean": None, "stddev": None, "count": 0}
        return {"mean": statistics.fmean(values),
                "stddev": statistics.pstdev(values),
                "count": len(values)}

    records = [r for m in metrics_list for r in m.records]
    return {
        "scenario": metrics_list[0].config.kind if metrics_list else None,
        "trials": len(metrics_list),
        "attacks_injected": len(records),
        "impactful": sum(1 for r in records if not r.no_impact),
        "neutralized": sum(1 for r in records if r.neutralized_at is not None),
        "attack_count_total": sum(m.attack_count for m in metrics_list),
        "prepend_s": stats(prepend),
        "neutralize_s": stats(neutralize),
        "all_runs_end_state_safe": all(m.end_state_safe for m in metrics_list),
    }


def _json(doc) -> str:
    """The JSON file form of an output document: sorted keys, indent 2."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


# The text of each file `blockjack run` writes for one run, by file name.
_RENDERERS = {
    "metrics.csv": lambda metrics: metrics_csv([metrics]),
    "summary.json": lambda metrics: _json(summarize([metrics])),
    "ledger.json": lambda metrics: metrics.ledger.to_json(),
    "reports.jsonl": lambda metrics: "\n".join(metrics.reports) + "\n",
    "topology.json": lambda metrics: _json(metrics.topology_doc),
}
RUN_FILES = tuple(_RENDERERS)


def run_file(metrics: ScenarioMetrics, name: str) -> str:
    """The text of the run file ``name`` (one of RUN_FILES) for one run."""
    return _RENDERERS[name](metrics)
