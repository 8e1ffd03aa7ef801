import dataclasses
import math
import random

import pytest

from blockjack import dispatcher as dispatcher_module
from blockjack.bgp import Simulation, UpdateMessage
from blockjack.dispatcher import (
    ACCEPT,
    Dispatcher,
    DispatcherReport,
    OriginEntry,
    scan,
)
from blockjack.ledger import ConsortiumLedger, CostModel, VerificationSignal
from blockjack.profiler import Profiler
from blockjack.types import Prefix, RouterId

ZERO_COST = CostModel(0.0, 0.0, 0.0, 2)

ROOT = RouterId(101)
C1 = RouterId(102)
C2 = RouterId(103)
V = RouterId(104)
ADV = RouterId(105)

P = Prefix.parse("198.18.0.0/24")
P_OTHER = Prefix.parse("198.18.1.0/24")


def build_gateway(model=ZERO_COST, routers=()):
    profiler = Profiler(ConsortiumLedger(cost_model=model))
    admin = profiler.enroll_admin("admin")
    for rid in routers:
        profiler.create_router_profile(rid, admin)
    return profiler, admin


def tree_sim(mari=30.0, peered=False):
    """ROOT over C1/C2; victim under C1; C2 doubles as the adversary."""
    sim = Simulation(mari=mari)
    for rid in (ROOT, C1, C2, V):
        sim.add_router(rid)
    sim.add_link(ROOT, C1, 0.1)
    sim.add_link(ROOT, C2, 0.1)
    sim.add_link(C1, V, 0.1)
    if peered:
        sim.add_link(C1, C2, 0.1)
    return sim


def dispatcher_on(sim, profiler, home=ROOT):
    return Dispatcher(sim, profiler, home)


def row(prefix, path, next_hop, best=True, valid=True):
    return {"prefix": prefix, "next_hop": next_hop, "metric": 0,
            "local_pref": 100, "weight": 0, "as_path": tuple(path),
            "is_valid": valid, "is_best": best}


# -- scan ------------------------------------------------------------------


def test_scan_self_originated_goes_to_roa():
    snapshot = [row(P, (101,), ROOT)]
    roa, rov = scan(snapshot, own_asn=101)
    assert roa == {OriginEntry(P, 101, ROOT)}
    assert rov == set()


def test_scan_takes_only_best_rows():
    snapshot = [
        row(P, (102, 104), C1, best=True),
        row(P, (103, 105, 104), C2, best=False),
    ]
    roa, rov = scan(snapshot, own_asn=101)
    assert roa == set()
    assert rov == {OriginEntry(P, 104, C1)}


def test_scan_partition_matches_brute_force_oracle():
    rng = random.Random(11)
    own = 101
    for _ in range(200):
        snapshot = []
        for i in range(rng.randint(0, 12)):
            origin = rng.choice([own, 200 + i, 300])
            hop = RouterId(rng.choice([150, 151, 152]), rng.randint(0, 3))
            snapshot.append(row(Prefix.parse(f"10.{i}.0.0/16"),
                                (hop.asn, origin) if origin != hop.asn else (origin,),
                                hop,
                                best=rng.random() < 0.7,
                                valid=rng.random() < 0.9))
        roa, rov = scan(snapshot, own)
        picked = [r for r in snapshot if r["is_valid"] and r["is_best"]]
        assert len(roa) + len(rov) == len(
            {(r["prefix"], r["as_path"][-1], r["next_hop"]) for r in picked})
        assert all(e.origin == own for e in roa)
        assert all(e.origin != own for e in rov)


def test_scan_mixed_split_counts():
    snapshot = [row(Prefix.parse(f"10.0.{i}.0/24"), (101,), ROOT) for i in range(3)]
    snapshot += [row(Prefix.parse(f"10.1.{i}.0/24"), (102, 200 + i), C1)
                 for i in range(4)]
    roa, rov = scan(snapshot, own_asn=101)
    assert (len(roa), len(rov)) == (3, 4)


# -- sender ------------------------------------------------------------------


def test_sender_registers_new_prefix_once():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT])
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(ROOT, P, 0.0)
    sim.run_until(0.0)
    report = agent.tick(0.0)
    assert report.adds == 1
    assert profiler.ledger.world_state.get(str(P)).asn == 101
    # unchanged table: second scan issues nothing
    report = agent.tick(1.0)
    assert (report.adds, report.status_updates, report.verifies) == (0, 0, 0)


def test_sender_withdraw_then_reannounce_only_flips_status():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT])
    agent = dispatcher_on(sim, profiler)
    ledger = profiler.ledger
    sim.originate_prefix(ROOT, P, 0.0)
    sim.run_until(0.0)
    agent.tick(0.0)
    assert ledger.world_state.get(str(P)).active

    sim.withdraw_prefix(ROOT, P, 1.5)
    sim.run_until(2.0)
    report = agent.tick(2.0)
    assert report.status_updates == 1 and report.adds == 0
    assert ledger.world_state.get(str(P)).active is False

    sim.originate_prefix(ROOT, P, 2.5)
    sim.run_until(3.0)
    report = agent.tick(3.0)
    assert report.status_updates == 1 and report.adds == 0
    assert ledger.world_state.get(str(P)).active is True
    # one register + two status flips, never a second registration
    kinds = [b.transactions[0].kind for b in ledger.blocks[1:]]
    assert kinds == ["register", "update_status", "update_status"]
    assert len(ledger.world_state.records) == 1


def test_sender_error_leaves_entry_uncached_for_retry():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT])
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(ROOT, P, 0.0)
    sim.run_until(0.0)
    real = profiler.handle_request
    calls = {"n": 0}

    def flaky(req, now=0.0):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("gateway unreachable")
        return real(req, now=now)

    profiler.handle_request = flaky
    report = agent.tick(0.0)
    assert report.errors == 1
    assert agent.roa_cache == set()
    report = agent.tick(1.0)
    assert report.adds == 1
    assert profiler.ledger.world_state.get(str(P)) is not None


# -- verifier ------------------------------------------------------------------


def register_victim(profiler, owner_rid, prefix):
    """Register ``prefix`` for ``owner_rid``, a router the gateway enrolled."""
    from blockjack.profiler import ACTION_ADD, GatewayRequest
    req = GatewayRequest(action=ACTION_ADD, prefix=prefix,
                         asn=owner_rid.asn, claimed_router=owner_rid)
    return profiler.handle_request(req)


def test_verifier_accepts_registered_owner():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(V, P, 0.0)
    sim.run_until(70.0)
    report = DispatcherReport(70.0, str(ROOT))
    results = agent.verifier_sync(scan(sim.snapshot_table(ROOT), 101)[1], 70.0, report)
    assert results == [(OriginEntry(P, 104, C1), VerificationSignal.VALID, ACCEPT)]
    assert (report.verifies, report.filters) == (1, [])
    assert agent._filters_sent == set()


def test_verifier_unknown_accepted_by_default_config():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V])
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(V, P, 0.0)   # never registered: a non-participant AS
    sim.run_until(70.0)
    results = agent.verifier_sync(scan(sim.snapshot_table(ROOT), 101)[1], 70.0,
                                  DispatcherReport(70.0, str(ROOT)))
    assert results[0][1] is VerificationSignal.UNKNOWN
    assert results[0][2] == ACCEPT


def test_verifier_filters_adversarial_origin():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V, ADV])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(V, P, 0.0)
    sim.run_until(70.0)
    agent.tick(70.0)

    # C2 hijacks the registered prefix; one hop, so it wins best at ROOT
    sim.originate_prefix(C2, P, 100.0)
    sim.run_until(121.0)
    best = [r for r in sim.snapshot_table(ROOT)
            if r["prefix"] == P and r["is_best"]][0]
    assert best["as_path"] == (103,)

    report = agent.tick(121.0)
    assert report.verifies == 1
    assert report.filters == [{"prefix": str(P), "origin": 103, "neighbor": str(C2)}]
    sim.run_until(122.0)
    best = [r for r in sim.snapshot_table(ROOT)
            if r["prefix"] == P and r["is_best"]][0]
    assert best["as_path"] == (102, 104)   # victim route restored


def test_verifier_error_is_retried_while_the_table_is_unchanged():
    """The next tick verifies the entry again, although its snapshot equals
    the failed tick's and the scan is reused."""
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(V, P, 0.0)
    sim.run_until(70.0)
    real = profiler.handle_request
    calls = {"n": 0}

    def flaky(req, now=0.0):
        calls["n"] += 1
        if calls["n"] == 1:
            raise OSError("gateway unreachable")
        return real(req, now=now)

    profiler.handle_request = flaky
    snapshot = sim.snapshot_table(ROOT)
    report = agent.tick(70.0)
    assert (report.errors, report.verifies) == (1, 0)
    assert agent.rov_cache == set()
    report = agent.tick(71.0)
    assert (report.errors, report.verifies) == (0, 1)
    assert agent.rov_cache == {OriginEntry(P, 104, C1)}
    assert sim.snapshot_table(ROOT) == snapshot
    assert calls["n"] == 2


def test_tick_scans_only_a_changed_snapshot(monkeypatch):
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    scanned = []

    def counting_scan(snapshot, own_asn):
        scanned.append(len(snapshot))
        return scan(snapshot, own_asn)

    monkeypatch.setattr(dispatcher_module, "scan", counting_scan)
    sim.originate_prefix(V, P, 0.0)
    for t in (0.0, 1.0, 2.0):   # the victim's route reaches ROOT at 60.1
        sim.run_until(t)
        agent.tick(t)
    assert scanned == [0]
    for t in (61.0, 62.0, 63.0):
        sim.run_until(t)
        agent.tick(t)
    assert scanned == [0, 1]
    # a copy of the announce ROOT holds is a table change that rebuilds
    # equal rows in a new list: compared by value, it is not scanned again
    held = sim.snapshot_table(ROOT)
    route = sim.routers[ROOT].rib[P]
    sim.process_update(ROOT, UpdateMessage(route.next_hop, P, dataclasses.replace(route)))
    assert sim.snapshot_table(ROOT) is not held
    assert sim.snapshot_table(ROOT) == held
    agent.tick(64.0)
    assert scanned == [0, 1]
    assert [report.verifies for report in agent.reports] == [0, 0, 0, 1, 0, 0, 0]


# -- full tick loop --------------------------------------------------------------


def test_quiescent_network_reports_all_zero():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT])
    agent = dispatcher_on(sim, profiler)
    for t in range(5):
        report = agent.tick(float(t))
        assert (report.verifies, report.adds, report.status_updates,
                len(report.filters), report.errors) == (0, 0, 0, 0, 0)
    line = agent.reports[0].to_json_line()
    assert '"router": "101.0"' in line and '"filters": []' in line


def test_multi_path_hijack_filtered_path_by_path():
    sim = tree_sim(peered=True)
    profiler, _ = build_gateway(routers=[ROOT, V])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    agent.schedule_ticks(400.0)
    installs = []
    agent.on_filter.append(lambda rule, at: installs.append((at, rule)))
    sim.originate_prefix(V, P, 0.0)
    sim.originate_prefix(C2, P, 100.0)  # adversary with a lateral into C1
    sim.run_until(400.0)

    assert [rule.neighbor for _, rule in installs] == [C2, C1]
    assert all(rule.deny_origin == 103 for _, rule in installs)
    t_first, t_second = installs[0][0], installs[1][0]
    assert t_second > t_first
    # the surfaced alternate was filtered on a later tick
    assert t_second - t_first >= agent.scan_interval - 1e-9
    final = [r for r in sim.snapshot_table(ROOT) if r["is_best"]]
    assert all(r["as_path"][-1] != 103 for r in final)
    # steady state: the last reports are quiet
    assert all(not rep.filters for rep in agent.reports[-5:])


def test_overlapping_paths_auto_neutralized_by_one_filter():
    # ROOT - C; C - M1 - ADV and C - M2 - ADV: both adversarial paths
    # funnel through C, so one (C, origin) filter removes present and
    # future ones; the longer path never needs its own rule.
    sim = Simulation(mari=30.0)
    m1, m2 = RouterId(110), RouterId(111)
    owner = RouterId(999)
    for rid in (ROOT, C1, m1, m2, ADV):
        sim.add_router(rid)
    sim.add_link(ROOT, C1, 0.1)
    sim.add_link(C1, m1, 0.1)
    sim.add_link(C1, m2, 0.1)
    sim.add_link(m1, ADV, 0.1)
    sim.add_link(m2, ADV, 0.1)
    profiler, _ = build_gateway(routers=[ROOT, owner])
    register_victim(profiler, owner, P)
    agent = dispatcher_on(sim, profiler)
    agent.schedule_ticks(500.0)
    installs = []
    agent.on_filter.append(lambda rule, at: installs.append(rule))
    sim.originate_prefix(ADV, P, 0.0)
    sim.run_until(500.0)

    assert len(installs) == 1
    assert installs[0].neighbor == C1 and installs[0].deny_origin == ADV.asn
    assert [r for r in sim.snapshot_table(ROOT) if r["prefix"] == P] == []


def test_no_false_positives_on_registered_network():
    sim = tree_sim(peered=True)
    profiler, _ = build_gateway(routers=[ROOT, C1, C2, V])
    for rid, prefix in [(V, P), (C2, P_OTHER)]:
        register_victim(profiler, rid, prefix)
    agent = dispatcher_on(sim, profiler)
    agent.schedule_ticks(200.0)
    sim.originate_prefix(V, P, 0.0)
    sim.originate_prefix(C2, P_OTHER, 10.0)
    sim.run_until(200.0)
    assert agent._filters_sent == set()
    assert sum(len(rep.filters) for rep in agent.reports) == 0


def test_triggering_economy_verifies_equal_appearances():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(V, P, 0.0)
    sim.originate_prefix(C2, P, 100.0)

    expected = 0
    seen: set[tuple] = set()
    for t in range(0, 300):
        sim.run_until(float(t))
        rows = sim.snapshot_table(ROOT)
        current = {(r["prefix"], r["as_path"][-1], r["next_hop"])
                   for r in rows if r["is_valid"] and r["is_best"]
                   and r["as_path"][-1] != 101}
        expected += len(current - seen)
        seen = current
        agent.tick(float(t))
    assert sum(rep.verifies for rep in agent.reports) == expected
    assert expected == 3  # victim, hijacker, victim again after the filter


def test_cache_soundness_tracks_last_snapshot():
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT, V])
    register_victim(profiler, V, P)
    agent = dispatcher_on(sim, profiler)
    sim.originate_prefix(ROOT, P_OTHER, 0.0)
    sim.originate_prefix(V, P, 0.0)
    for t in (0.0, 40.0, 80.0, 120.0):
        sim.run_until(t)
        agent.tick(t)
        roa, rov = scan(sim.snapshot_table(ROOT), 101)
        assert agent.roa_cache == roa
        assert agent.rov_cache == rov


def test_tick_config_validation():
    # NaN fails every comparison: unchecked, it schedules no tick at all
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT])
    for interval in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scan_interval must be positive and finite"):
            Dispatcher(sim, profiler, ROOT, scan_interval=interval)


@pytest.mark.parametrize("until", [math.inf, -math.inf, math.nan])
def test_schedule_ticks_refuses_a_non_finite_end(until):
    # unchecked, inf queued ticks until memory ran out and NaN queued none
    sim = tree_sim()
    profiler, _ = build_gateway(routers=[ROOT])
    agent = dispatcher_on(sim, profiler)
    with pytest.raises(ValueError, match="until must be finite"):
        agent.schedule_ticks(until)
    assert sim.run_until(10.0) == 0
