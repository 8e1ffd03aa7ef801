import csv
import gc
import io
import json
import math
import weakref

import pytest

from blockjack import harness
from blockjack.bgp import Simulation
from blockjack.harness import (
    AttackMonitor,
    HOME_PREFIX,
    ScenarioConfig,
    ScenarioError,
    inject_attack,
    metrics_csv,
    run_scenario,
    summarize,
    victim_prefix,
    write_metrics,
    write_summary,
)
from blockjack.ledger import ConsortiumLedger, CostModel
from blockjack.topology import node_depth
from blockjack.types import Prefix, RouterId


def run(kind, routers=20, seed=1, **kw):
    return run_scenario(ScenarioConfig(kind=kind, routers=routers, seed=seed, **kw))


# -- config ---------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="banana")
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="random", routers=2)
    with pytest.raises(ScenarioError):
        ScenarioConfig(kind="random", duration=0)


def test_connectivity_default_rule():
    assert ScenarioConfig(kind="random", routers=20).resolved_connectivity == 0.5
    assert ScenarioConfig(kind="random", routers=50).resolved_connectivity == 0.25
    assert ScenarioConfig(kind="random", routers=20,
                          connectivity=0.3).resolved_connectivity == 0.3


def test_attack_time_defaults_to_midrun():
    assert ScenarioConfig(kind="single_path").resolved_attack_at == 300.0
    assert ScenarioConfig(kind="single_path",
                          attack_at=42.0).resolved_attack_at == 42.0


# -- inject_attack preconditions --------------------------------------------


def test_inject_requires_registered_prefix_and_foreign_adversary():
    sim = Simulation()
    owner, adversary = RouterId(10), RouterId(99)
    sim.add_router(owner)
    sim.add_router(adversary)
    sim.add_link(owner, adversary, 0.1)
    ledger = ConsortiumLedger(cost_model=CostModel(0, 0, 0, 2))
    monitor = AttackMonitor(sim, owner)
    prefix = Prefix.parse("198.18.0.0/24")
    with pytest.raises(ScenarioError):
        inject_attack(sim, ledger, monitor, prefix, adversary, 0.0)
    admin = ledger.enroll_admin("a")
    cred = ledger.register_router(owner, admin)
    ledger.submit_authorization(str(prefix), 10, cred)
    with pytest.raises(ScenarioError):
        inject_attack(sim, ledger, monitor, prefix, owner, 0.0)  # owner, not attack
    record = inject_attack(sim, ledger, monitor, prefix, adversary, 5.0)
    assert record.true_owner == 10 and record.adversary == 99


def test_finished_scenario_is_freed_without_the_cyclic_collector(monkeypatch):
    # a reference cycle through the simulation would keep it alive until a
    # full collection, while the next scenario builds its own
    built = []
    build = harness.build_simulation

    def build_and_watch(*args, **kwargs):
        sim = build(*args, **kwargs)
        built.append(weakref.ref(sim))
        return sim

    monkeypatch.setattr(harness, "build_simulation", build_and_watch)
    gc.disable()
    try:
        run("single_path", routers=20, seed=1)
        run("multi_path", routers=20, seed=1)
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]
    finally:
        gc.enable()


def test_finished_ledgers_are_freed_without_the_cyclic_collector(monkeypatch):
    # members that held their ledger kept every finished ledger, with all
    # its blocks, alive until a full collection
    built = []

    class WatchedLedger(ConsortiumLedger):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(weakref.ref(self))

    monkeypatch.setattr(harness, "ConsortiumLedger", WatchedLedger)
    gc.disable()
    try:
        dump = run("single_path", routers=20, seed=1).ledger_dump
        WatchedLedger.load(dump).verify_chain()
        assert len(built) == 2
        assert [ref() for ref in built] == [None, None]
    finally:
        gc.enable()


# -- single-path runs ----------------------------------------------------------


def test_single_path_run_neutralizes_everything():
    metrics = run("single_path", routers=20, seed=1)
    assert len(metrics.records) == 5
    assert metrics.end_state_safe
    assert metrics.collateral_ok
    assert not metrics.needs_reseed
    for record in metrics.records:
        assert not record.no_impact
        assert record.neutralized_at is not None
        assert record.injected_at <= record.first_best_at <= record.neutralized_at
        assert record.neutralize_time <= 2 * 1.0  # two scan intervals


def test_single_path_prepend_closed_form():
    cfg = ScenarioConfig(kind="single_path", routers=20, seed=1)
    metrics = run_scenario(cfg)
    # adversaries sit one level above the deepest leaves; injection lands
    # on an advertisement boundary, so each later hop costs one interval
    depth = node_depth(metrics.records[0].adversary - 64512)
    expected = (depth - 1) * cfg.mari + cfg.link_delay
    for record in metrics.records:
        assert math.isclose(record.prepend_time, expected, abs_tol=1e-9)


def test_home_prefix_registered_during_run():
    metrics = run("single_path", routers=20, seed=1)
    record = metrics.ledger_dump["world_state"][str(HOME_PREFIX)]
    assert record["asn"] == 64512 and record["active"]


def test_prepend_monotone_in_adversary_depth():
    by_depth = {}
    for n in (20, 30, 40, 50, 60):
        metrics = run("single_path", routers=n, seed=2)
        depth = node_depth(metrics.records[0].adversary - 64512)
        for record in metrics.records:
            by_depth.setdefault(depth, set()).add(round(record.prepend_time, 6))
    depths = sorted(by_depth)
    assert len(depths) >= 2
    means = [sum(by_depth[d]) / len(by_depth[d]) for d in depths]
    assert all(b >= a for a, b in zip(means, means[1:]))


def test_no_impact_run_is_flagged_for_reseed():
    # injecting right before the end leaves no time to propagate
    metrics = run("single_path", routers=20, seed=1, attack_at=599.0)
    assert all(r.no_impact for r in metrics.records)
    assert metrics.needs_reseed
    assert metrics.all_impactful_neutralized  # vacuously


# -- multi-path runs ---------------------------------------------------------


def test_multi_path_filters_alternate_paths():
    metrics = run("multi_path", routers=20, seed=1)
    assert metrics.end_state_safe
    assert max(r.paths_filtered for r in metrics.records) >= 2
    assert metrics.attack_count > len(metrics.records)
    assert metrics.all_impactful_neutralized


# -- metrics emission -----------------------------------------------------------


def test_empty_metrics_writes_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_metrics([], path)
    assert path.read_text() == ("scenario,routers,seed,trial,prefix,adversary,"
                                "prepend_s,neutralize_s,paths_filtered,no_impact\n")


def test_metrics_csv_deterministic(tmp_path):
    a = run("single_path", routers=20, seed=4)
    b = run("single_path", routers=20, seed=4)
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_metrics(a, pa)
    write_metrics(b, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert json.dumps(a.ledger_dump, sort_keys=True) == \
        json.dumps(b.ledger_dump, sort_keys=True)


def test_summary_matches_independent_recomputation(tmp_path):
    runs = [run("single_path", routers=n, seed=s)
            for n, s in [(20, 1), (20, 2), (30, 1), (40, 1), (40, 2)]]
    blob = metrics_csv(runs)
    rows = list(csv.DictReader(io.StringIO(blob)))
    assert len(rows) == 25

    # spreadsheet-style recomputation from the CSV text alone
    prepend = [float(r["prepend_s"]) for r in rows if r["no_impact"] == "false"]
    neutralize = [float(r["neutralize_s"]) for r in rows
                  if r["no_impact"] == "false" and r["neutralize_s"]]
    mean = sum(prepend) / len(prepend)
    var = sum((x - mean) ** 2 for x in prepend) / len(prepend)

    summary = summarize(runs)
    assert math.isclose(summary["prepend_s"]["mean"], mean, rel_tol=1e-6)
    assert math.isclose(summary["prepend_s"]["stddev"], math.sqrt(var), rel_tol=1e-6,
                        abs_tol=1e-9)
    assert summary["neutralize_s"]["count"] == len(neutralize)
    assert summary["impactful"] == len(prepend)

    out = tmp_path / "summary.json"
    write_summary(runs, out)
    assert json.loads(out.read_text())["trials"] == 5


def test_reports_are_json_lines():
    metrics = run("single_path", routers=20, seed=1)
    assert len(metrics.reports) == 601  # ticks at 0..600
    parsed = [json.loads(line) for line in metrics.reports]
    assert all(p["router"] == "64512.0" for p in parsed)
    assert sum(len(p["filters"]) for p in parsed) >= 4


def test_victim_prefix_pool_bounds():
    assert str(victim_prefix(0)) == "198.18.0.0/24"
    assert str(victim_prefix(255)) == "198.18.255.0/24"
    with pytest.raises(ScenarioError):
        victim_prefix(256)
