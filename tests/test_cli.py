import json
from inspect import signature

import pytest

from blockjack.bgp import DEFAULT_LINK_DELAY, DEFAULT_MARI, Simulation
from blockjack.cli import build_parser, main
from blockjack.dispatcher import DEFAULT_SCAN_INTERVAL, Dispatcher
from blockjack.harness import ScenarioConfig
from blockjack.topology import DEFAULT_CONNECTIVITY, DEFAULT_CONNECTIVITY_AT, gen_topology


def run_cli(tmp_path, name, *extra):
    out = tmp_path / f"{name}.csv"
    args = ["run", "--scenario", "single", "--routers", "20", "--seed", "1",
            "--out", str(out), "--quiet", *extra]
    code = main(args)
    return code, out


def test_cli_run_writes_metrics_and_exits_zero(tmp_path):
    code, out = run_cli(tmp_path, "basic")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,routers,seed")
    assert len(lines) == 6


def test_cli_repeat_is_byte_identical(tmp_path):
    _, first = run_cli(tmp_path, "a",
                       "--summary", str(tmp_path / "a.json"),
                       "--dump-ledger", str(tmp_path / "a-ledger.json"))
    _, second = run_cli(tmp_path, "b",
                        "--summary", str(tmp_path / "b.json"),
                        "--dump-ledger", str(tmp_path / "b-ledger.json"))
    assert first.read_bytes() == second.read_bytes()
    assert (tmp_path / "a-ledger.json").read_bytes() == \
        (tmp_path / "b-ledger.json").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_cli_optional_outputs(tmp_path):
    code, _ = run_cli(tmp_path, "full",
                      "--summary", str(tmp_path / "sum.json"),
                      "--dump-ledger", str(tmp_path / "ledger.json"),
                      "--topology-out", str(tmp_path / "topo.json"),
                      "--reports-out", str(tmp_path / "reports.jsonl"))
    assert code == 0
    summary = json.loads((tmp_path / "sum.json").read_text())
    assert summary["neutralized"] == 5
    ledger = json.loads((tmp_path / "ledger.json").read_text())
    assert ledger["hash_algorithm"] == "sha256"
    topo = json.loads((tmp_path / "topo.json").read_text())
    assert len(topo["routers"]) == 20
    lines = (tmp_path / "reports.jsonl").read_text().splitlines()
    assert all(json.loads(line) for line in lines[:5])


def test_cli_random_scenario_and_members_flag(tmp_path):
    out = tmp_path / "random.csv"
    code = main(["run", "--scenario", "random", "--routers", "30",
                 "--seed", "3", "--members", "4", "--out", str(out), "--quiet"])
    assert code == 0
    assert out.exists()


def test_cli_exit_one_when_attack_outlives_run(tmp_path):
    # hijack lands at 570.1; with a 40 s scan the responding filter would
    # install at 600.09, after the run ends, so neutralization fails
    out = tmp_path / "late.csv"
    code = main(["run", "--scenario", "single", "--routers", "20", "--seed", "1",
                 "--attack-at", "510", "--scan-interval", "40",
                 "--out", str(out), "--quiet"])
    assert code == 1
    rows = out.read_text().splitlines()[1:]
    assert any(",false" in row and row.split(",")[7] == "" for row in rows)


def test_cli_rejects_bad_config(tmp_path, capsys):
    single = [("single", bad) for bad in (
        ["--routers", "2"], ["--members", "0"], ["--members", "-3"],
        ["--duration", "nan"], ["--duration", "inf"], ["--mari", "nan"],
        ["--scan-interval", "nan"], ["--attack-at", "nan"], ["--attack-at", "-5"])]
    # five random routers leave room for three attacks, not four or ten
    unplaceable = [("random", ["--routers", "5", "--attacks", "4"]),
                   ("random", ["--routers", "5", "--attacks", "10"])]
    for scenario, bad in single + unplaceable:
        code = main(["run", "--scenario", scenario, "--routers", "20", *bad,
                     "--out", str(tmp_path / "x.csv"), "--quiet"])
        assert code == 2, bad
        assert capsys.readouterr().err.startswith("error: "), bad


def test_cli_requires_out(tmp_path):
    with pytest.raises(SystemExit):
        main(["run", "--scenario", "single"])


def test_cli_defaults_are_the_scenario_defaults():
    args = build_parser().parse_args(["run", "--scenario", "single", "--out", "x"])
    cfg = ScenarioConfig(kind="single_path")
    assert (args.routers, args.connectivity, args.attacks, args.seed, args.duration,
            args.mari, args.scan_interval, args.attack_at, args.members) == (
        cfg.routers, cfg.connectivity, cfg.adversarial_prefixes, cfg.seed,
        cfg.duration, cfg.mari, cfg.scan_interval, cfg.attack_at,
        cfg.cost_model.member_count)
    # the scenario, topology, dispatcher and simulation defaults are the
    # named constants
    assert (cfg.mari, cfg.link_delay, cfg.scan_interval) == (
        DEFAULT_MARI, DEFAULT_LINK_DELAY, DEFAULT_SCAN_INTERVAL)
    assert ScenarioConfig(kind="random", routers=50).resolved_connectivity \
        == DEFAULT_CONNECTIVITY
    topology = signature(gen_topology).parameters
    assert (topology["connectivity"].default, topology["delay"].default) == (
        DEFAULT_CONNECTIVITY, DEFAULT_LINK_DELAY)
    assert signature(Dispatcher).parameters["scan_interval"].default \
        == DEFAULT_SCAN_INTERVAL
    assert Simulation().clock.mari_interval == DEFAULT_MARI


def test_connectivity_help_shows_each_default_the_scenario_resolves(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())  # argparse wraps lines
    assert f"(default {DEFAULT_CONNECTIVITY};" in help_text
    for routers, value in DEFAULT_CONNECTIVITY_AT.items():
        assert f"{value} at {routers} routers" in help_text
        assert ScenarioConfig(kind="random", routers=routers).resolved_connectivity \
            == value
