"""Byte-exact outputs of fixed runs, compared against ``tests/golden/``.

A scenario case renders what ``blockjack run`` writes: the metrics CSV,
the summary, the ledger dump, the dispatcher reports and the topology.
The routing cases pin ``snapshot_json`` of every router at fixed times.
After a change that is meant to alter an output, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which output changed and why.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockjack.bgp import apply_event_script, load_topology, snapshot_json
from blockjack.cli import SCENARIO_NAMES, main
from blockjack.harness import RUN_FILES, ScenarioConfig, run_file, run_scenario

GOLDEN = Path(__file__).resolve().parent / "golden"

MATRIX = [(kind, routers, seed)
          for kind in ("single_path", "multi_path", "random")
          for routers, seed in ((20, 1), (40, 2))]


def scenario_outputs(**config) -> dict[str, str]:
    """The files ``blockjack run`` writes for one scenario, by name."""
    metrics = run_scenario(ScenarioConfig(**config))
    return {name: run_file(metrics, name) for name in RUN_FILES}


def snapshots(sim, times) -> str:
    """One line per (time, router): ``snapshot_json`` after running to t."""
    lines = []
    for t in times:
        sim.run_until(t)
        for rid in sorted(sim.routers):
            lines.append(f"t={t} {rid} {snapshot_json(sim, rid)}")
    return "\n".join(lines) + "\n"


# Six ASes on a ring with a chord and mixed link delays; 64505 and 64502
# both originate P, so each router holds competing paths.
MESH = {
    "routers": [{"id": i, "asn": 64500 + i} for i in range(6)],
    "links": [
        {"a": 0, "b": 1, "delay_s": 0.1},
        {"a": 1, "b": 2, "delay_s": 0.2},
        {"a": 2, "b": 3, "delay_s": 0.1},
        {"a": 3, "b": 4, "delay_s": 0.5},
        {"a": 4, "b": 5, "delay_s": 0.1},
        {"a": 5, "b": 0, "delay_s": 0.3},
        {"a": 1, "b": 4, "delay_s": 0.2},
    ],
}


def peering_outputs() -> dict[str, str]:
    """Import ``local_pref`` overrides that make longer paths win."""
    doc = dict(MESH, peering=[
        {"router": 0, "neighbor": 5, "local_pref": 200},
        {"router": "64503.3", "neighbor": "64502.2", "local_pref": 50},
        {"router": 4, "neighbor": 3, "local_pref": 300},
    ])
    sim = load_topology(doc)
    apply_event_script(sim, [
        {"t": 0.0, "op": "originate", "args": {"router": "64502.2", "prefix": "10.1.0.0/16"}},
        {"t": 0.0, "op": "originate", "args": {"router": "64505.5", "prefix": "10.1.0.0/16"}},
        {"t": 5.0, "op": "originate", "args": {"router": "64501.1", "prefix": "10.2.0.0/16"}},
    ])
    return {"snapshots.txt": snapshots(sim, (100.0, 400.0))}


def script_outputs() -> dict[str, str]:
    """A scripted withdraw and a scripted filter on the mesh."""
    sim = load_topology(MESH)
    apply_event_script(sim, [
        {"t": 0.0, "op": "originate", "args": {"router": "64502.2", "prefix": "10.1.0.0/16"}},
        {"t": 0.0, "op": "originate", "args": {"router": "64500.0", "prefix": "10.2.0.0/16"}},
        {"t": 150.0, "op": "originate", "args": {"router": "64505.5", "prefix": "10.1.0.0/16"}},
        {"t": 260.0, "op": "install_filter",
         "args": {"router": "64504.4", "neighbor": "64505.5",
                  "deny_origin": 64505, "deny_prefix": "10.1.0.0/16"}},
        {"t": 320.0, "op": "withdraw", "args": {"router": "64502.2", "prefix": "10.1.0.0/16"}},
    ])
    return {"snapshots.txt": snapshots(sim, (140.0, 250.0, 300.0, 600.0))}


def tick_time_outputs() -> dict[str, str]:
    """Every delivery lands on a dispatcher tick time (30 s boundary + 2 s)."""
    return scenario_outputs(kind="multi_path", routers=20, seed=1,
                            link_delay=2.0, scan_interval=1.0)


def check(name: str, outputs: dict[str, str]):
    for filename, text in outputs.items():
        path = GOLDEN / name / filename
        assert path.read_bytes() == text.encode(), f"{path} differs"


@pytest.mark.parametrize("kind,routers,seed", MATRIX)
def test_scenario_outputs_match_golden(kind, routers, seed):
    check(f"{kind}-{routers}-seed{seed}",
          scenario_outputs(kind=kind, routers=routers, seed=seed))


# The option of `blockjack run` that writes each file of a scenario case.
CLI_OPTIONS = {"metrics.csv": "--out", "summary.json": "--summary",
               "ledger.json": "--dump-ledger", "reports.jsonl": "--reports-out",
               "topology.json": "--topology-out"}


@pytest.mark.parametrize("kind,routers,seed", MATRIX)
def test_cli_writes_the_golden_files(kind, routers, seed, tmp_path):
    """`blockjack run` writes, through its own writers, the golden bytes."""
    scenario = {name: option for option, name in SCENARIO_NAMES.items()}[kind]
    args = ["run", "--scenario", scenario, "--routers", str(routers),
            "--seed", str(seed), "--quiet"]
    for filename, option in CLI_OPTIONS.items():
        args += [option, str(tmp_path / filename)]
    assert main(args) == 0
    case = GOLDEN / f"{kind}-{routers}-seed{seed}"
    for filename in CLI_OPTIONS:
        assert (tmp_path / filename).read_bytes() == (case / filename).read_bytes(), \
            f"{case / filename} differs from the CLI's file"


@settings(derandomize=True, deadline=None, max_examples=8)
@given(scenario=st.sampled_from(sorted(SCENARIO_NAMES)), routers=st.integers(20, 40),
       seed=st.integers(0, 2**16))
def test_run_files_repeat_and_are_what_the_cli_writes(scenario, routers, seed):
    """The determinism rule beyond the golden seeds: a repeated run renders
    the same text for every run file, and `blockjack run` writes those bytes.

    The exit code is not checked: a run whose attack outlives it exits 1
    and still writes its files.
    """
    config = {"kind": SCENARIO_NAMES[scenario], "routers": routers, "seed": seed}
    first, second = (run_scenario(ScenarioConfig(**config)) for _ in range(2))
    texts = {name: run_file(first, name) for name in RUN_FILES}
    assert texts == {name: run_file(second, name) for name in RUN_FILES}
    with tempfile.TemporaryDirectory() as tmp:
        args = ["run", "--scenario", scenario, "--routers", str(routers),
                "--seed", str(seed), "--quiet"]
        for name in RUN_FILES:
            args += [CLI_OPTIONS[name], str(Path(tmp, name))]
        main(args)
        for name in RUN_FILES:
            assert Path(tmp, name).read_bytes() == texts[name].encode(), name


def test_delivery_on_tick_time_matches_golden():
    check("delivery-on-tick", tick_time_outputs())


def test_peering_override_matches_golden():
    check("peering-override", peering_outputs())


def test_event_script_matches_golden():
    check("event-script", script_outputs())


def all_cases() -> dict[str, dict[str, str]]:
    cases = {f"{kind}-{routers}-seed{seed}":
             scenario_outputs(kind=kind, routers=routers, seed=seed)
             for kind, routers, seed in MATRIX}
    cases["delivery-on-tick"] = tick_time_outputs()
    cases["peering-override"] = peering_outputs()
    cases["event-script"] = script_outputs()
    return cases


if __name__ == "__main__":
    for case, outputs in all_cases().items():
        for filename, text in outputs.items():
            path = GOLDEN / case / filename
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(text.encode())
            print(path.relative_to(GOLDEN.parent.parent))
