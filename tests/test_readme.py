"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    # the first block only: the next one starts an HTTP server on port 8080
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "GatewayHTTPServer" not in block
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)

    record = namespace["profiler"].ledger.world_state.get("198.18.0.0/24")
    assert (record.asn, record.active) == (64512, True)
    assert "198.18.0.0/24" in capsys.readouterr().out
