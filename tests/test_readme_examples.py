"""README's kv-store examples run as written, so they cannot drift from the API."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_block(marker: str) -> str:
    """The one ```python block of README that contains ``marker``."""
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    (block,) = [block for block in blocks if marker in block]
    return block


@pytest.mark.parametrize(
    "marker,printed",
    [
        ("SyncKVStore(", ["ada", "{'a': 1, 'b': 2}", "ATOMIC"]),
        ("run(KVRunConfig(", ["ATOMIC"]),
    ],
    ids=["sync-store", "run-config"],
)
def test_readme_block_runs(marker, printed, capsys):
    exec(compile(_python_block(marker), str(README), "exec"), {})
    out = capsys.readouterr().out
    for text in printed:
        assert text in out, out
