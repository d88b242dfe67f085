"""Byte-identity guard for both simulators: the CI ``repro`` smoke lines.

Every ``repro kv`` line of ``.github/workflows/ci.yml`` that runs on the
simulator (no ``--backend asyncio``) runs here in-process, and three of its
outputs are pinned by sha256 digest in ``tests/golden/sim_kv_digests.json``:

* ``stdout``, with the dump paths masked;
* the ``--trace-dump`` file, for a line that writes one (``null`` otherwise);
* the ``--metrics-dump`` file.  A line without the flag gets it added: the
  dump only serializes the run's metrics registry, so the run and the rest
  of its stdout are the ones CI sees.

So do CI's register-level lines (``repro run``, ``prove``, ``boundary``,
``table1``, ``latency``), which replay the paper's executions on the
register simulator; they take no dump flags, so only their exit code and
``stdout`` are pinned.  A CI line that expects a non-zero exit carries a
``|| [ $? -eq N ]`` tail, which is not part of the command.

A simulated run is deterministic, so a change that is meant to leave the
simulator's behaviour alone -- a faster record, a leaner path -- must leave
every digest as it is, and a change that moves one must refresh the golden
on purpose.  ``PYTHONPATH=src python tests/test_sim_cli_golden.py`` prints
the digests of the checkout on ``PYTHONPATH``; run it on the parent commit
to see what a change moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shlex
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import operations

ROOT = Path(__file__).resolve().parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"
GOLDEN = Path(__file__).parent / "golden" / "sim_kv_digests.json"


#: The register-level commands, which run only on the register simulator.
REGISTER_COMMANDS = ("run", "prove", "boundary", "table1", "latency")


def sim_lines():
    """The simulator ``repro`` lines of the CI workflow, in file order."""
    lines = []
    for raw in CI.read_text(encoding="utf-8").splitlines():
        line = raw.split(" || ")[0].strip()
        words = line.split()
        if words[:1] != ["repro"] or len(words) < 2:
            continue
        if words[1] in REGISTER_COMMANDS or (
            words[1] == "kv" and "--backend asyncio" not in line
        ):
            lines.append(line)
    return lines


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_line(line: str, workdir: Path) -> dict:
    """Run one CI line in-process with its dumps under ``workdir``."""
    argv = shlex.split(line)[1:]
    dumps = {}
    for flag in ("--trace-dump", "--metrics-dump") if argv[0] == "kv" else ():
        path = workdir / (flag.strip("-") + ".json")
        if flag in argv:
            argv[argv.index(flag) + 1] = str(path)
            dumps[flag] = path
        elif flag == "--metrics-dump":
            argv += [flag, str(path)]
            dumps[flag] = path
    out = io.StringIO()
    # Op ids (which the trace dump names) count from 1, as in a fresh process.
    counter, operations._op_counter = operations._op_counter, itertools.count(1)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        operations._op_counter = counter
    stdout = out.getvalue()
    for flag, path in dumps.items():
        stdout = stdout.replace(str(path), f"<{flag.strip('-')}>")
    trace = dumps.get("--trace-dump")
    return {
        "exit": code,
        "stdout": _digest(stdout.encode("utf-8")),
        "trace": _digest(trace.read_bytes()) if trace is not None else None,
        "metrics": (
            _digest(dumps["--metrics-dump"].read_bytes())
            if "--metrics-dump" in dumps else None
        ),
    }


def capture() -> dict:
    """Line -> its digests, for every simulator line of the CI workflow."""
    with tempfile.TemporaryDirectory() as workdir:
        return {line: run_line(line, Path(workdir)) for line in sim_lines()}


def test_the_ci_workflow_has_seventeen_simulator_lines():
    assert len(sim_lines()) == 17
    assert sum(line.startswith("repro kv ") for line in sim_lines()) == 10
    assert sorted(sim_lines()) == sorted(json.loads(GOLDEN.read_text("utf-8")))


@pytest.mark.parametrize("line", sim_lines())
def test_the_line_reproduces_its_golden_digests(line, tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert run_line(line, tmp_path) == golden[line]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(capture(), indent=2) + "\n")
