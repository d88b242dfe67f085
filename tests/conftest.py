"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import logging
import sys

import pytest

from repro.core.conditions import SystemParameters
from repro.protocols.registry import build_protocol
from repro.sim.delays import UniformDelay
from repro.sim.runtime import Simulation
from repro.util.ids import client_ids, server_ids


@pytest.fixture(autouse=True)
def asyncio_errors_fail_in_dev_mode():
    """Under ``python -X dev`` a test fails on anything asyncio logs as an
    error while it runs -- a task exception nobody retrieved above all, which
    otherwise only shows up as a log line.  (Leaked transports and sockets
    are ``ResourceWarning``s; CI turns those into errors with ``-W``.)"""
    if not sys.flags.dev_mode:
        yield
        return
    errors = []
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = errors.append
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield
        gc.collect()  # a dropped task reports from its finaliser
    finally:
        logger.removeHandler(handler)
    assert not errors, [record.getMessage() for record in errors]


@pytest.fixture
def five_servers():
    return server_ids(5)


@pytest.fixture
def small_params():
    return SystemParameters(servers=5, writers=2, readers=2, max_faults=1)


@pytest.fixture
def make_simulation():
    """Factory fixture: build a Simulation for a protocol key."""

    def _make(
        protocol_key: str,
        servers: int = 5,
        max_faults: int = 1,
        readers: int = 2,
        writers: int = 2,
        seed: int = 0,
        **kwargs,
    ) -> Simulation:
        protocol = build_protocol(
            protocol_key,
            server_ids(servers),
            max_faults,
            readers=readers,
            writers=writers,
            **kwargs,
        )
        return Simulation(protocol, delay_model=UniformDelay(0.5, 1.5, seed=seed))

    return _make


@pytest.fixture
def writer_names():
    return client_ids("w", 2)


@pytest.fixture
def reader_names():
    return client_ids("r", 2)
