"""Bridging the async kv-store API into synchronous code.

Two bridges are provided:

* :func:`run_sync` -- run one coroutine to completion from synchronous code
  (refusing to be called from inside a running event loop, where it would
  deadlock).  Used for one-shot helpers like
  ``repro.kvstore.run(KVRunConfig(backend="asyncio"), workload)``.

* :class:`LoopThread` -- a private event loop running on a daemon thread,
  used by :class:`~repro.kvstore.net_backend.SyncKVStore` so that one store
  (with its live TCP connections) can serve many synchronous calls; a fresh
  ``asyncio.run`` per call would tear the connections down each time.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Coroutine

__all__ = ["run_sync", "LoopThread"]


def run_sync(coro: Coroutine) -> Any:
    """Run ``coro`` to completion and return its result.

    Must be called from synchronous code; inside a running event loop it
    raises instead of deadlocking.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return asyncio.run(coro)
    coro.close()
    raise RuntimeError(
        "run_sync cannot be called from a running event loop; await the "
        "coroutine instead"
    )


class LoopThread:
    """An event loop on a background daemon thread, driven synchronously."""

    def __init__(self, name: str = "kvstore-loop") -> None:
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name=name, daemon=True
        )
        self._thread.start()

    @property
    def running(self) -> bool:
        return self._thread.is_alive()

    def call(self, coro: Coroutine, timeout: float = 60.0) -> Any:
        """Run ``coro`` on the loop thread and wait for its result."""
        if not self.running:
            coro.close()
            raise RuntimeError("loop thread is not running")
        future = asyncio.run_coroutine_threadsafe(coro, self._loop)
        return future.result(timeout)

    def stop(self) -> None:
        """Stop the loop and join the thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10.0)
        if not self._loop.is_closed():
            self._loop.close()
