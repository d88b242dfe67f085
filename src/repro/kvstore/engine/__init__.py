"""The sans-I/O protocol core of the key-value store.

Every piece of kvstore behaviour that is *about the protocol* -- round
lifecycle, batch coalescing, stale-epoch replay, proxy failover, read
routing, view-push adoption, epoch fencing -- lives here as pure,
event-driven state machines:

* :class:`~repro.kvstore.engine.client.ClientSessionEngine` -- one logical
  store client;
* :class:`~repro.kvstore.engine.link.ClientLink` -- what the client sessions
  of one process share on both ingresses: the rounds to the replicas and,
  per proxy, the rounds forwarded to it (a lone session holds a private one);
* :class:`~repro.kvstore.engine.proxy.ProxyEngine` -- one site-local
  ingress proxy (it and the link extend
  :class:`~repro.kvstore.engine.rounds.ReplicaRounds`, the one copy of the
  quorum round against a replica group);
* :class:`~repro.kvstore.engine.server.GroupServerEngine` -- one replica of
  a replica group;
* :class:`~repro.kvstore.engine.control.ControlPlaneEngine` -- the cluster
  control plane: incremental key-range drains for live rebalancing, view
  pushes, and the metrics-driven autoscaler.

The engines consume decoded frames (:mod:`repro.messages`), timer fires,
and transport notifications, and emit :mod:`~repro.kvstore.engine.effects`
-- ``(destination, frame)`` sends, timer requests, connection requests, and
operation completions.  They import neither :mod:`asyncio` nor
:mod:`repro.sim` (enforced by a unit test): the transports are *adapters*
that feed the engines and execute their effects --
:mod:`repro.kvstore.sim_backend` on the virtual clock and simulated
network, :mod:`repro.kvstore.net_backend` on asyncio TCP.  A feature
implemented here (delta view pushes, say) works on both backends with no
backend-specific code, and the two backends cannot drift apart on protocol
behaviour by construction.
"""

from __future__ import annotations

from .cache import CacheEntry, ReadCache, payload_fingerprint
from .client import ClientSessionEngine
from .control import (
    AUTOSCALE_INTERVAL,
    AUTOSCALE_MIN_OPS,
    AUTOSCALE_RATIO,
    DRAIN_MAX_RETRIES,
    DRAIN_RANGE_SIZE,
    DRAIN_RETRY_DELAY,
    AutoscaleFeed,
    ControlPlaneEngine,
)
from .effects import (
    DEFAULT_RETRY_POLICY,
    DIRECT_INGRESS,
    MAX_ROUND_TIMEOUTS,
    MAX_TRANSIENT_RETRIES,
    PROXY_FAILOVER_TIMEOUT,
    RECONNECT_INTERVAL,
    SIM_RETRY_POLICY,
    CancelTimer,
    Connect,
    Effect,
    OpCompleted,
    OpFailed,
    RetryPolicy,
    SendFrame,
    StartTimer,
    TimerId,
)
from .link import ClientLink
from .proxy import ProxyEngine
from .runtime import EffectRuntime
from .routing import (
    CONTROL_PLANE,
    BroadcastReads,
    CachedShardView,
    NearestQuorum,
    ProxyRoute,
    ReadRoutingPolicy,
    attempt_scoped_id,
    parse_attempt_scoped_id,
    pick_one_proxy_per_site,
    view_push_frames,
)
from .server import (
    MAX_STALE_RETRIES,
    STALE_SHARD_KIND,
    GroupServerEngine,
    StaleShardError,
    is_stale_reply,
    make_stale_reply,
)
from .stats import BatchStats

__all__ = [
    "ClientSessionEngine",
    "ClientLink",
    "ProxyEngine",
    "GroupServerEngine",
    "ControlPlaneEngine",
    "AutoscaleFeed",
    "EffectRuntime",
    "DRAIN_RANGE_SIZE",
    "DRAIN_RETRY_DELAY",
    "DRAIN_MAX_RETRIES",
    "AUTOSCALE_INTERVAL",
    "AUTOSCALE_RATIO",
    "AUTOSCALE_MIN_OPS",
    "Effect",
    "SendFrame",
    "StartTimer",
    "CancelTimer",
    "Connect",
    "OpCompleted",
    "OpFailed",
    "TimerId",
    "DIRECT_INGRESS",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "SIM_RETRY_POLICY",
    "RECONNECT_INTERVAL",
    "MAX_TRANSIENT_RETRIES",
    "MAX_ROUND_TIMEOUTS",
    "PROXY_FAILOVER_TIMEOUT",
    "CONTROL_PLANE",
    "BroadcastReads",
    "CachedShardView",
    "NearestQuorum",
    "ProxyRoute",
    "ReadRoutingPolicy",
    "attempt_scoped_id",
    "parse_attempt_scoped_id",
    "pick_one_proxy_per_site",
    "view_push_frames",
    "STALE_SHARD_KIND",
    "MAX_STALE_RETRIES",
    "StaleShardError",
    "is_stale_reply",
    "make_stale_reply",
    "BatchStats",
    "CacheEntry",
    "ReadCache",
    "payload_fingerprint",
]
