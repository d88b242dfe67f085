"""Guards on the one connection holder of the asyncio adapters.

Holding connections used to be written five times (two accept-side sender
maps, two client pools, a table in front of one of them).  With
``repro.asyncio_net.endpoint.Endpoint`` the only holder, these checks -- plain
``ast`` walks over ``src/`` -- keep a second one from growing back: there is
one place a ``FramedConnection`` is built, one module that listens or dials,
and no class of the kv adapter keeps a peer -> connection table of its own.
The same for turning a configuration into engines: every engine class, the
cached shard view and the observer hub are constructed in
``repro.kvstore.engine.assembly`` and nowhere else under ``src/``, and the
stream transport the control plane used to have is gone from the kv store.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import repro

SRC = Path(repro.__file__).parent
ENDPOINT = SRC / "asyncio_net" / "endpoint.py"
NET_BACKEND = SRC / "kvstore" / "net_backend.py"
ASSEMBLY = "kvstore/engine/assembly.py"

#: What only the assembly may construct: the engines and what they are wired to.
ASSEMBLED = {
    "GroupServerEngine", "ProxyEngine", "ClientSessionEngine", "ControlPlaneEngine",
    "CachedShardView", "ObserverHub", "MetricsObserver",
}

#: The asyncio calls that open a socket, listening or connected, TCP or Unix.
SOCKET_OPENERS = {
    "create_server", "create_connection", "open_connection", "start_server",
    "create_unix_server", "create_unix_connection", "open_unix_connection",
    "start_unix_server",
}


def _trees(root: Path) -> Iterator[Tuple[Path, ast.Module]]:
    for path in sorted(root.rglob("*.py")):
        yield path, ast.parse(path.read_text(encoding="utf-8"), str(path))


def _called_name(call: ast.Call) -> str:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _calls(tree: ast.AST, names) -> List[Tuple[str, int]]:
    """``(enclosing function, line)`` of every call of one of ``names``."""
    found: List[Tuple[str, int]] = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and _called_name(node) in names:
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


def test_a_framed_connection_is_built_in_exactly_one_place():
    sites = [
        (path.relative_to(SRC).as_posix(), scope)
        for path, tree in _trees(SRC)
        for scope, _ in _calls(tree, {"FramedConnection"})
    ]
    assert sites == [("asyncio_net/endpoint.py", "Endpoint._connection")]


def test_only_the_endpoint_listens_or_dials():
    offenders = [
        (path.relative_to(SRC).as_posix(), scope)
        for package in ("kvstore", "asyncio_net")
        for path, tree in _trees(SRC / package)
        if path != ENDPOINT
        for scope, _ in _calls(tree, SOCKET_OPENERS)
    ]
    assert offenders == []
    inside = {scope for scope, _ in _calls(ast.parse(ENDPOINT.read_text()), SOCKET_OPENERS)}
    assert inside == {"Endpoint.listen", "Endpoint._open"}


def test_no_class_of_the_kv_adapter_keeps_its_own_connection_table():
    tree = ast.parse(NET_BACKEND.read_text(encoding="utf-8"))
    mentions = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "FramedConnection")
        or (isinstance(node, ast.Attribute) and node.attr == "FramedConnection")
        or (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and "FramedConnection" in node.value and "\n" not in node.value)
    ]
    # Not imported, not annotated (string annotations included): the only
    # word of it left is prose in docstrings.
    assert mentions == []
    gone = {"AsyncGroupClient", "AsyncProxyClient", "_ReplicaConnected", "_EffectRunner"}
    assert not gone & {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}


def test_engines_views_and_hubs_are_constructed_by_the_assembly_only():
    sites = {
        (name, path.relative_to(SRC).as_posix())
        for path, tree in _trees(SRC)
        for name in ASSEMBLED
        for _ in _calls(tree, {name})
    }
    assert sites == {(name, ASSEMBLY) for name in ASSEMBLED}


def test_the_kv_store_has_no_stream_transport_and_no_second_control_plane():
    gone = {
        "read_frame", "write_frame", "open_connection",
        "_ControlPlaneDriver", "_deliver", "endpoint_of", "ProxyConnectionLost",
    }
    found = set()
    for path, tree in _trees(SRC / "kvstore"):
        for node in ast.walk(tree):
            names = {
                getattr(node, "id", None), getattr(node, "attr", None),
                getattr(node, "name", None),
            }
            if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and "\n" not in node.value:
                names.add(node.value)  # __all__ rows, lazy-export keys
            found |= {(path.name, name) for name in names & gone}
    assert found == set()
