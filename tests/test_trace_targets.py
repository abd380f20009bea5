"""The benchmark's traced run (bench/tracing.py) wraps wecdb's entry points
by name. Every name it lists must exist, and installing then uninstalling
its wrappers must leave wecdb exactly as it was."""

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import tracing  # noqa: E402


def test_every_trace_target_exists():
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in tracing.targets()
        if attr not in vars(owner)
    ]
    assert missing == []


def _snapshot() -> dict:
    """Every binding the tracer may replace, by (namespace, name[, key])."""
    namespaces = {
        name: vars(module)
        for name, module in sys.modules.items()
        if module is not None and (name == "wecdb" or name.startswith("wecdb."))
    }
    for owner, *_ in tracing.targets():
        if not isinstance(owner, types.ModuleType):
            namespaces[f"{owner.__module__}.{owner.__qualname__}"] = vars(owner)
    out = {}
    for ns_name, namespace in namespaces.items():
        for attr, value in list(namespace.items()):
            out[(ns_name, attr)] = value
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, item in list(value.items()):
                    out[(ns_name, attr, key)] = item
    return out


def test_install_then_uninstall_restores_every_attribute():
    tracing.targets()  # imports every traced module before the snapshot
    before = _snapshot()
    uninstall = tracing.install(tracing.Tracer())
    try:
        during = _snapshot()
        changed = [k for k in before if during.get(k) is not before[k]]
        assert len(changed) >= len(tracing.targets())
    finally:
        uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
