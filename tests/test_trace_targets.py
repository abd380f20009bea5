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


def test_traced_builtin_metric_keeps_the_batched_path():
    # The tracer rebinds analyse.cosine_distance and METRICS["cosine"] to one
    # wrapper; pairwise_distances must still recognise it as the built-in and
    # run its row kernel, recording no per-pair metric spans.
    import numpy as np

    from wecdb import analyse
    from wecdb.retrieve import RetrievalResult, UnitResult

    rng = np.random.default_rng(3)

    def side(tag):
        return RetrievalResult(per_wec=[("w", [
            UnitResult(raw=f"{tag}{i}", tokens=["x"], missing=[],
                       pairs=[("x", rng.standard_normal(4).astype(np.float32))])
            for i in range(20)
        ])])

    res1, res2 = side("L"), side("R")
    untraced = analyse.pairwise_distances(res1, res2, metric=analyse.METRICS["cosine"][0])
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        metric = analyse.METRICS["cosine"][0]
        assert metric is analyse.cosine_distance and hasattr(metric, "__wrapped__")
        traced = analyse.pairwise_distances(res1, res2, metric=metric)
    finally:
        uninstall()
    names = [tracer.names[index] for _, _, index, *_ in tracer.spans]
    assert names == ["analyse.pairwise_distances"]
    assert traced.per_wec == untraced.per_wec
    assert len(traced.per_wec[0][1]) == 20


def test_a_multi_wec_read_runs_every_traced_function_on_the_calling_thread(tmp_path):
    # The tracer keeps one span stack, which only one thread may use: the
    # helper thread of a multi-WEC get_vectors must run none of its targets.
    import threading

    from wecdb import Database

    threads = []

    class ThreadTracer(tracing.Tracer):
        def wrap(self, fn, name, layer, info=None, materialize_arg=None):
            traced = super().wrap(fn, name, layer, info, materialize_arg)

            def recorded(*args, **kwargs):
                threads.append((name, threading.get_ident()))
                return traced(*args, **kwargs)

            recorded.__wrapped__ = fn
            return recorded

    text = tmp_path / "v.txt"
    text.write_text("alpha 1 2\nbeta 3 4\nalpha_beta 5 6\n", encoding="utf-8")
    grid = "algo:a;dataset:{d,e,f};dims:2;fold:0;unit:token"
    with Database(tmp_path / "catalog", create_if_missing=True) as db:
        for dataset, join in (("d", None), ("e", 2), ("f", None)):
            db.import_from_file(text, grid.replace("{d,e,f}", dataset), vocab_join_max_len=join)
        db.train_phrases(["alpha beta"] * 5, grid.replace("{d,e,f}", "f"), threshold=1.0)
        tracer = ThreadTracer()
        uninstall = tracing.install(tracer)
        try:
            res = db.get_vectors(grid, None, inputs=["alpha beta", "beta"], raw=True)
        finally:
            uninstall()
    assert [[u.words() for u in units] for _, units in res] == [
        [["alpha", "beta"], ["beta"]], [["alpha_beta"], ["beta"]], [["alpha_beta"], ["beta"]]]
    assert {ident for _, ident in threads} == {threading.get_ident()}
    names = [name for name, _ in threads]
    assert names.count("store.WecStore.get_many") == 3
    assert names.count("db.Database.open_store") == 3
