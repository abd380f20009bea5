"""One read loop for one WEC or many: what a call over one WEC costs, where a
store read's errors come from, and how the batched read names a bad value."""

import os
import sqlite3
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import wecdb
from wecdb import StoreError
from wecdb.store import WecStore, import_from_file

from conftest import write_wec_text

ONE_WEC = textwrap.dedent("""
    import sys, threading
    from wecdb import Database
    from wecdb.retrieve import lookup_units

    db = Database(sys.argv[1])
    ident = "algo:a;dataset:d;dims:2;fold:0;unit:token"
    res = db.get_vectors(ident, None, inputs=["alpha gamma"], raw=True)
    assert res.per_wec[0][1][0].words() == ["alpha"]
    ((unit,),) = lookup_units(db, [res.entries[ident]], [["gamma", "beta"]], raw=False,
                              cache=None, in_order=False)
    assert unit.words() == ["beta"] and unit.missing == ["gamma"]
    assert "concurrent.futures" not in sys.modules, "imported concurrent.futures"
    assert threading.active_count() == 1, threading.enumerate()
""")


def test_a_one_wec_call_imports_no_executor_and_starts_no_thread(db, tmp_path):
    write_wec_text(tmp_path / "w.txt", ["alpha", "beta"], dims=2)
    db.import_from_file(tmp_path / "w.txt", "algo:a;dataset:d;dims:2;fold:0;unit:token")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(wecdb.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", ONE_WEC, str(db.root)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr


def test_an_earlier_wec_error_comes_before_a_failed_hand_off(db, tmp_path, monkeypatch):
    for dims in (2, 3):
        write_wec_text(tmp_path / f"w{dims}.txt", ["alpha", "beta"], dims=dims)
        db.import_from_file(tmp_path / f"w{dims}.txt",
                            f"algo:a;dataset:d;dims:{dims};fold:0;unit:token")
    path = db.catalog.store_path(db.catalog.require("algo:a;dataset:d;dims:2;fold:0;unit:token"))
    with sqlite3.connect(path) as conn:
        conn.execute("INSERT INTO vectors VALUES ('gamma', x'00')")
    conn.close()
    real_submit = WecStore.submit_many

    def submit_many(self, words, executor):
        if self.dims == 3:
            raise StoreError("the hand-off of the second WEC failed")
        return real_submit(self, words, executor)

    monkeypatch.setattr(WecStore, "submit_many", submit_many)
    with pytest.raises(StoreError, match="vector of 'gamma' is not 2 float32 values"):
        db.get_vectors("algo:a;dataset:d;dims:{2,3};fold:0;unit:token", None,
                       inputs=[["alpha", "gamma"]], raw=False)


def test_a_bad_value_is_named_by_the_one_batched_statement(tmp_path):
    path = tmp_path / "s.wec"
    text = tmp_path / "s.txt"
    text.write_text("")
    import_from_file(text, path, 2)
    with sqlite3.connect(path) as conn:
        conn.executemany("INSERT INTO vectors VALUES (?, ?)", [
            ("a", np.array([1, 2], dtype="<f4").tobytes()), ("b", b"\0" * 4), ("c", "text"),
        ])
    conn.close()
    with WecStore(path) as store:
        statements = []
        store._conn.set_trace_callback(statements.append)
        for asked, named in ((["zz", "a", "c", "b"], "c"), (["b", "c"], "b"), (["c"], "c")):
            statements.clear()
            with pytest.raises(StoreError, match=f"vector of '{named}' is not 2 float32 values"):
                store.get_many(asked)
            assert len(statements) == 1, statements
        assert store.get_many(["a", "zz"]).words == ["a"]
