"""A fixed reference unit of work that times the machine's speed.

On a shared host the same Python code runs up to about 25% faster or slower
from one minute to the next, as other tenants load the cores. A run's raw
latency therefore moves with the machine as much as with the program. The
benchmark runs this unit after each set-up build and between blocks of ops
in the timed process, and reports set-up time and op latency relative to it
(``metrics.reference_seconds`` and ``metrics.reference_latency``).

The unit mixes the kinds of work wecdb does, none of it through wecdb, so no
change to the program can change what it measures: parsing text into small
validated objects in Python, SQLite point reads of vector blobs, and numpy
conversions of those blobs and of ``%.5f`` text. Text parsing weighs about
as much as the other two together: it is most of an import, and without it
the reference sped up more than imports did when the host got faster. The
unit takes 1 to 1.5 ms, by the host's load, on a 2-vCPU x86-64 cloud VM
with CPython 3.11.
"""

from __future__ import annotations

import json
import re
import sqlite3
import time
from dataclasses import dataclass
from urllib.parse import quote

import numpy as np

_KEY = re.compile(r"[a-z][a-z0-9_]*")
_RECORDS = json.dumps(
    [{"name": f"n{k}", "options": {f"k{j}": f"v {j}/{k}" for j in range(6)}} for k in range(12)]
)


# After each stretch of timed work the unit runs for about this share of it.
SHARE = 0.05
WARMUP_UNITS = 20


@dataclass(frozen=True)
class _Option:
    key: str
    value: str


class Reference:
    """``unit()`` does the same work on every call; ``time_after`` times it."""

    def __init__(self, seed: int = 12345):
        rng = np.random.default_rng(seed)
        self.conn = sqlite3.connect(":memory:")
        self.conn.execute("CREATE TABLE vectors (word TEXT PRIMARY KEY, vector BLOB)")
        words = [f"w{k:05d}" for k in range(1000)]
        self.conn.executemany(
            "INSERT INTO vectors VALUES (?, ?)",
            ((w, rng.standard_normal(300).astype("<f4").tobytes()) for w in words),
        )
        self.probes = [words[k] for k in rng.integers(0, len(words), 40)]
        self.lines = [" ".join(f"{x:.5f}" for x in rng.standard_normal(1024)) for _ in range(3)]
        for _ in range(WARMUP_UNITS):
            self.unit()

    def unit(self) -> float:
        for _ in range(2):
            options = [
                _Option(key, quote(value, safe=""))
                for record in json.loads(_RECORDS)
                for key, value in sorted(record["options"].items())
                if _KEY.fullmatch(key)
            ]
            ";".join(f"{o.key}={o.value}" for o in options).split(";")
        total = np.zeros(300)
        for word in self.probes:
            blob = self.conn.execute("SELECT vector FROM vectors WHERE word = ?", (word,)).fetchone()[0]
            total += np.frombuffer(blob, "<f4")
        for line in self.lines:
            np.array(line.split(), "<f8").astype("<f4")
        return float(total @ total)

    def time_after(self, work_ns: int) -> tuple[int, int]:
        """Run whole units for at least ``SHARE`` of ``work_ns`` (at least
        one unit); returns (units run, ns they took). A first, untimed unit
        brings the unit's data back into the CPU caches the work has used,
        so the reading does not depend on how much the work displaced."""
        self.unit()
        units = spent = 0
        while units == 0 or spent < work_ns * SHARE:
            start = time.perf_counter_ns()
            self.unit()
            spent += time.perf_counter_ns() - start
            units += 1
        return units, spent
