"""Timed phase of one benchmark run, in a process of its own.

``run.py`` builds the catalog and then starts this process, so the peak RSS
it reports belongs to the timed phase alone (plus the benchmark's compact
check data), not to the set-up. It loads the check data that ``run.py``
pickled, runs the warm-up ops, then ops in a closed loop for the given
number of seconds, checking every answer, and writes its findings as JSON.
Ops are timed in blocks of at least ``BLOCK_NS`` of op time, and after each
block the reference unit of reference.py runs for a twentieth of that time,
so every block's latency can be read against the speed the machine had
while it ran.

With ``--trace 1`` it first times a third of the seconds untraced, then
installs the span recorders and times the rest, so the traced/untraced
ratio of ``op_ref_ms`` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import pickle
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MAX_REPORTED_ERRORS = 5
# A traced phase ends early once it holds this many spans, which bounds the
# memory of the traced run; per-op metrics need far fewer ops than that.
SPAN_BUDGET = 250_000
BLOCK_NS = 50_000_000


class Loop:
    """Runs ops in a closed loop; op indices continue across phases."""

    def __init__(self, runner, reference=None):
        self.runner = runner
        self.reference = reference
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _fail(self, i: int, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_REPORTED_ERRORS:
            self.errors.append(f"op {i}: {message}")

    def one(self, tracer=None) -> int | None:
        """Run and check one op; its latency in ns, or None if it failed."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        start = time.perf_counter_ns()
        try:
            if tracer is None:
                result = self.runner.op(i)
            else:
                with tracer.span("bench.op", "bench"):
                    result = self.runner.op(i)
        except Exception as exc:  # an op that raises is a failure, never an abort
            self._fail(i, f"{type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter_ns() - start
        try:
            error = self.runner.check(i, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self._fail(i, error)
            return None
        return elapsed

    def timed(self, seconds: float, tracer=None) -> tuple[list[int], list[tuple[int, int, int, int]]]:
        """Latencies (ns) of the ops that succeeded within ``seconds``, and
        per block (ops, their ns, reference units run after them, their ns).
        A last block shorter than ``BLOCK_NS`` is kept only if it is the
        only one."""
        latencies: list[int] = []
        blocks = []
        block_start = block_ns = 0

        def close_block():
            units, reference_ns = self.reference.time_after(block_ns)
            blocks.append((len(latencies) - block_start, block_ns, units, reference_ns))

        first = self.attempted
        deadline = time.perf_counter() + seconds
        while self.attempted == first or (
            time.perf_counter() < deadline
            and (tracer is None or len(tracer.spans) < SPAN_BUDGET)
        ):
            elapsed = self.one(tracer)
            if elapsed is not None:
                latencies.append(elapsed)
                block_ns += elapsed
            if block_ns >= BLOCK_NS:
                close_block()
                block_start, block_ns = len(latencies), 0
        if block_ns and not blocks:
            close_block()
        return latencies, blocks


def peak_rss_kib() -> int:
    """Peak RSS of this process image. ``ru_maxrss`` would not do: Linux
    carries it over from the forking parent, whose peak was the set-up."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    with open(args.work / "check.pkl", "rb") as fh:
        data = pickle.load(fh)
    paths = {name: args.work / name for name in ("texts", "catalog", "ops")}
    runner = workload.Runner(data, paths)
    del data
    reference = Reference()
    loop = Loop(runner, reference)
    for _ in range(workload.warmup_ops):
        loop.one()

    out: dict = {}
    if args.trace:
        untraced = loop.timed(args.seconds / 3)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            traced = loop.timed(args.seconds * 2 / 3, tracer)
        finally:
            uninstall()
        out["per_layer"] = metrics.layer_metrics(tracer)
        out["per_layer"]["trace.overhead_ratio"] = metrics.ratio(
            metrics.reference_latency(traced[1]), metrics.reference_latency(untraced[1])
        )
        tracer.write(args.work / "trace.tsv")
        latencies, blocks = untraced
    else:
        latencies, blocks = loop.timed(args.seconds)
    out["latency"] = metrics.percentile_report(latencies)
    out["latency"].update(metrics.reference_report(blocks))
    out["peak_rss_mb"] = peak_rss_kib() / 1024
    out.update(attempted=loop.attempted, failed=loop.failed, errors=loop.errors)
    if hasattr(runner, "answers_digest"):
        out["digest"] = runner.answers_digest()
    if hasattr(runner, "op_bytes"):
        out["op_bytes"] = runner.op_bytes
    (args.work / "worker.json").write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
