"""wecdb benchmark: one command, four workloads, outputs checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {import,point_lookup,sts,raw_text} \\
        --seed N --seconds S --trace {0,1}

The run generates the workload's inputs from the seed (bench/gen.py),
builds its catalog with the checkout's own ``src/wecdb`` several times (the
median build time, at the reference speed, is ``setup_s``), then starts
bench/worker.py, which runs
the timed phase in a fresh process and checks every answer. It prints a
human-readable report, keeps a JSON record with the environment under
``.bench_work/results/``, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` reports the per-layer metrics from
spans recorded around wecdb's public entry points.

The gated times, ``setup_s`` and ``op_ref_ms``, are read against a fixed
reference unit of work timed after each build and between blocks of ops
(bench/reference.py), so that they follow the program rather than the speed
a shared host happens to have; the raw times are printed beside them.

Reads are served from the OS page cache: the benchmark does not (and, in a
container, cannot) drop caches, so latencies are those of warm files.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import metrics  # noqa: E402
from reference import Reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_DEADLINE_S = 170  # the whole run, set-up included, must end by then

NOTES = {
    "import": "import measures wecdb's own flush policy (at the seed commit:"
              " journal_mode=MEMORY, synchronous=OFF, no fsync)",
}
HEADLINE_PREFIX = {"point_lookup": ("lookup", "us", 1e3), "raw_text": ("raw_text", "ms", 1.0)}


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    conn = sqlite3.connect(":memory:")
    page_size = conn.execute("PRAGMA page_size").fetchone()[0]
    cache_size = conn.execute("PRAGMA cache_size").fetchone()[0]
    conn.close()
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "sqlite_default_page_size": page_size,
        "sqlite_default_cache_size": cache_size,
        "git_commit": commit,
        "seed": seed,
    }


def store_ratios(catalog: Path, texts: Path, wecs) -> list[tuple[int, float, float]]:
    """(dims, store bytes / text bytes, store bytes / payload bytes) per collection."""
    from wecdb import Database

    out = []
    with Database(catalog) as db:
        for wec in wecs:
            store_bytes = db.catalog.store_path(db.catalog.require(wec.ident)).stat().st_size
            text_bytes = (texts / wec.filename).stat().st_size
            out.append((wec.dims, store_bytes / text_bytes, store_bytes / (len(wec.words) * wec.dims * 4)))
    return out


def run_benchmark(name: str, seed: int, seconds: float, trace: int, scale: str = "full",
                  work_root: Path = ROOT / ".bench_work") -> tuple[dict, list[str]]:
    """One run; returns (the result object, report lines)."""
    started = time.monotonic()
    workload = WORKLOADS[name]
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    paths = {key: work / key for key in ("texts", "catalog", "ops")}
    for path in paths.values():
        path.mkdir(parents=True)
    try:
        wecs, inputs = workload.generate(seed, scale)
        gen.write_texts(wecs, paths["texts"], seed)
        with open(work / "check.pkl", "wb") as fh:
            pickle.dump(workload.check_data(inputs, paths["texts"]), fh)

        reference = Reference()
        setup_times, setup_unit_ms = [], []
        for _ in range(workload.setup_repeats):
            shutil.rmtree(paths["catalog"])
            t0 = time.perf_counter_ns()
            workload.build(paths["catalog"], paths["texts"], inputs)
            elapsed = time.perf_counter_ns() - t0
            units, reference_ns = reference.time_after(elapsed)
            setup_times.append(elapsed / 1e9)
            setup_unit_ms.append(reference_ns / units / 1e6)
        del reference
        ratios = store_ratios(paths["catalog"], paths["texts"], wecs)
        del wecs, inputs

        budget = RUN_DEADLINE_S - (time.monotonic() - started)
        worker = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", name, "--work", str(work),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, env={**os.environ, "PYTHONHASHSEED": "0"},
            stdout=subprocess.DEVNULL, timeout=max(budget, 1),
        )
        if worker.returncode != 0:
            raise RuntimeError(f"timed phase exited with code {worker.returncode}")
        timed = json.loads((work / "worker.json").read_text("utf-8"))
    finally:
        for key in ("texts", "catalog", "ops"):
            shutil.rmtree(paths[key], ignore_errors=True)

    latency = timed["latency"]
    setup_s = metrics.reference_seconds(setup_times, setup_unit_ms)
    store_ratio_max = max(r for _, r, _ in ratios)
    if trace:
        values = dict(timed["per_layer"])
        for dims in (50, 300, 1024):
            values[f"store.bytes_per_payload_byte.d{dims}"] = max(
                (p for d, _, p in ratios if d == dims), default=0.0
            )
        reported = [m[0] for m in metrics.PER_LAYER]
    else:
        values = {
            "setup_s": setup_s,
            "op_ref_ms": latency["op_ref_ms"],
            "peak_rss_mb": timed["peak_rss_mb"],
            "store_ratio_max": store_ratio_max,
        }
        reported = [m[0] for m in metrics.END_TO_END]
    result = {
        "correct": timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": {k: {"value": values[k], "unit": metrics.UNITS[k]} for k in reported},
    }

    env = environment(seed)
    lines = [f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}  scale {scale}",
             "env " + json.dumps(env)]
    if name in NOTES:
        lines.append("note " + NOTES[name])
    lines += report_lines(name, result, timed, latency, setup_times, setup_unit_ms, ratios, trace)
    record_dir = work_root / "results"
    record_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "trace": trace, "scale": scale, "env": env, "result": result,
              "latency": latency, "setup_times_s": setup_times,
              "setup_reference_unit_ms": setup_unit_ms, "store_ratios": ratios,
              "errors": timed["errors"], "digest": timed.get("digest")}
    (record_dir / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    return result, lines


def report_lines(name, result, timed, latency, setup_times, setup_unit_ms, ratios, trace) -> list[str]:
    """The named metrics of the workload, each with its unit and sample count."""
    attempted, failed = result["attempted"], result["failed"]
    n = latency["n"]
    lines = [
        f"error_rate {failed / attempted:.6f} ratio  ({failed} failed of {attempted} ops)",
        f"setup_s {metrics.reference_seconds(setup_times, setup_unit_ms):.4f} s  (at the reference speed:"
        f" median of {len(setup_times)} builds; raw {', '.join(f'{t:.3f}' for t in setup_times)} s;"
        f" reference unit {', '.join(f'{u:.4f}' for u in setup_unit_ms)} ms)",
        f"peak_rss_mb {timed['peak_rss_mb']:.1f} MiB  (timed-phase process)",
        f"op_ref_ms {latency['op_ref_ms']:.4f} ms  (at the reference speed: median of"
        f" {latency['blocks']} blocks; the reference unit took {latency['reference_unit_ms']:.4f} ms"
        " here, 1 ms by definition)",
        f"op raw: mean {latency['mean_ms']:.4f} ms  (n={n} ops; p50 {latency['p50_ms']:.4f} ms"
        + "".join(f"; {label} {v:.4f} ms" for label, v in latency["tails_ms"].items())
        + ("" if latency["tails_ms"] else "; too few samples for p90") + ")",
    ]
    for dims, to_text, to_payload in ratios:
        lines.append(f"store {dims}-d: {to_text:.4f} x text bytes, {to_payload:.4f} x payload bytes")
    if name == "import":
        mb_per_s = timed["op_bytes"] / (latency["mean_ms"] / 1e3) / 1e6 if n else 0.0
        lines.append(f"import_mb_per_s {mb_per_s:.3f} MB/s  (n={n} imports of the 50/300/1024-d set)")
        lines.append(f"store_ratio_max {max(r for _, r, _ in ratios):.4f} ratio")
    elif name == "sts":
        lines.append(f"sts_p50_s {latency['p50_ms'] / 1e3:.4f} s  (n={n} invocations)")
    else:
        prefix, unit, scale = HEADLINE_PREFIX[name]
        lines.append(f"{prefix}_p50_{unit} {latency['p50_ms'] * scale:.4f} {unit}  (n={n})")
        p99 = latency["tails_ms"].get("p99")
        if p99 is None:
            lines.append(f"{prefix}_p99_{unit} not reported: n={n} leaves fewer than 10 samples beyond p99")
        else:
            lines.append(f"{prefix}_p99_{unit} {p99 * scale:.4f} {unit}  (n={n})")
    if "digest" in timed:
        lines.append(f"raw_text_digest {timed['digest']}  (tokens, missing and words of the first ops)")
    for error in timed["errors"]:
        lines.append(f"FAILED {error}")
    if trace:
        lines.append("per-layer metrics (traced run; should move / where it shows, predicted no change):")
        for metric, unit, _, moves, where in metrics.PER_LAYER:
            value = result["metrics"][metric]["value"]
            lines.append(f"  {metric:40s} {value:14.4f} {unit:6s} -> {moves:16s} {where}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wecdb benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wecdb" / "__init__.py").is_file():
        print(f"error: no wecdb sources at {SRC}; run from the root of a wecdb checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except Exception as exc:
        print(f"error: benchmark run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
