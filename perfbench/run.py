"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload articspace --seed 0 --seconds 30 --trace 0

Run from the repository root. The run generates the synthetic corpus for
the seed (in a child process, so its memory stays out of ``peak_rss_mb``),
sets the workload up several times, then repeats the pipeline for about
``--seconds`` seconds, checking every run's outputs against the stored
reference. It prints each metric by name and unit, then, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced pipeline runs and reports the
per-layer metrics from the traced ones, plus the tracing overhead; the
spans are written to ``perfbench/.work/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: the stored reference covers this many corpora; ``--seed n`` selects
#: corpus ``n mod N_CORPORA``
N_CORPORA = 16
#: each measurement cycle sets the workload up for at least this long
#: (and at least once), then runs the pipeline once
SETUP_SLICE_S = 0.1
#: top-level spans of a traced run must cover this share of its run time
MIN_TRACE_COVERAGE = 0.95
GEN_TIMEOUT_S = 60


def fail(msg: str) -> NoReturn:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def generate_corpus(index: int, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "corpus_gen.py"), "--seed", str(index),
                    "--out", str(out)], check=True, env=env, timeout=GEN_TIMEOUT_S)


def array_key(workload: str, index: int, key: str) -> str:
    """Name of an array-valued reference in ``reference.npz``."""
    return f"{workload}.{index}.{key}"


def load_reference(workload: str, index: int) -> dict:
    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs["workloads"][workload][str(index)]
    prefix = array_key(workload, index, "")
    with np.load(HERE / "reference.npz") as arrays:
        ref.update({k[len(prefix):]: arrays[k] for k in arrays.files if k.startswith(prefix)})
    return ref


class Loop:
    """Pipeline runs with their timings and output-check outcomes."""

    def __init__(self, wl, state, ref: dict, out: Path) -> None:
        self.wl, self.state, self.ref, self.out = wl, state, ref, out
        self.attempted = 0
        self.failed = 0

    def once(self, extra_check: Callable[[float], list[str]] | None = None) -> float:
        """One pipeline run; returns its wall time (checks excluded).

        ``extra_check`` gets the wall time and returns further errors.
        """
        t0 = time.perf_counter()
        try:
            outputs = self.wl.run(self.state, self.out)
        except Exception:
            dt = time.perf_counter() - t0
            errors = [traceback.format_exc()]
        else:
            dt = time.perf_counter() - t0
            errors = self.wl.check(outputs, self.ref)
        if extra_check is not None:
            errors += extra_check(dt)
        ops = self.wl.operations(self.state)
        self.attempted += ops
        if errors:
            self.failed += ops
            for e in errors:
                print(f"perfbench: check failed: {e}", file=sys.stderr)
        return dt


def timed_setups(loop: Loop, corpus_dir: Path, seed: int) -> list[float]:
    """Set the workload up for SETUP_SLICE_S, at least once; the last set-up
    becomes the loop's state. Returns each set-up's wall time."""
    times: list[float] = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < SETUP_SLICE_S:
        loop.state = None  # drop the previous set-up before building the next
        t0 = time.perf_counter()
        loop.state = loop.wl.setup(corpus_dir, seed)
        times.append(time.perf_counter() - t0)
    return times


def measure(loop: Loop, corpus_dir: Path, seed: int,
            seconds: float) -> tuple[list[float], list[float]]:
    """End-to-end run: cycles of set-up and one pipeline run for about
    ``seconds``. Set-ups interleave with pipeline runs so that both sample
    the machine over the whole measurement. Returns the set-up and the
    pipeline wall times."""
    setups: list[float] = []
    durations: list[float] = []
    cycles: list[float] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        setups += timed_setups(loop, corpus_dir, seed)
        durations.append(loop.once())
        cycles.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(cycles) > seconds:
            return setups, durations


def measure_traced(loop: Loop, seconds: float, rec: spans.Recorder,
                   targets: list[spans.Target]) -> tuple[dict, dict]:
    """After one warm-up run, alternate untraced and traced pipeline runs;
    per-layer metrics come from the traced ones. ``rec`` already holds the
    traced set-up."""
    plain: list[float] = []
    traced: list[float] = []
    coverage: list[float] = []
    start = time.perf_counter()
    loop.once()  # warm-up: a process's first pipeline run is slower

    def covered(dt: float) -> list[str]:
        coverage.append(spans.top_level_time(rec.spans, rec.run) / dt)
        if coverage[-1] < MIN_TRACE_COVERAGE:
            return [f"top-level spans cover {coverage[-1]:.1%} of the traced run"]
        return []

    while True:
        plain.append(loop.once())
        rec.run = f"run-{len(traced)}"
        with rec.installed(targets):
            traced.append(loop.once(covered))
        per_pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + per_pair > seconds:
            break
    runs = {"setup": 1, **{f"run-{i}": len(traced) for i in range(len(traced))}}
    layers = spans.layer_stats(rec.spans, runs)
    metrics = per_layer_metrics(layers)
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    metrics["trace.coverage"] = (min(coverage), "ratio")
    info = {"untraced_runs": len(plain), "traced_runs": len(traced)}
    return metrics, info


#: per-layer metrics ``<span name>.<stat>`` read from a span's figures;
#: any other per-layer name (not ``trace.*``) is a work counter
SPAN_STATS = ("self_s", "calls", "peak_alloc_mb", "gflop_per_s")


def per_layer_metrics(layers: dict) -> dict[str, tuple[float, str]]:
    """Figures per pipeline run for every ``per_layer`` metric of
    BENCHMARK.json but the ``trace.*`` ones; a layer the workload never
    calls reads 0."""
    counts: dict[str, float] = {}
    for st in layers.values():
        for k, v in st.counts.items():
            counts[k] = counts.get(k, 0.0) + v
    out = {}
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name = m["name"]
        if name.startswith("trace."):
            continue
        span, _, stat = name.rpartition(".")
        st = layers.get(span, spans.LayerStats())
        if stat not in SPAN_STATS:
            value = counts.get(name, 0.0)
        elif stat == "self_s":
            value = st.self_s
        elif stat == "calls":
            value = st.calls
        elif stat == "peak_alloc_mb":
            value = st.peak_alloc / 2**20
        else:  # gflop_per_s over the span's whole time
            value = counts.get(f"{span}.gflop", 0.0) / st.total_s if st.total_s else 0.0
        out[name] = (value, m["unit"])
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "silentspeech").is_dir():
        fail(f"no program sources under {ROOT / 'src'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    index = args.seed % N_CORPORA
    ref = load_reference(wl.name, index)

    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    try:
        generate_corpus(index, work / "corpus")
        if args.trace:
            rec = spans.Recorder()
            targets = workloads.trace_targets()
            with rec.installed(targets):
                state = wl.setup(work / "corpus", index)
            loop = Loop(wl, state, ref, out)
            metrics, info = measure_traced(loop, args.seconds, rec, targets)
            traces = HERE / ".work" / "traces"
            traces.mkdir(exist_ok=True)
            rec.dump(traces / f"{wl.name}-seed{args.seed}.json",
                     {k: v for k, (v, _) in metrics.items()})
        else:
            loop = Loop(wl, None, ref, out)
            setups, durations = measure(loop, work / "corpus", index, args.seconds)
            info = {"runs": [round(d, 3) for d in durations], "setups": len(setups)}
            metrics = {
                "run_s": (statistics.median(durations), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed_frac = loop.failed / loop.attempted
    print(f"workload {wl.name}  seed {args.seed}  corpus {index}  "
          + "  ".join(f"{k} {v}" for k, v in info.items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    print(f"{'failed_frac':44s} {failed_frac:14.6g} ratio "
          f"({loop.failed} of {loop.attempted} operations)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
