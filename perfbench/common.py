"""Inputs, guards and small measurement helpers shared by the workloads.

Every input is derived from the workload seed (held-out query logs,
Zipf draws, arrival schedules); the detector under test is always the
shipped configuration: a model trained with the constraint classifier,
compiled with ``HdmModel.compile()`` and saved as a snapshot whose
header reports both the classifier and the segmentation automaton.
"""

from __future__ import annotations

import gc
import os
import platform
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / "perfbench" / "_work"

#: The input model: trained once per run from a fixed log (the system's
#: configuration, not a workload input), so every seed runs one model.
TRAIN_SEED = 7
TRAIN_INTENTS = 4000

#: Held-out logs use seeds far from the training seed, offset per purpose.
HELDOUT_BASE = 100_000
REFRESH_LOG_BASE = 200_000
SCHEDULE_BASE = 300_000


class BenchError(Exception):
    """The benchmark cannot produce a valid result (setup failed, the
    program under test is missing, or it is not the shipped
    configuration)."""


@dataclass
class Result:
    """What one workload run hands back to ``run.py``.

    ``end_to_end`` and ``per_layer`` map metric names to values; ``info``
    holds extra lines for the human-readable report; ``problems`` lists
    every wrong output found (a run with any is not correct)."""

    attempted: int
    failed: int
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    info: dict[str, object] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def taxonomy():
    from repro import build_from_seed

    return build_from_seed()


def shipped_model(tax=None):
    """The model users run: default training config, classifier on."""
    from repro import LogConfig, TrainingConfig, generate_log, train_model

    tax = tax or taxonomy()
    log = generate_log(tax, LogConfig(seed=TRAIN_SEED, num_intents=TRAIN_INTENTS))
    model = train_model(log, tax, TrainingConfig())
    if model.classifier is None:
        raise BenchError("training produced no constraint classifier")
    return model


def heldout_queries(seed: int, intents: int, tax=None) -> list[str]:
    """Distinct queries of a held-out log generated from ``seed``, in a
    seeded random order (so every prefix is a random sample)."""
    from repro import LogConfig, generate_log

    tax = tax or taxonomy()
    log = generate_log(tax, LogConfig(seed=HELDOUT_BASE + seed, num_intents=intents))
    queries = list(dict.fromkeys(record.query for record in log.records()))
    random.Random(seed).shuffle(queries)
    return queries


def zipf_draws(items: list, count: int, s: float, rng: random.Random) -> list:
    """``count`` draws where rank r (list order) has weight 1/r^s."""
    cumulative = list(accumulate(1.0 / rank**s for rank in range(1, len(items) + 1)))
    total = cumulative[-1]
    return [
        items[min(bisect_left(cumulative, rng.random() * total), len(items) - 1)]
        for _ in range(count)
    ]


def arrival_offsets(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Open-loop arrival offsets (seconds from start) at ``rate`` per
    second over ``seconds``: one arrival at a uniformly drawn point of
    each ``1/rate`` slot. Gaps vary from 0 to two slots, but the count
    is fixed, so runs differ in timing, not in offered load."""
    slot = 1.0 / rate
    return [(index + rng.random()) * slot for index in range(int(rate * seconds))]


def quiet_harness() -> None:
    """Keep the load generator's own garbage collection out of the
    measured latencies: everything the harness built so far (logs,
    query pools) moves to the permanent generation."""
    gc.collect()
    gc.freeze()


def write_shipped_snapshot(model, path: Path) -> None:
    """Compile ``model`` the way ``repro snapshot`` does and save it."""
    compiled = model.compile()
    try:
        compiled.save_snapshot(path)
    finally:
        compiled.close()
    check_shipped(path)


def check_shipped(path: Path) -> dict:
    """Refuse a snapshot that is not the shipped configuration."""
    from repro.runtime import read_snapshot_header

    header = read_snapshot_header(path)
    missing = [key for key in ("has_classifier", "has_automaton") if not header.get(key)]
    if missing:
        raise BenchError(
            f"{path.name} is not the shipped configuration: header lacks "
            + ", ".join(missing)
        )
    return header


def expected_body(detector, query: str) -> bytes:
    """The exact HTTP body ``/detect`` must return for ``query``."""
    import json

    from repro.serving.http import detection_payload

    payload = detection_payload(detector.detect(query))
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0 for no values)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def child_env() -> dict:
    """Environment for the processes the benchmark starts: the program
    is imported from this checkout's ``src``."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


#: Seconds one :func:`calibrate` call takes on a quiet bench host. Host
#: speed is reported, and batch timings are scaled, relative to it.
CALIBRATION_REFERENCE_S = 0.0025


def calibrate() -> float:
    """Time a fixed slice of pure-Python work (dict stores, integer
    arithmetic); returns its seconds. On a shared host the CPU's speed
    drifts by ±25% over seconds, and this slice slows with it."""
    began = perf_counter()
    total, table = 0, {}
    for index in range(20_000):
        total += index * index % 7
        table[index & 1023] = total
    return perf_counter() - began


def host_calibration_ms(samples: int = 40) -> float:
    """Median :func:`calibrate` time in ms over ``samples`` slices."""
    return median([calibrate() for _ in range(samples)]) * 1e3


def host_slowdown(samples: int = 5) -> float:
    """How much slower than the reference host the CPU runs right now
    (median of ``samples`` calibration slices over the reference)."""
    return median([calibrate() for _ in range(samples)]) / CALIBRATION_REFERENCE_S


def scaled_seconds(seconds: float, before: float, after: float) -> float:
    """``seconds`` of CPU-bound set-up scaled to the reference host
    speed, from the slowdowns measured just before and after it."""
    return seconds / ((before + after) / 2)


def hardware() -> dict:
    """The block recorded next to every result."""
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "load_1m": load,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids`` in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# /stats deltas
# ----------------------------------------------------------------------
_BOUNDS_US = tuple(m * 10**e for e in range(8) for m in (1, 2, 5))


def stage_delta(before: dict, after: dict) -> dict:
    """One ``/stats`` stage histogram's change over a run: observation
    count, mean and p99 of the observations made in between."""
    before = before or {}
    count = after.get("count", 0) - before.get("count", 0)
    total = after.get("count", 0) * after.get("mean_us", 0.0) - before.get(
        "count", 0
    ) * before.get("mean_us", 0.0)
    buckets = dict(after.get("buckets", {}))
    for key, value in (before.get("buckets") or {}).items():
        buckets[key] = buckets.get(key, 0) - value
    return {
        "count": count,
        "mean_us": total / count if count > 0 else 0.0,
        "p99_us": _bucket_percentile(buckets, count, after.get("max_us", 0.0), 99),
    }


def _bucket_percentile(buckets: dict, count: int, max_us: float, q: float) -> float:
    """Percentile over 1-2-5 bucket counts, interpolated inside the
    bucket (the same reading ``/stats`` gives for lifetime histograms)."""
    if count <= 0:
        return 0.0
    counts = [0] * (len(_BOUNDS_US) + 1)
    for key, value in buckets.items():
        index = len(_BOUNDS_US) if key == "inf" else _BOUNDS_US.index(int(key))
        counts[index] += value
    target = count * q / 100.0
    cumulative = 0
    for index, value in enumerate(counts):
        if value <= 0:
            continue
        previous = cumulative
        cumulative += value
        if cumulative >= target:
            lower = 0 if index == 0 else _BOUNDS_US[index - 1]
            upper = _BOUNDS_US[index] if index < len(_BOUNDS_US) else max(max_us, lower)
            return lower + (upper - lower) * min(max((target - previous) / value, 0.0), 1.0)
    return max_us


def counter_delta(before: dict, after: dict, name: str) -> int:
    return (after or {}).get(name, 0) - (before or {}).get(name, 0)
