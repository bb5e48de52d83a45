"""Shared helpers: locating the program under test, statistics, output.

The benchmark runs from the root of a source checkout and measures the
``repro`` package found in that checkout's ``src/`` directory — never an
installed copy — so it fails loudly when the program is not there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

#: The checkout the benchmark measures (it is always run from its root).
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space for queues, caches, logs and the digest ledger.
WORK = ROOT / ".perfbench"

#: The paper's headline for Figure 9: SWQUE over AGE, INT, medium core.
PAPER_INT_MEDIUM_GAIN = 0.097


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, bad arguments)."""


def import_repro():
    """Import ``repro`` from ``<checkout>/src`` and prove that is what ran."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise BenchError(
            f"no program to measure: {package} is missing "
            f"(run the benchmark from the repository root)"
        )
    sys.path.insert(0, str(SRC))
    import repro

    loaded = Path(repro.__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchError(f"imported repro from {loaded}, not from {SRC}")
    return repro


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    previous = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + previous if previous else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def source_digest() -> str:
    """Content hash of the program's and the benchmark's sources (keys
    the digest ledger)."""
    h = hashlib.sha256()
    paths = sorted((SRC / "repro").rglob("*.py"))
    paths += sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Stopwatch:
    """One timed action, started on creation: ``seconds`` by the
    monotonic clock, plus the ``time.time()`` window the host-speed
    factor is taken over."""

    def __init__(self) -> None:
        self.start = time.time()
        self._t0 = time.perf_counter()

    def stop(self) -> "Stopwatch":
        self.seconds = time.perf_counter() - self._t0
        self.end = time.time()
        return self

    def __enter__(self) -> "Stopwatch":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# -- statistics --------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Candidate tail percentiles, highest first.
_TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)


def tail(values: Sequence[float]) -> Tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Nearest-rank percentiles.  With too few samples for any rung of the
    ladder the maximum is reported, labelled ``max``.
    """
    if not values:
        raise ValueError("tail of no samples")
    ordered = sorted(values)
    n = len(ordered)
    for pct in _TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= 10:
            return f"p{pct:g}", ordered[rank - 1]
    return "max", ordered[-1]


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the digest ledger -------------------------------------------------------------


def check_ledger(workload: str, seed: int, record: Dict[str, object]) -> List[str]:
    """Compare deterministic outputs with earlier runs of this checkout.

    The first run for a (program sources, workload, seed) writes the
    record; every later run must reproduce each field it shares with the
    stored one exactly.  Returns the mismatches.
    """
    path = WORK / "ledger" / f"{source_digest()}-{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    stored: Dict[str, object] = {}
    if path.is_file():
        stored = json.loads(path.read_text())
    problems = [
        f"{name}: {record[name]!r} differs from an earlier run's {stored[name]!r}"
        for name in sorted(record)
        if name in stored and stored[name] != record[name]
    ]
    merged = dict(stored)
    merged.update({k: v for k, v in record.items() if k not in stored})
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(merged, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return problems


class Report:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        #: The end-to-end metrics as measured, before host normalization.
        self.raw: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: List[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.problems.append(message)
        return ok

    def note(self, line: str) -> None:
        self.notes.append(line)


def fmt(value: float) -> str:
    if value == 0 or 1e-3 <= abs(value) < 1e6:
        return f"{value:.6g}"
    return f"{value:.4e}"
