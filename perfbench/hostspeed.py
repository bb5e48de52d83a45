"""Host speed during a run, from a fixed reference loop in its own process.

On a shared host the CPU's speed swings: on a 2-vCPU virtual machine
sharing its host, pure-Python code ran up to 40% slower for episodes
of ten seconds to a few minutes.  A 20-second run cannot average that
away, so every end-to-end time is divided by the host's slowdown
measured beside it (and every rate multiplied by it):

* one child process per CPU the measured work runs on, pinned to that
  CPU, runs a fixed reference chunk (:func:`_chunk`, a toy issue queue)
  every ``INTERVAL`` seconds and records the CPU time each chunk took
  (CPU time, so sharing the CPU with the measured program does not
  count);
* :meth:`HostSpeed.factor` is the mean chunk cost over a wall-clock
  window divided by ``REF_CHUNK_S``, the cost on the quiet host: above
  1 the host ran slow.

The vCPUs slow down independently: beside back-to-back sim-ilp grids
of one seed, an integer loop pinned to the simulator's CPU brought the
grid-time spread from 11.5% to 3.0% (coefficient of variation), the
same loop on the other CPU only to 6.8%.  Hence one loop per CPU, on
that CPU.  The reference chunk then became a toy issue queue: beside
200 s of back-to-back sim-mlp grids of one seed on one CPU it brought
the spread from 12.3% to 2.8%, the integer loop it replaced only to
7.0%.

The factor must not move with the benchmark's own load, or a change that
loads the CPUs more would hide part of its cost.  ``--self-load`` checks
that: it alternates one-second phases with 0, 1 and 2 simulators
pinned to the loop's CPU (so slow host episodes cancel between
neighbouring phases) and prints the factor each way, from the
repository root::

    python3 perfbench/hostspeed.py --self-load [--cycles 40]

Run as ``hostspeed.py --cpu N``, this is the child: pinned to CPU ``N``,
it loops until standard input closes, then prints its samples as one
JSON list of ``[wall time, CPU seconds]``.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Iterable, List, Tuple

#: Instructions dispatched per chunk of the reference loop.
CHUNK = 450
#: Steps between an instruction's dispatch and its wakeup broadcast.
LATENCY = 32
INTERVAL = 0.05
#: CPU seconds one chunk takes on the quiet host (fixed once; only its
#: constancy matters, since both sides of a comparison divide by it).
REF_CHUNK_S = 0.0015


class _Inst:
    __slots__ = ("seq", "deps", "ready")

    def __init__(self, seq: int, deps: List[int]) -> None:
        self.seq = seq
        self.deps = deps
        self.ready = not deps

    def wake(self, tag: int) -> None:
        self.deps.remove(tag)
        self.ready = not self.deps


def _chunk() -> int:
    """A toy issue queue: slotted instruction objects, a tag -> waiters
    dict, a wakeup broadcast and an oldest-first select, the same kind
    of work as the simulator's inner loop, written apart from it so that
    a change to the simulator cannot move the reference."""
    window: List[_Inst] = []
    waiters: dict = {}
    issued = 0
    for seq in range(CHUNK):
        deps = sorted({d for d in (seq - 1 - seq % 7, seq - 1 - seq % 13)
                       if d >= 0})
        inst = _Inst(seq, deps)
        window.append(inst)
        for dep in deps:
            waiters.setdefault(dep, []).append(inst)
        for waiter in waiters.pop(seq - LATENCY, ()):
            waiter.wake(seq - LATENCY)
        granted = [i for i in window if i.ready][:4]
        for i in granted:
            window.remove(i)
        issued += len(granted)
    return issued


class HostSpeed:
    """Context manager running the reference loop on each of ``cpus``
    beside the benchmark."""

    def __init__(self, cpus: Iterable[int]) -> None:
        self.cpus = sorted(cpus)
        self.samples: List[Tuple[float, float]] = []

    def __enter__(self) -> "HostSpeed":
        self._procs = []
        try:
            for cpu in self.cpus:
                self._procs.append(subprocess.Popen(
                    [sys.executable, __file__, "--cpu", str(cpu)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                ))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc) -> None:
        failed = []
        for proc in self._procs:
            try:
                out, _ = proc.communicate(timeout=30)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            if proc.returncode == 0:
                self.samples += [tuple(s) for s in json.loads(out)]
            else:
                failed.append(proc.returncode)
        self.samples.sort()
        if failed and exc[0] is None:
            raise RuntimeError(f"host-speed loop exited with {failed}")

    def normalize(self, watch) -> float:
        """A :class:`~common.Stopwatch`'s seconds on the quiet host."""
        return watch.seconds / self.window_factor(watch)

    def window_factor(self, watch) -> float:
        """Mean slowdown over a :class:`~common.Stopwatch`'s window."""
        return self.factor(watch.start, watch.end)

    def factor(self, start: float, end: float) -> float:
        """Mean slowdown over ``[start, end]`` (``time.time()`` values);
        the nearest sample when none falls inside."""
        inside = [cost for t, cost in self.samples if start <= t <= end]
        if not inside:
            mid = (start + end) / 2
            inside = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return sum(inside) / len(inside) / REF_CHUNK_S


#: A busy process: the simulator on the memory-heavy sim-mlp programs,
#: one cell after another.
_BUSY = (
    "from repro.sim.runner import run_policies\n"
    "seed = 1\n"
    "while True:\n"
    "    run_policies(['xz', 'lbm'], ['age'], num_instructions=40000, seed=seed)\n"
    "    seed += 1\n"
)


def self_load(cycles: int) -> None:
    """Print the factor beside 0, 1 and 2 simulators on its CPU."""
    from common import child_env

    cpu = min(os.sched_getaffinity(0))
    busy = [subprocess.Popen([sys.executable, "-c", _BUSY], env=child_env(),
                             preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
            for _ in range(2)]
    windows = []
    try:
        with HostSpeed([cpu]) as host:
            for _ in range(cycles):
                for load in (0, 1, 2, 1):
                    for k, proc in enumerate(busy):
                        os.kill(proc.pid,
                                signal.SIGCONT if k < load else signal.SIGSTOP)
                    time.sleep(0.15)
                    t0 = time.time()
                    time.sleep(1.0)
                    windows.append((load, t0, time.time()))
    finally:
        for proc in busy:
            proc.kill()
            proc.wait()
    phases = [(load, host.factor(t0, t1)) for load, t0, t1 in windows]
    for load in (0, 1, 2):
        values = [f for n, f in phases if n == load]
        print(f"{load} busy: mean factor {statistics.mean(values):.4f} "
              f"over {len(values)} phases")
    # Each loaded phase against the idle phases on either side of it.
    for load in (1, 2):
        diffs = []
        for i in range(0, len(phases) - 4, 4):
            idle = (phases[i][1] + phases[i + 4][1]) / 2
            diffs += [f / idle - 1 for n, f in phases[i + 1:i + 4] if n == load]
        se = statistics.stdev(diffs) / len(diffs) ** 0.5
        print(f"{load} busy vs idle: {statistics.mean(diffs):+.4f} "
              f"+- {se:.4f} (standard error)")


def main() -> int:
    if sys.argv[1:2] == ["--self-load"]:
        self_load(int(sys.argv[3]) if sys.argv[2:3] == ["--cycles"] else 40)
        return 0
    if sys.argv[1:2] == ["--cpu"]:
        os.sched_setaffinity(0, {int(sys.argv[2])})
    stop = threading.Event()

    def watch_stdin() -> None:
        sys.stdin.read()
        stop.set()

    threading.Thread(target=watch_stdin, daemon=True).start()
    samples = []
    while not stop.wait(INTERVAL):
        cpu = time.thread_time()
        _chunk()
        samples.append([time.time(), time.thread_time() - cpu])
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
