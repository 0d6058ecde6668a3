"""End-to-end benchmark of the heiszeta CLI on the source tree it sits in.

    python3 bench/run.py --workload closed_forms --seed 1 --seconds 36 --trace 0

With --trace 0 every case runs as users run it: one fresh process per case,
closed loop, one case at a time, with `src/` of this checkout first on
PYTHONPATH.  Passes over the workload repeat until --seconds is used up; the
seed permutes the case order of each pass.  With --trace 1 the same cases run
in this process with every layer wrapped (see tracing.py), and the per-layer
metrics are reported instead.  Every output is checked (see workloads.py).

Times are scaled to a fixed speed of the machine.  A small machine shared
with other tenants changes speed by up to half for seconds to minutes at a
time, which moves raw times of the same code by more than any bound worth
having (see README.md).  So a fixed pure-Python reference loop runs in this
process after every child process, and each child's wall and CPU time is
multiplied by REFERENCE_S over the mean time of the loop just before and just
after it.  The raw times are printed as well.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json for the chosen mode.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# The console-script entry point of pyproject.toml, run from source.  On
# exit it appends its peak RSS to stderr: the rusage max RSS of a child
# starts from the peak RSS of the process that spawned it (vfork and exec),
# so it cannot show a child smaller than this benchmark process.
BOOTSTRAP = """\
import sys
try:
    from heiszeta.cli import main
    sys.exit(main())
finally:
    with open("/proc/self/status") as fh:
        sys.stderr.write("\\n" + "".join(ln for ln in fh if ln.startswith("VmHWM:")))
"""
PROBE = (
    "import os, heiszeta; "
    "print(os.path.realpath(heiszeta.__file__)); print(heiszeta.__version__)"
)
SETUP_PROBES_FIRST = 4
CASE_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0
# Nominal time of reference_loop(): scaled times are seconds on a machine
# where the loop takes this long (about a 2.1 GHz Xeon vCPU, shared).
REFERENCE_S = 0.03


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop of dict and integer work."""
    t0 = time.perf_counter()
    d = {}
    x = 3
    for i in range(60000):
        k = (i & 1023, i & 7)
        d[k] = d.get(k, 0) + i * x
        x = (x * 7 + i) % 1000003
    return time.perf_counter() - t0


class Speed:
    """Scale factors from reference loops run between child processes."""

    def __init__(self):
        self.last = reference_loop()
        self.loops = [self.last]

    def scale(self) -> float:
        """Factor for the child that ran since the previous loop."""
        now = reference_loop()
        self.loops.append(now)
        factor = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        return factor


@dataclass
class CaseResult:
    case: workloads.Case
    wall: float
    cpu: float
    rss_mb: float
    scale: float  # speed factor from the reference loops around the case
    problem: str | None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    # Same conditions on every machine: compile from source on each start
    # (nothing is written into the tree) and a fixed hash seed.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], env: dict, timeout: float):
    """Run argv to completion; (wall_s, rusage, exit code, stdout, stderr).

    The child is reaped with os.wait4 so that its own CPU time is read, not
    that of every child this process ever had.  The exit code is None when
    the child was killed at the timeout.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + timeout
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for f in chunks:
            sel.register(f, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in sel.select(timeout=max(left, 0.05)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, rusage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    out = b"".join(chunks[proc.stdout]).decode()
    err = b"".join(chunks[proc.stderr]).decode()
    return wall, rusage, code, out, err


def probe_tree(env: dict) -> str:
    """Fail unless `import heiszeta` resolves inside this checkout's src/."""
    if not os.path.isfile(os.path.join(SRC, "heiszeta", "__init__.py")):
        sys.exit("bench: no heiszeta package under %s" % SRC)
    _, _, code, out, err = spawn([sys.executable, "-c", PROBE], env, CASE_TIMEOUT_S)
    lines = out.split()
    if code != 0 or len(lines) != 2:
        sys.exit("bench: cannot import heiszeta from %s:\n%s" % (SRC, err))
    path, version = lines
    if not path.startswith(os.path.realpath(SRC) + os.sep):
        sys.exit("bench: heiszeta imported from %s, not from %s" % (path, SRC))
    return version


def run_case(case, env: dict, timeout: float, speed: Speed) -> CaseResult:
    if timeout <= 0:
        return CaseResult(case, 0.0, 0.0, 0.0, 1.0, "run deadline passed")
    argv = [sys.executable, "-c", BOOTSTRAP, *case.argv]
    wall, ru, code, out, err = spawn(argv, env, timeout)
    scale = speed.scale()
    err, rss_mb = peak_rss(err)
    if code is None:
        problem = "timed out after %.0f s" % timeout
    else:
        problem = case.check(code, out)
        if problem and err.strip():
            problem += ": " + err.strip().splitlines()[-1]
    cpu = ru.ru_utime + ru.ru_stime
    return CaseResult(case, wall, cpu, rss_mb, scale, problem)


def peak_rss(err: str) -> tuple[str, float]:
    """Split the VmHWM line off a child's stderr: (rest of stderr, MB)."""
    head, sep, tail = err.rpartition("\nVmHWM:")
    if not sep:
        return err, 0.0
    return head, int(tail.split()[0]) / 1024.0


def setup_probe(env: dict, version: str, speed: Speed) -> tuple[float, float, bool]:
    """A fresh `heiszeta --version` process: (wall, scale, whether it worked)."""
    wall, _, code, out, _ = spawn([sys.executable, "-c", BOOTSTRAP, "--version"],
                                  env, CASE_TIMEOUT_S)
    return wall, speed.scale(), code == 0 and out.strip() == version


def spread(values: list[float]) -> tuple[float, float, float, int]:
    """(median, first quartile, third quartile, sample count)."""
    if len(values) == 1:
        return values[0], values[0], values[0], 1
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def run_untraced(args, env: dict, version: str, t_start: float, units: dict) -> dict:
    cases = workloads.cases(args.workload)
    rng = random.Random(args.seed)
    speed = Speed()
    setup_probe(env, version, speed)  # warms the file cache; not counted
    setup = [setup_probe(env, version, speed) for _ in range(SETUP_PROBES_FIRST)]
    passes: list[list[CaseResult]] = []
    t0 = time.perf_counter()
    while True:
        order = list(cases)
        rng.shuffle(order)
        results = []
        for case in order:
            left = t_start + RUN_DEADLINE_S - time.perf_counter()
            results.append(run_case(case, env, min(CASE_TIMEOUT_S, left), speed))
        passes.append(results)
        setup.append(setup_probe(env, version, speed))
        elapsed = time.perf_counter() - t0
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
        if time.perf_counter() - t_start > RUN_DEADLINE_S:
            break

    runs = [r for p in passes for r in p]
    failures = [r for r in runs if r.problem]
    setup_failed = sum(not ok for _, _, ok in setup)
    wall = {c.index: statistics.median(r.wall * r.scale for r in runs if r.case is c)
            for c in cases}
    cpu = {c.index: statistics.median(r.cpu * r.scale for r in runs if r.case is c)
           for c in cases}
    metrics = {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(cpu.values()),
        "case_max_s": max(wall.values()),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in p) for p in passes),
        "setup_s": statistics.median(w * s for w, s, _ in setup),
    }
    raw = {
        "wall_s": [sum(r.wall for r in p) for p in passes],
        "cpu_s": [sum(r.cpu for r in p) for p in passes],
        "case_max_s": [max(r.wall for r in p) for p in passes],
        "peak_rss_mb": [max(r.rss_mb for r in p) for p in passes],
        "setup_s": [w for w, _, _ in setup],
    }

    print("# per case over %d passes: median scaled wall, median raw wall" % len(passes))
    for case in cases:
        walls = [r.wall for r in runs if r.case is case]
        print("case %d  %7.3f s  %7.3f s  %s"
              % (case.index, wall[case.index], statistics.median(walls), case.line))
    for r in failures:
        print("FAILED case %d (%s): %s" % (r.case.index, r.case.line, r.problem), file=sys.stderr)
    med, q1, q3, n = spread(speed.loops)
    print("# reference loop %.4f s median, %.4f-%.4f s quartiles, %d loops" % (med, q1, q3, n))
    print("# metric  unit  scaled  | raw per pass: median  q1  q3  samples")
    for name, values in raw.items():
        med, q1, q3, n = spread(values)
        print("%-12s %-5s %.6f  | %.6f  %.6f  %.6f  %d"
              % (name, units[name], metrics[name], med, q1, q3, n))
    print("%-12s %-5s %.6f  | %d of %d case runs failed, %d of %d setup runs"
          % ("fail_ratio", "ratio", len(failures) / len(runs), len(failures), len(runs),
             setup_failed, len(setup)))
    return {
        "correct": not failures and not setup_failed,
        "attempted": len(runs),
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    t_start = time.perf_counter()
    # One CPU for this process and its children, so that the reference loop
    # and the case it scales run on the same CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    env = child_env()
    version = probe_tree(env)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    print("# heiszeta %s  workload=%s  seed=%d  seconds=%g  trace=%d"
          % (version, args.workload, args.seed, args.seconds, args.trace))
    if args.trace:
        import tracing

        wanted = spec["per_layer"]
        result = tracing.run(args.workload, args.seed, SRC, Speed())
    else:
        wanted = spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in wanted}
        result = run_untraced(args, env, version, t_start, units)
    # Layers a workload does not reach report 0.
    result["metrics"] = {
        m["name"]: {"value": result["metrics"].get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
