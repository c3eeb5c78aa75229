"""stratclt benchmark: end-to-end CLI workloads and a traced layer run.

Usage (from the repository root):

    python3 perfbench/run.py --workload clt-bundled --seed 1 --seconds 28 --trace 0

With ``--trace 0`` it measures the set-up time of a fresh interpreter,
then runs whole rounds of the workload's CLI invocations, one at a time,
while one more round fits in ``--seconds`` (at least one round), checking
every output against values computed apart from the program.  With
``--trace 1`` it runs the layer suite of ``layers.py`` instead.  The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
NPROC = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3
# at most nproc threads for BLAS and for the replicate pool, in this
# process and in every child; set before numpy is first imported
os.environ.update({name: str(NPROC) for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "STRATCLT_THREADS")})

import layers  # noqa: E402
import workloads  # noqa: E402


def spawn(argv: list, work: Path, tag: str) -> tuple[int, str, str, float, float, float]:
    """Run one child to completion: (code, stdout, stderr, wall s, cpu s, peak RSS MB).

    CPU and peak RSS come from the child's own rusage (wait4)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path, err_path = work / f"{tag}.stdout", work / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=REPO)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def measure_setup(work: Path) -> float:
    """Median wall time for a fresh interpreter to import stratclt.cli."""
    times = []
    for i in range(SETUP_REPEATS):
        code, _out, err, wall, _cpu, _rss = spawn(
            [sys.executable, "-c", "import stratclt.cli"], work, f"setup{i}")
        if code != 0:
            raise RuntimeError(f"import stratclt.cli failed:\n{err}")
        times.append(wall)
    return statistics.median(times)


def run_round(ops, work: Path, round_no: int, log) -> dict:
    wall = cpu = rss = 0.0
    failed = incorrect = 0
    for op in ops:
        code, out, err, w, c, r = spawn(
            [sys.executable, "-m", "stratclt"] + op.argv, work, f"r{round_no}-{op.name}")
        wall, cpu, rss = wall + w, cpu + c, max(rss, r)
        if "Traceback (most recent call last)" in err:
            problems = ["traceback: " + err.strip().splitlines()[-1]]
        elif code not in op.ok_codes:
            problems = [f"exit {code}: {err.strip()[-300:]}"]
        else:
            try:
                problems = op.check(workloads.Result(code, out, err))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            incorrect += bool(problems)
        failed += bool(problems)
        status = "ok" if not problems else "FAILED " + "; ".join(problems)
        log(f"  {op.name:24s} exit={code} wall={w:7.3f}s cpu={c:7.3f}s "
            f"rss={r:7.1f}MB  {status}")
    return {"wall": wall, "cpu": cpu, "rss": rss, "failed": failed,
            "incorrect": incorrect}


def run_workload(workload: str, seed: int, seconds: float, work: Path, log) -> dict:
    setup = measure_setup(work)
    log(f"setup_s (median of {SETUP_REPEATS}) = {setup:.4f} s")
    ops = workloads.build(workload, seed, REPO, work)
    rounds = []
    start = time.perf_counter()
    while True:  # whole rounds, while one more fits in `seconds`
        log(f"round {len(rounds) + 1}")
        rounds.append(run_round(ops, work, len(rounds), log))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break
    log(f"{len(rounds)} round(s) in {elapsed:.1f} s")
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
        "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
        "peak_rss_mb": (max(r["rss"] for r in rounds), "MB"),
    }
    return {"correct": not any(r["incorrect"] for r in rounds),
            "attempted": len(ops) * len(rounds),
            "failed": sum(r["failed"] for r in rounds), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stratclt" / "cli.py").is_file():
        print(f"error: no stratclt sources under {SRC}", file=sys.stderr)
        return 2

    def log(msg):
        print(msg, flush=True)

    work = REPO / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            sys.path.insert(0, str(SRC))
            trace_path = REPO / ".bench_work" / f"trace-{args.workload}-{args.seed}.json"
            result = layers.run(args.seed, REPO, work, trace_path, NPROC, log)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, work, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit) in result["metrics"].items():
        log(f"{args.workload} {name} = {value:.6g} {unit}")
    log(f"{args.workload} attempted = {result['attempted']}, failed = {result['failed']}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
