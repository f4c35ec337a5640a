"""dompoly benchmark: real CLI invocations, one fresh child process per
operation and one child at a time, with every answer checked.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from anywhere; the repository root is the parent of this directory
and the program is imported from its `src/`. A run lasts about
`--seconds` seconds:

1. One warm-up pass of the workload is run and discarded, so `.pyc`
   compilation and the OS file cache do not land in a sample. Caches
   inside the program stay cold, as for every CLI user.
2. Passes repeat while the next one fits in the time left. Each is
   preceded by a reference-loop child (calibrate.py) and by
   SETUP_PER_PASS runs of `dompoly cycle 1`. One more reference-loop
   child closes the run. Per pass, `wall_s` sums the children's wall
   times, `cpu_s` their user+sys CPU, and `peak_rss_mb` is the largest
   peak RSS among them, each taken per child from `os.wait4` (never
   RUSAGE_CHILDREN, whose maximum RSS spans every child ever reaped).
   The medians over passes are reported.
3. `setup_s` is the median wall time of `dompoly cycle 1`: the fixed
   cost of one CLI call (interpreter start, package import, argument
   parsing, JSON render).

Timings are reported at reference speed (see calibrate.py): each pass's
wall time is multiplied by REF_S over the mean round time of the two
reference-loop children on either side of it, and its CPU time likewise
by their CPU round time. Each `cycle 1` child is scaled by a one-round
reference child run right after it. The unscaled numbers are kept in the
run record. Peak RSS is not scaled.

With `--trace 1`, untraced and traced passes alternate. A traced pass runs
each operation under tracer.py, which accounts calls into each dompoly
module from outside the program; the per-layer metrics come from it, plus
the tracing overhead (median traced minus median untraced pass wall).

The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it holds the environment and input fingerprint.
The full run record (samples, calibrations, spans) goes to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from typing import Optional

import tracer
from calibrate import CHECKSUM
from workloads import SETUP_OP, WORKLOADS, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_PER_PASS = 2
# The reference loop runs about a third as long as a pass: its timing
# noise adds to the passes', so it needs a comparable share of the run.
CALIBRATION_ROUNDS = 12
# Seconds per reference-loop round at reference speed.
REF_S = 0.1
# Children still running this long after the run started are killed and
# count as failed, so a run always ends within 180 s.
HARD_LIMIT_S = 165.0

perf = time.perf_counter


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Run:
    """The children of one benchmark run, one at a time, with the tally of
    operations attempted and failed and the reference-loop timings."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.attempted = 0
        self.errors: list[str] = []         # one per failed operation

    def spawn(self, argv: list[str]) -> Child:
        """Run argv to completion; wall, CPU and peak RSS are this child's own."""
        with open(OUT / "stdout.txt", "w+b") as out, open(OUT / "stderr.txt", "w+b") as err:
            t0 = perf()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            killer = threading.Timer(max(0.0, self.deadline - perf()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(
                wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode,
                out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"),
            )

    def calibrate(self, rounds: int) -> tuple[float, float]:
        """Wall and CPU seconds per reference-loop round, in a fresh child."""
        child = self.spawn([sys.executable, str(HERE / "calibrate.py"), str(rounds)])
        fields = child.stdout.split()
        if child.code != 0 or len(fields) != 3 or fields[0] != str(CHECKSUM):
            raise SystemExit(f"perfbench: reference loop failed: {child.stderr.strip()[-200:]}")
        return float(fields[1]), float(fields[2])

    def op(self, op: Op, traced: bool = False) -> tuple[Child, Optional[dict]]:
        """One checked operation; a wrong exit code or answer counts as failed."""
        trace_path = OUT / "trace-op.json"
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path), *op.argv]
        else:
            argv = [sys.executable, "-m", "dompoly.cli", *op.argv]
        child = self.spawn(argv)
        self.attempted += 1
        try:
            error = op.check(child.code, child.stdout)
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            error = f"malformed answer: {exc!r}"
        if error:
            if child.stderr.strip():
                error += " | stderr: " + child.stderr.strip().splitlines()[-1][:200]
            self.errors.append(f"{' '.join(op.argv)}: {error}")
        trace = json.loads(trace_path.read_text()) if traced and child.code == 0 else None
        return child, trace

    def workload_pass(self, ops: list[Op], traced: bool = False) -> dict:
        """Unscaled wall and CPU summed over the operations, largest peak RSS."""
        results = [self.op(op, traced) for op in ops]
        out = {
            "wall_s": sum(c.wall_s for c, _ in results),
            "cpu_s": sum(c.cpu_s for c, _ in results),
            "peak_rss_mb": max(c.rss_mb for c, _ in results),
        }
        if traced:
            traces = [t for _, t in results if t is not None]
            out["layers"] = tracer.summarize(traces)
            out["spans"] = [t["spans"] for t in traces]
        return out


def quartiles(values: list[float]) -> list[float]:
    return quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


# ---------------------------------------------------------------------------
# Environment and input fingerprint
# ---------------------------------------------------------------------------

def _git_commit() -> Optional[str]:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def fingerprint() -> dict:
    """What a result depends on besides the benchmark. Compare results only
    when these agree; git_commit is null outside a git checkout, where the
    source hash identifies the program."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dompoly").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    corpora = {}
    for path in sorted((ROOT / "data" / "corpora").glob("order*.g6")):
        data = path.read_bytes()
        corpora[path.name] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "records": sum(1 for line in data.splitlines() if line.strip()),
        }
    return {
        "git_commit": _git_commit(),
        "source_sha256": src.hexdigest(),
        "python": f"{sys.implementation.name} {sys.version.split()[0]}",
        "nproc": os.cpu_count(),
        "corpora": corpora,
    }


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    start = perf()
    run = Run(start + HARD_LIMIT_S)
    ops = WORKLOADS[name](seed, OUT, ROOT)

    for op in ops:  # warm-up, discarded
        run.op(op)

    calibrations: list[tuple[float, float]] = []
    setup: list[tuple[float, float]] = []   # (wall_s, reference round wall_s)
    plain: list[dict] = []
    traced: list[dict] = []
    while True:
        t0 = perf()
        calibrations.append(run.calibrate(CALIBRATION_ROUNDS))
        for _ in range(SETUP_PER_PASS):
            wall = run.op(SETUP_OP)[0].wall_s
            setup.append((wall, run.calibrate(1)[0]))
        plain.append(run.workload_pass(ops))
        if trace:
            traced.append(run.workload_pass(ops, traced=True))
        now = perf()
        if (now - start) + (now - t0) > seconds or now > run.deadline:
            break
    calibrations.append(run.calibrate(CALIBRATION_ROUNDS))

    # Pass i lies between calibrations i and i + 1.
    bracket = list(zip(calibrations, calibrations[1:]))
    wall_scale = [2 * REF_S / (a[0] + b[0]) for a, b in bracket]
    cpu_scale = [2 * REF_S / (a[1] + b[1]) for a, b in bracket]

    def scaled(passes: list[dict], key: str, scale: list[float]) -> float:
        return median([p[key] * k for p, k in zip(passes, scale)])

    if trace:
        metrics = {}
        for metric, (unit, _) in tracer.PER_LAYER.items():
            values = [p["layers"][metric] for p in traced]
            if metric in tracer.COUNT_METRICS:
                if len(set(values)) > 1:
                    print(f"perfbench: {metric} differs between traced passes: {values}",
                          file=sys.stderr)
                value = values[0]
            else:
                value = median(values)
            metrics[metric] = {"value": value, "unit": unit}
        traced_wall = scaled(traced, "wall_s", wall_scale)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_wall - scaled(plain, "wall_s", wall_scale), "unit": "s",
        }
    else:
        metrics = {
            "wall_s": {"value": scaled(plain, "wall_s", wall_scale), "unit": "s"},
            "cpu_s": {"value": scaled(plain, "cpu_s", cpu_scale), "unit": "s"},
            "peak_rss_mb": {"value": median([p["peak_rss_mb"] for p in plain]), "unit": "MB"},
            "setup_s": {"value": median([w * REF_S / r for w, r in setup]), "unit": "s"},
        }
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "metrics": metrics,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "errors": run.errors,
        "wall_scale": wall_scale,
        "cpu_scale": cpu_scale,
        "calibrations": calibrations,
        "setup": setup,
        "samples": plain,
        "traced_samples": [{k: v for k, v in p.items() if k != "spans"} for p in traced],
        "spans": traced[0]["spans"] if traced else [],
    }


def summary_line(record: dict) -> str:
    walls = [p["wall_s"] for p in record["samples"]]
    q1, q2, q3 = quartiles(walls)
    parts = [
        f"{record['workload']}: seed {record['seed']}, {len(walls)} passes, "
        f"unscaled wall_s median {q2:.4f} (q1 {q1:.4f}, q3 {q3:.4f})",
    ]
    parts += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in record["metrics"].items()]
    parts += [f"FAILED {err}" for err in record["errors"][:5]]
    return "; ".join(parts)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "dompoly" / "cli.py", ROOT / "data" / "corpora"):
        if not needed.exists():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a "
                  "dompoly checkout", file=sys.stderr)
            return 2
    OUT.mkdir(exist_ok=True)
    # The CPU's speed state is per CPU, so the reference loop and the
    # children it scales must share one.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = fingerprint()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        record["fingerprint"] = env
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1))
        records.append(record)
        print(summary_line(record), flush=True)

    print(json.dumps({"fingerprint": env}))
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
