"""partlab benchmark: end-to-end CLI timings, or per-layer numbers from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; partlab is imported from its src/.
Workloads (see workloads.py): verify-all, table-bounds, count-sweep.
The seed fixes the order in which a workload's operations run.

--trace 0 runs every operation as `python -m partlab.cli ...` in a fresh
child process, one at a time, repeating the whole list until the
operations have taken S seconds.  It reports the mean time of one pass
over the list (wall_s), the median cold `import partlab.cli` time
(setup_s, sampled between operations), both scaled for the machine's
speed drift (see CALIBRATION), and the largest child peak RSS
(peak_rss_mb).  --trace 1 runs the list once in one process
untraced and once traced (tracer.py) and reports per-layer metrics.
Every output is checked against references.json and, for classical
counts, against the pentagonal recurrence.  The last line of stdout is
the JSON result; the metric names and units are the ones BENCHMARK.json
lists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, check, classical_upto, load_references, pentagonal  # noqa: E402

# A probe is one cold `import partlab.cli` child (a setup_s sample) run
# next to one calibration child.  Probes run after every operation, one
# per PROBE_EVERY_S of its time, and then until there are SETUP_SAMPLES,
# so setup samples are spread over the whole run, as operations are.
SETUP_SAMPLES = 15
PROBE_EVERY_S = 1.0
# The calibration job does not use partlab: big-integer DP, Fraction sums
# and mpmath interval evaluation, the three kinds of arithmetic partlab
# spends its time in.  Each CPU of a shared machine switches between a
# fast and a slow state (up to 2x) within seconds, and how long it stays
# slow drifts over minutes as other tenants load it.  wall_s is scaled by
# CALIBRATION_REF_S / (mean calibration time of the run) and each setup
# sample by CALIBRATION_REF_S / (the calibration time beside it), which
# cancels that drift but no change to partlab.  The unscaled times are
# printed with every result.
CALIBRATION = """\
from fractions import Fraction
from mpmath import iv
v = [1] + [0] * 800
for a in range(1, 801):
    for i in range(a, 801):
        v[i] += v[i - a]
h = sum(Fraction(1, j) for j in range(1, 300))
iv.dps = 50
for n in range(1, 300):
    lo, hi = (iv.exp(iv.sqrt(iv.mpf(n))) / n)._mpi_
"""
# Mean calibration time on a 2-vCPU Intel Xeon VM with Python 3.11.
CALIBRATION_REF_S = 0.17
CHILD_TIMEOUT_S = 150
# Untimed first children: `python -m partlab.cli --help` compiles into the
# run's bytecode cache every module the operations import (the -m entry
# path needs some that a plain import does not), then WARMUP reports the
# environment labels.
WARMUP = """\
import json, mpmath.libmp, partlab, partlab.cli
try:
    import partlab._dpcore
    compiled = True
except ImportError:
    compiled = False
print(json.dumps({"kernel_backend": partlab.KERNEL_BACKEND,
                  "mpmath_backend": mpmath.libmp.BACKEND,
                  "compiled_kernel_importable": compiled}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result (program missing or crashing)."""


@dataclass
class ChildResult:
    exit_code: int
    stdout: bytes
    stderr: bytes
    seconds: float
    peak_rss_mb: float
    timed_out: bool


def _kill(pid: int) -> None:
    # signals only; reaping stays with os.wait4 in RunDir.run
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


class RunDir:
    """Scratch space for one run, inside the checkout and removed afterwards.

    Every child gets a fresh cwd and HOME, PYTHONPATH pointing at the
    checkout's src, a fixed hash seed and a bytecode cache private to
    this run, so nothing carries over from one run to the next.
    """

    def __init__(self):
        scratch = ROOT / ".perfbench_tmp"
        scratch.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "LANG": "C.UTF-8",
            "PYTHONPATH": str(ROOT / "src"),
            "PYTHONHASHSEED": "0",
            "PYTHONPYCACHEPREFIX": str(self.dir / "pycache"),
        }

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:  # another run still uses it, or it holds other files
            pass

    def run(self, args, timeout=CHILD_TIMEOUT_S) -> ChildResult:
        """Run `python args...` to completion; rusage comes from os.wait4."""
        cwd = Path(tempfile.mkdtemp(prefix="child-", dir=self.dir))
        home = cwd / "home"
        home.mkdir()
        env = dict(self.env, HOME=str(home))
        out_path, err_path = cwd / "stdout", cwd / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=cwd, env=env,
                stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            )
            timer = threading.Timer(timeout, _kill, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child running
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = ChildResult(
            proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
            seconds, usage.ru_maxrss / 1024, seconds >= timeout,
        )
        shutil.rmtree(cwd, ignore_errors=True)
        return result

    def calibrate(self) -> float:
        child = self.run(["-c", CALIBRATION])
        if child.exit_code != 0:
            raise BenchError("calibration job failed")
        return child.seconds

    def run_json(self, args, what: str) -> dict:
        """Run a helper child that must succeed and print JSON last."""
        child = self.run(args)
        if child.exit_code != 0:
            tail = child.stderr.decode("utf-8", "replace")[-2000:]
            raise BenchError(f"{what} exited with {child.exit_code}:\n{tail}")
        return json.loads(child.stdout.decode().strip().splitlines()[-1])


def _labels(rundir: RunDir, workload: str, seed: int) -> dict:
    if rundir.run(["-m", "partlab.cli", "--help"]).exit_code != 0:
        raise BenchError("warm-up `python -m partlab.cli --help` failed")
    labels = rundir.run_json(["-c", WARMUP], "warm-up import of partlab")
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        **labels,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def _declared_metrics(kind: str) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_untraced(rundir: RunDir, workload: str, seed: int, seconds: float):
    ops = WORKLOADS[workload]
    references = load_references()
    p = pentagonal(classical_upto(ops))
    setup, calibration = [], []

    def probe():
        calibration.append(rundir.calibrate())
        child = rundir.run(["-c", "import partlab.cli"])
        if child.exit_code != 0:
            raise BenchError("cold import of partlab.cli failed")
        setup.append(child.seconds)

    rng = random.Random(seed)
    passes, problems, attempted, peak_rss = [], [], 0, 0.0
    while not passes or sum(passes) < seconds:
        pass_s = 0.0
        for op in rng.sample(ops, len(ops)):
            child = rundir.run(["-m", "partlab.cli", *op.argv])
            for _ in range(max(1, round(child.seconds / PROBE_EVERY_S))):
                probe()
            attempted += 1
            pass_s += child.seconds
            peak_rss = max(peak_rss, child.peak_rss_mb)
            found = check(op, child.exit_code, child.stdout, references, p)
            if child.timed_out:
                found.insert(0, f"timed out after {CHILD_TIMEOUT_S} s")
            if found:
                problems.append((op.name, found))
        passes.append(pass_s)
    while len(setup) < SETUP_SAMPLES:
        probe()
    speed = CALIBRATION_REF_S / statistics.fmean(calibration)
    metrics = {
        "wall_s": statistics.fmean(passes) * speed,
        "setup_s": statistics.median(s / c for s, c in zip(setup, calibration))
        * CALIBRATION_REF_S,
        "peak_rss_mb": peak_rss,
    }
    notes = [
        f"{len(passes)} passes of {len(ops)} operations, unscaled: "
        + ", ".join(f"{s:.3f}" for s in passes) + " s",
        f"calibration: {len(calibration)} samples, mean {statistics.fmean(calibration):.4f} s,"
        f" reference {CALIBRATION_REF_S} s, time scale {speed:.4f}",
        f"setup samples: {len(setup)}, unscaled median {statistics.median(setup):.4f} s,"
        f" min {min(setup):.4f} s, max {max(setup):.4f} s",
        f"fail_ratio {len(problems) / attempted:.4f} ({len(problems)}/{attempted})",
    ]
    return metrics, attempted, problems, notes


def _scale(ops: list[dict]) -> dict:
    """Time at the small and large size (the large n is twice the small).

    A workload with one size reports its total for both, exponent 0."""
    total = sum(op["seconds"] for op in ops)
    small = sum(op["seconds"] for op in ops if op["size"] == "small") or total
    large = sum(op["seconds"] for op in ops if op["size"] == "large") or total
    return {"scale.small_s": small, "scale.large_s": large,
            "scale.exponent": math.log2(large / small)}


def run_traced(rundir: RunDir, workload: str, seed: int):
    args = [str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed)]
    plain = rundir.run_json([*args, "--mode", "plain"], "untraced in-process run")
    traced = rundir.run_json([*args, "--mode", "traced"], "traced in-process run")
    untraced_sha = {op["name"]: op["sha256"] for op in plain["ops"]}
    for op in traced["ops"]:
        if op["sha256"] != untraced_sha[op["name"]]:
            op["problems"].append("traced output differs from untraced output")
    problems = [(f"{op['name']} ({mode})", op["problems"])
                for mode, report in (("untraced", plain), ("traced", traced))
                for op in report["ops"] if op["problems"]]
    attempted = len(plain["ops"]) + len(traced["ops"])
    if "kernel_comparison" in plain:
        attempted += 1
        if plain["kernel_problems"]:
            problems.append(("kernel comparison", plain["kernel_problems"]))
    metrics = {
        **traced["layers"],
        **_scale(plain["ops"]),
        "proc.cpu_s": plain["cpu_s"],
        "proc.wall_s": plain["wall_s"],
        "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"],
    }
    notes = [f"{op['name']}: {op['seconds']:.3f} s untraced" for op in plain["ops"]]
    if "kernel_comparison" in plain:
        notes.append("kernel comparison " + json.dumps(plain["kernel_comparison"]))
    return metrics, attempted, problems, notes


def _terminate(signum, frame):
    # SIGTERM becomes SystemExit, so the running child is killed and reaped
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "partlab" / "cli.py").is_file():
        print(f"perfbench: no partlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
    rundir = RunDir()
    try:
        labels = _labels(rundir, args.workload, args.seed)
        if args.trace:
            measured, attempted, problems, notes = run_traced(rundir, args.workload, args.seed)
        else:
            measured, attempted, problems, notes = run_untraced(
                rundir, args.workload, args.seed, args.seconds
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        rundir.close()

    metrics = {}
    for name, unit in declared.items():
        value = measured.get(name)
        if value is None:
            print(f"perfbench: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": unit}
    for name, found in problems:
        print(f"FAILED {name}: {'; '.join(found)}")
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    print("labels " + json.dumps(labels, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
