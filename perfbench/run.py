#!/usr/bin/env python3
"""Closed-loop benchmark of the s4bell command line: analyze, verify, scan.

One client in one process: each op calls `s4bell.cli.main(argv)` in-process
with stdout captured, and the next op starts when it returns.  Only the
time inside `cli.main` is measured; every output is then checked against
an independent reference (oracle.py) outside the timed region.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 20 [--trace 1]

Run from the repository root; the library is imported from ./src only.
The last stdout line of a single-workload run is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (spans.py) with --trace 1.  `--all` runs
each workload in its own child process and prints one table.  Details of
every run (generated argv list, latency tail, failures, run facts, and
with --trace 1 the spans) are written to perfbench/results/.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import calibrate
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
NAMES = ("analyze", "verify", "scan")
SETUP_SPAWNS = 7
# The probe times a pure-Python kernel before it imports anything, so its
# set-up time can be rescaled to reference speed (see calibrate.py): the
# kernel takes SETUP_REFERENCE_S at reference speed.
SETUP_PROBE = (
    "import time\n"
    "def kernel():\n"
    "    cells = {}\n"
    "    for i in range(2000):\n"
    "        cells.setdefault((i % 8, i % 3), set()).add((i % 5, i % 7))\n"
    "    return ','.join(f'{k}:{sorted(v)}' for k, v in sorted(cells.items()))\n"
    "runs = []\n"
    "for _ in range(9):\n"
    "    begin = time.perf_counter()\n"
    "    kernel()\n"
    "    runs.append(time.perf_counter() - begin)\n"
    "start = time.perf_counter()\n"
    "import s4bell\n"
    "s4bell.standard_context()\n"
    "elapsed = time.perf_counter() - start\n"
    "print(s4bell.__file__)\n"
    "print(elapsed)\n"
    "print(sorted(runs)[4])\n"
)
SETUP_REFERENCE_S = 0.0016
# VmHWM, not ru_maxrss: the latter keeps the parent's RSS from before exec.
RSS_PROBE = (
    "import contextlib, io, json, sys\n"
    "from s4bell import cli\n"
    "for argv in json.load(sys.stdin):\n"
    "    with contextlib.redirect_stdout(io.StringIO()), \\\n"
    "            contextlib.redirect_stderr(io.StringIO()):\n"
    "        cli.main(argv)\n"
    "with open('/proc/self/status') as status:\n"
    "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
)
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


class Op(NamedTuple):
    argv: list
    start: float  # reading of the phase's calibration clock
    seconds: float
    error: str  # None when the output checked out


def _load_library():
    """Import s4bell from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    try:
        import s4bell
    except ImportError as exc:
        raise SystemExit(f"error: cannot import s4bell from {SRC}: {exc}")
    if Path(s4bell.__file__).resolve().parent != SRC / "s4bell":
        raise SystemExit(f"error: s4bell imported from {s4bell.__file__}, not {SRC}")
    return s4bell


def _blas_threads(np):
    """Thread count reported by the OpenBLAS that numpy loaded, else None."""
    import ctypes

    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def run_facts():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "commit": _git_commit(),
    }


def _probe(code, stdin=""):
    """Run `code` in a fresh interpreter that imports s4bell from src/."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, input=stdin,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=170, check=True)
    return proc.stdout.split()


def measure_setup():
    """import s4bell + standard_context() in fresh processes, one at a time.

    Returns the times at reference speed and the raw times."""
    scaled, raw = [], []
    for _ in range(SETUP_SPAWNS):
        where, elapsed, kernel = _probe(SETUP_PROBE)
        if Path(where).resolve().parent != SRC / "s4bell":
            raise SystemExit(f"error: set-up probe imported s4bell from {where}")
        raw.append(float(elapsed))
        scaled.append(float(elapsed) * SETUP_REFERENCE_S / float(kernel))
    return scaled, raw


def measure_peak_rss(argvs):
    """Peak RSS in MB of a fresh process that runs only these ops, so the
    checks and calibration of this process do not count."""
    return int(_probe(RSS_PROBE, json.dumps(argvs))[0]) / 1024


def call(cli, argv, tracer=None, op_id=None, clock=time.perf_counter):
    """Run one op; returns (exit code, stdout, stderr, start, seconds inside
    main), both times read from `clock`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.op = op_id
        start = clock()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception:  # the op failed; record it and keep the loop running
            code = None
            err.write(traceback.format_exc())
        finally:
            elapsed = clock() - start
            if tracer is not None:
                tracer.op = None
    return code, out.getvalue(), err.getvalue(), start, elapsed


def closed_loop(cli, stream, seconds, check, calibration, tracer=None, first_id=0):
    """Run ops from `stream` back to back until `seconds` have passed, with
    machine-speed samples taken throughout (calibrate.py)."""
    ops = []
    deadline = time.perf_counter() + seconds
    with calibration.running():
        while not ops or time.perf_counter() < deadline:
            argv = next(stream)
            code, out, err, start, elapsed = call(
                cli, argv, tracer, first_id + len(ops), calibration.clock)
            error = check(argv, code, out)
            if error is not None and err.strip():
                error += "; stderr: " + err.strip()[-500:]
            ops.append(Op(argv, start, elapsed, error))
    return ops


def tail(times_ms):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, or None when there are fewer than 20 samples."""
    n = len(times_ms)
    pct = math.floor(100 * (1 - 10 / n)) if n else 0
    if pct < 50:
        return None
    return pct, sorted(times_ms)[math.ceil(pct / 100 * n) - 1]


def latency_summary(ops, calibration):
    """Latency figures at reference speed (calibrate.py), plus the raw ones."""
    raw_ms = [1e3 * op.seconds for op in ops]
    factors = calibration.factors([(op.start, op.start + op.seconds) for op in ops])
    times = [f * t for f, t in zip(factors, raw_ms)]
    good = sum(op.error is None for op in ops)
    summary = {
        "ops": len(ops),
        "failed": len(ops) - good,
        "fail_ratio": (len(ops) - good) / len(ops),
        "ops_per_s": 1e3 * good / sum(times),
        "mean_ms": statistics.mean(times),
        "p50_ms": statistics.median(times),
        "tail": None,
        "speed_factors": factors,
        "calibration_s": calibration.samples,
        "raw_ops_per_s": 1e3 * good / sum(raw_ms),
        "raw_ms": raw_ms,
    }
    found = tail(times)
    if found is not None:
        summary["tail"] = {"percentile": found[0], "ms": found[1], "samples": len(times)}
    return summary


def run_workload(name, seed, seconds, trace):
    s4bell = _load_library()
    # These import s4bell, so they load only once src/ is on the path.
    import oracle
    import workloads
    from s4bell import cli

    reference = oracle.Oracle()

    def analyze(spec):
        code, out, _, _, _ = call(cli, ["analyze", "--pairs", spec, "--json"])
        if code != 0:
            raise oracle.CheckError(f"analyze {spec} exited with {code}")
        report = json.loads(out)
        return report["quantum"]["lambda_max"], report["classical"]["max_coefficient"]

    def check(argv, code, out):
        try:
            oracle.check(argv, code, out, reference, analyze)
        except oracle.CheckError as exc:
            return str(exc)
        return None

    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
        tracer.op = spans.SETUP
        try:
            s4bell.standard_context()
        finally:
            tracer.op = None
            tracer.uninstall()
    setup, setup_raw = ([], []) if trace else measure_setup()
    peak_rss = None if trace else measure_peak_rss(
        list(itertools.islice(workloads.stream(name, seed, reference), workloads.PROBE_OPS[name])))
    for argv in workloads.WARMUP[name]:
        call(cli, argv)

    stream = workloads.stream(name, seed, reference)
    details = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
               "facts": run_facts()}
    if trace:
        untraced_speed, traced_speed = calibrate.Calibration(name), calibrate.Calibration(name)
        untraced = closed_loop(cli, stream, seconds / 2, check, untraced_speed)
        tracer.install()
        tracer.clock = traced_speed.clock
        try:
            traced = closed_loop(cli, stream, seconds / 2, check, traced_speed, tracer,
                                 len(untraced))
        finally:
            tracer.uninstall()
        ops = untraced + traced
        traced_ids = range(len(untraced), len(ops))
        details["untraced"] = latency_summary(untraced, untraced_speed)
        details["traced"] = latency_summary(traced, traced_speed)
        values = spans.layer_metrics(
            tracer.spans, dict(zip(traced_ids, details["traced"]["speed_factors"])),
            details["untraced"]["mean_ms"] / 1e3, details["traced"]["mean_ms"] / 1e3,
        )
        metrics = {n: {"value": values[n], "unit": u} for n, u in spans.metric_names()}
        details["absent_layers"] = tracer.absent
        details["calls_per_op_by_command"] = spans.calls_by_command(
            tracer.spans, {i: ops[i].argv[0] for i in traced_ids})
    else:
        speed = calibrate.Calibration(name)
        ops = closed_loop(cli, stream, seconds, check, speed)
        summary = latency_summary(ops, speed)
        values = {
            "ops_per_s": summary["ops_per_s"],
            "op_ms.p50": summary["p50_ms"],
            "peak_rss_mb": peak_rss,
            "setup_s": statistics.median(setup),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END}
        details["latency"] = summary
        details["setup_s"] = {"at_reference_speed": setup, "raw": setup_raw}

    failed = [op for op in ops if op.error is not None]
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    details.update(
        result=result,
        fail_ratio=len(failed) / len(ops),
        failures=[{"argv": op.argv, "error": op.error} for op in failed[:20]],
        argv=[op.argv for op in ops],
    )
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    stem.with_suffix(".json").write_text(json.dumps(details, indent=1) + "\n")
    if tracer is not None:
        with open(stem.with_suffix(".spans.jsonl"), "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent", "op", "key"),
                                             span))) + "\n")
    return result, details


def _format_tail(details):
    found = (details.get("latency") or details.get("traced"))["tail"]
    if found is None:
        return "-"
    return f"{found['ms']:.4g} (p{found['percentile']}, n={found['samples']})"


def run_all(args):
    """Each workload in its own child process, one after another; one table."""
    rows, units = {}, {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.splitlines()[-1])
        details = json.loads((RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json")
                             .read_text())
        rows[name] = {k: v["value"] for k, v in result["metrics"].items()}
        units.update({k: v["unit"] for k, v in result["metrics"].items()})
        rows[name]["op_ms.tail"] = _format_tail(details)
        rows[name]["fail_ratio"] = f"{result['failed']}/{result['attempted']}"
    units.update({"op_ms.tail": "ms", "fail_ratio": "ratio"})
    width = max(len(n) for n in units)
    print(f"{'metric':<{width}}  {'unit':<6}" + "".join(f"  {n:>24}" for n in NAMES))
    for metric, unit in units.items():
        cells = []
        for name in NAMES:
            value = rows[name].get(metric, "-")
            cells.append(f"{value:>24.6g}" if isinstance(value, float) else f"{value!s:>24}")
        print(f"{metric:<{width}}  {unit:<6}" + "".join(f"  {c}" for c in cells))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", choices=NAMES)
    target.add_argument("--all", action="store_true", help="every workload, one table")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args)

    result, details = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(f"{args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, tail {_format_tail(details)} ms", file=sys.stderr)
    for failure in details["failures"][:3]:
        print(f"  FAILED {failure['argv']}: {failure['error']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
