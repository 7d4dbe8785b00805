"""End-to-end and per-layer benchmark of the hfgdm command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload casestudy|survey|panel \
        --seed N --seconds S --trace 0|1

Each workload is a closed loop in this one process: one operation at a
time through `hfgdm.cli.main`, in-process, with its output captured and
checked, and no threads added. Whole rounds of operations run until S
seconds have passed. The program is imported from src/ beside this
directory; without it the benchmark exits 2 and prints no result.

--trace 0 reports the end-to-end metrics: op_ms_p50, the median wall time
of one operation; setup_s, the median over fresh child processes of the
time from process start to the end of one untimed warm-up operation; and
peak_rss_mb, the peak resident set of this process. --trace 1 wraps the
layers (see tracing.py) and reports per-operation layer figures instead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it is a JSON
report with the sample count, the p90 when there are at least 40 samples,
the set-up samples and the environment. Both, with every sample and, in a
traced run, the first round's spans, are written to
.perfbench/<workload>-seed<N>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import checks
import tracing
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = ".perfbench"
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120
P90_MIN_SAMPLES = 40


def _call(cli, argv) -> tuple[int, str, float]:
    """Run one CLI invocation in-process; exit code, stdout, seconds."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt


def _check(op, text: str) -> str | None:
    """None when the output is correct, else the reason it is not."""
    try:
        op.check(text)
    except (checks.CheckFailed, ValueError, KeyError, IndexError,
            TypeError) as e:
        return f"{' '.join(op.argv)}: {type(e).__name__}: {e}"
    return None


def _setup_sample(op) -> tuple[float, int, str]:
    """Seconds from starting a fresh interpreter to the end of its op."""
    probe = os.path.join(HERE, "probe.py")
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, probe, SRC, *op.argv],
                          capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    head, _, out = proc.stdout.partition("\n")
    done, rc = head.split()
    return float(done) - t0, int(rc), out


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_version is not None,
        "numba": numba_version,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hfgdm", "__init__.py")):
        print(f"error: no hfgdm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hfgdm
    from hfgdm import cli
    if os.path.dirname(os.path.abspath(hfgdm.__file__)) != \
            os.path.join(SRC, "hfgdm"):
        print(f"error: imported hfgdm from {hfgdm.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    os.chdir(ROOT)
    os.makedirs(WORKDIR, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, ".", WORKDIR)
    problems: list[str] = []

    for i in range(workload.round_size):
        op = workload.op(i)
        rc, out, _ = _call(cli, op.argv)
        if rc == 0 and (msg := _check(op, out)):
            problems.append(f"warm-up: {msg}")

    # Set-up samples are spread over the run, one between rounds at each
    # 1/SETUP_SAMPLES of it, so that their median spans the same stretches
    # of host speed as the operations; the run's clock stops meanwhile.
    # Sample j warms up with operation j, so on the survey each sample
    # draws another batch and the median does not rest on one batch.
    probes = 0 if args.trace else SETUP_SAMPLES
    tracer = tracing.Tracer(keep_ops=workload.round_size) \
        if args.trace else None
    samples: list[float] = []
    setup: list[float] = []
    attempted = failed = 0
    measured = 0.0
    with tracer if tracer is not None else contextlib.nullcontext():
        while measured < args.seconds or len(setup) < probes:
            if len(setup) < probes and \
                    measured >= len(setup) * args.seconds / probes:
                op = workload.op(len(setup))
                seconds, rc, out = _setup_sample(op)
                setup.append(seconds)
                if rc == 0 and (msg := _check(op, out)):
                    problems.append(f"set-up probe: {msg}")
            start = time.perf_counter()
            for _ in range(workload.round_size):
                op = workload.op(attempted)
                if tracer is not None:
                    tracer.begin_op()
                rc, out, dt = _call(cli, op.argv)
                if tracer is not None:
                    tracer.end_op(len(out.encode("utf-8")))
                attempted += 1
                if rc != 0:
                    failed += 1
                    continue
                samples.append(dt * 1e3)
                if msg := _check(op, out):
                    problems.append(msg)
            measured += time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not samples:
        print(f"error: all {attempted} operations failed", file=sys.stderr)
        return 1

    if args.trace:
        metrics = {name: {"value": value, "unit": tracing.PER_LAYER[name]}
                   for name, value in tracer.per_layer().items()}
    else:
        metrics = {
            "op_ms_p50": {"value": statistics.median(samples), "unit": "ms"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(samples), "attempted": attempted, "failed": failed,
        "op_ms_p50": statistics.median(samples),
        "op_ms_p90": (statistics.quantiles(samples, n=10)[-1]
                      if len(samples) >= P90_MIN_SAMPLES else None),
        "setup_s_samples": setup,
        "problems": problems[:10],
        "environment": environment(),
    }
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(report, result=result, samples_ms=samples)
    if tracer is not None:
        record["functions"] = tracer.functions()
        record["spans"] = tracer.kept_spans()
    path = os.path.join(
        WORKDIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
