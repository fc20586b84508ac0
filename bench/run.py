"""Benchmark of tcplab: planted-solution solves, R0 classification and the
experiment commands.

    python3 bench/run.py --workload planted-solve --seed 1 --seconds 10 --trace 0

Run from the root of a tcplab checkout: the program is imported from its
src/ directory.  Each run sets up (import, inputs, one warm-up call) several
times, then makes whole passes over the workload's operations, one at a
time, until --seconds have passed, and checks every output.  The last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of an extra traced pass with --trace 1.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import checks
import spans
import workloads

WORKLOADS = ("planted-solve", "experiment-cli", "r0-classify")
SETUP_REPEATS = 5
OUT_DIR = os.path.join("bench", "out")


def _import_tcplab():
    """A fresh import of tcplab from ./src (numpy and scipy stay loaded)."""
    for name in [k for k in sys.modules if k == "tcplab" or k.startswith("tcplab.")]:
        del sys.modules[name]
    tcplab = importlib.import_module("tcplab")
    importlib.import_module("tcplab.cli")
    if not os.path.abspath(tcplab.__file__).startswith(os.path.abspath("src") + os.sep):
        raise RuntimeError(f"tcplab was imported from {tcplab.__file__}, not from ./src")
    return tcplab


def setup(workload: str, seed: int, in_process: bool):
    """Import tcplab, build the inputs and make one warm-up call.

    Returns (tcplab or None, ops, seconds).  The CLI workload imports
    tcplab in its warm-up process, and in this process only for the
    in-process passes of a traced run.
    """
    t0 = perf_counter()
    tcplab = _import_tcplab() if in_process or workload != "experiment-cli" else None
    if workload == "planted-solve":
        ops = workloads.planted_solve(tcplab, seed)
        workloads.planted_warmup(tcplab)
    elif workload == "r0-classify":
        ops = workloads.r0_classify(tcplab, seed)
        workloads.r0_warmup(tcplab)
    else:
        ops = workloads.experiment_cli(seed, OUT_DIR)
        workloads.cli_warmup()
    return tcplab, ops, perf_counter() - t0


class Pass:
    """One serial pass over the operations: timings, then checks."""

    def __init__(self, ops, tracer=None):
        self.times: list[float] = []
        self.errors: list[str | None] = []
        outputs = []
        t0 = perf_counter()
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.current_op = k
            s = perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:  # a program error fails this operation only
                out, err = None, f"{type(exc).__name__}: {exc}"
            self.times.append(perf_counter() - s)
            outputs.append(out)
            self.errors.append(err)
        self.wall = perf_counter() - t0
        for k, op in enumerate(ops):
            if self.errors[k] is None:
                try:
                    op.check(outputs[k])
                except checks.CheckFailed as exc:
                    self.errors[k] = f"check: {exc}"
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    self.errors[k] = f"check: malformed output ({type(exc).__name__}: {exc})"


def run_passes(ops, seconds: float) -> list[Pass]:
    passes = []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        passes.append(Pass(ops))
    return passes


def tally(runs) -> tuple[bool, int, int]:
    """(correct, attempted, failed) over (ops, Pass) pairs; failures outside
    the known-fault group make the run incorrect, and each distinct failure
    is reported on stderr."""
    attempted = failed = 0
    correct = True
    seen = set()
    for ops, p in runs:
        for op, err in zip(ops, p.errors):
            attempted += 1
            if err is None:
                continue
            failed += 1
            correct = correct and op.known_fault
            if (op.name, err) not in seen:
                seen.add((op.name, err))
                kind = "known fault" if op.known_fault else "FAILED"
                print(f"[{kind}] {op.name}: {err[:300]}", file=sys.stderr)
    return correct, attempted, failed


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "experiment-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def in_process_cli(tcplab):
    def call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = tcplab.cli.main(argv)
        return code, buf.getvalue()
    return call


def end_to_end(args) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        _, ops, s = setup(args.workload, args.seed, in_process=False)
        setups.append(s)
    passes = run_passes(ops, args.seconds)
    correct, attempted, failed = tally((ops, p) for p in passes)
    walls = [p.wall for p in passes]
    for k, op in enumerate(ops):
        ms = statistics.median(p.times[k] for p in passes) * 1e3
        print(f"{ms:10.1f} ms  {op.name}", file=sys.stderr)
    print(f"passes: {len(passes)}, pass wall s: {[round(w, 3) for w in walls]}, setup s: "
          f"{[round(s, 3) for s in setups]}", file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(t for p in passes for t in p.times) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced(args) -> dict:
    """One untraced pass, then the same pass traced.  The CLI workload runs
    its commands as processes once and then in-process through
    tcplab.cli.main for both passes."""
    tcplab, ops, _ = setup(args.workload, args.seed, in_process=True)
    cli_pass = None
    runs = []
    if args.workload == "experiment-cli":
        cli_pass = Pass(ops)
        runs.append((ops, cli_pass))
        ops = workloads.experiment_cli(args.seed, OUT_DIR, call=in_process_cli(tcplab))
    plain = Pass(ops)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_pass = Pass(ops, tracer)
    finally:
        tracer.uninstall()
    runs += [(ops, plain), (ops, traced_pass)]
    correct, attempted, failed = tally(runs)

    metrics = spans.per_layer_metrics(tracer)
    startup = []
    for _ in range(3):
        s = perf_counter()
        workloads.cli_warmup()
        startup.append(perf_counter() - s)
    metrics["cli.startup_ms"] = (statistics.median(startup) * 1e3, "ms")
    overhead = 0.0
    if cli_pass is not None:
        overhead = statistics.median(c - i for c, i in zip(cli_pass.times, plain.times)) * 1e3
    metrics["cli.overhead_ms"] = (overhead, "ms")
    metrics["trace.overhead_s"] = (traced_pass.wall - plain.wall, "s")
    path = os.path.join(OUT_DIR, f"trace-{args.workload}.npz")
    tracer.save(path)
    print(f"untraced wall s: {plain.wall:.3f}, traced wall s: {traced_pass.wall:.3f} "
          f"(+{100 * (traced_pass.wall / plain.wall - 1):.1f} %), "
          f"spans: {len(tracer.start)} -> {path}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join("src", "tcplab", "__init__.py")):
        print("error: src/tcplab not found; run from the root of a tcplab checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        result = traced(args) if args.trace else end_to_end(args)
    except (RuntimeError, subprocess.TimeoutExpired, ImportError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
