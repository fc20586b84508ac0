"""Command line front end.

Exit codes: 0 when the requested property holds or the run succeeded, 1 when
a property fails or a violation was found, 2 on errors, malformed input, or
inconclusive/vacuous outcomes, 141 when the reader of standard output closed
the pipe before the output was written.  Human-readable numbers print with 12
significant digits; JSON payloads keep full round-trip precision.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .catalog import EXAMPLE_NAMES, builtin_example, golden_suite, with_rhs
from .experiments import (
    ExperimentReport,
    genericity_sample,
    hoelder_fit,
    local_boundedness_probe,
    r0_openness_probe,
    stability_inclusion_check,
    usc_probe,
)
from .model import BudgetError, TcpInstance
from .properties import (
    VERDICT_FAILS,
    VERDICT_HOLDS,
    check_copositive,
    check_monotone,
    check_r0,
    lsc_witness,
    probe_gus,
)
from .solver import SolverConfig, chi_bound, solve
from .tensors import Tensor, tensor_from_dict

# 128 + SIGPIPE, the status a shell reports for a writer stopped by a closed pipe
EXIT_BROKEN_PIPE = 141

COMMANDS = (
    "solve",
    "check-r0",
    "check-copositive",
    "check-monotone",
    "probe-gus",
    "chi",
    "boundedness",
    "openness",
    "genericity",
    "usc",
    "hoelder",
    "stability",
    "example",
    "golden",
)


def _num(v: float) -> str:
    return f"{v:.12g}"


def _parse_csv_floats(text: str, what: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"could not parse {what} {text!r}: {exc}") from exc


def _load_json_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except OSError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _load_instance(args) -> TcpInstance:
    if getattr(args, "instance", None):
        return TcpInstance.from_json(_load_json_file(args.instance))
    if getattr(args, "example", None):
        inst = builtin_example(args.example, getattr(args, "m", None), getattr(args, "n", None))
        if getattr(args, "a", None):
            inst = with_rhs(inst, _parse_csv_floats(args.a, "--a"))
        return inst
    if getattr(args, "tensor", None):
        tensor = tensor_from_dict(_load_json_file(args.tensor))
        a = (
            _parse_csv_floats(args.a, "--a")
            if getattr(args, "a", None)
            else np.zeros(tensor.dim)
        )
        return TcpInstance(tensor, a)
    raise ValueError("no input: pass --instance, --tensor or --example")


def _load_tensor(args) -> Tensor:
    return _load_instance(args).tensor


def _cfg(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, seed=args.seed)


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=str)
    if out_path:
        Path(out_path).write_text(text + "\n")
    print(text)


def _emit_report(report: ExperimentReport, out_path: str | None) -> None:
    print(json.dumps(report.summary, sort_keys=True, default=str))
    if out_path:
        report.write_json(out_path)
        report.write_csv(str(Path(out_path).with_suffix(".csv")))


def _verdict_exit(report) -> int:
    print(f"{report.property}: {report.verdict}")
    if report.certificate is not None:
        print(json.dumps({"certificate": report.certificate}, sort_keys=True, default=str))
    if report.verdict == VERDICT_HOLDS:
        return 0
    if report.verdict == VERDICT_FAILS:
        return 1
    return 2


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tcplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--out", dest="out", default=None)
        return sp

    def add_inputs(sp, with_a=True):
        sp.add_argument("--instance", default=None, help="instance JSON file")
        sp.add_argument("--tensor", default=None, help="tensor JSON file")
        sp.add_argument("--example", default=None, choices=EXAMPLE_NAMES)
        sp.add_argument("--m", type=int, default=None)
        sp.add_argument("--n", type=int, default=None)
        if with_a:
            sp.add_argument(
                "--a",
                default=None,
                help="comma-separated right-hand side; write --a=-1,0 for negatives",
            )

    sp = add("solve", help="enumerate faces and report the solution set")
    add_inputs(sp)

    sp = add("check-r0", help="no nonzero homogeneous solution")
    add_inputs(sp)
    sp = add("check-copositive", help="form nonnegative on the orthant")
    add_inputs(sp)
    sp = add("check-monotone", help="monotone complementarity map")
    add_inputs(sp)
    sp = add("probe-gus", help="unique solution for sampled right-hand sides")
    add_inputs(sp)
    sp.add_argument("--samples", type=int, default=200)

    sp = add("chi", help="component-count bound")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add("boundedness", help="perturbed solution norms inside (eps, delta) balls")
    add_inputs(sp)
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--samples", type=int, default=100)

    sp = add("openness", help="fraction of R0 survivors per perturbation radius")
    add_inputs(sp)
    sp.add_argument("--radii", default="0.01,0.05,0.1,0.2,0.5")
    sp.add_argument("--samples", type=int, default=50)

    sp = add("genericity", help="R0 fraction over Gaussian tensors")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=200)

    sp = add("usc", help="excess of perturbed solution sets over the base set")
    add_inputs(sp)
    sp.add_argument("--radius", type=float, default=0.1)
    sp.add_argument("--samples", type=int, default=50)

    sp = add("hoelder", help="log-log fit of excess against radius")
    add_inputs(sp)
    sp.add_argument("--radii", default="0.2,0.1,0.05,0.02,0.01")
    sp.add_argument("--samples", type=int, default=30)

    sp = add("stability", help="inclusion under copositive tensor drift")
    add_inputs(sp)
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--samples", type=int, default=50)

    sp = add("example", help="write a catalog instance as JSON")
    add_inputs(sp)

    add("golden", help="run the closed-form regression table")
    return p


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "chi":
        print(chi_bound(args.m, args.n))
        return 0

    if cmd == "golden":
        rows, ok = golden_suite(SolverConfig(tol=args.tol, seed=args.seed))
        for row in rows:
            mark = "PASS" if row["pass"] else "FAIL"
            line = f"{mark} {row['name']}"
            if not row["pass"]:
                line += f": {row['detail']}"
            print(line)
        print(f"{sum(r['pass'] for r in rows)}/{len(rows)} golden cases passed")
        return 0 if ok else 1

    if cmd == "genericity":
        report = genericity_sample(args.m, args.n, args.samples, _cfg(args))
        _emit_report(report, args.out)
        return 2 if report.summary["fraction"] is None else 0

    if cmd == "example":
        inst = _load_instance(args) if (args.instance or args.tensor or args.example) else None
        if inst is None:
            raise ValueError("example: pass --example NAME (optionally --m, --n, --a)")
        _emit(inst.to_json(), args.out)
        return 0

    cfg = _cfg(args)

    if cmd == "solve":
        inst = _load_instance(args)
        sol = solve(inst, cfg)
        _emit(sol.to_json(), args.out)
        witness = lsc_witness(sol)
        print(f"status: {sol.status}; lsc: {witness.verdict}", file=sys.stderr)
        return 0

    if cmd == "check-r0":
        return _verdict_exit(check_r0(_load_tensor(args), cfg))
    if cmd == "check-copositive":
        return _verdict_exit(check_copositive(_load_tensor(args), cfg))
    if cmd == "check-monotone":
        inst = _load_instance(args)
        return _verdict_exit(check_monotone(inst.tensor, inst.a, cfg))
    if cmd == "probe-gus":
        return _verdict_exit(probe_gus(_load_tensor(args), cfg, samples=args.samples))

    if cmd == "boundedness":
        inst = _load_instance(args)
        report = local_boundedness_probe(inst.tensor, inst.a, args.eps, args.delta, args.samples, cfg)
        _emit_report(report, args.out)
        if report.summary["vacuous"]:
            return 2
        return 1 if report.summary["unbounded_flags"] else 0

    if cmd == "openness":
        inst = _load_instance(args)
        report = r0_openness_probe(inst.tensor, _parse_csv_floats(args.radii, "--radii"), args.samples, cfg)
        _emit_report(report, args.out)
        return 2 if report.summary["vacuous"] else 0

    if cmd == "usc":
        inst = _load_instance(args)
        report = usc_probe(inst, args.radius, args.samples, cfg)
        _emit_report(report, args.out)
        return 1 if report.summary["violation_count"] else 0

    if cmd == "hoelder":
        inst = _load_instance(args)
        report = hoelder_fit(inst.tensor, inst.a, _parse_csv_floats(args.radii, "--radii"), args.samples, cfg)
        _emit_report(report, args.out)
        c = report.summary["c"]
        gamma = report.summary["gamma"]
        print(f"gamma={_num(gamma)} c={_num(c)} residual={_num(report.summary['log_residual'])}")
        return 0

    if cmd == "stability":
        inst = _load_instance(args)
        report = stability_inclusion_check(inst.tensor, inst.a, args.eps, args.samples, cfg)
        _emit_report(report, args.out)
        if report.summary.get("vacuous") or report.summary.get("inconclusive"):
            return 2
        return 1 if report.summary["violations"] else 0

    raise ValueError(f"unknown command {cmd!r}")


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return 2 if exc.code not in (0,) else 0
    try:
        return _dispatch(args)
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    try:
        code = _main(argv)
        # a reader that closes the pipe early fails this flush, not the one
        # Python makes at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (`tcplab solve ... | head -1`): stop
        # quietly; what is still buffered goes to devnull, since flushing it
        # at exit would raise again
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return EXIT_BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
