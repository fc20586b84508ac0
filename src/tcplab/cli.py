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
from .tensors import tensor_from_dict

# 128 + SIGPIPE, the status a shell reports for a writer stopped by a closed pipe
EXIT_BROKEN_PIPE = 141

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
    if args.instance and args.a is not None:
        raise ValueError("--a is not accepted with --instance: the file holds the right-hand side")
    if args.example != "zero" and (args.m is not None or args.n is not None):
        raise ValueError("--m and --n apply only to --example zero")
    if args.instance:
        return TcpInstance.from_json(_load_json_file(args.instance))
    if args.example:
        inst = builtin_example(args.example, args.m, args.n)
        if args.a is not None:
            inst = with_rhs(inst, _parse_csv_floats(args.a, "--a"))
        return inst
    if args.tensor:
        tensor = tensor_from_dict(_load_json_file(args.tensor))
        a = _parse_csv_floats(args.a, "--a") if args.a is not None else np.zeros(tensor.dim)
        return TcpInstance(tensor, a)
    raise ValueError("no input: pass --instance, --tensor or --example")


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
    """Each command takes only the flags it reads."""
    p = argparse.ArgumentParser(prog="tcplab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, config: bool = True, out: bool = False):
        """A command, with the SolverConfig flags if config, --out if out."""
        sp = sub.add_parser(name, help=help)
        if config:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--tol", type=float, default=1e-8)
        if out:
            sp.add_argument("--out", default=None, help="also write the result here; an experiment adds a CSV of its rows")
        return sp

    def add_inputs(sp, with_a: bool = True):
        source = sp.add_mutually_exclusive_group()
        source.add_argument("--instance", default=None, help="instance JSON file")
        source.add_argument("--tensor", default=None, help="tensor JSON file")
        source.add_argument("--example", default=None, choices=EXAMPLE_NAMES)
        sp.add_argument("--m", type=int, default=None, help="order of --example zero")
        sp.add_argument("--n", type=int, default=None, help="dimension of --example zero")
        sp.set_defaults(a=None)  # without --a for a command that reads the tensor alone
        if with_a:
            sp.add_argument("--a", help="comma-separated right-hand side; write --a=-1,0 for negatives")
        return sp

    add_inputs(add("solve", "enumerate faces and report the solution set", out=True))
    add_inputs(add("check-r0", "no nonzero homogeneous solution"), with_a=False)
    add_inputs(add("check-copositive", "form nonnegative on the orthant"), with_a=False)
    add_inputs(add("check-monotone", "monotone complementarity map"), with_a=False)
    sp = add_inputs(add("probe-gus", "unique solution for sampled right-hand sides"), with_a=False)
    sp.add_argument("--samples", type=int, default=200)

    sp = add("chi", "component-count bound", config=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = add_inputs(add("boundedness", "perturbed solution norms inside (eps, delta) balls", out=True))
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--samples", type=int, default=100)

    sp = add_inputs(add("openness", "fraction of R0 survivors per perturbation radius", out=True), with_a=False)
    sp.add_argument("--radii", default="0.01,0.05,0.1,0.2,0.5")
    sp.add_argument("--samples", type=int, default=50)

    sp = add("genericity", "R0 fraction over Gaussian tensors", out=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--samples", type=int, default=200)

    sp = add_inputs(add("usc", "excess of perturbed solution sets over the base set", out=True))
    sp.add_argument("--radius", type=float, default=0.1)
    sp.add_argument("--samples", type=int, default=50)

    sp = add_inputs(add("hoelder", "log-log fit of excess against radius", out=True))
    sp.add_argument("--radii", default="0.2,0.1,0.05,0.02,0.01")
    sp.add_argument("--samples", type=int, default=30)

    sp = add_inputs(add("stability", "inclusion under copositive tensor drift", out=True))
    sp.add_argument("--eps", type=float, default=0.05)
    sp.add_argument("--samples", type=int, default=50)

    add_inputs(add("example", "write a catalog instance as JSON", config=False, out=True))

    add("golden", "run the closed-form regression table")
    return p


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "chi":
        print(chi_bound(args.m, args.n))
        return 0

    if cmd == "golden":
        rows, ok = golden_suite(_cfg(args))
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
        _emit(_load_instance(args).to_json(), args.out)
        return 0

    # every command below reads an instance
    cfg = _cfg(args)
    inst = _load_instance(args)

    if cmd == "solve":
        sol = solve(inst, cfg)
        _emit(sol.to_json(), args.out)
        witness = lsc_witness(sol)
        print(f"status: {sol.status}; lsc: {witness.verdict}", file=sys.stderr)
        return 0

    if cmd == "check-r0":
        return _verdict_exit(check_r0(inst.tensor, cfg))
    if cmd == "check-copositive":
        return _verdict_exit(check_copositive(inst.tensor, cfg))
    if cmd == "check-monotone":
        return _verdict_exit(check_monotone(inst.tensor, cfg))
    if cmd == "probe-gus":
        return _verdict_exit(probe_gus(inst.tensor, cfg, samples=args.samples))

    if cmd == "boundedness":
        report = local_boundedness_probe(inst.tensor, inst.a, args.eps, args.delta, args.samples, cfg)
        _emit_report(report, args.out)
        if report.summary["vacuous"]:
            return 2
        return 1 if report.summary["unbounded_flags"] else 0

    if cmd == "openness":
        report = r0_openness_probe(inst.tensor, _parse_csv_floats(args.radii, "--radii"), args.samples, cfg)
        _emit_report(report, args.out)
        return 2 if report.summary["vacuous"] else 0

    if cmd == "usc":
        report = usc_probe(inst, args.radius, args.samples, cfg)
        _emit_report(report, args.out)
        return 1 if report.summary["violation_count"] else 0

    if cmd == "hoelder":
        report = hoelder_fit(inst.tensor, inst.a, _parse_csv_floats(args.radii, "--radii"), args.samples, cfg)
        _emit_report(report, args.out)
        fit = report.summary
        print(f"gamma={_num(fit['gamma'])} c={_num(fit['c'])} residual={_num(fit['log_residual'])}")
        return 0

    if cmd == "stability":
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
