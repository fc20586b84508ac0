import argparse
import io
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tcplab
from tcplab import builtin_example, tensor_to_dict
from tcplab.cli import EXIT_BROKEN_PIPE, _num, build_parser, main


def _main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_chi_command_prints_exact_integer(capsys):
    code, out, _ = _main(capsys, "chi", "--m", "3", "--n", "2")
    assert code == 0
    assert out.strip() == "118098"


def test_solve_example_emits_solution_json(capsys):
    code, out, err = _main(capsys, "solve", "--example", "gus")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "finite"
    x = payload["points"][0]["x"]
    assert np.abs(np.array(x) - [1.0, 2.0]).max() <= 1e-6
    assert "status: finite" in err and "lsc:" in err


def test_solve_with_rhs_override(capsys):
    code, out, _ = _main(capsys, "solve", "--example", "gus", "--a=-1,0")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["points"]) == 1
    assert np.abs(np.array(payload["points"][0]["x"]) - [1.0, 0.0]).max() <= 1e-6


def test_solve_reads_instance_file_and_writes_out(tmp_path, capsys):
    inst = builtin_example("ex1")
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(inst.to_json()))
    out_path = tmp_path / "sol.json"
    code, out, _ = _main(capsys, "solve", "--instance", str(path), "--out", str(out_path))
    assert code == 0
    on_disk = json.loads(out_path.read_text())
    assert on_disk == json.loads(out)
    assert on_disk["status"] == "finite"


def test_solve_reads_bare_tensor_file(tmp_path, capsys):
    tpath = tmp_path / "tensor.json"
    tpath.write_text(json.dumps(tensor_to_dict(builtin_example("gus").tensor, "sparse")))
    code, out, _ = _main(capsys, "solve", "--tensor", str(tpath), "--a=-1,-4")
    assert code == 0
    assert json.loads(out)["status"] == "finite"


def test_malformed_json_reports_location_and_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"tensor": [1, 2,')
    code, _, err = _main(capsys, "solve", "--instance", str(path))
    assert code == 2
    assert err.startswith("error:")
    assert "line" in err and "column" in err


_SPARSE = {"m": 3, "n": 2, "format": "sparse"}


@pytest.mark.parametrize("argv, instance, message", [
    (["--example", "gus", "--a", "1,x"], None, "error: could not parse --a '1,x': "),
    (["--instance", "{tmp}/no/such.json"], None, "error: {tmp}/no/such.json: [Errno 2] "),
    (["--instance", "{tmp}/inst.json"], {"tensor": {**_SPARSE, "entries": [{"index": [1, 1], "value": 1.0}]},
                                         "a": [1, 1]}, "error: sparse entry 0: index length 2 != m = 3\n"),
    (["--instance", "{tmp}/inst.json"], {"tensor": {**_SPARSE, "entries": [{"index": [1, 1, 1]}]}, "a": [1, 1]},
     "error: malformed sparse entry at position 0: 'value'\n"),
    (["--instance", "{tmp}/inst.json"], {"tensor": {**_SPARSE, "entries": []}, "a": [[1, 1]]},
     "error: expected a 1-d vector, got shape (1, 2)\n"),
], ids=["unparsable a", "missing file", "short sparse index", "sparse entry without value", "2-d a"])
def test_edge_inputs_exit_2_with_their_message(tmp_path, capsys, argv, instance, message):
    if instance is not None:
        (tmp_path / "inst.json").write_text(json.dumps(instance))
    code, out, err = _main(capsys, "solve", *(arg.format(tmp=tmp_path) for arg in argv))
    assert code == 2 and out == ""
    assert err.startswith(message.format(tmp=tmp_path)), err


def test_tensor_over_the_entry_budget_exits_2(tmp_path, capsys):
    # a sparse file names m and n; m = 40, n = 2 would be an 8 TiB array
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 40, "n": 2, "format": "sparse", "entries": []}))
    code, out, err = _main(capsys, "check-r0", "--tensor", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_genericity_of_an_impossible_shape_exits_2(monkeypatch, capsys):
    # refused before any tensor is drawn, with no samples too
    import tcplab.experiments as experiments_mod

    def no_draws(*args):
        raise AssertionError("tensors drawn")

    monkeypatch.setattr(experiments_mod, "_draws", no_draws)
    for m, n, samples, message in (("1", "2", "0", "order"), ("1", "2", "3", "order"), ("3", "1", "0", "dimension"),
                                   ("24", "2", "1", "budget")):
        code, out, err = _main(capsys, "genericity", "--m", m, "--n", n, "--samples", samples)
        assert code == 2 and out == "", (m, n, samples)
        assert err.startswith("error:") and message in err, (m, n, samples)


def test_tensor_past_the_face_budget_exits_2(tmp_path, capsys):
    # m = 2, n = 30: a small file, but 2^30 faces
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(tensor_to_dict(tcplab.random_gaussian(2, 30, 0), "dense")))
    for cmd in ("solve", "check-r0"):
        code, out, err = _main(capsys, cmd, "--tensor", str(path))
        assert code == 2 and out == "", cmd
        assert err.startswith("error:") and "budget" in err, cmd


def test_an_out_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    # a directory, a file in a missing directory, or a report whose CSV
    # sibling is a directory: an error naming the path and exit 2, not a
    # traceback and the 1 that a failing property exits with
    (tmp_path / "rows.csv").mkdir()
    cases = [
        (("solve", "--example", "gus", "--out", str(tmp_path)), tmp_path),
        (("genericity", "--m", "3", "--n", "2", "--samples", "3", "--out", str(tmp_path / "no" / "r.json")),
         tmp_path / "no" / "r.json"),
        (("genericity", "--m", "3", "--n", "2", "--samples", "3", "--out", str(tmp_path / "rows.json")),
         tmp_path / "rows.csv"),
    ]
    for argv, named in cases:
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {named}: ") and err.count("\n") == 1, (argv, err)


def test_an_experiment_out_path_that_is_its_own_csv_is_refused_before_any_work(tmp_path, monkeypatch, capsys):
    # an experiment writes its report to --out and the CSV of its rows to
    # the .csv beside it; with --out r.csv the rows would overwrite the report
    import tcplab.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    experiments = {"boundedness": "local_boundedness_probe", "openness": "r0_openness_probe",
                   "genericity": "genericity_sample", "usc": "usc_probe", "hoelder": "hoelder_fit",
                   "stability": "stability_inclusion_check"}
    for name in list(experiments.values()) + ["_load_instance"]:
        monkeypatch.setattr(cli_mod, name, no_work)
    path = tmp_path / "r.csv"
    for cmd in experiments:
        inputs = ("--m", "3", "--n", "2") if cmd == "genericity" else ("--example", "gus")
        code, out, err = _main(capsys, cmd, *inputs, "--out", str(path))
        assert code == 2 and out == "" and not path.exists(), cmd
        assert err.startswith(f"error: --out {path}: "), (cmd, err)
    monkeypatch.undo()
    # solve writes no CSV: its --out may end in .csv
    code, out, _ = _main(capsys, "solve", "--example", "gus", "--out", str(path))
    assert code == 0 and json.loads(path.read_text()) == json.loads(out)


def test_missing_input_exits_2(capsys):
    code, _, err = _main(capsys, "solve")
    assert code == 2
    assert "no input" in err


def test_example_without_input_exits_2(capsys):
    code, out, err = _main(capsys, "example")
    assert code == 2 and out == ""
    assert err == "error: no input: pass --instance, --tensor or --example\n"


def _flags(parser):
    """{command: its option strings but -h/--help} of a subcommand parser."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()}


def test_each_command_takes_only_the_flags_it_reads():
    # --seed and --tol feed SolverConfig, which chi and example never build;
    # --out goes where a file is written; --a where an instance is solved
    # or written, never where only its tensor is read
    config, source = {"--seed", "--tol"}, {"--instance", "--tensor", "--example", "--m", "--n"}
    tensor_only = config | source
    solved = config | source | {"--a", "--out"}
    want = {
        "solve": solved,
        "check-r0": tensor_only,
        "check-copositive": tensor_only,
        "check-monotone": tensor_only,
        "probe-gus": tensor_only | {"--samples"},
        "chi": {"--m", "--n"},
        "boundedness": solved | {"--eps", "--delta", "--samples"},
        "openness": tensor_only | {"--out", "--radii", "--samples"},
        "genericity": config | {"--out", "--m", "--n", "--samples"},
        "usc": solved | {"--radius", "--samples"},
        "hoelder": solved | {"--radii", "--samples"},
        "stability": solved | {"--eps", "--samples"},
        "example": source | {"--a", "--out"},
        "golden": config,
    }
    flags = _flags(build_parser())
    assert flags == want
    assert sum(map(len, flags.values())) == 110


def test_ignored_inputs_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys):
    # each of these used to run and answer another question than the one
    # asked: the file's right-hand side instead of --a, ex1 instead of an
    # order-7 tensor, the example instead of the tensor file
    monkeypatch.chdir(tmp_path)
    Path("gus.json").write_text(json.dumps(builtin_example("gus").to_json()))
    Path("t.json").write_text(json.dumps(tensor_to_dict(builtin_example("ex1").tensor, "sparse")))
    before = sorted(os.listdir(tmp_path))
    for argv, message in (
        (("check-r0", "--example", "zero", "--out", "r.json"), "unrecognized arguments: --out"),
        (("solve", "--instance", "gus.json", "--a", "5,5"), "--a is not accepted with --instance"),
        (("solve", "--instance", "gus.json", "--a", "5,5", "--out", "s.json"), "--a is not accepted with --instance"),
        (("solve", "--example", "ex1", "--m", "7"), "--m and --n apply only to --example zero"),
        (("example", "--tensor", "t.json", "--n", "3", "--out", "e.json"), "--m and --n apply only to --example zero"),
        (("solve", "--example", "gus", "--tensor", "t.json"), "not allowed with argument"),
        (("openness", "--example", "ex1", "--a", "1,1"), "unrecognized arguments: --a"),
        (("chi", "--m", "3", "--n", "2", "--tol", "1e-9"), "unrecognized arguments: --tol"),
        (("example", "--example", "gus", "--seed", "3"), "unrecognized arguments: --seed"),
    ):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert message in err, (argv, err)
    assert sorted(os.listdir(tmp_path)) == before


def test_readme_command_block_parses():
    # every `tcplab ...` line of the README's command block is accepted by
    # the parser as written, so the docs and the flags cannot drift apart
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("tcplab ")]
    assert len(lines) >= 14
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_unknown_example_rejected_by_parser(capsys):
    code, _, _ = _main(capsys, "solve", "--example", "nope")
    assert code == 2


def test_verdict_exit_codes(capsys):
    code, out, _ = _main(capsys, "check-r0", "--example", "ex1")
    assert code == 0 and out.splitlines()[0] == "r0: holds-numerically"
    # the subdivision certificate of ex1: F = -|x|^2 (1, 1) is cut once, and
    # its least Bernstein coefficient on the halves is -1/2, so every tensor
    # within 1/2 of ex1 (relative to its largest entry) is R0 as well
    cert = json.loads(out.splitlines()[1])["certificate"]
    assert cert["simplices"] == 5 and abs(cert["margin"] - 0.5) <= 1e-12
    code, out, _ = _main(capsys, "check-r0", "--example", "zero")
    assert code == 1 and "fails" in out
    assert "certificate" in out
    code, out, _ = _main(capsys, "check-copositive", "--example", "ex1")
    assert code == 1
    code, out, _ = _main(capsys, "check-monotone", "--example", "gus")
    assert code == 0 and out.splitlines()[0] == "monotone: holds-numerically"
    assert json.loads(out.splitlines()[1]) == {"certificate": {"simplices": 1, "least_eigenvalue": 0.0}}
    code, out, _ = _main(capsys, "probe-gus", "--example", "zero", "--samples", "0")
    assert code == 1


def test_check_monotone_exit_codes_and_certificates(capsys):
    # the monotone example fails with a pair in the orthant whose pairing
    # re-checks below -tol
    A = builtin_example("monotone").tensor
    code, out, _ = _main(capsys, "check-monotone", "--example", "monotone")
    assert code == 1 and out.splitlines()[0] == "monotone: fails"
    cert = json.loads(out.splitlines()[1])["certificate"]
    x, y = np.array(cert["x"]), np.array(cert["y"])
    assert sorted(cert) == ["pairing", "x", "y"] and min(x.min(), y.min()) >= 0.0
    pairing = float((tcplab.contract(A, y) - tcplab.contract(A, x)) @ (y - x))
    assert pairing == cert["pairing"] and pairing < -1e-8
    code, out, _ = _main(capsys, "check-monotone", "--example", "zero")
    assert code == 0 and out.splitlines()[0] == "monotone: holds-numerically"


def test_nan_tol_exits_2(capsys):
    # NaN fails every comparison, so an unchecked NaN tol let each of these
    # report a confident verdict; a tol below 1e-13 let solve report a
    # confident exact-empty
    for argv in (
        ("solve", "--example", "gus"),
        ("check-r0", "--example", "zero"),
        ("check-copositive", "--example", "ex1"),
        ("check-monotone", "--example", "ex1"),
    ):
        for tol in ("nan", "1e-16"):
            code, out, err = _main(capsys, *argv, "--tol", tol)
            assert code == 2 and out == "", (argv, tol)
            assert err.startswith("error:") and "tol" in err, (argv, tol)


def test_negative_sample_counts_exit_2(capsys):
    for argv in (
        ("probe-gus", "--example", "gus", "--samples", "-5"),
        ("hoelder", "--example", "gus", "--samples", "-3"),
        ("openness", "--example", "ex1", "--samples", "-2"),
    ):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "samples" in err, argv


def test_zero_sample_counts_exit_2(capsys):
    # nothing sampled gives no verdict, not a confident one
    for argv in (
        ("hoelder", "--example", "gus", "--a=-1,-1", "--samples", "0"),
        ("stability", "--example", "gus", "--a", "1,1", "--samples", "0"),
        ("usc", "--example", "gus", "--samples", "0"),
        ("boundedness", "--example", "ex1", "--a", "1,1", "--samples", "0"),
        ("openness", "--example", "ex1", "--samples", "0"),
    ):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and "samples must be positive" in err, argv


def test_non_finite_experiment_sizes_exit_2(capsys):
    # the error names the parameter, not the tensor or vector it would feed
    for argv, name in (
        (("usc", "--example", "ex1", "--a", "1,1", "--radius", "nan"), "radius"),
        (("hoelder", "--example", "gus", "--a=-1,-1", "--radii", "nan,0.1"), "radii"),
        (("boundedness", "--example", "ex1", "--a", "1,1", "--eps", "inf"), "eps"),
        (("boundedness", "--example", "ex1", "--a", "1,1", "--delta", "nan"), "delta"),
        (("openness", "--example", "ex1", "--radii", "0.1,inf"), "radii"),
        (("stability", "--example", "gus", "--a", "1,1", "--eps", "nan"), "eps"),
    ):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {name} must be finite and "), (argv, err)


def test_repeated_radii_exit_2(capsys):
    for argv in (
        ("hoelder", "--example", "gus", "--a=-1,-1", "--radii", "0.1,0.1,0.05"),
        ("openness", "--example", "ex1", "--radii", "0.2,0.1,0.2"),
    ):
        code, out, err = _main(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: radii must be distinct"), (argv, err)


def test_usc_on_a_base_with_rays_exits_2(capsys):
    # Sol(0, 0) is the whole orthant: measured against the oracle's grid in
    # [0, 5]^2 it gave a false violation (exit 1, excess 31.59)
    code, out, err = _main(capsys, "usc", "--example", "zero", "--a", "0,0", "--radius", "0.05", "--samples", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: usc probe needs a base solution set without rays")


def test_boundedness_vacuous_exit_code(capsys):
    code, out, _ = _main(
        capsys, "boundedness", "--example", "zero", "--samples", "2"
    )
    assert code == 2
    assert json.loads(out.splitlines()[0])["vacuous"] is True


def test_stability_vacuous_exit_code(tmp_path, capsys):
    code, out, _ = _main(
        capsys, "stability", "--example", "zero", "--a=1,0", "--samples", "2"
    )
    assert code == 2


def test_usc_command_writes_report_pair(tmp_path, capsys):
    out_path = tmp_path / "usc.json"
    code, out, _ = _main(
        capsys,
        "usc", "--example", "gus", "--radius", "0.05", "--samples", "4",
        "--out", str(out_path),
    )
    assert code == 0
    summary = json.loads(out.splitlines()[0])
    assert summary["violation_count"] == 0
    report = json.loads(out_path.read_text())
    assert report["kind"] == "usc"
    csv_lines = (tmp_path / "usc.csv").read_text().splitlines()
    assert csv_lines[0].startswith("sample_id,")
    assert len(csv_lines) == 1 + len(report["rows"])


def test_openness_and_genericity_commands(capsys):
    code, out, _ = _main(
        capsys, "openness", "--example", "gus", "--radii", "0.1", "--samples", "3"
    )
    assert code == 0
    assert json.loads(out.splitlines()[0])["fractions"]["0.1"] == 1.0
    code, out, _ = _main(capsys, "genericity", "--m", "3", "--n", "2", "--samples", "5")
    assert code == 0
    assert json.loads(out.splitlines()[0])["samples"] == 5


def test_hoelder_command_prints_fit_line(capsys):
    code, out, _ = _main(
        capsys,
        "hoelder", "--example", "gus", "--a=-1,-1",
        "--radii", "0.2,0.1,0.05", "--samples", "4",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("gamma=")
    assert "c=" in lines[-1] and "residual=" in lines[-1]


def test_golden_command_reports_all_cases(capsys):
    code, out, _ = _main(capsys, "golden")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    total = lines[-1].split()[0]
    passed, count = total.split("/")
    assert passed == count and int(count) >= 10


def test_example_command_round_trips(tmp_path, capsys):
    code, out, _ = _main(capsys, "example", "--example", "zero", "--m", "4", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["tensor"]["m"] == 4 and payload["tensor"]["n"] == 3
    assert payload["a"] == [1.0, 1.0, 1.0]
    code, _, err = _main(capsys, "example")
    assert code == 2 and "example" in err


def test_numbers_print_with_twelve_significant_digits():
    assert _num(math.pi) == "3.14159265359"
    assert _num(118098.0) == "118098"


class _ClosedPipe(io.StringIO):
    """A standard output whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_reader_stops_quietly(monkeypatch, capsys):
    # `tcplab solve --example ex1 | head -1`: the reader may close the pipe
    # before the JSON is written; the command stops with no traceback
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(["solve", "--example", "ex1"])
    monkeypatch.undo()
    assert code == EXIT_BROKEN_PIPE == 141
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


def test_import_leaves_scipy_unloaded():
    # tcplab runs on numpy alone: neither importing the package and the CLI
    # nor running the grid oracle may load scipy
    code = (
        "import sys, tcplab, tcplab.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "inst = tcplab.with_rhs(tcplab.builtin_example('gus'), [-1.0, -4.0])\n"
        "orc = tcplab.brute_force_oracle(inst, box_radius=3.0, grid_step=0.05, tol=1e-8)\n"
        "print(len(orc.representatives), 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(tcplab.__file__))))
    p = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert p.returncode == 0, p.stderr
    assert p.stdout.splitlines() == ["[]", "1 False"]
