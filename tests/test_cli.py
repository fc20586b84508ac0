import io
import json
import math
import os
import subprocess
import sys

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


def test_tensor_over_the_entry_budget_exits_2(tmp_path, capsys):
    # a sparse file names m and n; m = 40, n = 2 would be an 8 TiB array
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"m": 40, "n": 2, "format": "sparse", "entries": []}))
    code, out, err = _main(capsys, "check-r0", "--tensor", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "budget" in err


def test_tensor_past_the_face_budget_exits_2(tmp_path, capsys):
    # m = 2, n = 30: a small file, but 2^30 faces
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(tensor_to_dict(tcplab.random_gaussian(2, 30, 0), "dense")))
    for cmd in ("solve", "check-r0"):
        code, out, err = _main(capsys, cmd, "--tensor", str(path))
        assert code == 2 and out == "", cmd
        assert err.startswith("error:") and "budget" in err, cmd


def test_missing_input_exits_2(capsys):
    code, _, err = _main(capsys, "solve")
    assert code == 2
    assert "no input" in err


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
    assert code == 0
    code, out, _ = _main(capsys, "probe-gus", "--example", "zero", "--samples", "0")
    assert code == 1


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


def test_parser_covers_published_command_list():
    from tcplab.cli import COMMANDS

    parser = build_parser()
    sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
    assert set(COMMANDS) == set(sub.choices)


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
