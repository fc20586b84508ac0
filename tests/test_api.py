import inspect
from pathlib import Path

import pytest

import tcplab

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_names_and_solver_signatures_are_pinned():
    # a removed or renamed export, or a changed parameter list, shows here
    names = sorted(k for k, v in vars(tcplab).items() if not k.startswith("_") and not inspect.ismodule(v))
    assert names == [
        "BudgetError", "EXAMPLE_NAMES", "ExperimentReport", "FaceMask", "FaceSystem",
        "KktPoint", "LscWitness", "OracleResult", "PropertyReport", "ROW_COLUMNS", "Ray", "STATUS_EMPTY",
        "STATUS_FINITE", "STATUS_NON_ISOLATED", "STATUS_UNBOUNDED", "SolutionPoint", "SolutionSet",
        "SolverConfig", "TcpInstance", "Tensor", "VERDICT_FAILS", "VERDICT_HOLDS", "VERDICT_INCONCLUSIVE",
        "add", "brute_force_oracle", "builtin_example", "check_copositive", "check_monotone", "check_r0",
        "chi_bound", "contract", "enumerate_faces", "face_of",
        "face_system", "flat_index", "form", "form_gradient", "frobenius", "genericity_sample",
        "golden_suite", "hausdorff_excess", "hoelder_fit", "homogeneous_solve", "homogeneous_solve_many",
        "int_dual_cone_member", "kkt_residual", "local_boundedness_probe", "lsc_witness", "max_residual",
        "multi_index", "non_r0_witness", "pair_ball", "pair_norm", "probe_gus", "r0_openness_probe",
        "random_gaussian", "ray_active", "residual", "scale", "solve", "solve_many",
        "stability_inclusion_check", "tensor_ball", "tensor_from_dict", "tensor_to_dict", "usc_probe",
        "vec_ball", "vec_sphere", "with_rhs",
    ]
    params = {f.__name__: list(inspect.signature(f).parameters) for f in (
        tcplab.solve, tcplab.solve_many, tcplab.homogeneous_solve, tcplab.homogeneous_solve_many,
        tcplab.check_r0)}
    assert params == {
        "solve": ["inst", "cfg"],
        "solve_many": ["instances", "cfg"],
        "homogeneous_solve": ["A", "cfg"],
        "homogeneous_solve_many": ["tensors", "cfg"],
        "check_r0": ["A", "cfg"],
    }


def test_builtin_example_takes_m_and_n_for_zero_only():
    assert tcplab.builtin_example("zero", 4, 3).tensor.array.shape == (3, 3, 3, 3)
    for name in ("ex1", "gus", "monotone"):
        for m, n in ((3, None), (None, 2), (3, 2)):
            with pytest.raises(ValueError, match="m and n apply only to the zero example"):
                tcplab.builtin_example(name, m, n)


def test_readme_library_example_prints_its_commented_outputs(capsys):
    block = README.read_text().split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.rsplit("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert want == ["finite [[0.0, 0.0]]", "fails"]
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == want
