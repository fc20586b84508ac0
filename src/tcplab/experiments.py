"""Seeded perturbation experiments around a base instance.

Every experiment draws each sample from its own PCG64 stream keyed by
(seed, experiment salt, sample index), so reports are byte-identical for
identical parameters.  The samples are all drawn first, then solved in one
solve_many call, which runs the faces of one size across all samples as one
Newton batch (the R0 experiments classify theirs in one call of the R0
checker), and the rows are built in sample order from the results.

Each shared rule has one home:

- _draws keys the streams; stability's rejection sampling keeps its own
  loop, whose attempt budget is shared across samples;
- _map_samples builds the rows of every experiment, in sample order;
- _solved_row writes the row of a solved sample: its point count, largest
  point norm, status and posdim flags, then the experiment's own flags;
- _excess measures a perturbed set against the reference, +inf when it is
  certified unbounded (stability keeps its own rule, see there);
- _by_radius reduces the samples of each radius, for openness and hoelder.

Row records share one stable column set:

    sample_id, pert_norm_tensor, pert_norm_vec, n_points, max_norm, excess, flags

with None where a column does not apply to the experiment kind.  The excess
column uses the +inf sentinel (serialized as the string "inf") when a sample's
solution set escapes every finite comparison.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import TcpInstance
from .properties import VERDICT_HOLDS, _r0_reports, check_copositive, check_r0, int_dual_cone_member
from .solver import (
    STATUS_UNBOUNDED,
    SolverConfig,
    _solve_stream,
    brute_force_oracle,
    hausdorff_excess,
    homogeneous_solve,
    solve,
    solve_many,
)
from .tensors import Tensor, _as_count, _check_size, as_vector, frobenius, pair_norm

ROW_COLUMNS = ("sample_id", "pert_norm_tensor", "pert_norm_vec", "n_points", "max_norm", "excess", "flags")

# per-experiment stream salts
_SALT_BOUNDEDNESS = 10
_SALT_OPENNESS = 11
_SALT_GENERICITY = 12
_SALT_USC = 13
_SALT_HOELDER = 14
_SALT_STABILITY = 15

# a usc sample is a violation witness when its excess stays this far above
# the perturbation scale: the map jumped instead of shrinking with the radius
USC_VIOLATION_FLOOR = 0.1
USC_VIOLATION_FACTOR = 100.0
# the grid oracle that densifies a posdim-flagged base searches [0, this]^n
ORACLE_BOX_RADIUS = 5.0


def _check_sizes(name: str, values, zero_ok: bool = False) -> None:
    """Raise ValueError naming the parameter unless there are values and every
    one is finite and positive, or zero with zero_ok; the test is written so
    that NaN fails."""
    if not values:
        raise ValueError(f"{name} must be a nonempty list of positive numbers")
    for v in values:
        if not (math.isfinite(v) and (v > 0 or zero_ok and v == 0)):
            raise ValueError(f"{name} must be finite and {'nonnegative' if zero_ok else 'positive'}, got {v}")


def _check_radii(radii) -> list[float]:
    """radii as floats, passing _check_sizes and distinct in _by_radius's keys."""
    radii = [float(r) for r in radii]
    _check_sizes("radii", radii)
    if len({f"{r:.12g}" for r in radii}) < len(radii):
        raise ValueError(f"radii must be distinct, got {radii}")
    return radii


def _map_samples(fn, ids):
    """The rows fn(i) of the samples ids, built in order once they are solved."""
    return [fn(i) for i in ids]


def _draws(cfg: SolverConfig, salt: int, count: int, draw) -> list:
    """draw(s, rng) for each sample s < count, rng its PCG64 stream keyed by
    (cfg.seed, salt, s)."""
    return [draw(s, np.random.default_rng([cfg.seed, salt, s])) for s in range(count)]


def _json_safe(v):
    if isinstance(v, float) and math.isinf(v):
        return "inf"
    return v


@dataclass(eq=False)
class ExperimentReport:
    kind: str
    params: dict
    rows: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "params": {k: _json_safe(v) for k, v in self.params.items()},
            "rows": [{k: _json_safe(v) for k, v in row.items()} for row in self.rows],
            "summary": {k: _json_safe(v) for k, v in self.summary.items()},
        }

    def json_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True).encode()

    def write_json(self, path) -> None:
        with open(path, "wb") as fh:
            fh.write(self.json_bytes())

    def write_csv(self, path) -> None:
        # csv writes None as an empty cell and a float by its repr
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, ROW_COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows)


def _row(sample_id, pt=None, pv=None, n_points=None, max_norm=None, excess=None, flags=()):
    return {
        "sample_id": int(sample_id),
        "pert_norm_tensor": pt,
        "pert_norm_vec": pv,
        "n_points": n_points,
        "max_norm": max_norm,
        "excess": excess,
        "flags": "|".join(flags),
    }


# ---------------------------------------------------------------------------
# ball and sphere sampling


def _tensor_direction(m: int, n: int, rng) -> Tensor:
    g = rng.standard_normal(size=(n,) * m)
    return Tensor(g / float(np.sqrt(np.sum(g**2))))


def tensor_ball(m: int, n: int, radius: float, rng) -> Tensor:
    """Uniform draw from the Frobenius ball of the given radius."""
    d = _tensor_direction(m, n, rng)
    rho = radius * rng.uniform() ** (1.0 / n**m)
    return Tensor(rho * d.array)


def vec_ball(n: int, radius: float, rng) -> np.ndarray:
    g = rng.standard_normal(n)
    g /= float(np.linalg.norm(g))
    return radius * rng.uniform() ** (1.0 / n) * g


def vec_sphere(n: int, radius: float, rng) -> np.ndarray:
    g = rng.standard_normal(n)
    return radius * g / float(np.linalg.norm(g))


def pair_ball(m: int, n: int, radius: float, rng) -> tuple[Tensor, np.ndarray]:
    """Joint draw with pair_norm exactly uniform in the radius ball."""
    D = n**m + n
    g = rng.standard_normal(D)
    g /= float(np.linalg.norm(g))
    rho = radius * rng.uniform() ** (1.0 / D)
    return Tensor((rho * g[: n**m]).reshape((n,) * m)), rho * g[n**m :]


def _max_point_norm(sol) -> float | None:
    if not sol.points:
        return None
    return float(max(np.linalg.norm(p.x) for p in sol.points))


def _solved_row(s, sol, pt=None, pv=None, excess=None, flags=()) -> dict:
    """The row of sample s, whose solution set is sol; its flags are sol's
    status, posdim when sol is flagged, then flags."""
    status = [sol.status, "posdim"] if sol.posdim_suspect else [sol.status]
    return _row(s, pt, pv, len(sol.points), _max_point_norm(sol), excess, status + list(flags))


def _excess(sol, reference) -> float:
    """Excess of sol over the reference points: +inf when sol is certified
    unbounded, else hausdorff_excess (0.0 for an empty sol)."""
    if sol.status == STATUS_UNBOUNDED:
        return math.inf
    return hausdorff_excess([p.x for p in sol.points], reference)


def _by_radius(radii, per_radius: int, values, reduce) -> dict:
    """reduce of the values of each radius's samples, keyed by the radius to
    12 digits; sample i * per_radius + j is the j-th at radius i.  _as_count
    makes per_radius at least 1, so reduce never sees an empty list."""
    return {f"{r:.12g}": reduce(values[i * per_radius : (i + 1) * per_radius]) for i, r in enumerate(radii)}


# ---------------------------------------------------------------------------
# experiments


def local_boundedness_probe(
    A: Tensor, a, eps: float, delta: float, samples: int, cfg: SolverConfig
) -> ExperimentReport:
    """Empirical S(eps, delta): solve perturbed instances inside the given balls.

    Meaningful when A is R0 (the solution map is then locally bounded); a
    non-R0 base marks the whole report vacuous but still runs, since watching
    unbounded flags appear is the point of the negative control.
    """
    a = as_vector(a, A.dim)
    _check_sizes("eps", [eps], zero_ok=True)
    _check_sizes("delta", [delta], zero_ok=True)
    samples = _as_count("samples", samples)
    base_r0 = check_r0(A, cfg)
    vacuous = base_r0.verdict != VERDICT_HOLDS

    perts = _draws(cfg, _SALT_BOUNDEDNESS, samples,
                   lambda s, rng: (tensor_ball(A.order, A.dim, eps, rng), vec_ball(A.dim, delta, rng)))
    sols = solve_many([TcpInstance(A + dT, a + db) for dT, db in perts], cfg)

    def one(s: int) -> dict:
        dT, db = perts[s]
        return _solved_row(s, sols[s], frobenius(dT), float(np.linalg.norm(db)))

    rows = _map_samples(one, range(samples))
    norms = [r["max_norm"] for r in rows if r["max_norm"] is not None]
    summary = {
        "vacuous": vacuous,
        "base_r0": base_r0.verdict,
        "samples": samples,
        "unbounded_flags": sum(STATUS_UNBOUNDED in r["flags"] for r in rows),
        "empty_count": sum(r["n_points"] == 0 for r in rows),
        "empirical_bound": max(norms) if norms else None,
    }
    return ExperimentReport(
        "local-boundedness",
        {"eps": eps, "delta": delta, "samples": samples, "seed": cfg.seed, "a": a.tolist()},
        rows,
        summary,
    )


def r0_openness_probe(A: Tensor, radii, samples_per_radius: int, cfg: SolverConfig) -> ExperimentReport:
    """Fraction of R0 survivors under sphere perturbations of each radius.

    R0 is an open property, so fractions should hold at 1.0 up to some
    radius.  largest_all_pass and its half, suggested_eps, only say what the
    samples saw, not a safe radius: at gus every sample at radius 2 passes,
    yet gus with each entry lowered by 0.25, a Frobenius distance of 0.707,
    fails R0 (random directions rarely meet the non-R0 set).
    """
    radii = _check_radii(radii)
    samples_per_radius = _as_count("samples", samples_per_radius)
    base_r0 = check_r0(A, cfg)
    vacuous = base_r0.verdict != VERDICT_HOLDS

    # sample sid = i * samples_per_radius + j is the j-th at radius i
    sample_radii = [r for r in radii for _ in range(samples_per_radius)]
    tensors = _draws(cfg, _SALT_OPENNESS, len(sample_radii),
                     lambda sid, rng: A + Tensor(sample_radii[sid] * _tensor_direction(A.order, A.dim, rng).array))
    reports = _r0_reports(tensors, cfg)

    def one(sid: int) -> dict:
        r = sample_radii[sid]
        return _row(sid, pt=r, flags=[f"radius={r:.12g}", reports[sid].verdict])

    rows = _map_samples(one, range(len(sample_radii)))
    fractions = _by_radius(radii, samples_per_radius, [VERDICT_HOLDS in q["flags"] for q in rows],
                           lambda ok: sum(ok) / len(ok))
    all_pass = [r for r in radii if fractions[f"{r:.12g}"] == 1.0]
    largest = max(all_pass) if all_pass else None
    summary = {
        "vacuous": vacuous,
        "fractions": fractions,
        "largest_all_pass": largest,
        "suggested_eps": largest / 2 if largest is not None else None,
    }
    return ExperimentReport(
        "r0-openness",
        {"radii": radii, "samples_per_radius": samples_per_radius, "seed": cfg.seed},
        rows,
        summary,
    )


def genericity_sample(m: int, n: int, samples: int, cfg: SolverConfig) -> ExperimentReport:
    """Fraction of Gaussian tensors classified R0, with a Wilson 95% CI.
    (m, n) is checked before any tensor is drawn."""
    _check_size(m, n)
    samples = _as_count("samples", samples, zero_ok=True)

    tensors = _draws(cfg, _SALT_GENERICITY, samples, lambda s, rng: Tensor(rng.standard_normal(size=(n,) * m)))
    reports = _r0_reports(tensors, cfg)

    def one(s: int) -> dict:
        return _row(s, flags=[reports[s].verdict])

    rows = _map_samples(one, range(samples))
    hits = sum(VERDICT_HOLDS in r["flags"] for r in rows)
    if samples == 0:
        fraction = ci = None
    else:
        fraction = hits / samples
        z = 1.959963984540054
        denom = 1 + z**2 / samples
        center = (fraction + z**2 / (2 * samples)) / denom
        half = z * math.sqrt(fraction * (1 - fraction) / samples + z**2 / (4 * samples**2)) / denom
        ci = [center - half, center + half]
    summary = {"samples": samples, "r0_count": hits, "fraction": fraction, "ci95": ci}
    return ExperimentReport(
        "genericity", {"m": m, "n": n, "samples": samples, "seed": cfg.seed}, rows, summary
    )


def _reference_points(inst: TcpInstance, sol, cfg: SolverConfig) -> np.ndarray:
    """Comparison set for excess computations against a solved base, one
    point per row (N, n).

    Isolated points suffice for a finite base; a posdim-flagged base is
    densified with verified grid-oracle cluster members so the excess is not
    measured against an arbitrary sample of a continuum.
    """
    pts = [np.reshape([p.x for p in sol.points], (-1, inst.n))]
    if sol.posdim_suspect:
        oracle = brute_force_oracle(inst, ORACLE_BOX_RADIUS, 0.01, cfg.tol)
        pts.extend(cluster.members for cluster in oracle.clusters if cluster.verified)
    return np.concatenate(pts)


def usc_probe(inst: TcpInstance, radius: float, samples: int, cfg: SolverConfig) -> ExperimentReport:
    """Excess of perturbed solution sets over the base set, binned by shells.

    Upper semicontinuity shows as max excess shrinking with the perturbation
    radius.  A sample whose excess stays orders of magnitude above its own
    perturbation norm is flagged usc-violation; samples whose solution set is
    certified unbounded carry the +inf sentinel.
    """
    _check_sizes("radius", [radius])
    samples = _as_count("samples", samples)
    base = solve(inst, cfg)
    if not (base.points or base.rays or base.posdim_suspect):
        raise ValueError("usc probe needs a nonempty base solution set")
    if base.rays:
        raise ValueError("usc probe needs a base solution set without rays: its reference set lies in a box")
    reference = _reference_points(inst, base, cfg)
    n_shells = 5

    perts = _draws(cfg, _SALT_USC, samples, lambda s, rng: pair_ball(inst.m, inst.n, radius, rng))
    sols = solve_many([TcpInstance(inst.tensor + dT, inst.a + db) for dT, db in perts], cfg)

    def one(s: int) -> dict:
        (dT, db), sol = perts[s], sols[s]
        rho = pair_norm(dT, db)
        flags = [f"shell={min(n_shells, int(math.ceil(rho / (radius / n_shells))))}"]
        excess = _excess(sol, reference)
        if excess > max(USC_VIOLATION_FLOOR, USC_VIOLATION_FACTOR * rho):
            flags.append("usc-violation")
        return _solved_row(s, sol, frobenius(dT), float(np.linalg.norm(db)), excess, flags)

    rows = _map_samples(one, range(samples))
    shell_max: list[float | None] = []
    for k in range(1, n_shells + 1):
        vals = [r["excess"] for r in rows if f"shell={k}" in r["flags"]]
        shell_max.append(max(vals) if vals else None)
    summary = {
        "samples": samples,
        "reference_size": len(reference),
        "max_excess_by_shell": shell_max,
        "violation_count": sum("usc-violation" in r["flags"] for r in rows),
        "sentinel_count": sum(isinstance(r["excess"], float) and math.isinf(r["excess"]) for r in rows),
    }
    return ExperimentReport(
        "usc", {"radius": radius, "samples": samples, "seed": cfg.seed}, rows, summary
    )


def _fit_loglog(xs: list[float], es: list[float]) -> dict:
    """Least-squares fit log e = log gamma + c log x over positive pairs."""
    pairs = [(x, e) for x, e in zip(xs, es) if x > 0 and e > 1e-12 and math.isfinite(e)]
    if not pairs:
        return {"gamma": 0.0, "c": 0.0, "log_residual": 0.0, "exact_stability": True, "fit_points": 0}
    if len(pairs) == 1:
        x, e = pairs[0]
        return {"gamma": e, "c": 0.0, "log_residual": 0.0, "exact_stability": False,
                "fit_points": 1, "degenerate_fit": True}
    lx = np.log([p[0] for p in pairs])
    le = np.log([p[1] for p in pairs])
    c, intercept = np.polyfit(lx, le, 1)
    resid = float(np.sqrt(np.mean((c * lx + intercept - le) ** 2)))
    return {
        "gamma": float(np.exp(intercept)),
        "c": float(c),
        "log_residual": resid,
        "exact_stability": False,
        "fit_points": len(pairs),
    }


def hoelder_fit(A: Tensor, a, radii, samples_per_radius: int, cfg: SolverConfig) -> ExperimentReport:
    """Fit a local upper-Hoelder law excess <= gamma * r^c around (A, a).

    Right-hand sides are drawn on spheres of each radius; for each radius the
    max excess over samples enters a log-log least-squares fit.  Radii
    spanning under 1.5 decades, or fewer than 4 radii, set low_confidence.
    """
    a = as_vector(a, A.dim)
    radii = sorted(_check_radii(radii))
    samples_per_radius = _as_count("samples", samples_per_radius)
    # sample sid = i * samples_per_radius + j is the j-th at radius i, solved
    # with the base (A, a) as instance 0
    sample_radii = [r for r in radii for _ in range(samples_per_radius)]
    rhs = _draws(cfg, _SALT_HOELDER, len(sample_radii), lambda sid, rng: a + vec_sphere(A.dim, sample_radii[sid], rng))
    base, *sols = solve_many([TcpInstance(A, b) for b in [a] + rhs], cfg)
    if not base.points or base.posdim_suspect:
        raise ValueError("hoelder fit needs a nonempty finite base solution set")
    reference = [p.x for p in base.points]

    def one(sid: int) -> dict:
        return _solved_row(sid, sols[sid], pv=sample_radii[sid], excess=_excess(sols[sid], reference))

    rows = _map_samples(one, range(len(sample_radii)))
    e_by_radius = _by_radius(radii, samples_per_radius, [q["excess"] for q in rows], max)
    fit = _fit_loglog(radii, [e_by_radius[f"{r:.12g}"] for r in radii])
    span = math.log10(radii[-1] / radii[0]) if len(radii) > 1 else 0.0
    summary = dict(fit)
    summary.update(
        {
            "e_by_radius": e_by_radius,
            "span_decades": span,
            "low_confidence": span < 1.5 or len(radii) < 4,
        }
    )
    return ExperimentReport(
        "hoelder",
        {"radii": radii, "samples_per_radius": samples_per_radius, "seed": cfg.seed, "a": a.tolist()},
        rows,
        summary,
    )


def stability_inclusion_check(
    A: Tensor, a, eps: float, samples: int, cfg: SolverConfig
) -> ExperimentReport:
    """Nonemptiness, boundedness and Hoelder-type inclusion under copositive drift.

    Precondition: a lies in the interior of the dual of the homogeneous
    solution cone (tested against the sampled rays, which an R0-certified A
    has none of; vacuous report if not).
    Each sample draws a copositive-verified tensor B within eps (rejection
    sampling capped at 20x the requested count) and a shifted b within eps,
    then checks that Sol(B, a) and Sol(B, b) are nonempty without unbounded
    flags and fits excess against ||B - A|| + ||b - a||.
    """
    a = as_vector(a, A.dim)
    _check_sizes("eps", [eps])
    samples = _as_count("samples", samples)
    rays = homogeneous_solve(A, cfg).rays
    member = int_dual_cone_member([r.direction for r in rays], a, cfg.tol)
    params = {"eps": eps, "samples": samples, "seed": cfg.seed, "a": a.tolist()}
    if not member:
        return ExperimentReport(
            "stability",
            params,
            [],
            {"vacuous": True, "reason": "a is not interior to the dual of the solution cone"},
        )
    # the base solve reuses the cone's rays, so A's homogeneous part is settled once
    base = next(_solve_stream([TcpInstance(A, a)], cfg, homs={A.array.tobytes(): rays}))
    reference = [p.x for p in base.points]

    # rejection sampling runs in sample order: its attempt budget is shared
    budget = 20 * samples
    attempts = 0
    drawn: list[tuple[Tensor, np.ndarray, int]] = []
    for s in range(samples):
        rng = np.random.default_rng([cfg.seed, _SALT_STABILITY, s])
        B = None
        rejected = 0
        while attempts < budget:
            attempts += 1
            cand = A + tensor_ball(A.order, A.dim, eps, rng)
            if check_copositive(cand, cfg).verdict == VERDICT_HOLDS:
                B = cand
                break
            rejected += 1
        if B is None:
            break
        drawn.append((B, a + vec_ball(A.dim, eps, rng), rejected))
    # Sol(B, a) and Sol(B, b) of every sample in one call
    sols = solve_many([TcpInstance(B, rhs) for B, b, _ in drawn for rhs in (a, b)], cfg)

    def one(s: int) -> dict:
        (B, b, rejected), sol_b = drawn[s], sols[2 * s + 1]
        flags = []
        for tag, sol in (("a", sols[2 * s]), ("b", sol_b)):
            if not (sol.points or sol.posdim_suspect):
                flags.append(f"empty-{tag}")
            if sol.status == STATUS_UNBOUNDED:
                flags.append(f"unbounded-{tag}")
        if rejected:
            flags.append(f"rejected={rejected}")
        # not _excess: an empty reference gives +inf even for an empty
        # Sol(B, b), and an unbounded Sol(B, b) is measured by its points
        # (its unbounded-b flag already counts as a violation)
        excess = hausdorff_excess([p.x for p in sol_b.points], reference) if reference else math.inf
        return _row(s, frobenius(B - A), float(np.linalg.norm(b - a)), len(sol_b.points), _max_point_norm(sol_b),
                    excess, flags or ["ok"])

    rows = _map_samples(one, range(len(drawn)))
    fit = _fit_loglog([r["pert_norm_tensor"] + r["pert_norm_vec"] for r in rows], [r["excess"] for r in rows])
    summary = dict(fit)
    summary.update(
        {
            "vacuous": False,
            "violations": sum("empty-" in r["flags"] or "unbounded-" in r["flags"] for r in rows),
            "collected": len(rows),
            "attempts": attempts,
            "inconclusive": len(rows) < samples,
        }
    )
    return ExperimentReport("stability", params, rows, summary)
