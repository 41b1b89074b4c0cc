"""The four benchmark workloads: seeded inputs, timed calls, output checks.

A workload is run as one *pass* in a fresh process (see ``passrun.py``):

* ``setup`` draws every input from the seed and writes the curve files the
  CLI reads, so the library only ever sees generated inputs;
* ``run`` makes the timed calls, through ``cauchylab.cli.main(argv)`` where
  a subcommand exists and through the public library functions otherwise;
* ``check`` parses the outputs and applies the acceptance gates, plus a
  comparison with ``reference.json``, values recorded from the library at
  the commit that introduced this benchmark: on every seed for the inputs
  the seed does not change, on seed 0 for the seeded ones.

Why each workload exists (sizes are per pass):

``factorize-smooth``
    ``weak-factorize --eps 0.05 --stages 3 --m0 128`` on the flat curve and
    on the straight line of slope 1/2: 1 + 18 + 324 = 343 atoms per curve.
    Neither curve has a breakpoint, so the atoms are copies of each other up
    to translation and dilation and see the same geometry: the traced pass
    counts 16 canonical shape classes among the 343 atoms of each curve, so
    a canonical-shape cache would hit on 95 % of them.  The cost is per-atom
    bookkeeping (atoms, grid, spaces, factorization) plus row-subset
    punctured sums; nothing assembles a dense matrix.
``factorize-rough``
    The same command on the tent curve and on a seeded curve with 24
    breakpoints, log-uniform in |x| over [1, 10^9.5] with random sign,
    slopes uniform in [-1, 1].  Every atom's working grid holds a breakpoint
    at an offset of its own, so the traced pass counts 231 classes among the
    343 atoms of each curve (the repeats are atoms on the same support): a
    cache pays for its misses on two atoms in three.
``spectral``
    ``commutator-study --p 2 --trials 2`` on the tent curve (5 gallery
    symbols, N = 2049) and ``compactness-profile --rank-cap 12`` on a seeded
    curve with 8 breakpoints in [-6, 6] and slope bound 0.5 (N = 2049, a
    1025-node window).  Dense N^2 assembly, bandwidth-bound power-iteration
    matvecs and an O(n^3) SVD; the only workload with a large peak RSS.
``transform``
    Library calls: for N in {2049, 4097} and the flat, tent and a seeded
    curve, 6 random-support pairs (support widths fixed from 1/16 to 1/3 of
    the grid, positions and values seeded), each taken through
    ``apply_related_cauchy``, ``apply_cauchy``, ``apply_cauchy_adjoint`` and
    ``pi_b`` (144 applications); then ``bmo_norm(., 10)`` on the 5 gallery
    symbols and two ``vmo_profile`` scans.  The punctured sum runs as a few large matvecs, the opposite of
    factorization's many small row-subset blocks.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cauchylab
from cauchylab import cauchy, cli, commutator, factorization, spaces, symbols
from cauchylab.grid import GridFunction, Interval, UniformGrid

EPS = 0.05
STAGES = 3
FACTORIZE_ARGV = ["weak-factorize", "--eps", str(EPS), "--stages", str(STAGES),
                  "--m0", "128"]
NOMINAL_ATOMS = [18 ** k for k in range(STAGES)]   # 2(i0+1) = 18 children per atom

ROUGH_BREAKPOINTS = 24
ROUGH_LOG10_SPAN = 9.5

SPECTRAL_GRID_COUNT = 2049
RANK_CAP = 12
GALLERY_SIZE = 5

TRANSFORM_GRID_COUNTS = (2049, 4097)
TRANSFORM_PAIRS = 6
BMO_LEVEL = 10

# Relative tolerances of the comparison with reference.json; 0 means exact.
REFERENCE_TOLERANCE = {"atoms_per_stage": 0.0, "residual_trace": 1e-12,
                       "lambda_l1": 1e-12, "sigma_smooth_bump": 1e-8,
                       "sigma_clamped_log": 1e-8}


@dataclass
class Outcome:
    """What a pass attempted and what failed, with the margin of every check.

    A margin is the worst ratio of an observed value to its bound over the
    pass (at most 1 when the check holds); margins are run metadata.
    """

    units: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    margins: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def within(self, check: str, observed: float, bound: float) -> bool:
        ratio = observed / bound if bound > 0 else (0.0 if observed <= 0 else math.inf)
        if not math.isfinite(ratio):
            ratio = math.inf
        self.margins[check] = max(self.margins.get(check, 0.0), ratio)
        return math.isfinite(observed) and observed <= bound

    def record(self, ops: int, problems: list[str]) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops
            self.failures.extend(problems)


def _write_curve(path: Path, breakpoints, slopes) -> Path:
    cauchylab.write_curve_file(cauchylab.make_curve(breakpoints, slopes, 0.0), path)
    return path


def _random_curve(rng: np.random.Generator, n_break: int = 8,
                  slope_bound: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """Breakpoints uniform in [-6, 6], slope bound attained exactly."""
    bp = np.sort(rng.uniform(-6.0, 6.0, n_break))
    sl = rng.uniform(-slope_bound, slope_bound, n_break + 1)
    sl *= slope_bound / np.max(np.abs(sl))
    return bp, sl


def _rough_curve(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    mag = 10.0 ** rng.uniform(0.0, ROUGH_LOG10_SPAN, ROUGH_BREAKPOINTS)
    bp = np.sort(mag * rng.choice([-1.0, 1.0], ROUGH_BREAKPOINTS))
    return bp, rng.uniform(-1.0, 1.0, ROUGH_BREAKPOINTS + 1)


def _support_widths(count: int) -> list[int]:
    """Support widths of the pairs on a grid: evenly spaced from 1/16 to 1/3
    of the grid.  They are fixed, so the work of a pass does not depend on
    the seed; positions and sample values are drawn from it."""
    return [int(w) for w in np.linspace(count // 16, count // 3, TRANSFORM_PAIRS)]


def _random_support_function(rng: np.random.Generator, grid: UniformGrid,
                             width: int) -> GridFunction:
    """Random complex samples on ``width`` nodes at a random interior position."""
    n = grid.count
    start = int(rng.integers(2, n - width - 2))
    samples = np.zeros(n, dtype=np.complex128)
    samples[start:start + width] = (rng.standard_normal(width)
                                    + 1j * rng.standard_normal(width))
    center = grid.node(start) + (width // 2) * grid.spacing
    return GridFunction(grid, samples, Interval(center, (width // 2 + 2) * grid.spacing))


def _spectral_grid() -> UniformGrid:
    """The CLI's default grid for the spectral subcommands."""
    return UniformGrid(-8.0, 16.0 / (SPECTRAL_GRID_COUNT - 1), SPECTRAL_GRID_COUNT)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _csv_bytes(out_dirs) -> int:
    return sum(p.stat().st_size for d in out_dirs for p in Path(d).glob("*.csv"))


def _rel_diff(observed, expected) -> float:
    return abs(observed - expected) / abs(expected) if expected else abs(observed)


def compare_reference(outcome: Outcome, observed: dict, expected: dict) -> list[str]:
    """Compare fingerprint values with the recorded reference, key by key."""
    problems = []
    for key, ref in expected.items():
        obs = observed.get(key)
        tol = REFERENCE_TOLERANCE[key]
        ref_list = ref if isinstance(ref, list) else [ref]
        obs_list = obs if isinstance(obs, list) else [obs]
        if obs is None or len(obs_list) != len(ref_list):
            problems.append(f"reference {key}: {obs!r} != {ref!r}")
            continue
        if tol == 0.0:
            if obs_list != ref_list:
                problems.append(f"reference {key}: {obs!r} != {ref!r}")
            continue
        worst = max(_rel_diff(o, r) for o, r in zip(obs_list, ref_list))
        if not outcome.within(f"reference.{key}", worst, tol):
            problems.append(f"reference {key}: relative difference {worst:.3e} > {tol:g}")
    return problems


class Workload:
    """One pass of a workload; subclasses fill in the three phases."""

    name = ""
    nominal_ops = 0     # operations one pass attempts
    fixed_inputs: tuple[str, ...] = ()    # fingerprint labels the seed does not change

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = Path(work)

    @staticmethod
    def cli_main(argv: list[str]):
        """Exit code of ``cauchylab.cli.main``, or a description of what it raised."""
        try:
            return cli.main(argv)
        except Exception as exc:  # an escaping exception fails the operation
            return f"raised {type(exc).__name__}: {exc}"

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, begin_op) -> None:
        """Timed calls; ``begin_op(label)`` is called before each operation."""
        raise NotImplementedError

    def fingerprint(self) -> dict:
        """Values compared with reference.json, keyed by input label."""
        return {}

    def check(self, reference: dict) -> Outcome:
        raise NotImplementedError

    def csv_bytes(self) -> int:
        return 0


class FactorizeWorkload(Workload):
    """weak-factorize through the CLI on two curves."""

    nominal_ops = 2 * sum(NOMINAL_ATOMS)

    def curves(self) -> list[tuple[str, np.ndarray, np.ndarray]]:
        raise NotImplementedError

    def setup(self) -> None:
        self.jobs = []
        for label, bp, sl in self.curves():
            out = self.work / label
            path = _write_curve(self.work / f"{label}.txt", bp, sl)
            self.jobs.append((label, path, out))
        self.exit_codes: dict[str, int] = {}

    def run(self, begin_op) -> None:
        for label, path, out in self.jobs:
            begin_op(f"weak-factorize {label}")
            self.exit_codes[label] = self.cli_main(
                FACTORIZE_ARGV + ["--curve", str(path), "--out", str(out)])

    def parsed(self, label: str, out: Path) -> dict:
        stage_rows = _read_csv(out / "weak_factorize_stages.csv")
        summary = _read_csv(out / "weak_factorize_summary.csv")
        (const,) = _read_csv(out / "weak_factorize_constants.csv")
        atoms = [0] * STAGES
        mass = [0.0] * STAGES
        for row in stage_rows:
            k = int(row["k"]) - 1
            atoms[k] += 1
            mass[k] += abs(complex(float(row["re_lambda"]), float(row["im_lambda"])))
        return {
            "atoms_per_stage": atoms,
            "stage_mass": mass,
            "residual_trace": [float(r["residual_estimate"]) for r in summary],
            "contraction_ratios": [float(r["contraction_ratio"]) for r in summary],
            "eps": float(const["eps"]),
            "c0_measured": float(const["c0_measured"]),
            "initial_estimate": float(const["initial_estimate"]),
            "lambda_l1": float(const["lambda_l1"]),
            "non_contracting": int(const["non_contracting"]),
        }

    @staticmethod
    def _fingerprint(p: dict) -> dict:
        return {k: p[k] for k in ("atoms_per_stage", "residual_trace", "lambda_l1")}

    def fingerprint(self) -> dict:
        return {label: self._fingerprint(self.parsed(label, out))
                for label, _, out in self.jobs if self.exit_codes.get(label) == 0}

    def check(self, reference: dict) -> Outcome:
        outcome = Outcome()
        per_curve, c0 = {}, {}
        for label, _, out_dir in self.jobs:
            code = self.exit_codes.get(label)
            if code != 0:
                outcome.record(sum(NOMINAL_ATOMS), [f"{label}: weak-factorize exit {code}"])
                continue
            p = self.parsed(label, out_dir)
            problems = self.gates(outcome, label, p)
            if label in reference:
                problems += [f"{label}: {msg}" for msg in compare_reference(
                    outcome, self._fingerprint(p), reference[label])]
            atoms = sum(p["atoms_per_stage"])
            outcome.units += atoms
            outcome.record(atoms, problems)
            per_curve[label] = p["atoms_per_stage"]
            c0[label] = self.c0_components(p)
        outcome.info.update(atoms_per_stage=per_curve, c0_components=c0)
        return outcome

    @staticmethod
    def gates(outcome: Outcome, label: str, p: dict) -> list[str]:
        """Criterion 6 on one factorization, as the acceptance suite states it.

        The contraction cap and the lambda_l1 bound hold by construction:
        c0_measured is the largest of the stage ratios that they compare,
        so they can only catch an inconsistent output, and their margins
        carry no signal and are not recorded.  The strict decrease, the
        non-contracting flag, the stage-1 count and the reference values
        are the checks that can catch a wrong result.
        """
        problems = []
        trace, eps, c0 = p["residual_trace"], p["eps"], p["c0_measured"]
        initial = p["initial_estimate"]
        if len(trace) != STAGES:
            return [f"{label}: {len(trace)} stages, expected {STAGES}"]
        steps = [trace[0] / initial] + [trace[i + 1] / trace[i] for i in range(STAGES - 1)]
        if not outcome.within("c6.trace_decreasing", max(steps), 1.0) or max(steps) == 1.0:
            problems.append(f"{label}: residual trace not strictly decreasing")
        cap = eps * c0 + 0.05
        worst = max(p["contraction_ratios"])
        if not worst <= cap:
            problems.append(f"{label}: contraction ratio {worst:.4g} > cap {cap:.4g}")
        if p["non_contracting"] or not eps * c0 < 1.0:
            problems.append(f"{label}: flagged non-contracting")
        else:
            bound = c0 / (1.0 - eps * c0) * initial
            if not p["lambda_l1"] <= bound:
                problems.append(f"{label}: lambda_l1 {p['lambda_l1']:.6g} > {bound:.6g}")
        if p["atoms_per_stage"][0] != 1:
            problems.append(f"{label}: stage 1 holds {p['atoms_per_stage'][0]} atoms")
        return problems

    @staticmethod
    def c0_components(p: dict) -> dict:
        """The two ratios that c0_measured is the max of, reported apart:
        stage coefficient mass over the previous trace, and the contraction
        ratio over eps."""
        prev = [p["initial_estimate"]] + p["residual_trace"][:-1]
        return {
            "mass_over_previous_trace": max(m / t for m, t in zip(p["stage_mass"], prev)),
            "contraction_over_eps": max(p["contraction_ratios"]) / p["eps"],
            "c0_measured": p["c0_measured"],
        }

    def csv_bytes(self) -> int:
        return _csv_bytes(out for _, _, out in self.jobs)


class FactorizeSmooth(FactorizeWorkload):
    """Two curves without breakpoints; the seed does not change them."""

    name = "factorize-smooth"
    fixed_inputs = ("flat", "line")

    def curves(self):
        return [("flat", np.array([]), np.array([0.0])),
                ("line", np.array([]), np.array([0.5]))]


class FactorizeRough(FactorizeWorkload):
    """The tent, which the seed does not change, and a seeded rough curve."""

    name = "factorize-rough"
    fixed_inputs = ("tent",)

    def curves(self):
        rng = np.random.default_rng(self.seed)
        return [("tent", np.array([0.0]), np.array([1.0, -1.0])),
                ("rough", *_rough_curve(rng))]


class Spectral(Workload):
    name = "spectral"
    nominal_ops = GALLERY_SIZE + 2

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.tent = _write_curve(self.work / "tent.txt", [0.0], [1.0, -1.0])
        self.random = _write_curve(self.work / "random.txt", *_random_curve(rng))
        self.study_out = self.work / "study"
        self.profile_out = self.work / "profile"
        self.exit_codes = {}

    def run(self, begin_op) -> None:
        begin_op("commutator-study")
        self.exit_codes["study"] = self.cli_main(
            ["commutator-study", "--curve", str(self.tent), "--p", "2",
             "--trials", "2", "--seed", str(self.seed), "--out", str(self.study_out)])
        begin_op("compactness-profile")
        self.exit_codes["profile"] = self.cli_main(
            ["compactness-profile", "--curve", str(self.random), "--rank-cap",
             str(RANK_CAP), "--out", str(self.profile_out)])

    def profile(self) -> dict[str, list[float]]:
        sigma: dict[str, list[float]] = {}
        for row in _read_csv(self.profile_out / "compactness_profile.csv"):
            sigma.setdefault(row["symbol_name"], []).append(float(row["sigma_k"]))
        return sigma

    def fingerprint(self) -> dict:
        if self.exit_codes.get("profile") != 0:
            return {}
        sigma = self.profile()
        return {"random": {f"sigma_{k}": v for k, v in sigma.items()}}

    def check(self, reference: dict) -> Outcome:
        outcome = Outcome()
        outcome.units = GALLERY_SIZE + 2
        # Norm estimates: one op per gallery symbol.
        if self.exit_codes.get("study") != 0:
            outcome.record(GALLERY_SIZE, [f"commutator-study exit {self.exit_codes.get('study')}"])
        else:
            rows = _read_csv(self.study_out / "commutator_study.csv")
            floor = self.constant_floor(self.tent, outcome)
            if len(rows) != GALLERY_SIZE:
                outcome.record(GALLERY_SIZE, [f"commutator-study wrote {len(rows)} rows"])
                rows = []
            for row in rows:
                est, bmo = float(row["commutator_norm_estimate"]), float(row["bmo_norm"])
                ok = (math.isfinite(est) and est > 0 and math.isfinite(bmo)
                      and int(row["N"]) == SPECTRAL_GRID_COUNT)
                problems = [] if ok else [f"commutator-study {row['symbol_name']}: "
                                          f"estimate {est!r}"]
                outcome.record(1, problems + floor)
        # Profiles: one op per symbol; criterion 9 ties the two together.
        if self.exit_codes.get("profile") != 0:
            outcome.record(2, [f"compactness-profile exit {self.exit_codes.get('profile')}"])
        else:
            sigma = self.profile()
            problems = self.separation(outcome, sigma)
            problems += self.constant_floor(self.random, outcome)
            if "random" in reference:
                problems += compare_reference(outcome, self.fingerprint()["random"],
                                              reference["random"])
            outcome.record(2, problems)
        outcome.info.update(grid_count=SPECTRAL_GRID_COUNT,
                            window_nodes=self.window_nodes(), rank_cap=RANK_CAP,
                            gallery_symbols=GALLERY_SIZE)
        return outcome

    @staticmethod
    def separation(outcome: Outcome, sigma: dict[str, list[float]]) -> list[str]:
        """Criterion 9 on a seeded curve: sigma10/sigma1 of the smooth symbol
        at most 0.1, and below the log symbol's (the proxy's contract).

        The acceptance suite's factor of 5 between the two ratios is a
        flat-curve gate; on curves with corners inside the window the smooth
        profile decays more slowly, and the factor drops to about 2.
        """
        smooth, logp = sigma.get("smooth_bump", []), sigma.get("clamped_log", [])
        if len(smooth) != RANK_CAP or len(logp) != RANK_CAP:
            return [f"compactness-profile wrote {len(smooth)}/{len(logp)} values"]
        problems = []
        if any(b > a for s in (smooth, logp) for a, b in zip(s, s[1:])):
            problems.append("singular values not sorted decreasingly")
        r_smooth, r_log = smooth[9] / smooth[0], logp[9] / logp[0]
        if not outcome.within("c9.smooth_ratio", r_smooth, 0.1):
            problems.append(f"smooth sigma10/sigma1 {r_smooth:.3e} > 0.1")
        if not outcome.within("c9.separation", r_smooth, r_log) or r_smooth == r_log:
            problems.append(f"log ratio {r_log:.3e} <= smooth ratio {r_smooth:.3e}")
        return problems

    @staticmethod
    def constant_floor(curve_path: Path, outcome: Outcome) -> list[str]:
        """Criterion 8's floor: a constant divided symbol has a zero commutator."""
        weight = cauchylab.AccretiveWeight(cauchylab.load_curve_file(curve_path))
        grid = _spectral_grid()
        b = cauchy.weight_values(weight.curve, grid)
        const = GridFunction(grid, 2.0 * b, grid.covering_interval())
        est = commutator.commutator_norm_estimate(
            commutator.CommutatorSpec(const, weight), 2, 2, seed=3)
        if not outcome.within("c8.constant_floor", est, 1e-8):
            return [f"constant symbol commutator norm {est:.3e} > 1e-8"]
        return []

    @staticmethod
    def window_nodes() -> int:
        lo, hi = _spectral_grid().index_range(Interval(0.0, 4.0))
        return hi - lo

    def csv_bytes(self) -> int:
        return _csv_bytes([self.study_out, self.profile_out])


class Transform(Workload):
    name = "transform"
    nominal_ops = 4 * len(TRANSFORM_GRID_COUNTS) * 3 * TRANSFORM_PAIRS + GALLERY_SIZE + 2

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        curves = [("flat", cauchylab.make_curve([], [0.0], 0.0)),
                  ("tent", cauchylab.make_curve([0.0], [1.0, -1.0], 0.0)),
                  ("random", cauchylab.make_curve(*_random_curve(rng), 0.0))]
        self.cases = []
        for count in TRANSFORM_GRID_COUNTS:
            grid = UniformGrid(-8.0, 16.0 / (count - 1), count)
            for label, curve in curves:
                weight = cauchylab.AccretiveWeight(curve)
                widths = _support_widths(count)
                for f_width, g_width in zip(widths, reversed(widths)):
                    f = _random_support_function(rng, grid, f_width)
                    g = _random_support_function(rng, grid, g_width)
                    self.cases.append({"label": f"{label}/N{count}", "weight": weight,
                                       "f": f, "g": g})
        grid = UniformGrid(-8.0, 16.0 / 2048, 2049)
        self.gallery = symbols.correlation_gallery(grid)
        self.vmo_inputs = [
            (symbols.smooth_bump(UniformGrid(-32.0, 1 / 32, 2049), 1.0, 1.0),
             [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]),
            (symbols.clamped_log(grid), [0.25, 0.5, 1.0, 2.0, 4.0]),
        ]
        self.errors: list[str] = []

    def _call(self, label: str, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a raising operation counts as failed
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None

    def run(self, begin_op) -> None:
        for case in self.cases:
            curve = case["weight"].curve
            f, g = case["f"], case["g"]
            begin_op(case["label"])
            case["Rg"] = self._call(case["label"], cauchy.apply_related_cauchy, curve, g)
            case["Cg"] = self._call(case["label"], cauchy.apply_cauchy, curve, g)
            case["Csf"] = self._call(case["label"], cauchy.apply_cauchy_adjoint, curve, f)
            case["P"] = self._call(case["label"], factorization.pi_b, case["weight"], f, g)
        begin_op("oscillation scans")
        self.bmo = [self._call(name, spaces.bmo_norm, phi, BMO_LEVEL)
                    for name, phi in self.gallery]
        self.vmo = [self._call("vmo_profile", spaces.vmo_profile, phi, scales)
                    for phi, scales in self.vmo_inputs]

    def check(self, reference: dict) -> Outcome:
        outcome = Outcome()
        outcome.units = 4 * len(self.cases)
        for case in self.cases:
            if any(case[k] is None for k in ("Rg", "Cg", "Csf", "P")):
                outcome.record(4, [f"{case['label']}: an application raised"])
                continue
            outcome.record(4, self.pair_checks(outcome, case))
        outcome.record(len(self.gallery), self.bmo_checks(outcome))
        outcome.record(len(self.vmo_inputs), self.vmo_checks())
        outcome.failures[:0] = self.errors
        outcome.info.update(grid_counts=list(TRANSFORM_GRID_COUNTS),
                            pairs=len(self.cases),
                            support_fractions={n: [w / n for w in _support_widths(n)]
                                               for n in TRANSFORM_GRID_COUNTS})
        return outcome

    @staticmethod
    def pair_checks(outcome: Outcome, case: dict) -> list[str]:
        """Criteria 2, 3 and 7 on one pair, reusing the timed outputs.

        The related transform of f is read off the adjoint, C*(f) = -b R(f).
        """
        weight, f, g = case["weight"], case["f"], case["g"]
        curve, grid = weight.curve, f.grid
        b = cauchy.weight_values(curve, grid)
        scale = cauchylab.lp_norm(f, 2) * cauchylab.lp_norm(g, 2)
        rf = GridFunction(grid, -case["Csf"].samples / b, grid.covering_interval())
        checks = {
            "c2.antisymmetry": (abs(cauchylab.pair(rf, g) + cauchylab.pair(f, case["Rg"]))
                                / scale, 1e-6),
            "c2.adjoint": (abs(cauchylab.pair(case["Cg"], f) - cauchylab.pair(g, case["Csf"]))
                           / scale, 1e-6),
        }
        form = case["P"]
        weighted = GridFunction(grid, form.samples * b, form.support)
        checks["c3.cancellation"] = (abs(cauchylab.integrate(weighted)) / scale, 1e-4)
        g_div = GridFunction(grid, g.samples / b, g.support)
        lhs = factorization.pi_classic(weight, f, g).samples / b
        rhs = factorization.pi_b(weight, f, g_div).samples
        checks["c3.conversion"] = (float(np.max(np.abs(lhs - rhs)))
                                   / max(float(np.max(np.abs(rhs))), 1e-300), 1e-10)
        # Criterion 7: <S, Pi_b(f, g)> = <f, [S/b, C] g> for S = b * bump.
        symbol = symbols.weighted_symbol(weight, symbols.smooth_bump(grid))
        phi = commutator.CommutatorSpec(symbol, weight).divided_symbol()
        phi_g = GridFunction(grid, phi * g.samples, g.support)
        comm = phi * case["Cg"].samples - cauchy.apply_cauchy(curve, phi_g).samples
        rhs7 = cauchylab.pair(f, GridFunction(grid, comm, grid.covering_interval()))
        checks["c7.duality"] = (abs(cauchylab.pair(symbol, form) - rhs7) / scale, 1e-4)
        return [f"{case['label']}: {name} {obs:.3e} > {bound:g}"
                for name, (obs, bound) in checks.items()
                if not outcome.within(name, obs, bound)]

    def bmo_checks(self, outcome: Outcome) -> list[str]:
        """Positive, finite, and homogeneous in the amplitude: the gallery
        holds the bump at amplitudes 1 and 0.1 and the log at 1 and 3."""
        values = dict(zip((name for name, _ in self.gallery), self.bmo))
        if any(v is None or not (math.isfinite(v) and v > 0) for v in values.values()):
            return [f"bmo_norm values {values}"]
        problems = []
        for a, b, factor in (("bump_tenth", "bump", 0.1),
                             ("clamped_log_triple", "clamped_log", 3.0)):
            rel = _rel_diff(values[a], factor * values[b])
            if not outcome.within("bmo.homogeneity", rel, 1e-9):
                problems.append(f"bmo_norm({a}) / bmo_norm({b}) off by {rel:.3e}")
        return problems

    def vmo_checks(self) -> list[str]:
        """Criterion 10 on the two profiles."""
        smooth, log_report = self.vmo
        if smooth is None or log_report is None:
            return ["vmo_profile raised"]
        problems = []
        small = [v for _, v in smooth.small_scale]
        large = [v for _, v in smooth.large_scale]
        far = [v for _, v in smooth.far_field]
        if not all(small[i] <= small[i + 1] + 1e-12 for i in range(len(small) - 1)) \
                or small[0] > 0.35 * small[-1]:
            problems.append(f"smooth small-scale profile {small}")
        if not all(large[i + 1] <= large[i] + 1e-12 for i in range(len(large) - 1)) \
                or large[-1] > 0.35 * large[0]:
            problems.append(f"smooth large-scale profile {large}")
        if not all(far[i + 1] <= far[i] + 1e-12 for i in range(len(far) - 1)) \
                or far[-1] > 1e-12:
            problems.append(f"smooth far-field profile {far}")
        log_small = [v for _, v in log_report.small_scale]
        if log_small[0] < 0.5 * log_small[-1]:
            problems.append(f"log small-scale profile {log_small}")
        return problems


WORKLOADS = {cls.name: cls for cls in (FactorizeSmooth, FactorizeRough, Spectral, Transform)}
