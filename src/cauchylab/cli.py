"""Batch driver: every experiment is a subcommand writing deterministic CSVs.

Exit codes: 0 success, 1 argument or curve-file parse error (a curve outside
the float range included), 2 precondition violation or unwritable output,
3 violated numerical invariant (named on stderr), 4 internal error (out of
memory, or a NumPy linear-algebra routine that failed, such as an SVD that
did not converge).  Identical
configuration and seed produce byte-identical output files; all rows are
assembled in memory and written only after a command finishes, so a failed
run leaves no partial output.

Each subcommand declares only the options it reads.  Only
``commutator-study`` draws random numbers, from ``--seed`` (one
power-iteration start per restart, symbols processed in gallery order).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .atoms import (decompose_two_bump, decomposition_csv, make_test_atom,
                    make_two_bump_input, reconstruction_error, two_bump_host_grid,
                    two_bump_norm_bound)
from .cauchy import apply_related_cauchy
from .commutator import CommutatorSpec, commutator_norm_estimate, compactness_profile
from .curve import AccretiveWeight, eval_A, load_curve_file
from .errors import (CauchylabError, CurveFormatError, NumericalCheckError,
                     PreconditionError)
from .factorization import (MAX_BIG_M, approx_factor_atom, denominator_floor,
                            estimate_residual_h1b, residual, single_two_bump_initial,
                            weak_factorize)
from .grid import Interval, UniformGrid, complex_abs, csv_text, indicator
from .spaces import bmo_norm, vmo_profile, vmo_scales
from .symbols import clamped_log, correlation_gallery, smooth_bump, weighted_symbol

EXIT_PARSE, EXIT_PRECONDITION, EXIT_NUMERICAL, EXIT_INTERNAL = 1, 2, 3, 4
# The coarsest hilbert-check spacing: the oracle error is first order in it,
# at most 1.75e-2 up to 0.01 (spacings 2/m, m = 200..400, on grids reaching
# 1 to 20 units past x = -1 and x = 1) against the 2e-2 gate, and 2.19e-2
# at 0.0125.
HILBERT_MAX_SPACING = 0.01


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, allow_abbrev=False, **kwargs):  # a truncated flag is an error
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def error(self, message):  # argparse default exits with 2; parse errors are 1 here
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_PARSE)


def _grid_from_args(args, weight) -> UniformGrid:
    """The options' grid, rejected unless A, which the kernel reads at every
    node, and A's spread are finite on it: A is linear between breakpoints,
    so both are taken at the grid's ends and interior breakpoints."""
    grid = UniformGrid(args.grid_left, args.grid_spacing, args.grid_count)
    bp = weight.curve.breakpoints
    xs = np.concatenate(([grid.left, grid.right], bp[(bp > grid.left) & (bp < grid.right)]))
    with np.errstate(over="ignore", invalid="ignore"):
        a = eval_A(weight.curve, xs)
        spread = np.max(a) - np.min(a)  # inf or NaN when an A is
    if not np.isfinite(spread):
        raise PreconditionError(f"the curve's A leaves the float range on the grid "
                                f"[{grid.left}, {grid.right}]")
    return grid


def _check_grid_args(args) -> None:
    """Reject a bad --radius, and for the commands that build two-bump host
    grids a bad --grid-spacing or a radius off the grid, before any work."""
    radius = vars(args).get("radius")
    if radius is not None and not (radius > 0 and math.isfinite(radius)):
        raise PreconditionError(f"--radius must be positive and finite, got {radius}")
    if args.command not in ("two-bump", "factor-atom"):
        return
    spacing = args.grid_spacing
    if not (spacing > 0 and math.isfinite(spacing)):
        raise PreconditionError(f"--grid-spacing must be positive and finite, got {spacing}")
    cells = radius / spacing
    if not (math.isfinite(cells) and abs(cells - np.round(cells)) <= 1e-9):
        raise PreconditionError(f"--radius {radius} must be an integer multiple of "
                                f"--grid-spacing {spacing}")


def _parse_list(text: str, kind, what: str) -> list:
    try:
        values = [kind(tok) for tok in text.split(",") if tok.strip()]
        list(map(float, values))  # an integer past the float range cannot be computed with
    except (ValueError, OverflowError):
        raise PreconditionError(f"bad {what} list: {text!r}")
    if not values:
        raise PreconditionError(f"{what} list is empty")
    return values


def _cmd_hilbert_check(args, weight) -> dict[str, str]:
    if weight.curve.lipschitz_constant != 0.0:
        raise PreconditionError("hilbert-check runs the flat-curve oracle; "
                                "the supplied curve has nonzero slopes")
    grid = _grid_from_args(args, weight)
    if grid.left > -1.0 + 1e-9 * grid.spacing or grid.right < 1.0 - 1e-9 * grid.spacing:
        raise PreconditionError(
            f"hilbert-check: the grid [{grid.left}, {grid.right}] does not cover [-1, 1], the "
            f"support of the indicator it transforms, so no node can be compared with the oracle")
    ends = ((x - grid.left) / grid.spacing for x in (-1.0, 1.0))
    if any(abs(e - round(e)) > 1e-9 for e in ends):
        raise PreconditionError(
            f"hilbert-check: x = -1 and x = 1 are not nodes of the grid from {grid.left} at "
            f"spacing {grid.spacing} (to 1e-9 of a cell), so the indicator of [-1, 1] it "
            f"transforms is not the one of the oracle")
    if grid.spacing > HILBERT_MAX_SPACING:
        raise PreconditionError(
            f"hilbert-check: spacing {grid.spacing} exceeds {HILBERT_MAX_SPACING}, the coarsest "
            f"at which the oracle error, first order in the spacing, stays within 2e-2")
    rows_summary = []
    for refine in (1, 2):
        grid = UniformGrid(args.grid_left, args.grid_spacing / refine,
                           (args.grid_count - 1) * refine + 1)
        xs = grid.nodes()
        oracle = np.zeros(grid.count, dtype=np.complex128)
        keep = np.abs(np.abs(xs) - 1.0) > 0.1
        oracle[keep] = 1j / np.pi * np.log(np.abs((xs[keep] + 1.0) / (xs[keep] - 1.0)))
        valid = keep & (np.abs(oracle) > 1e-12)
        if not valid.any():
            raise PreconditionError(
                f"hilbert-check: no node of the grid [{grid.left}, {grid.right}] lies more "
                f"than 0.1 from x = +-1 with an oracle value above 1e-12")
        out = apply_related_cauchy(weight.curve, indicator(grid, Interval(0.0, 1.0)))
        rel = np.abs(out.samples[valid] - oracle[valid]) / np.abs(oracle[valid])
        rows_summary.append([grid.spacing, float(np.max(rel))])
        if refine == 1:
            num, orc = out.samples[valid], oracle[valid]
            detail_rows = zip(xs[valid], num.real, num.imag, orc.real, orc.imag, rel)
    err, err_fine = (row[1] for row in rows_summary)
    if err > 2e-2:
        raise NumericalCheckError(f"flat-curve oracle error {err:.3e} exceeds 2e-2")
    if err / err_fine < 1.5:
        raise NumericalCheckError(
            f"halving the spacing improved the oracle error only "
            f"{err / err_fine:.2f}x (< 1.5x)")
    return {
        "hilbert_check.csv": csv_text(
            ["x", "re_num", "im_num", "re_oracle", "im_oracle", "rel_err"],
            detail_rows),
        "hilbert_summary.csv": csv_text(["spacing", "max_rel_err"], rows_summary),
    }


def _cmd_two_bump(args, weight) -> dict[str, str]:
    outputs: dict[str, str] = {}
    summary = []
    r, x0 = args.radius, args.x0
    m_list = _parse_list(args.m_list, int, "M")
    if any(abs(m) > MAX_BIG_M for m in m_list):
        raise PreconditionError(f"|M| = {max(map(abs, m_list))} exceeds MAX_BIG_M = {MAX_BIG_M}")
    grids = [two_bump_host_grid(x0, x0 + m * r, r, args.grid_spacing) for m in m_list]
    for m, grid in zip(m_list, grids):
        f = make_two_bump_input(weight, grid, x0, x0 + m * r, r)
        dec = decompose_two_bump(weight, f)
        summary.append([m, dec.i0, len(dec.table), two_bump_norm_bound(dec),
                        max(complex_abs(dec.coefficient).tolist()), reconstruction_error(dec, f),
                        int(dec.summary.accepted().all())])
        outputs[f"two_bump_terms_M{m}.csv"] = decomposition_csv(dec)
    outputs["two_bump_summary.csv"] = csv_text(
        ["M", "i0", "term_count", "sum_abs_alpha", "max_abs_alpha",
         "reconstruction_rel_error", "certified"], summary)
    return outputs


def _cmd_factor_atom(args, weight) -> dict[str, str]:
    m_list = _parse_list(args.m_list, int, "M")
    r = args.radius
    grids = [two_bump_host_grid(args.x0, args.x0 + m * r, r, args.grid_spacing) for m in m_list]
    rows = []
    for m, grid in zip(m_list, grids):
        atom = make_test_atom(weight, grid, args.x0, r)
        pair = approx_factor_atom(weight, atom, Interval(args.x0, r), big_m=m)
        certified = residual(weight, atom, pair)
        est = estimate_residual_h1b(weight, certified)
        sup = certified.sup
        rows.append([m, abs(pair.denom), denominator_floor(weight, m), pair.g_l2, pair.h_l2,
                     sup, sup * m * r, est, est * m / math.log2(m)])
    return {"factor_atom.csv": csv_text(
        ["M", "abs_denom", "denom_floor", "g_l2", "h_l2", "res_sup",
         "res_sup_times_mr", "h1b_estimate", "est_times_m_over_log2m"], rows)}


def _cmd_weak_factorize(args, weight) -> dict[str, str]:
    initial = single_two_bump_initial(weight, args.x0, args.m0, args.radius)
    wf = weak_factorize(weight, initial, args.eps, args.stages)
    stage_rows = []
    for k, stage in enumerate(wf.stages, start=1):
        est = wf.residual_trace[k - 1]
        for j, (lam, y0) in enumerate(zip(stage.lam.tolist(), stage.y0.tolist()), start=1):
            stage_rows.append([k, j, lam.real, lam.imag, wf.big_m, y0, est])
    ratio_rows = [[k + 1, trace, ratio] for k, (trace, ratio) in
                  enumerate(zip(wf.residual_trace, wf.contraction_ratios()))]
    constants = [[wf.epsilon, wf.big_m, wf.c0_measured, wf.initial_estimate,
                  wf.lambda_l1(), wf.final_residual_estimate,
                  int(wf.non_contracting)]]
    return {
        "weak_factorize_stages.csv": csv_text(
            ["k", "j", "re_lambda", "im_lambda", "M", "y0",
             "residual_estimate"], stage_rows),
        "weak_factorize_summary.csv": csv_text(
            ["k", "residual_estimate", "contraction_ratio"], ratio_rows),
        "weak_factorize_constants.csv": csv_text(
            ["eps", "M", "c0_measured", "initial_estimate", "lambda_l1",
             "final_residual_estimate", "non_contracting"], constants),
    }


def _cmd_commutator_study(args, weight) -> dict[str, str]:
    grid = _grid_from_args(args, weight)
    rows = []
    for index, (name, phi) in enumerate(correlation_gallery(grid)):
        spec = CommutatorSpec(weighted_symbol(weight, phi), weight)
        est = commutator_norm_estimate(spec, args.p, args.trials,
                                       seed=args.seed + index)
        rows.append([name, bmo_norm(phi, 10), est, args.p, grid.count])
    return {"commutator_study.csv": csv_text(
        ["symbol_name", "bmo_norm", "commutator_norm_estimate", "p", "N"], rows)}


def _cmd_compactness_profile(args, weight) -> dict[str, str]:
    grid = _grid_from_args(args, weight)
    window = Interval(args.window_center, args.window_radius)
    rows = []
    for name, phi in (("smooth_bump", smooth_bump(grid)),
                      ("clamped_log", clamped_log(grid))):
        spec = CommutatorSpec(weighted_symbol(weight, phi), weight)
        for k, sigma in enumerate(compactness_profile(spec, window,
                                                      args.rank_cap), start=1):
            rows.append([name, k, sigma])
    return {"compactness_profile.csv": csv_text(["symbol_name", "k", "sigma_k"], rows)}


def _cmd_vmo_profile(args, weight) -> dict[str, str]:
    grid = _grid_from_args(args, weight)
    scales = vmo_scales(_parse_list(args.scales, float, "scales"), grid.spacing)
    return {f"vmo_{name}.csv": vmo_profile(phi, scales).to_csv()
            for name, phi in (("smooth", smooth_bump(grid, 1.0, 1.0)),
                              ("clamped_log", clamped_log(grid)))}


_HANDLERS = {
    "hilbert-check": _cmd_hilbert_check,
    "two-bump": _cmd_two_bump,
    "factor-atom": _cmd_factor_atom,
    "weak-factorize": _cmd_weak_factorize,
    "commutator-study": _cmd_commutator_study,
    "compactness-profile": _cmd_compactness_profile,
    "vmo-profile": _cmd_vmo_profile,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cauchylab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spacing=None, count=None):
        p.add_argument("--curve", required=True, help="curve spec file")
        if count is not None:
            p.add_argument("--grid-left", type=float, default=-8.0)
            p.add_argument("--grid-count", type=int, default=count)
        if spacing is not None:
            p.add_argument("--grid-spacing", type=float, default=spacing)
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("hilbert-check", help="flat-curve indicator oracle")
    common(p, spacing=1.0 / 256.0, count=4097)

    p = sub.add_parser("two-bump", help="two-bump decomposition sweep over M")
    common(p, spacing=0.25)
    p.add_argument("--m-list", default="128,256,512,1024")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)

    p = sub.add_parser("factor-atom", help="approximate factorization sweep")
    common(p, spacing=0.125)
    p.add_argument("--m-list", default="128,256,512,1024,2048,4096")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)

    p = sub.add_parser("weak-factorize", help="iterative factorization trace")
    common(p)
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--stages", type=int, default=4)
    p.add_argument("--m0", type=int, default=128,
                   help="separation of the initial two-bump atom")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)

    p = sub.add_parser("commutator-study", help="commutator norm vs oscillation")
    common(p, spacing=16.0 / 2048.0, count=2049)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--trials", type=int, default=2)

    p = sub.add_parser("compactness-profile", help="windowed singular values")
    common(p, spacing=16.0 / 2048.0, count=2049)
    p.add_argument("--rank-cap", type=int, default=12)
    p.add_argument("--window-center", type=float, default=0.0)
    p.add_argument("--window-radius", type=float, default=4.0)

    p = sub.add_parser("vmo-profile", help="three-limit oscillation profiles")
    common(p, spacing=16.0 / 2048.0, count=2049)
    p.add_argument("--scales", default="0.25,0.5,1,2,4")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_grid_args(args)
        curve = load_curve_file(args.curve)
        weight = AccretiveWeight(curve)
        outputs = _HANDLERS[args.command](args, weight)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            for name, text in outputs.items():
                (out_dir / name).write_text(text, encoding="utf-8", newline="")
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
        for name in outputs:
            print(f"wrote {out_dir / name}")
        return 0
    except CurveFormatError as exc:
        print(f"curve error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalCheckError as exc:
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except CauchylabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (MemoryError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
