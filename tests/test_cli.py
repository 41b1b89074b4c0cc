import math
import time

import numpy as np
import pytest

from cauchylab import containment_index, make_curve, write_curve_file
from cauchylab.cli import main

from conftest import make_random_curve


@pytest.fixture()
def flat_curve_file(tmp_path):
    path = tmp_path / "flat.txt"
    write_curve_file(make_curve([], [0.0], 0.0), path)
    return path


@pytest.fixture()
def tent_curve_file(tmp_path):
    path = tmp_path / "tent.txt"
    write_curve_file(make_curve([0.0], [1.0, -1.0], 0.0), path)
    return path


def run(args):
    return main([str(a) for a in args])


def test_hilbert_check_passes_and_writes(flat_curve_file, tmp_path):
    out = tmp_path / "out"
    code = run(["hilbert-check", "--curve", flat_curve_file,
                "--grid-count", "2049", "--grid-spacing", str(1 / 128),
                "--out", out])
    assert code == 0
    summary = (out / "hilbert_summary.csv").read_text().strip().split("\n")
    assert summary[0] == "spacing,max_rel_err"
    assert len(summary) == 3
    assert float(summary[1].split(",")[1]) <= 2e-2


def test_hilbert_check_requires_flat_curve(tent_curve_file, tmp_path):
    code = run(["hilbert-check", "--curve", tent_curve_file,
                "--out", tmp_path / "o"])
    assert code == 2


def test_two_bump_csv_i0_column(tent_curve_file, tmp_path):
    out = tmp_path / "out"
    code = run(["two-bump", "--curve", tent_curve_file,
                "--m-list", "128,256", "--out", out])
    assert code == 0
    rows = (out / "two_bump_summary.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        cols = row.split(",")
        assert int(cols[1]) == containment_index(int(cols[0]))
        assert int(cols[2]) == 2 * (int(cols[1]) + 1)
        assert int(cols[6]) == 1
    assert (out / "two_bump_terms_M128.csv").read_text().startswith(
        "j,i,re_alpha,im_alpha,support_center,support_radius,cert_cancel_residual")


def test_byte_identical_reruns(tmp_path):
    curve = make_random_curve(seed=3)
    path = tmp_path / "c.txt"
    write_curve_file(curve, path)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run(["commutator-study", "--curve", path, "--out", out,
                    "--grid-count", "513", "--grid-spacing", str(16 / 512),
                    "--seed", "7"]) == 0
        outs.append((out / "commutator_study.csv").read_bytes())
    assert outs[0] == outs[1]


def test_malformed_curve_exits_1_no_output(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("anchor 0.0\nbreakpoints zero\nslopes 0.0\n")
    out = tmp_path / "out"
    code = run(["hilbert-check", "--curve", bad, "--out", out])
    assert code == 1
    assert not out.exists()


def test_missing_curve_file_exits_1(tmp_path):
    code = run(["hilbert-check", "--curve", tmp_path / "nope.txt",
                "--out", tmp_path / "o"])
    assert code == 1


def test_precondition_violation_exits_2(tent_curve_file, tmp_path):
    code = run(["two-bump", "--curve", tent_curve_file, "--m-list", "64",
                "--out", tmp_path / "o"])
    assert code == 2


def test_unknown_flag_exits_1(flat_curve_file, tmp_path):
    code = run(["hilbert-check", "--curve", flat_curve_file, "--frobnicate"])
    assert code == 1


def test_numerical_failure_exits_3(flat_curve_file, tmp_path, monkeypatch):
    import cauchylab.cli as cli
    from cauchylab import NumericalCheckError

    def broken(args, weight):
        raise NumericalCheckError("synthetic invariant violation")

    monkeypatch.setitem(cli._HANDLERS, "hilbert-check", broken)
    code = run(["hilbert-check", "--curve", flat_curve_file,
                "--out", tmp_path / "o"])
    assert code == 3


def test_factor_atom_sweep(flat_curve_file, tmp_path):
    out = tmp_path / "out"
    code = run(["factor-atom", "--curve", flat_curve_file,
                "--m-list", "128,256", "--out", out])
    assert code == 0
    rows = (out / "factor_atom.csv").read_text().strip().split("\n")
    header = rows[0].split(",")
    assert header[:3] == ["M", "abs_denom", "denom_floor"]
    for row in rows[1:]:
        cols = [float(v) for v in row.split(",")]
        assert cols[1] >= cols[2]          # denominator above its floor
        assert cols[6] <= 10.0             # sup residual * M * r


def test_weak_factorize_outputs(tent_curve_file, tmp_path):
    out = tmp_path / "out"
    code = run(["weak-factorize", "--curve", tent_curve_file,
                "--stages", "2", "--out", out])
    assert code == 0
    summary = (out / "weak_factorize_summary.csv").read_text().strip().split("\n")
    assert summary[0] == "k,residual_estimate,contraction_ratio"
    traces = [float(r.split(",")[1]) for r in summary[1:]]
    assert traces == sorted(traces, reverse=True)
    constants = (out / "weak_factorize_constants.csv").read_text().strip().split("\n")
    values = dict(zip(constants[0].split(","), constants[1].split(",")))
    assert values["non_contracting"] == "0"
    stages = (out / "weak_factorize_stages.csv").read_text().strip().split("\n")
    assert stages[0] == "k,j,re_lambda,im_lambda,M,y0,residual_estimate"
    assert len(stages) == 1 + 1 + 18  # header + stage-1 term + stage-2 terms


def test_vmo_profile_outputs(flat_curve_file, tmp_path):
    out = tmp_path / "out"
    code = run(["vmo-profile", "--curve", flat_curve_file,
                "--grid-count", "1025", "--grid-spacing", str(16 / 1024),
                "--out", out])
    assert code == 0
    for name in ("vmo_smooth.csv", "vmo_clamped_log.csv"):
        text = (out / name).read_text().strip().split("\n")
        assert text[0] == "kind,scale,oscillation"
        kinds = {row.split(",")[0] for row in text[1:]}
        assert kinds == {"small", "large", "far"}


def test_compactness_profile_output(flat_curve_file, tmp_path):
    out = tmp_path / "out"
    code = run(["compactness-profile", "--curve", flat_curve_file,
                "--grid-count", "513", "--grid-spacing", str(16 / 512),
                "--rank-cap", "4", "--out", out])
    assert code == 0
    rows = (out / "compactness_profile.csv").read_text().strip().split("\n")
    assert rows[0] == "symbol_name,k,sigma_k"
    assert len(rows) == 1 + 2 * 4


@pytest.mark.parametrize("command,radius", [
    ("two-bump", "-1"), ("factor-atom", "-1"), ("weak-factorize", "0"),
    ("two-bump", "nan"), ("factor-atom", "inf"), ("weak-factorize", "-0.5"),
    ("two-bump", "0.3"), ("factor-atom", "0.3"),
])
def test_bad_radius_exits_2_no_output(flat_curve_file, tmp_path, capsys,
                                      command, radius):
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, "--radius", radius,
                "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and "--radius" in err
    assert not out.exists()


@pytest.mark.parametrize("command,spacing", [
    ("two-bump", "0"), ("factor-atom", "nan"), ("two-bump", "-0.25"), ("factor-atom", "inf"),
])
def test_bad_grid_spacing_exits_2_no_output(flat_curve_file, tmp_path, capsys,
                                            command, spacing):
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, "--grid-spacing", spacing,
                "--out", out])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().split("\n")) == 1 and "--grid-spacing" in err
    assert not out.exists()


def test_unwritable_out_exits_2(flat_curve_file, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("a file, not a directory\n")
    code = run(["vmo-profile", "--curve", flat_curve_file,
                "--grid-count", "257", "--grid-spacing", str(16 / 256), "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("cannot write output:")


def test_hilbert_check_fields_parse_as_floats(flat_curve_file, tmp_path):
    out = tmp_path / "out"
    assert run(["hilbert-check", "--curve", flat_curve_file,
                "--grid-count", "2049", "--grid-spacing", str(1 / 128),
                "--out", out]) == 0
    lines = (out / "hilbert_check.csv").read_text().strip().split("\n")
    assert lines[0] == "x,re_num,im_num,re_oracle,im_oracle,rel_err"
    assert len(lines) > 1
    for line in lines[1:]:
        assert len([float(v) for v in line.split(",")]) == 6


# Options no command reads: --seed everywhere but commutator-study, the grid
# bounds of the two-bump sweeps, every grid option of weak-factorize, and
# factor-atom's --eps (its separations come from --m-list).
_UNREAD = ([(c, "--seed") for c in ("hilbert-check", "two-bump", "factor-atom",
                                    "weak-factorize", "compactness-profile",
                                    "vmo-profile")]
           + [(c, f) for c in ("two-bump", "factor-atom")
              for f in ("--grid-left", "--grid-count")]
           + [("weak-factorize", f) for f in ("--grid-left", "--grid-spacing",
                                              "--grid-count")]
           + [("factor-atom", "--eps")])


@pytest.mark.parametrize("command,flag", _UNREAD)
def test_unread_option_exits_1_no_output(flat_curve_file, tmp_path, capsys,
                                         command, flag):
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, flag, "3", "--out", out])
    assert code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_each_command_declares_only_what_it_reads():
    import argparse

    from cauchylab.cli import build_parser

    grid = {"--grid-left", "--grid-spacing", "--grid-count"}
    base = {"--curve", "--out"}
    expected = {
        "hilbert-check": base | grid,
        "two-bump": base | {"--grid-spacing", "--m-list", "--radius", "--x0"},
        "factor-atom": base | {"--grid-spacing", "--m-list", "--radius", "--x0"},
        "weak-factorize": base | {"--eps", "--stages", "--m0", "--radius", "--x0"},
        "commutator-study": base | grid | {"--seed", "--p", "--trials"},
        "compactness-profile": base | grid | {"--rank-cap", "--window-center",
                                              "--window-radius"},
        "vmo-profile": base | grid | {"--scales"},
    }
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    declared = {name: {opt for action in p._actions for opt in action.option_strings
                       if opt not in ("-h", "--help")}
                for name, p in sub.choices.items()}
    assert declared == expected
    assert sum(map(len, declared.values())) == 46


@pytest.mark.parametrize("command,flag,value", [
    ("weak-factorize", "--s", "2"),        # not --stages
    ("two-bump", "--grid", "0.5"),         # not --grid-spacing
    ("commutator-study", "--tri", "1"),    # not --trials
])
def test_truncated_flag_exits_1_no_output(flat_curve_file, tmp_path, capsys,
                                          command, flag, value):
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, flag, value, "--out", out])
    assert code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scales", ["nan", "inf", "-inf", "0.5,nan,2"])
def test_non_finite_vmo_scales_exit_2_no_output(flat_curve_file, tmp_path, capsys, scales):
    out = tmp_path / "out"
    code = run(["vmo-profile", "--curve", flat_curve_file, "--grid-count", "257",
                "--grid-spacing", str(16 / 256), f"--scales={scales}", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "scales" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("hilbert-check", ["--grid-left", "nan"]),
    ("hilbert-check", ["--grid-left", "inf"]),
    ("hilbert-check", ["--grid-left=-inf"]),
    ("weak-factorize", ["--radius", "1e308"]),
    ("weak-factorize", ["--radius", "1e306"]),
    ("weak-factorize", ["--x0", "nan"]),
    ("two-bump", ["--x0", "inf"]),
])
def test_non_finite_geometry_exits_2_no_output(flat_curve_file, tmp_path, capsys,
                                               command, args):
    # the grid and the two-bump host-grid helper reject these themselves
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, *args, "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:")
    assert not out.exists()


@pytest.mark.parametrize("command,args,message", [
    # a valid grid whose nodes all lie far left of the window
    ("compactness-profile", ["--grid-left", "0", "--grid-spacing", "1e-300",
                             "--window-center", "1e10"], "fewer than two nodes"),
    # a grid whose nodes coincide: one step does not move its ends
    ("commutator-study", ["--grid-left", "1e308", "--trials", "1"], "float resolution"),
    # a subnormal spacing: count / spacing, which bounds the kernel sums, overflows
    ("vmo-profile", ["--grid-left", "0", "--grid-count", "257", "--grid-spacing", "5e-324"],
     "count / spacing"),
    ("commutator-study", ["--grid-left", "0", "--grid-count", "65", "--grid-spacing",
                          "5e-324", "--trials", "1"], "count / spacing"),
    ("commutator-study", ["--grid-left", "0", "--grid-count", "65", "--grid-spacing",
                          "1e-308", "--trials", "1"], "count / spacing"),
    # no node to compare with the oracle: all within 0.1 of x = 1, or all
    # where the oracle is 0 to 1e-12
    ("hilbert-check", ["--grid-left", "0.95", "--grid-spacing", "0.01", "--grid-count", "11"],
     "no node"),
    ("hilbert-check", ["--grid-left", "0", "--grid-spacing", "1e-300"], "no node"),
    # p != 2 probes stand on interior nodes, which two nodes do not leave
    ("commutator-study", ["--p", "3", "--grid-count", "2", "--grid-spacing", "4"],
     "at least 4 nodes"),
])
def test_far_or_degenerate_grid_exits_2_no_output(flat_curve_file, tmp_path, capsys,
                                                  command, args, message):
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, *args, "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:") and message in err[0]
    assert not out.exists()


@pytest.mark.parametrize("text,args", [
    # A(1e300) overflows
    ("anchor 0\nbreakpoints 0.0\nslopes 1e10 -1e10\n",
     ["--grid-left", "1e300", "--grid-spacing", "1e290"]),
    # A(+-1e298) is finite, A(1e298) - A(-1e298) overflows
    ("anchor 0\nbreakpoints\nslopes 1e10\n",
     ["--grid-left=-1e298", "--grid-spacing", "1.5625e296"]),
])
def test_curve_out_of_float_range_on_the_grid_exits_2_no_output(tmp_path, capsys, text, args):
    curve = tmp_path / "curve.txt"
    curve.write_text(text)
    out = tmp_path / "out"
    code = run(["commutator-study", "--curve", curve, *args, "--grid-count", "129",
                "--trials", "1", "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and "A leaves the float range" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command,args", [
    ("vmo-profile", []),
    ("commutator-study", ["--trials", "1"]),
    ("compactness-profile", ["--window-center", "1.0000000064e300", "--window-radius", "1e291"]),
])
def test_symbols_on_a_far_grid_exit_0(flat_curve_file, tmp_path, command, args):
    # the smooth bump is zero on every node there; squaring x / R overflows
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, "--grid-left", "1e300",
                "--grid-spacing", "1e290", "--grid-count", "129", *args, "--out", out])
    assert code == 0


def test_commutator_study_at_large_p_is_positive_and_finite(tent_curve_file, tmp_path):
    # |f|^1000 overflows for |f| > 2.03, which standard normal probes exceed
    out = tmp_path / "out"
    code = run(["commutator-study", "--curve", tent_curve_file, "--p", "1000",
                "--grid-count", "129", "--grid-spacing", "0.125", "--out", out])
    assert code == 0
    rows = (out / "commutator_study.csv").read_text().strip().split("\n")[1:]
    estimates = [float(row.split(",")[2]) for row in rows]
    assert len(estimates) == 5 and all(0.0 < e < math.inf for e in estimates)


@pytest.mark.parametrize("args", [
    # scale / spacing overflows: 1e10 / 1e-300
    ["--grid-spacing", "1e-300", "--scales", "1e10"],
])
def test_uncountable_vmo_widths_exit_2_no_output(flat_curve_file, tmp_path, capsys, args):
    out = tmp_path / "out"
    code = run(["vmo-profile", "--curve", flat_curve_file, "--grid-left", "0",
                "--grid-count", "257", *args, "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated: scales")
    assert not out.exists()


def test_weak_factorize_small_radius_on_tent(tent_curve_file, tmp_path):
    # a bump row whose node lands across the breakpoint on its own working
    # grid; its weighted integral is taken there, so it stays an atom
    out = tmp_path / "out"
    code = run(["weak-factorize", "--curve", tent_curve_file, "--stages", "3",
                "--radius", "0.3", "--out", out])
    assert code == 0
    lines = (out / "weak_factorize_summary.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3


@pytest.mark.parametrize("error", [MemoryError(), np.linalg.LinAlgError("SVD did not converge")])
def test_internal_error_exits_4_no_output(flat_curve_file, tmp_path, capsys, monkeypatch,
                                          error):
    import cauchylab.cli as cli

    def broken(args, weight):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "vmo-profile", broken)
    out = tmp_path / "out"
    code = run(["vmo-profile", "--curve", flat_curve_file, "--out", out])
    assert code == 4
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith(f"internal error: {type(error).__name__}")
    assert not out.exists()


@pytest.mark.parametrize("stages,radius", [("2", "1e200"), ("2", "1e-200"), ("4", "1e150")])
def test_weak_factorize_out_of_float_range_exits_2_no_output(tent_curve_file, tmp_path, capsys,
                                                            stages, radius):
    # the run's factor samples or its bilinear form would leave the float
    # range; rejected before the first stage
    out = tmp_path / "out"
    code = run(["weak-factorize", "--curve", tent_curve_file, "--stages", stages,
                "--radius", radius, "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:") and "float" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("radius,spacing", [("1e200", "1.25e199"), ("1e-200", "1.25e-201")])
def test_factor_atom_out_of_float_range_exits_2_no_output(tent_curve_file, tmp_path, capsys,
                                                         radius, spacing):
    # the factor's squared samples overflow, or the bilinear form underflows;
    # approx_factor_atom rejects the atom before it builds the first factor
    out = tmp_path / "out"
    code = run(["factor-atom", "--curve", tent_curve_file, "--radius", radius,
                "--grid-spacing", spacing, "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:") and "float" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command,args,n", [
    ("commutator-study", ["--trials", "1"], 65),
    ("compactness-profile", ["--window-radius", "4"], 33),
])
def test_dense_matrix_over_physical_memory_exits_2_no_output(flat_curve_file, tmp_path, capsys,
                                                             monkeypatch, command, args, n):
    # N = 65 nodes, spacing 1/4: the whole grid, or the 33 nodes of the window;
    # the window's Gram path holds three n x n matrices at once
    import cauchylab.cauchy as cauchy

    matrices = 3 if command == "compactness-profile" else 1
    need = 16 * matrices * n * n + (4 << 20)
    grid = ["--grid-count", "65", "--grid-spacing", "0.25"]
    monkeypatch.setattr(cauchy, "_physical_memory", lambda: need - 1)
    out = tmp_path / "out"
    assert run([command, "--curve", flat_curve_file, *grid, *args, "--out", out]) == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:")
    assert f"{n} x {n}" in err[0] and "physical memory" in err[0]
    assert not out.exists()
    monkeypatch.setattr(cauchy, "_physical_memory", lambda: need)
    assert run([command, "--curve", flat_curve_file, *grid, *args, "--out", out]) == 0


# Small runs of every command, and the options each one reads as numbers.
_FUZZ_SMALL = ["--grid-count", "65", "--grid-spacing", "0.25"]
_FUZZ_BASE = {
    "hilbert-check": (["--grid-left", "-2", "--grid-count", "513", "--grid-spacing", "0.0078125"],
                      ["--grid-left", "--grid-count", "--grid-spacing"]),
    "two-bump": (["--m-list", "128"], ["--grid-spacing", "--m-list", "--radius", "--x0"]),
    "factor-atom": (["--m-list", "128"], ["--grid-spacing", "--m-list", "--radius", "--x0"]),
    "weak-factorize": (["--stages", "1"], ["--eps", "--stages", "--m0", "--radius", "--x0"]),
    "commutator-study": (_FUZZ_SMALL + ["--trials", "1"],
                         ["--grid-left", "--grid-count", "--grid-spacing", "--seed", "--p",
                          "--trials"]),
    "compactness-profile": (_FUZZ_SMALL + ["--rank-cap", "4"],
                            ["--grid-left", "--grid-count", "--grid-spacing", "--rank-cap",
                             "--window-center", "--window-radius"]),
    "vmo-profile": (_FUZZ_SMALL + ["--scales", "0.5,1"],
                    ["--grid-left", "--grid-count", "--grid-spacing", "--scales"]),
}
_FUZZ_CURVES = {
    "steep": "anchor 0\nbreakpoints\nslopes 1e200\n",            # 1 + slope^2 overflows
    "far": "anchor 1e308\nbreakpoints 0.0 1e308\nslopes 1 1e10 1\n",  # A(1e308) overflows
    "cliff": "anchor 0\nbreakpoints 0.0\nslopes 1e10 -1e10\n",      # A overflows far out
    "ramp": "anchor 0\nbreakpoints\nslopes 1e10\n",                  # so does A's spread
}


def _fuzz_table():
    for command, (base, numeric) in _FUZZ_BASE.items():
        yield command, "flat" if command == "hilbert-check" else "tent", base
        for curve in _FUZZ_CURVES:
            yield command, curve, base
        for option in numeric:
            for value in ("nan", "inf", "0", "-1"):
                yield command, "tent", base + [f"{option}={value}"]
    yield "commutator-study", "flat", _FUZZ_SMALL + ["--seed", "-1"]
    yield "hilbert-check", "flat", ["--grid-left", "2", "--grid-count", "100"]
    yield "hilbert-check", "flat", ["--grid-count", "2"]
    far = ["--grid-count", "129", "--trials", "1"]
    yield "commutator-study", "cliff", ["--grid-left", "1e300", "--grid-spacing", "1e290", *far]
    yield "commutator-study", "ramp", ["--grid-left=-1e298", "--grid-spacing", "1.5625e296", *far]
    for command, curve, args, _ in _UNJUDGED_OR_UNBOUNDED:
        yield command, curve, args


# Inputs that exit 2 before any work, in under a second: hilbert-check grids
# whose oracle comparison is not first order in the spacing (x = +-1 off the
# nodes) or too coarse for the 2e-2 gate, separations M above MAX_BIG_M, an eps
# that is not finite, work over a bound, two-bump bumps of more than
# MAX_ATOM_NODES nodes among it, a radius under one cell or over infinitely
# many, and an x0 so large that x0 + M r rounds to x0.
_UNJUDGED_OR_UNBOUNDED = [
    ("hilbert-check", "flat", ["--grid-left", "-8.003", "--grid-spacing", "0.01",
                               "--grid-count", "1601"], "are not nodes"),
    ("hilbert-check", "flat", ["--grid-spacing", "0.03125", "--grid-count", "513"],
     "exceeds 0.01"),
    ("weak-factorize", "tent", ["--stages", "1", "--m0", "1048576"], "work bound"),
    ("commutator-study", "tent", ["--trials", "100000000000000000000000"], "work bound"),
    ("factor-atom", "tent", ["--m-list", "536870912"], "certified cancellation"),
    ("weak-factorize", "tent", ["--eps", "1e-7", "--stages", "2"], "certified cancellation"),
    ("factor-atom", "tent", ["--grid-spacing", "1.52587890625e-05"], "work bound"),
    ("two-bump", "tent", ["--m-list", "1073741824"], "exceeds MAX_BIG_M"),
    ("two-bump", "tent", ["--m-list", "1048577"], "exceeds MAX_BIG_M"),
    ("two-bump", "tent", ["--m-list", "128", "--grid-spacing", "1.52587890625e-05"], "work bound"),
    ("weak-factorize", "tent", ["--eps", "inf", "--stages", "2"], "positive and finite"),
    ("two-bump", "flat", ["--m-list", "128", "--radius", "1e-100"], "at least one and finitely "
     "many cells"),
    ("factor-atom", "tent", ["--radius", "1e-100"], "at least one and finitely many cells"),
    ("factor-atom", "tent", ["--grid-spacing", "5e-324"], "integer multiple of --grid-spacing"),
    ("two-bump", "tent", ["--x0", "1e308"], "at least one and finitely many radii"),
    ("factor-atom", "tent", ["--x0", "1e308"], "at least one and finitely many radii"),
    ("weak-factorize", "tent", ["--stages", "1", "--x0", "1e308"],
     "at least one and finitely many radii"),
]


def test_two_bump_at_max_big_m_holds_only_its_bumps(tent_curve_file, tmp_path):
    # M = 2^20 at spacing 1/4: a host grid of 2^25 + 5 nodes, of which two
    # bumps of 9 nodes are read
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run(["two-bump", "--curve", tent_curve_file, "--m-list", "1048576",
                "--out", out]) == 0
    assert time.perf_counter() - start < 1.0
    rows = (out / "two_bump_summary.csv").read_text().strip().split("\n")
    assert rows[1].startswith("1048576,21,44,") and rows[1].endswith(",1")


@pytest.mark.parametrize("command,curve,args,message", _UNJUDGED_OR_UNBOUNDED)
def test_unjudged_grid_or_unbounded_work_exits_2_no_output(flat_curve_file, tent_curve_file,
                                                           tmp_path, capsys, command, curve,
                                                           args, message):
    out = tmp_path / "out"
    curves = {"flat": flat_curve_file, "tent": tent_curve_file}
    start = time.perf_counter()
    assert run([command, "--curve", curves[curve], *args, "--out", out]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:") and message in err[0]
    assert not out.exists()


def test_cli_fuzz_exits_0_1_or_2_and_failures_write_nothing(flat_curve_file, tent_curve_file,
                                                            tmp_path, capsys):
    # a RuntimeWarning is an error under pytest, so an overflow escapes too
    curves = {"flat": flat_curve_file, "tent": tent_curve_file}
    for name, text in _FUZZ_CURVES.items():
        curves[name] = tmp_path / f"{name}.txt"
        curves[name].write_text(text)
    bad = []
    for k, (command, curve, args) in enumerate(_fuzz_table()):
        out = tmp_path / f"out{k}"
        try:
            code = run([command, "--curve", curves[curve], *args, "--out", out])
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
        if code not in (0, 1, 2) or (code != 0 and out.exists()):
            bad.append((command, curve, args, code))
    capsys.readouterr()
    assert bad == []
