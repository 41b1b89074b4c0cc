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
])
def test_far_or_degenerate_grid_exits_2_no_output(flat_curve_file, tmp_path, capsys,
                                                  command, args, message):
    out = tmp_path / "out"
    code = run([command, "--curve", flat_curve_file, *args, "--out", out])
    assert code == 2
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1 and err[0].startswith("precondition violated:") and message in err[0]
    assert not out.exists()
