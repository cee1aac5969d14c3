"""End-to-end tests of the command-line interface (in-process)."""

import cmath
import errno
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import galpha
from galpha import __version__, cli, integrator, numkit, orderlab, stability
from galpha.amplification import limit_matrix_inf
from galpha.cli import main
from galpha.schemes import make_scheme
from galpha.stability import default_t_samples

from conftest import check_exit_contract, matches


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_keys(path):
    lines = (path / "manifest.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in lines]
    return keys, lines


# --- integrate -------------------------------------------------------------------


def test_integrate_writes_trajectory(tmp_path, capsys):
    code, out, err = run_cli(
        capsys,
        "integrate", "--rho-inf", "0.5", "--tau", "0.1", "--t-end", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert "wrote trajectory.csv (11 rows)" in out
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re_u_1,im_u_1"
    assert len(lines) == 12
    keys, _ = manifest_keys(tmp_path)
    assert keys == sorted(keys)
    assert "subcommand" in keys and "version" in keys


def test_integrate_defaults_resolve_to_rho_half(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "integrate", "--out", str(tmp_path))
    assert code == 0
    _, lines = manifest_keys(tmp_path)
    assert "rho_inf = 0.5" in lines
    assert "branch = main" in lines


def test_integrate_constant_solution_for_zero_lambda(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "integrate", "--lambda", "0", "--tau", "0.25", "--t-end", "1",
        "--out", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    for row in rows:
        _, re_u, im_u = row.split(",")
        assert float(re_u) == 1.0
        assert float(im_u) == 0.0


def test_integrate_warns_outside_region(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "integrate", "--alpha-m", "0.5", "--alpha-f", "0.5", "--out", str(tmp_path),
    )
    assert code == 0
    assert "outside the unconditional-stability region" in err


@pytest.mark.parametrize(
    "argv,radius",
    [
        (
            ("--variant", "remark-one", "--alpha-m", "0.7", "--alpha-f", "0.5",
             "--lambda", "1e4", "--tau", "0.1", "--t-end", "10"),
            "1.33806",
        ),
        (("--p", "5"), "2.82537"),
    ],
)
def test_integrate_warns_from_the_measured_radius(tmp_path, capsys, argv, radius):
    # neither pair is judged by the p=3 equal-gamma region: the radius decides
    code, _, err = run_cli(capsys, "integrate", *argv, "--out", str(tmp_path))
    assert code == 0
    assert (
        "lies outside the unconditional-stability region "
        f"(spectral radius {radius}); proceeding anyway"
    ) in err


def test_order_check_warns_from_the_measured_radius(tmp_path, capsys):
    code, out, err = run_cli(capsys, "order-check", "--p", "5", "--out", str(tmp_path))
    assert code == 0
    assert err == (
        "warning: (alpha_m=1, alpha_f=0.75) lies outside the unconditional-stability "
        "region (spectral radius 2.82537); proceeding anyway\n"
    )
    assert "fitted order slope" in out


def test_integrate_warns_from_the_lambda_tau_it_marches(tmp_path, capsys):
    # the default design passes the real-axis samples, but not T = 2.75i
    code, out, err = run_cli(
        capsys,
        "integrate", "--lambda", "0,2.75", "--tau", "1", "--t-end", "200",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert err == (
        "warning: spectral radius 1.2297 at lambda*tau = 0.0+2.75j: the march grows "
        "where the solution does not; proceeding anyway\n"
    )
    assert "wrote trajectory.csv (201 rows)" in out


@pytest.mark.parametrize("argv", [(), ("--lambda", "-1", "--tau", "1", "--t-end", "10")])
def test_integrate_no_lambda_tau_warning(tmp_path, capsys, argv):
    # defaults: T = 0.1 is stable; lambda = -1: a radius above 1 is the solution's own growth
    code, _, err = run_cli(capsys, "integrate", *argv, "--out", str(tmp_path))
    assert code == 0
    assert err == ""


def test_integrate_no_warning_for_stable_remark_one_pair(tmp_path, capsys):
    # (1.0, 0.95) lies outside the equal-gamma region, but the remark-one
    # closure there has radius 1
    code, _, err = run_cli(
        capsys,
        "integrate", "--variant", "remark-one", "--alpha-m", "1.0", "--alpha-f", "0.95",
        "--out", str(tmp_path),
    )
    assert code == 0
    assert err == ""


def test_integrate_heat_problem(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "integrate", "--heat-n", "5", "--tau", "0.01", "--t-end", "0.05",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,re_u_1,im_u_1") and lines[0].endswith("re_u_5,im_u_5")
    assert len(lines) == 7
    _, manifest = manifest_keys(tmp_path)
    assert "problem = heat" in manifest


def test_integrate_heat_imaginary_columns_are_exact_zeros(tmp_path, capsys):
    """The heat rod marches in real arithmetic: every im_u_k cell is written as 0."""
    code, _, _ = run_cli(
        capsys,
        "integrate", "--heat-n", "40", "--rho-inf", "0.5", "--tau", "0.005", "--t-end", "0.1",
        "--out", str(tmp_path),
    )
    assert code == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    imaginary = [k for k, name in enumerate(header) if name.startswith("im_u_")]
    assert len(imaginary) == 40 and len(lines) == 22
    assert {line.split(",")[k] for line in lines[1:] for k in imaginary} == {"0"}


def test_integrate_complex_lambda(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys,
        "integrate", "--lambda", "1,2", "--tau", "0.1", "--t-end", "0.5",
        "--out", str(tmp_path),
    )
    assert code == 0
    last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
    _, re_u, im_u = last.split(",")
    exact = complex(math.e ** -0.5 * math.cos(1.0), -math.e ** -0.5 * math.sin(1.0))
    assert abs(complex(float(re_u), float(im_u)) - exact) < 5e-3


def test_integrate_negative_real_lambda_takes_the_equals_form(tmp_path, capsys):
    """``--lambda -1,2`` is an argparse error (a row of OUTCOMES); ``--lambda=-1,2`` runs."""
    code, _, _ = run_cli(capsys, "integrate", "--lambda=-1,2", "--tau", "0.1", "--t-end", "0.5",
                         "--out", str(tmp_path))
    assert code == 0
    last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
    _, re_u, im_u = last.split(",")
    assert abs(complex(float(re_u), float(im_u)) - cmath.exp(0.5 - 1j)) < 5e-3


# --- the exit contract ------------------------------------------------------------------

# argv, exit code, and stderr as check_exit_contract returns it, where each
# "..." is any text within one line: the error's message (after any warning
# lines), argparse's error line, or the warning lines of an exit 0.
OUTCOMES = [
    # configuration errors: exit 2
    (("integrate", "--alpha-m", "0.9", "--alpha-f", "0.6", "--rho-inf", "0.5"), 2,
     "give --alpha-m/--alpha-f or --rho-inf/--branch, not both"),
    (("integrate", "--alpha-m", "0.9"), 2, "--alpha-m and --alpha-f must be given together"),
    # the scheme is resolved before the options are checked
    (("integrate", "--alpha-m", "0.9", "--tau", "-1"), 2, "--alpha-m and --alpha-f must be given together"),
    (("integrate", "--rho-inf", "1.5"), 2, "rho_inf must be in [0, 1], got 1.5"),
    (("integrate", "--rho-inf", "1", "--branch", "alt2"), 2, "...has a pole at rho_inf = 1..."),
    (("integrate", "--p", "12"), 2, "...no tabulated constant for order p=12..."),
    (("integrate", "--p", "4", "--variant", "remark-one"), 2, "...third order only..."),
    # params_from_rho is the p=3 design: at p=2 it gives radius 0.80 for
    # rho_inf = 0.5, at p=4 an unstable scheme
    *(((command, "--p", p, "--rho-inf", "0.5"), 2,
       f"--rho-inf designs are third order; give --alpha-m/--alpha-f for --p {p}")
      for command in ("integrate", "order-check") for p in ("2", "4")),
    (("integrate", "--tau", "-0.1"), 2, "--tau must be positive and finite, got -0.1"),
    # nan reached the T-sample check and inf the step count, each with a
    # message that named neither option
    *(((command, option, value), 2, f"{option} must be positive and finite, got {value}")
      for command, option in (("integrate", "--tau"), ("order-check", "--tau-start")) for value in ("nan", "inf")),
    (("integrate", "--out", "{file}"), 2, "...cannot create output directory..."),
    (("integrate", "--out", "{blocked}"), 2, "...i/o failure..."),
    (("integrate", "--tau", "0.5", "--t-end", "0.25"), 2, "...--t-end must cover at least one step..."),
    (("integrate", "--rho-inf", "0.5", "--lambda", "1", "--tau", "0.3", "--t-end", "1"), 2,
     "t_end=1.0 is not a whole number of steps of tau=0.3 (t_end/tau = 3.33333333333)"),
    (("order-check", "--t-end", "1.3"), 2,
     "t_end=1.3 is not a whole number of steps of tau=0.125 (t_end/tau = 10.4)"),
    (("integrate", "--t-end", "inf"), 2, "t_end=inf over tau=0.1 is not a finite number of steps"),
    (("integrate", "--t-end", "1e300", "--tau", "1e-300"), 2,
     "t_end=1e+300 over tau=1e-300 is not a finite number of steps"),
    (("order-check", "--t-end", "inf"), 2, "t_end=inf over tau=0.125 is not a finite number of steps"),
    # 1e300 steps, beyond the length of a Python list: refused before the march
    (("integrate", "--tau", "1e-300", "--t-end", "1"), 2,
     "t_end=1.0 over tau=1e-300 is 1e+300 steps, more than a list can hold"),
    # the exact solution exp(-lambda t_end) overflows
    (("integrate", "--lambda=-710", "--t-end", "1", "--tau", "1"), 2,
     "the exact solution exp(-lambda t_end) overflows at lambda=(-710+0j), t_end=1.0"),
    (("order-check", "--lambda=-400"), 2,
     "the exact solution exp(-lambda t_end) overflows at lambda=(-400+0j), t_end=2.0"),
    (("order-check", "--lambda=-1e308", "--t-end=1"), 2,
     "the exact solution exp(-lambda t_end) overflows at lambda=(-1e+308+0j), t_end=1.0"),
    (("order-check", "--lambda=0,1e308"), 2,
     "the exact solution exp(-lambda t_end) overflows at lambda=1e+308j, t_end=2.0"),
    (("integrate", "--variant", "remark-one", "--alpha-m", "1", "--alpha-f", "-0.6666666666666666"), 2,
     "remark-one closure has a pole at 2 + 3*alpha_f = 0"),
    (("integrate", "--lambda", "nan"), 2, "lambda must be finite, got (nan+0j)"),
    (("integrate", "--lambda", "1,nan"), 2, "lambda must be finite, got (1+nanj)"),
    (("integrate", "--heat-n", "1"), 2, "...--heat-n must be at least 2..."),
    (("integrate", "--heat-n", "5", "--lambda", "3"), 2, "...cannot go with --heat-n..."),
    (("integrate", "--heat-n", "3", "--kappa", "inf"), 2, "diffusivity must be positive and finite, got inf"),
    # remark-one's alpha_f^2 overflowed Python's float power with a traceback
    (("integrate", "--variant", "remark-one", "--alpha-m", "1", "--alpha-f", "1e200"), 2,
     "scheme parameters must be finite"),
    (("order-check", "--variant", "remark-one", "--alpha-m", "1", "--alpha-f", "2e154", "--n-halvings", "1"), 2,
     "scheme parameters must be finite"),
    (("integrate", "--alpha-m", "1e308", "--alpha-f", "1e308"), 2,
     "T = 1e+08 overflows the coefficients of the cubic rho + T sigma"),
    (("stability-map", "--grid-n", "1"), 2, "--grid-n must be at least 2"),
    (("stability-map", "--alpha-max", "inf"), 2, "--alpha-max must be finite, got inf"),
    (("stability-map", "--alpha-min", "nan"), 2, "--alpha-min must be finite, got nan"),
    (("stability-map", "--t-max", "inf"), 2, "--t-max must be finite, got inf"),
    # reversed axes would reverse the gnuplot ranges, and equal bounds would
    # count one cell grid_n**2 times (the default --alpha-max is 1.5)
    *((("stability-map", "--grid-n", "2", "--alpha-min", *bounds), 2, "need --alpha-min < --alpha-max")
      for bounds in (("1", "--alpha-max", "0"), ("0.5", "--alpha-max", "0.5"), ("2",))),
    # alpha_max - alpha_min overflows: np.linspace warned and built nan and inf axis values
    (("stability-map", "--grid-n", "4", "--alpha-min=-1e308", "--alpha-max", "1e308"), 2,
     "the alpha range -1e+308 .. 1e+308 is wider than a double holds"),
    # the cubic's coefficients overflow: no nan radius is written
    (("stability-map", "--grid-n", "2", "--t-samples", "2", "--t-max", "1e308"), 2,
     "T = 1e+308 overflows the coefficients of the cubic rho + T sigma"),
    # the first band of the map holds no overflowing cubic but a G(inf) that LAPACK
    # refuses: every band's samples run before any band's T -> inf limit
    (("stability-map", "--alpha-min", "1e-320", "--alpha-max", "1e300"), 2,
     "T = 1e+08 overflows the coefficients of the cubic rho + T sigma"),
    (("stability-map", "--t-min", "5", "--t-max", "1"), 2, "...need 0 < --t-min < --t-max..."),
    (("stability-map", "--t-samples", "1"), 2, "...--t-samples must be at least 2..."),
    (("rho-curve", "--n-rho", "1"), 2, "...--n-rho must be at least 2..."),
    (("order-check", "--tau-start", "0"), 2, "...--tau-start must be positive..."),
    (("order-check", "--n-halvings", "0"), 2, "...--n-halvings must be at least 1..."),
    # argparse's own refusals: exit 2 with its usage text
    (("integrate", "--lambda", "1,2,3"), 2,
     "galpha integrate: error: argument --lambda: expected RE or RE,IM, got '1,2,3'"),
    (("integrate", "--lambda", "abc"), 2,
     "galpha integrate: error: argument --lambda: expected RE or RE,IM, got 'abc'"),
    # a negative number with a comma or an exponent after a space reads as an option
    (("integrate", "--lambda", "-1,2"), 2, "galpha integrate: error: argument --lambda: expected one argument"),
    (("integrate", "--lambda", "-1e3"), 2, "galpha integrate: error: argument --lambda: expected one argument"),
    (("integrate", "--no-such-flag"), 2, "galpha: error: unrecognized arguments: --no-such-flag"),
    (("rho-curve", "--variant", "remark-one"), 2, "galpha: error: unrecognized arguments: --variant remark-one"),
    # numerical failures: exit 3
    (("order-check", "--lambda", "0"), 3, "AllAtRoundoff: 0 of 6 errors above floor 1e-13"),
    # c1 + sigma*lambda overflows: the message names the overflow, not a vanishing denominator
    (("order-check", "--p", "7", "--alpha-m=-1e300", "--alpha-f", "1e300"), 3,
     "warning: ...\nStepSingular: step 1 of 16: stage shift is not finite: ..."),
    # an unstable scheme overflows at the finest tau only, then at tau_4 and
    # tau_5 (steps 533 of 768 and 536 of 1536): the coarser one is named
    (("order-check", "--p", "6", "--t-end", "3"), 3,
     "warning: ...\nStateOverflow: step 536 of 768: the state is not finite at tau=0.00390625"),
    (("order-check", "--p", "6", "--t-end", "6"), 3,
     "warning: ...\nStateOverflow: step 533 of 768: the state is not finite at tau=0.0078125"),
    # c1 + sigma*lambda vanishes at tau_1 only; at t_end = 200 tau_0 overflows first
    *((("order-check", "--p", "2", "--alpha-m", "0.25", "--alpha-f", "2", "--lambda", "0.8",
        "--tau-start", "0.25", "--n-halvings", "1", "--t-end", t_end), 3, f"warning: ...\n{message}")
      for t_end, message in [
          ("100", "StepSingular: step 1 of 800: stage denominator vanishes: c1 + sigma*lambda = 0j"),
          ("200", "StateOverflow: step 407 of 800: the state is not finite at tau=0.25")]),
    # block 2 of the initial stack is (lambda*tau)^2 = 1e398: inf in double
    (("integrate", "--lambda", "1e200", "--tau", "0.1"), 3,
     "StateOverflow: block 2 of the initial state, tau^2 (-A)^2 u0, is not finite at tau=0.1"),
    # lambda*tau = 1e309 overflows: the initial stack is refused, for a stable
    # scheme as for an unstable one, not the T sample of the radius check
    *((("integrate", *scheme, "--lambda", "1e308", "--tau", "10", "--t-end", "10"), 3, f"{warning}StateOverflow: "
       "block 1 of the initial state, tau^1 (-A)^1 u0, is not finite at tau=10.0")
      for scheme, warning in [((), ""), (("--p", "2", "--alpha-m", "1", "--alpha-f", "0.5"), ""),
                              (("--p", "4"), "warning: ...\n")]),
    # the initial stack is finite, (lambda*tau)^2 = 1e298, but step 1 overflows
    (("integrate", "--lambda", "1e150", "--tau", "0.1"), 3,
     "StateOverflow: step 1 of 10: the state is not finite at tau=0.1"),
    # an unstable scheme's heat march overflows at step 1837 of 2000, after
    # most of its rows are computed: still nothing under OUT
    (("integrate", "--p", "4", "--heat-n", "50", "--tau", "0.1", "--t-end", "200"), 3,
     "warning: ...\nStateOverflow: step 1837 of 2000: the state is not finite at tau=0.1"),
    # one-step matrices not finite in double precision (subnormal alpha_m, alpha_f): G(inf),
    # which LAPACK refuses, and the samples' G(T): galpha's message, not numpy's
    (("stability-map", "--grid-n", "4", "--alpha-min", "1e-320", "--alpha-max", "1e-300"), 3,
     "DegenerateParams: the T -> inf limit..."),
    (("integrate", "--p", "4", "--alpha-m", "1e-320", "--alpha-f", "1e-320"), 3,
     "SingularAtT: the one-step matrices G(T)..."),
    # the scan's arithmetic overflows; the pole rule and the refusals decide
    (("stability-map", "--grid-n", "2", "--alpha-min", "1e150", "--alpha-max", "1e160"), 0, ""),
    (("integrate", "--alpha-m=1e308", "--alpha-f=-1"), 0,
     "warning: (alpha_m=1e+308, alpha_f=-1) lies outside the unconditional-stability region "
     "(spectral radius inf); proceeding anyway"),
]


@pytest.mark.parametrize("argv, code, message", OUTCOMES, ids=[" ".join(argv) for argv, _, _ in OUTCOMES])
def test_cli_outcomes(tmp_path, argv, code, message):
    """Each argv exits with its row's code and stderr, and meets the CLI's exit contract."""
    (tmp_path / "file").write_text("")
    (tmp_path / "blocked" / "trajectory.csv").mkdir(parents=True)  # the CSV cannot be opened
    paths = {"{file}": tmp_path / "file", "{blocked}": tmp_path / "blocked"}
    argv = [str(paths.get(arg, arg)) for arg in argv]
    out = argv[argv.index("--out") + 1] if "--out" in argv else tmp_path / "out"
    got, lines, _ = check_exit_contract(argv, out)
    assert got == code
    assert matches(message, lines), lines


@pytest.mark.parametrize(
    "argv",
    [
        ("integrate",),
        ("order-check", "--n-halvings", "1"),
        ("stability-map", "--grid-n", "2", "--t-samples", "2"),
    ],
)
def test_variant_reaches_every_subcommand_that_takes_it(tmp_path, capsys, argv):
    code, _, _ = run_cli(capsys, *argv, "--variant", "remark-one", "--out", str(tmp_path))
    assert code == 0
    assert "variant = remark-one" in manifest_keys(tmp_path)[1]


# --- stability map --------------------------------------------------------------------


def test_stability_map_smoke(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "stability-map", "--grid-n", "4", "--t-samples", "6", "--out", str(tmp_path),
    )
    assert code == 0
    assert "16 cells" in out
    lines = (tmp_path / "stability.csv").read_text().splitlines()
    assert lines[0] == "alpha_m,alpha_f,radius,stable"
    assert len(lines) == 17
    plot = (tmp_path / "stability.plot").read_text()
    assert "stability.png" in plot and "stability.csv" in plot


def test_stability_map_reruns_are_byte_identical(tmp_path, capsys):
    args = ["stability-map", "--grid-n", "3", "--t-samples", "4"]
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, *args, "--out", str(d1))[0] == 0
    assert run_cli(capsys, *args, "--out", str(d2))[0] == 0
    for name in ("stability.csv", "stability.plot", "manifest.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_stability_map_t_max_1e307_reads_inf_where_the_roots_leave_the_double_range(tmp_path):
    """At --t-max 1e307 the monic cubic of an alpha_f = 0 cell with small alpha_m
    (mu^3 coefficient -alpha_m) is not finite: the cell reads radius inf,
    with no numpy warning and no nan in the map."""
    argv = ["stability-map", "--grid-n", "3", "--alpha-min", "0", "--alpha-max", "0.08", "--t-max", "1e307"]
    assert check_exit_contract(argv, tmp_path)[:2] == (0, [])
    rows = [line.split(",") for line in (tmp_path / "stability.csv").read_text().splitlines()[1:]]
    assert [row[2] for row in rows if float(row[0]) > 0.0 and float(row[1]) == 0.0] == ["inf", "inf"]


def test_stability_map_remark_one_pole_column_reads_inf(tmp_path):
    """The axis -2, -4/3, -2/3, 0 holds the remark-one closure's pole
    2 + 3 alpha_f = 0, where the weights are not finite: that column reads
    radius inf like any pole, and the map exits 0 without a numpy warning."""
    argv = ["stability-map", "--variant", "remark-one", "--grid-n", "4", "--alpha-min=-2", "--alpha-max", "0"]
    assert check_exit_contract(argv, tmp_path)[:2] == (0, [])
    rows = [line.split(",") for line in (tmp_path / "stability.csv").read_text().splitlines()[1:]]
    assert [row[2:] for row in rows if float(row[1]) == -0.66666666666666674] == [["inf", "0"]] * 4
    assert all(float(row[2]) < np.inf for row in rows if float(row[0]) < 0.0 and float(row[1]) < -1.0)


class _FullDisk:
    """A text file whose third write, the row after the header and one row,
    fails as on a full disk."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, text):
        self._writes += 1
        if self._writes > 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.mark.parametrize(
    "module, argv",
    [
        (integrator, ("integrate", "--tau", "0.25")),
        (stability, ("stability-map", "--grid-n", "3", "--t-samples", "2")),
        (cli, ("rho-curve", "--n-rho", "3")),
        (orderlab, ("order-check", "--n-halvings", "1")),
    ],
    ids=lambda arg: arg[0] if isinstance(arg, tuple) else None,
)
def test_a_disk_that_fills_mid_file_leaves_nothing_under_out(tmp_path, monkeypatch, module, argv):
    """Each subcommand's CSV writer fails after its first row: exit 2, and no
    file, partial or whole, is left under OUT."""
    monkeypatch.setattr(module, "open", lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)), raising=False)
    code, lines, _ = check_exit_contract(argv, tmp_path / "out")
    assert (code, lines) == (2, ["i/o failure: [Errno 28] No space left on device"])


def test_a_manifest_that_fails_removes_the_files_of_its_run(tmp_path, monkeypatch):
    """The manifest is the last file of a run: when it fails part way, the
    trajectory already written goes with it."""

    def partial_manifest(path, subcommand, entries):
        path.write_text("p = 3\n", encoding="utf-8")
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "_write_manifest", partial_manifest)
    code, lines, _ = check_exit_contract(["integrate"], tmp_path / "out")
    assert (code, lines) == (2, ["i/o failure: [Errno 28] No space left on device"])


def test_stability_map_that_does_not_fit_in_memory_is_config_error(tmp_path, monkeypatch):
    """An allocation that cannot succeed exits 2 with one JSON line, not a traceback."""

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 65.5 TiB for an array with shape (3000000, 3000000)")

    monkeypatch.setattr(cli, "scan_region", no_memory)
    code, lines, _ = check_exit_contract(["stability-map", "--grid-n", "4"], tmp_path)
    assert code == 2 and len(lines) == 1
    assert "does not fit in memory" in lines[0] and "65.5 TiB" in lines[0]


def test_stability_map_sample_defaults_are_the_librarys():
    """--t-samples, --t-min and --t-max default to default_t_samples()'s own defaults."""
    args = cli.build_parser().parse_args(["stability-map"])
    assert (args.t_samples, args.t_min, args.t_max) == default_t_samples.__defaults__ == (48, 1e-4, 1e8)


# --- rho curves -----------------------------------------------------------------------


def test_rho_curve_rows_and_poles(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "rho-curve", "--n-rho", "3", "--out", str(tmp_path))
    assert code == 0
    assert "main branch: worst |max_eig_inf - rho|" in out
    lines = (tmp_path / "rho_curves.csv").read_text().splitlines()
    assert lines[0] == "branch,rho,alpha_m,alpha_f,inside_region,max_eig_inf,pole"
    assert len(lines) == 1 + 4 * 3
    rows = [line.split(",") for line in lines[1:]]
    pole_rows = [r for r in rows if r[6] == "1"]
    assert [r[0] for r in pole_rows] == ["alt1", "alt2", "alt3"]
    for r in pole_rows:
        assert r[1] == "1" and r[2] == "" and r[3] == "" and r[4] == "" and r[5] == ""
    main_rows = [r for r in rows if r[0] == "main"]
    assert all(r[4] == "true" for r in main_rows)
    alt2_zero = next(r for r in rows if r[0] == "alt2" and float(r[1]) == 0.0)
    assert float(alt2_zero[3]) == pytest.approx((5.0 + math.sqrt(7.0)) / 4.0, abs=1e-12)


def test_rho_curve_writes_the_stiff_limit_radius(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "rho-curve", "--out", str(tmp_path))
    assert code == 0
    checked = 0
    for line in (tmp_path / "rho_curves.csv").read_text().splitlines()[1:]:
        _, _, am, af, _, max_eig, pole = line.split(",")
        if pole == "1":
            continue
        params = make_scheme(3, float(am), float(af))
        expected = float(np.abs(numkit.eigenvalues(limit_matrix_inf(params))).max())
        assert float(max_eig) == expected, line
        checked += 1
    assert checked == 401


# --- order check ----------------------------------------------------------------------


def test_order_check_reports_third_order(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "order-check", "--out", str(tmp_path))
    assert code == 0
    slope = float(out.split("fitted order slope:")[1].split()[0])
    assert 2.9 <= slope <= 3.1
    lines = (tmp_path / "convergence.csv").read_text().splitlines()
    assert lines[0] == "tau,error,pairwise_slope"
    assert len(lines) == 1 + 6  # tau-start 0.125 with 5 halvings


def test_order_check_second_order(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "order-check", "--p", "2", "--alpha-m", "0.5", "--alpha-f", "0.5",
        "--out", str(tmp_path),
    )
    assert code == 0
    slope = float(out.split("fitted order slope:")[1].split()[0])
    assert 1.9 <= slope <= 2.1


def test_order_check_recovers_constant(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "order-check", "--p", "2", "--alpha-m", "0.5", "--alpha-f", "0.5",
        "--recover-c", "--out", str(tmp_path),
    )
    assert code == 0
    assert "recovered closure constant C(2)" in out
    diff = float(out.split("|diff| = ")[1].split(")")[0])
    assert diff <= 1e-8
    _, manifest = manifest_keys(tmp_path)
    assert any(line.startswith("recovered_c = ") for line in manifest)


# --- manifest contract ------------------------------------------------------------------

_SCHEME_RHO_HALF = """\
alpha_f = 0.5555555555555556
alpha_m = 0.8055555555555556
branch = main
gammas = 0.6666666666666667,0.6666666666666667
"""

MANIFESTS = [
    (
        ("integrate",),
        _SCHEME_RHO_HALF + """\
lambda = 1.0
p = 3
problem = scalar
rho_inf = 0.5
subcommand = integrate
t_end = 1.0
tau = 0.1
variant = equal-gamma
""",
    ),
    (
        ("integrate", "--heat-n", "3"),
        _SCHEME_RHO_HALF + """\
heat_n = 3
kappa = 1.0
p = 3
problem = heat
rho_inf = 0.5
subcommand = integrate
t_end = 1.0
tau = 0.1
variant = equal-gamma
""",
    ),
    (
        ("stability-map", "--grid-n", "2", "--t-samples", "2"),
        """\
alpha_f_max = 1.5
alpha_f_min = 0.0
alpha_m_max = 1.5
alpha_m_min = 0.0
grid_n_alpha_f = 2
grid_n_alpha_m = 2
subcommand = stability-map
t_max = 100000000.0
t_min = 0.0001
t_samples = 2
variant = equal-gamma
""",
    ),
    (
        ("rho-curve", "--n-rho", "2"),
        """\
n_rho = 2
subcommand = rho-curve
""",
    ),
    (
        ("order-check", "--n-halvings", "1"),
        _SCHEME_RHO_HALF + """\
lambda = 1.0
n_halvings = 1
p = 3
rho_inf = 0.5
subcommand = order-check
t_end = 2.0
tau_start = 0.125
variant = equal-gamma
""",
    ),
]


@pytest.mark.parametrize("argv,expected", MANIFESTS, ids=[" ".join(a) for a, _ in MANIFESTS])
def test_manifest_text(tmp_path, capsys, argv, expected):
    code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert code == 0
    text = (tmp_path / "manifest.txt").read_text(encoding="utf-8")
    assert text == expected + f"version = {__version__}\n"


# --- version / module entry -------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "galpha" in capsys.readouterr().out


def _child_env():
    """Environment for a child interpreter that imports the galpha under test."""
    paths = [str(Path(galpha.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "galpha", "--version"],
        capture_output=True,
        text=True,
        timeout=60,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert "galpha" in proc.stdout


_WITHOUT_MPMATH = """\
import sys, tempfile

class BlockMpmath:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "mpmath":
            raise ModuleNotFoundError(f"{name} is blocked")

sys.meta_path.insert(0, BlockMpmath())
import galpha
from galpha import cli

runs = [["integrate"], ["stability-map", "--grid-n", "10"], ["rho-curve", "--n-rho", "5"],
        ["order-check", "--recover-c"]]
with tempfile.TemporaryDirectory() as tmp:
    codes = [cli.main([*argv, "--out", tmp]) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.startswith(("scipy", "mpmath"))))
"""


def test_import_leaves_scipy_unloaded():
    """The package and one small run of each subcommand load no scipy or
    mpmath module, and run with mpmath's import blocked.

    scipy is installed but not a dependency.  Importing ``scipy.linalg`` or
    ``scipy.fft`` after galpha measured 0.28-0.36 s and 25-27 MB on top of a
    33 MB process (2-core x86-64 VM, Python 3.11, numpy 2.4.6, scipy 1.17.1),
    more than the benchmark's bounds on setup time and peak RSS allow.
    mpmath is a test dependency only: the extended-precision oracle of
    ``recover_C`` lives in ``tests/oracles.py``.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH], capture_output=True, text=True, timeout=120, env=_child_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
