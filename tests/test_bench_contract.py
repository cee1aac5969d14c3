"""The benchmark's span recorder must find every name it patches, and put it back.

``perfbench/tracing.py`` times galpha from outside the package by replacing
module attributes such as ``stability.amplification_matrix`` and
``amplification.build_lr``.  A refactor that drops one of those names breaks
every benchmark run; this test breaks first.  A smoke run under the
installed recorder also checks the call shapes it relies on:
``dataclasses.replace`` on a ``LinearProblem``, the positional
``step(params, problem, state)``, and ``cli.*`` names looked up at call time.
"""

from pathlib import Path

import numpy as np
import pytest

from galpha import amplification, cli, integrator, numkit, orderlab, stability
from galpha.schemes import make_scheme, params_from_rho

from conftest import last, load_script

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (amplification, cli, integrator, numkit, orderlab, stability)


def _load_tracing():
    return load_script(TRACING, "perfbench_tracing")


def _patched(before):
    return {
        (module.__name__, name)
        for module, names in zip(MODULES, before)
        for name, value in names.items()
        if vars(module).get(name) is not value
    }


def test_tracing_install_restores_every_patched_name():
    tracing = _load_tracing()
    before = [dict(vars(module)) for module in MODULES]
    restore = tracing.install(tracing.Tracer())
    try:
        patched = _patched(before)
    finally:
        restore()
    assert {
        ("galpha.stability", "amplification_matrix"),
        ("galpha.stability", "limit_matrix_zero"),
        ("galpha.stability", "limit_matrix_inf"),
        ("galpha.stability", "numkit"),
        ("galpha.stability", "np"),
        ("galpha.amplification", "build_lr"),
    } <= patched
    assert _patched(before) == set()
    assert [set(vars(module)) for module in MODULES] == [set(names) for names in before]


def test_tracing_records_spans_of_a_smoke_run(tmp_path, capsys):
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        integrate_out, map_out = tmp_path / "integrate", tmp_path / "map"
        assert cli.main(["integrate", "--tau", "0.25", "--out", str(integrate_out)]) == 0
        argv = ["stability-map", "--grid-n", "2", "--t-samples", "2", "--out", str(map_out)]
        assert cli.main(argv) == 0
        params = make_scheme(3, *params_from_rho(0.5))
        dense = integrator.dense_problem(np.array([[2.0, 0.5], [0.5, 1.0]]))
        last(integrator.integrate(params, dense, np.ones(2), 0.25, 0.5))
        stability.worst_case_radius(params)
    finally:
        restore()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {
        "cli.integrate",
        "stability.scan",
        "integrator.scalar.step",
        "integrator.dense.solve",
        "stability.radius",
    } <= names


def test_traced_plane_scan_makes_one_eigvals_call_and_one_solve(tmp_path, capsys):
    # p = 3 samples, T = 0 among them, are cubic roots of rho + T sigma; only
    # the stacked T -> inf limit reaches LAPACK through stability.np.linalg,
    # by one solve and one eigvals per band; this 25-cell map is one band.
    # run.py's per-call figures divide by both counts.
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        argv = ["stability-map", "--grid-n", "5", "--t-samples", "7", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        stability.worst_case_radius(make_scheme(4, 1.0, 0.75))
    finally:
        restore()
    capsys.readouterr()
    names = [span[0] for span in tracer.spans]
    scan = names[: names.index("stability.radius")]
    assert scan.count("stability.linalg_eigvals") == 1
    assert scan.count("stability.linalg_solve") == 1
    # other orders take eigvals once for all 48 samples of a cell, on G(T)
    # from the elimination a step makes: no solve
    radius = names[names.index("stability.radius"):]
    assert radius.count("stability.linalg_eigvals") == 1
    assert radius.count("stability.linalg_solve") == 0


def test_traced_p3_cell_makes_one_solve_and_one_eigvals_for_its_limit():
    # a single p = 3 cell takes its 48 real samples and T = 0 through the
    # cubic; its T -> inf limit is its one solve and one eigvals
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        stability.worst_case_radius(make_scheme(3, *params_from_rho(0.5)))
    finally:
        restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("stability.radius") == 1
    assert names.count("stability.linalg_eigvals") == 1
    assert names.count("stability.linalg_solve") == 1


def test_traced_dense_march_counts_one_apply_per_step():
    # run.py reports integrator.<kind>.apply_calls from these spans:
    # p - 1 applies build the initial state, then one per step
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        params = make_scheme(3, *params_from_rho(0.5))
        dense = integrator.dense_problem(np.array([[2.0, 0.5], [0.5, 1.0]]))
        last(integrator.integrate(params, dense, np.ones(2), 0.1, 1.0))
    finally:
        restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("integrator.dense.step") == 10
    assert names.count("integrator.dense.apply") == 12


def test_traced_order_check_marches_its_ladder_once(tmp_path, capsys):
    # the default ladder tau = 0.125 / 2**k, k = 0 .. 5, to t_end = 2 is
    # marched once, as one diagonal problem: max n_k = 512 steps, where one
    # march per tau took sum n_k = 1008
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.main(["order-check", "--out", str(tmp_path)]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert [span[0] for span in tracer.spans].count("integrator.scalar.step") == 512


@pytest.mark.parametrize("n_rho", ["2", "11", "101"])
def test_traced_rho_curve_takes_one_eig_call_per_branch(tmp_path, capsys, n_rho):
    # each branch's stiff-limit radii come from one stacked numkit.eigenvalues
    tracing = _load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert cli.main(["rho-curve", "--n-rho", n_rho, "--out", str(tmp_path)]) == 0
    finally:
        restore()
    capsys.readouterr()
    assert [span[0] for span in tracer.spans].count("numkit.eig") == 4
