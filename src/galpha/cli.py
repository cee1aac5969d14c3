"""Command-line front end: integration runs, stability maps, curves, order checks.

Four subcommands, each writing CSV artifacts plus a ``manifest.txt`` that
captures the fully resolved configuration as sorted ``key = value`` lines, so
a run can be reproduced byte-for-byte from its output directory alone:

* ``integrate``      -- march one problem, write ``trajectory.csv``
* ``stability-map``  -- scan the parameter plane, write ``stability.csv``
                        and a gnuplot script ``stability.plot``
* ``rho-curve``      -- tabulate the four design branches, write
                        ``rho_curves.csv``
* ``order-check``    -- measure the convergence slope, write
                        ``convergence.csv``; optionally re-derive the closure
                        constant

Each file is written under a temporary name in the output directory, and
the files of a run are moved onto their names only once all of them are
written, so a run that fails leaves nothing new there.

Exit codes: 0 success, 2 configuration problem, 3 numerical failure.  Errors
are reported as one JSON line on standard error.  Long options only; complex
lambda is written ``--lambda RE[,IM]``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GalphaError
from .integrator import heat_problem, integrate, scalar_problem, step_count, write_trajectory_csv
from .orderlab import _exact_decay, measure_order, recover_C, write_convergence_csv
from .schemes import (
    RhoBranch,
    SchemeParams,
    Variant,
    c_of_p,
    make_scheme,
    params_from_rho,
)
from .stability import (
    default_t_samples,
    rho_curve,
    scan_region,
    worst_case_radius,
    write_stability_csv,
)

__all__ = ["main"]


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) not in (1, 2):
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}")
    try:
        re = float(parts[0])
        im = float(parts[1]) if len(parts) == 2 else 0.0
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected RE or RE,IM, got {text!r}") from None
    return complex(re, im)


def _add_scheme_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=int, default=3, help="scheme order (default 3)")
    sub.add_argument("--alpha-m", type=float, default=None)
    sub.add_argument("--alpha-f", type=float, default=None)
    sub.add_argument(
        "--rho-inf", type=float, default=None, help="p=3 design target: one stiff-limit eigenvalue at +-rho_inf"
    )
    sub.add_argument(
        "--branch",
        choices=[b.value for b in RhoBranch],
        default=RhoBranch.MAIN.value,
        help="design branch used with --rho-inf",
    )
    sub.add_argument(
        "--lambda",
        dest="lam",
        type=_parse_lambda,
        default=None,
        help="lambda of the scalar problem u' = -lambda u, as RE[,IM] (default 1); "
        "a negative RE with a comma or an exponent needs '=', as in --lambda=-1,2",
    )


def _resolve_scheme(args) -> tuple[SchemeParams, float | None, RhoBranch]:
    """Apply the either/or rule for (alpha_m, alpha_f) vs (rho_inf, branch).

    Every refusal is a ``ValueError``, the ``PoleAtRho``, ``OutOfTable`` and
    ``VariantUnsupported`` of the design formulas and the closure included.
    """
    branch = RhoBranch(args.branch)
    has_alpha = args.alpha_m is not None or args.alpha_f is not None
    has_rho = args.rho_inf is not None
    if has_alpha and has_rho:
        raise ValueError("give --alpha-m/--alpha-f or --rho-inf/--branch, not both")
    if has_alpha and (args.alpha_m is None or args.alpha_f is None):
        raise ValueError("--alpha-m and --alpha-f must be given together")
    if has_rho and args.p != 3:
        raise ValueError(
            f"--rho-inf designs are third order; give --alpha-m/--alpha-f for --p {args.p}"
        )

    rho: float | None = None
    if has_alpha:
        am, af = args.alpha_m, args.alpha_f
    elif has_rho or args.p == 3:
        rho = args.rho_inf if has_rho else 0.5
    else:
        am, af = 1.0, 0.75
    if rho is not None:
        am, af = params_from_rho(rho, branch)
    return make_scheme(args.p, am, af, Variant(args.variant)), rho, branch


def _prepare_out(path_text: str) -> Path:
    out = Path(path_text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"cannot create output directory {out}: {exc}") from exc
    return out


@contextmanager
def _publishing(out: Path):
    """Yield ``stage(name)``, the temporary path in ``out`` to write file
    ``name`` to.  When the block ends, each staged file is moved onto its
    name by ``os.replace``; when anything in it raises, each is removed, so
    that a failed run leaves no file, whole or partial, in ``out``."""
    staged = []

    def stage(name: str) -> Path:
        staged.append((out / f"{name}.tmp", out / name))
        return staged[-1][0]

    try:
        yield stage
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)
        raise


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j" if value.imag else repr(value.real)
    return str(value)


def _write_manifest(path: Path, subcommand: str, entries: dict) -> None:
    entries = dict(entries, subcommand=subcommand, version=__version__)
    lines = [f"{key} = {_fmt(entries[key])}" for key in sorted(entries)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _scheme_manifest(params: SchemeParams, rho: float | None, branch: RhoBranch) -> dict:
    return {
        "p": params.p,
        "variant": params.variant.value,
        "alpha_m": params.alpha_m,
        "alpha_f": params.alpha_f,
        "gammas": ",".join(repr(g) for g in params.gammas),
        "rho_inf": "none" if rho is None else repr(rho),
        "branch": branch.value if rho is not None else "none",
    }


def _warn_if_unstable(params: SchemeParams) -> bool:
    """One stderr line when the sampled spectral radius rejects the scheme."""
    report = worst_case_radius(params)
    if not report.stable:
        root = ", repeated unit root" if report.repeated_unit_root else ""
        print(
            f"warning: (alpha_m={params.alpha_m:g}, alpha_f={params.alpha_f:g}) lies "
            f"outside the unconditional-stability region (spectral radius "
            f"{report.radius:.6g}{root}); proceeding anyway",
            file=sys.stderr,
        )
    return report.stable


def cmd_integrate(args, stage) -> tuple[dict, list[str]]:
    params, rho, branch = _resolve_scheme(args)
    if not (math.isfinite(args.tau) and args.tau > 0):
        raise ValueError(f"--tau must be positive and finite, got {args.tau}")
    if args.t_end < args.tau:
        raise ValueError("--t-end must cover at least one step")
    if args.heat_n is not None and args.heat_n < 2:
        raise ValueError("--heat-n must be at least 2")
    if args.heat_n is not None and args.lam is not None:
        raise ValueError("--lambda sets the scalar problem; it cannot go with --heat-n")

    stable = _warn_if_unstable(params)

    if args.heat_n is not None:
        problem = heat_problem(args.heat_n, args.kappa)
        x = np.arange(1, args.heat_n + 1) / (args.heat_n + 1)
        u0 = np.sin(np.pi * x)
    else:
        lam = complex(1.0) if args.lam is None else args.lam
        problem = scalar_problem(lam)
        exact = _exact_decay(lam, args.t_end)
        u0 = 1.0
        # check the T = lambda*tau the march steps with, where u does not grow;
        # a T that overflows is left to init_state, which refuses its stack
        t = lam * args.tau
        if stable and lam.real >= 0.0 and np.isfinite(t):
            report = worst_case_radius(params, [t])
            if not report.stable:
                print(
                    f"warning: spectral radius {report.radius:.6g} at lambda*tau = "
                    f"{_fmt(t)}: the march grows where the solution "
                    f"does not; proceeding anyway",
                    file=sys.stderr,
                )

    trajectory = integrate(params, problem, u0, args.tau, args.t_end)
    _, u_end = write_trajectory_csv(trajectory, stage("trajectory.csv"))
    report = [f"wrote trajectory.csv ({step_count(args.tau, args.t_end) + 1} rows)"]
    if args.heat_n is None:
        report.append(f"final error vs exact exponential: {abs(u_end[0] - exact):.6e}")

    entries = dict(_scheme_manifest(params, rho, branch), tau=args.tau, t_end=args.t_end)
    if args.heat_n is not None:
        entries.update(problem="heat", heat_n=args.heat_n, kappa=args.kappa)
    else:
        entries.update(problem="scalar", **{"lambda": lam})
    return entries, report


_PLOT_TEMPLATE = """\
# Render the stability map with gnuplot >= 5:  gnuplot stability.plot
set datafile separator ","
set terminal pngcairo size 900,900
set output "stability.png"
set xlabel "alpha_f"
set ylabel "alpha_m"
set xrange [{lo}:{hi}]
set yrange [{lo}:{hi}]
set cbrange [0:1]
set palette defined (0 "#f4f4f4", 1 "#3b6ea5")
unset colorbox
set title "Unconditionally stable cells ({variant})"
plot "stability.csv" skip 1 using 2:1:4 with image notitle
"""


def cmd_stability_map(args, stage) -> tuple[dict, list[str]]:
    if args.grid_n < 2:
        raise ValueError("--grid-n must be at least 2")
    for option in ("alpha_min", "alpha_max", "t_min", "t_max"):
        value = getattr(args, option)
        if not math.isfinite(value):
            raise ValueError(f"--{option.replace('_', '-')} must be finite, got {value}")
    if not args.alpha_min < args.alpha_max:
        raise ValueError("need --alpha-min < --alpha-max")
    if not math.isfinite(args.alpha_max - args.alpha_min):
        raise ValueError(f"the alpha range {args.alpha_min} .. {args.alpha_max} is wider than a double holds")
    if not 0 < args.t_min < args.t_max:
        raise ValueError("need 0 < --t-min < --t-max")
    if args.t_samples < 2:
        raise ValueError("--t-samples must be at least 2")
    variant = Variant(args.variant)
    axis = np.linspace(args.alpha_min, args.alpha_max, args.grid_n)
    samples = default_t_samples(args.t_samples, args.t_min, args.t_max)
    smap = scan_region(axis, axis, variant, t_samples=samples)
    write_stability_csv(smap, stage("stability.csv"))
    script = _PLOT_TEMPLATE.format(lo=args.alpha_min, hi=args.alpha_max, variant=variant.value)
    stage("stability.plot").write_text(script, encoding="utf-8")
    stable = int(smap.stable.sum())
    total = smap.stable.size
    report = [f"wrote stability.csv ({total} cells, {stable} stable) and stability.plot"]

    return dict(
        variant=variant.value,
        grid_n_alpha_m=args.grid_n,
        grid_n_alpha_f=args.grid_n,
        alpha_m_min=args.alpha_min,
        alpha_m_max=args.alpha_max,
        alpha_f_min=args.alpha_min,
        alpha_f_max=args.alpha_max,
        t_samples=args.t_samples,
        t_min=args.t_min,
        t_max=args.t_max,
    ), report


def cmd_rho_curve(args, stage) -> tuple[dict, list[str]]:
    if args.n_rho < 2:
        raise ValueError("--n-rho must be at least 2")
    worst_main = 0.0
    with open(stage("rho_curves.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("branch,rho,alpha_m,alpha_f,inside_region,max_eig_inf,pole\n")
        for branch in RhoBranch:
            for point in rho_curve(branch, args.n_rho):
                if point.pole:
                    fh.write(f"{branch.value},{point.rho:.17g},,,,,1\n")
                    continue
                max_eig = point.max_eig_inf
                if branch is RhoBranch.MAIN:
                    worst_main = max(worst_main, abs(max_eig - point.rho))
                inside = "true" if point.inside_region else "false"
                fh.write(
                    f"{branch.value},{point.rho:.17g},{point.alpha_m:.17g},"
                    f"{point.alpha_f:.17g},{inside},{max_eig:.17g},0\n"
                )
    return {"n_rho": args.n_rho}, [
        f"wrote rho_curves.csv ({len(RhoBranch)} branches x {args.n_rho} samples)",
        f"main branch: worst |max_eig_inf - rho| = {worst_main:.3e}",
    ]


def cmd_order_check(args, stage) -> tuple[dict, list[str]]:
    params, rho, branch = _resolve_scheme(args)
    if not (math.isfinite(args.tau_start) and args.tau_start > 0):
        raise ValueError(f"--tau-start must be positive and finite, got {args.tau_start}")
    if args.n_halvings < 1:
        raise ValueError("--n-halvings must be at least 1")
    _warn_if_unstable(params)

    lam = complex(1.0) if args.lam is None else args.lam
    taus = [args.tau_start / 2**k for k in range(args.n_halvings + 1)]
    report = measure_order(params, lam, args.t_end, taus)
    write_convergence_csv(report, stage("convergence.csv"))
    lines = [f"fitted order slope: {report.slope:.4f}"]

    entries = _scheme_manifest(params, rho, branch)
    if args.recover_c:
        recovered = recover_C(params.p)
        tabulated = float(c_of_p(params.p))
        lines.append(
            f"recovered closure constant C({params.p}) = {recovered:.12f} "
            f"(tabulated {tabulated:.12f}, |diff| = {abs(recovered - tabulated):.3e})"
        )
        entries["recovered_c"] = recovered
    entries.update(
        tau_start=args.tau_start,
        n_halvings=args.n_halvings,
        t_end=args.t_end,
        **{"lambda": lam},
    )
    return entries, lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galpha",
        description="Generalized-alpha integrators: runs, stability maps, order checks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("integrate", help="march one linear problem")
    _add_scheme_flags(sub)
    sub.add_argument("--heat-n", type=int, default=None, help="use the heat problem with N interior nodes")
    sub.add_argument("--kappa", type=float, default=1.0, help="heat diffusivity")
    sub.add_argument("--tau", type=float, default=0.1)
    sub.add_argument("--t-end", type=float, default=1.0)
    sub.set_defaults(handler=cmd_integrate)

    sub = subs.add_parser("stability-map", help="scan the (alpha_m, alpha_f) plane")
    sub.add_argument("--grid-n", type=int, default=200, help="cells per axis")
    sub.add_argument("--alpha-min", type=float, default=0.0)
    sub.add_argument("--alpha-max", type=float, default=1.5)
    n, lo, hi = default_t_samples.__defaults__  # the library's sample set
    sub.add_argument("--t-samples", type=int, default=n, help="real T samples per cell")
    sub.add_argument("--t-min", type=float, default=lo)
    sub.add_argument("--t-max", type=float, default=hi)
    sub.set_defaults(handler=cmd_stability_map)

    sub = subs.add_parser("rho-curve", help="tabulate the stiff-limit design branches")
    sub.add_argument("--n-rho", type=int, default=101, help="samples per branch")
    sub.set_defaults(handler=cmd_rho_curve)

    sub = subs.add_parser("order-check", help="measure the convergence order")
    _add_scheme_flags(sub)
    # Default t_end = 2: at lambda*t_end = 1 exactly, the leading final-time
    # error term of the equal-gamma family cancels and the fit reports the
    # superconvergent order p + 1 instead of p.
    sub.add_argument("--t-end", type=float, default=2.0)
    sub.add_argument("--tau-start", type=float, default=0.125)
    sub.add_argument("--n-halvings", type=int, default=5)
    sub.add_argument("--recover-c", action="store_true", help="re-derive the closure constant")
    sub.set_defaults(handler=cmd_order_check)
    for name, sub in subs.choices.items():
        if name != "rho-curve":
            sub.add_argument(
                "--variant",
                choices=[v.value for v in Variant],
                default=Variant.EQUAL_GAMMA.value,
                help="gamma closure rule",
            )
        sub.add_argument("--out", default=".")
    return parser


def _emit_error(code: int, kind: str, message: str) -> None:
    line = json.dumps(
        {"status": "error", "kind": kind, "exit_code": code, "message": message}
    )
    print(line, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _publishing(_prepare_out(args.out)) as stage:
            entries, report = args.handler(args, stage)
            _write_manifest(stage("manifest.txt"), args.subcommand, entries)
        print("\n".join(report))
        return 0
    except ValueError as exc:
        _emit_error(2, "config", str(exc))
        return 2
    except GalphaError as exc:
        _emit_error(3, "numeric", f"{type(exc).__name__}: {exc}")
        return 3
    except OSError as exc:
        _emit_error(2, "config", f"i/o failure: {exc}")
        return 2
    except MemoryError as exc:
        _emit_error(2, "config", f"the requested size does not fit in memory: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
