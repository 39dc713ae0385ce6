"""Command-line entry point: data generation, fitting, certification,
phase sweeps, and the rotation-regression experiment.

Exit codes: 0 success, 2 usage error, 3 solver failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import baseline, certify, mnistreg, model, qpsolve, relax, sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_IO = 4

DATA_DIR_ENV = "CONVRELAX_DATA_DIR"


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_float_pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO,HI, got {text!r}")
    return float(parts[0]), float(parts[1])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it
    unchanged, so every ``main`` call reuses it."""
    parser = argparse.ArgumentParser(
        prog="convrelax",
        description="Randomized convex relaxations for block-ReLU regression",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a planted dataset CSV")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)

    f = sub.add_parser("fit", help="fit a filter by relaxation or gradient descent")
    f.add_argument("--in", dest="path", required=True)
    f.add_argument("--method", choices=["relax", "gd"], default="relax")
    f.add_argument("--beta", type=float, default=0.0)
    f.add_argument("--trials", type=int, default=1)
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--tau", type=float, default=relax.DEFAULT_TAU)
    f.add_argument("--json", action="store_true", help="machine-readable output")

    c = sub.add_parser("certify", help="active sets, cone condition, dual cross-check")
    c.add_argument("--in", dest="path", required=True)
    c.add_argument("--seed", type=int, default=0, help="perturbation substream seed")
    c.add_argument("--tol", type=float, default=certify.DEFAULT_CONE_TOL)
    c.add_argument("--json", action="store_true")

    s = sub.add_parser("sweep", help="phase-transition grid, CSV output")
    s.add_argument("--n-values", type=_parse_int_list, required=True)
    s.add_argument("--d-values", type=_parse_int_list, required=True)
    s.add_argument("--k", type=int, default=1)
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--tau", type=float, default=relax.DEFAULT_TAU)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--amplify", type=int, default=1)
    s.add_argument(
        "--methods",
        default="relax,gd",
        help="comma-separated subset of {relax,gd}",
    )
    s.add_argument("--workers", type=int, default=1)
    s.add_argument("--out", required=True)
    s.add_argument("--spec-json", help="optional provenance sidecar path")
    s.add_argument("--heatmap", action="store_true", help="print an ASCII preview")

    m = sub.add_parser("mnist", help="rotation-regression experiment, CSV output")
    m.add_argument("--data-dir")
    m.add_argument("--out", required=True)
    m.add_argument("--k", type=int, default=mnistreg.DEFAULT_K)
    m.add_argument("--n-train", type=int, default=mnistreg.DEFAULT_N_TRAIN)
    m.add_argument("--n-test", type=int, default=mnistreg.DEFAULT_N_TEST)
    m.add_argument("--angle-range", type=_parse_float_pair, default=mnistreg.DEFAULT_ANGLE_RANGE)
    m.add_argument("--fit-samples", type=int, default=mnistreg.DEFAULT_FIT_SAMPLES)
    m.add_argument("--seed", type=int, default=0)
    return parser


_METHOD_NAMES = {"relax": sweep.METHOD_RELAXATION, "gd": sweep.METHOD_GRADIENT_DESCENT}


def _cmd_gen(args) -> int:
    _, ds = model.sample_planted(args.n, args.d, args.k, args.seed)
    model.export_csv(ds, args.out)
    print(f"wrote {ds.n} samples (d={ds.d}, k={ds.k}, seed={ds.seed}) to {args.out}")
    return EXIT_OK


def _cmd_fit(args) -> int:
    ds = model.import_csv(args.path)
    if args.method == "gd":
        relax.check_tau(args.tau)
        cfg = baseline.default_config(ds, seed=args.seed)
        res = baseline.gd_fit(ds, cfg)
        if res.status == baseline.GD_DIVERGED:
            print("gradient descent diverged", file=sys.stderr)
            return EXIT_SOLVER
        if args.json:
            print(model.to_json(res.to_fit_dict()))
        else:
            verdict = relax.assess(res.w_hat, model.teacher_filter(ds), args.tau)
            print(f"status={res.status} iters={res.iters_used} loss={res.final_loss:.6g}")
            print(f"l2_error={verdict.l2_error:.6g} success={verdict.success}")
        return EXIT_OK
    outcome = relax.fit_amplified(ds, args.trials, args.seed, beta=args.beta, tau=args.tau)
    if args.json:
        print(model.to_json(outcome))
    else:
        print(
            f"best trial seed={outcome.best.trial_seed} "
            f"status={outcome.best.report.status.value} "
            f"train_residual={outcome.best.train_residual:.6g}"
        )
        print(
            f"l2_error={outcome.l2_error:.6g} rel_error={outcome.rel_error:.6g} "
            f"success={outcome.success}"
        )
    return EXIT_OK


def _cmd_certify(args) -> int:
    ds = model.import_csv(args.path)
    w_star = model.teacher_filter(ds)
    sets = certify.active_sets(ds.x, w_star, ds.k)
    gens, _ = certify.cone_generators(ds, sets)
    r = model.substream(args.seed, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
    # the fit minimizes rᵀw, so the planted filter is optimal iff -r
    # lies in the generator cone
    cert = certify.check_cone_condition(gens, -r, tol=args.tol)
    dual = certify.dual_solve(ds, r, sets=sets)
    if dual.status == certify.DUAL_FAILED:
        print("solver failure in the dual program", file=sys.stderr)
        return EXIT_SOLVER
    if args.json:
        print(model.to_json({"certificate": cert, "dual": dual,
                             "r1_singleton_fraction": certify.r1_singleton_fraction(sets)}))
        return EXIT_OK
    verdict = "HOLDS" if cert.exists else "FAILS"
    flag = " (boundary-degenerate)" if cert.boundary else ""
    print(f"cone condition {verdict}{flag}: elastic={cert.elastic_value:.3g} "
          f"residual={cert.equality_residual:.3g} min_coeff={cert.min_coefficient:.3g}")
    print(f"dual: status={dual.status} objective={dual.dual_objective:.6g} "
          f"primal={dual.primal_objective:.6g} gap={dual.duality_gap:.3g}")
    print(f"complementarity={dual.complementarity:.3g} "
          f"lambda off-active={dual.structure_off_violation:.3g} "
          f"on-active={dual.structure_on_violation:.3g}")
    print(f"singleton fraction |R_i|=1: {certify.r1_singleton_fraction(sets):.4f}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        methods = tuple(_METHOD_NAMES[m.strip()] for m in args.methods.split(",") if m.strip())
    except KeyError as exc:
        print(f"unknown method {exc}", file=sys.stderr)
        return EXIT_USAGE
    spec = sweep.GridSpec(
        n_values=args.n_values,
        d_values=args.d_values,
        k=args.k,
        trials=args.trials,
        methods=methods,
        tau=args.tau,
        master_seed=args.seed,
        amplify=args.amplify,
    )
    cells = sweep.run_grid(spec, workers=args.workers)
    sweep.write_csv(cells, args.out)
    if args.spec_json:
        sweep.write_spec(spec, args.spec_json)
    if args.heatmap:
        for method in methods:
            print(sweep.ascii_heatmap(cells, method))
    print(f"wrote {len(cells)} cells to {args.out}")
    return EXIT_OK


def _cmd_mnist(args) -> int:
    # read when the command runs, not when the cached parser was built
    data_dir = os.environ.get(DATA_DIR_ENV) if args.data_dir is None else args.data_dir
    if not data_dir:
        print(f"no --data-dir given and ${DATA_DIR_ENV} is unset", file=sys.stderr)
        return EXIT_USAGE
    rows = mnistreg.run_experiment(
        data_dir,
        k=args.k,
        angle_range=args.angle_range,
        n_train=args.n_train,
        n_test=args.n_test,
        seed=args.seed,
        fit_samples=args.fit_samples,
    )
    mnistreg.write_results_csv(rows, args.out)
    for name, value in rows:
        print(f"{name}: {value:.4f}")
    return EXIT_OK


_COMMANDS = {
    "gen": _cmd_gen,
    "fit": _cmd_fit,
    "certify": _cmd_certify,
    "sweep": _cmd_sweep,
    "mnist": _cmd_mnist,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        # huge entries overflow along the way; the outcome is reported by
        # exit code and message, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return _COMMANDS[args.command](args)
    except ValueError as exc:  # every error class of the package's inputs subclasses it
        if isinstance(exc, (model.CsvFormatError, mnistreg.IdxFormatError)):
            print(f"I/O error: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (relax.AllTrialsFailedError, certify.IndeterminateCertificate, qpsolve.SolverError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
