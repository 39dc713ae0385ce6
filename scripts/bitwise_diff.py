"""Run a fixed panel of solves through two source trees and compare bits.

    python scripts/bitwise_diff.py OLD_SRC NEW_SRC

Each SRC is a directory holding the ``convrelax`` package (a checkout's
``src``). Both trees run the same panel in separate interpreters with
BLAS pinned to one thread, and every ``SolveReport`` that
``qpsolve.solve`` returns is compared field by field, floats by their
bytes, case by case. The script prints one line for every report that
differs, naming its case, its first differing field and entry, and for
every differing float field how many entries differ and the largest
|delta| among them (and a line for every case whose number of reports
differs), then how many cases differ and how many of the differing
reports moved their status or iteration count; or it prints
"identical". It exits 1 or 0 accordingly, so a deliberate re-numbering
shows its whole extent and size.

The panel: k=1 relaxation LPs at n=400 and n=2000 and at n=40, d=1
(filter length 1: the only programs the package builds with sign-bound
rows -s·w <= 0; at seeds 0 to 2 several are active at w = 0, and their
multipliers are not unique), the row-generated
k=2 and k=5 relaxation LPs (one report per round), the beta=1e-3 QP at
k=1 (n=200 and n=1000) and row-generated at k=2 (d=20 and d=40) and
k=5, each built split (its dense part over the filter, the slack sums
separable), the wide k=1 fits, fewer samples than filter entries, at
n=10, d=20 and n=50, d=80, at beta=0 and 1e-3, certify's phase-1 cone program
and the block-set LP that gives its primal fit and dual at k=1, 2 and 5
and on a k=2 dataset whose dual is infeasible, presolve cases with
duplicate, zero, -0.0 and infeasible rows and a 3×4 LP with a zero row
whose cost is off its rows' span (DualUnbounded on the wide route, with
no pair, so zero multipliers are scattered), the beta=1e-3 QP given
densely, at k=2 over all n·k slacks (no separable column) and at k=1
with its columns shuffled (its slack columns are separable but given
densely, so the solver factors its Q whole), and small LPs named by
their shape (rows×variables): Optimal ones with and without sign-bound rows,
infeasible and unbounded ones with fewer rows than variables (first
written over their rows' span by the column presolve) and with at least
as many (the dual route alone), an Optimal 2×4 LP whose cost lies in its
rows' span, an infeasible LP with a descent ray, 4×2 and 5×2 (its dual
is infeasible, so the zero-cost dual decides) and 3×4 (its cost is off
the rows' span), two degenerate Optimal LPs whose polish runs: 10×3
with each tight row given twice (the polish is kept) and 5×2 with a
tight row scaled by 1e6 (too ill-conditioned for the multiplier check),
two Optimal programs with fewer rows than variables whose SVD drops a
singular value at the rank cut: a 3×8 QP over the span of [Gᵀ Q], Q of
rank 4, and a 4×7 LP whose last row repeats its first; a 4×5 split QP,
one dense column and four separable ones, whose cost lies in the span,
so that it ends Optimal on the split wide route where the k=1 wide fits
exit on a cost off that span (solved as its dense twin, it ran to
MaxIterations); a 3×2 QP whose rows are infeasible, PrimalInfeasible
once the zero-cost LP over its rows agrees; a 40×3 LP cut off at
max_iter=2, alone and with a zero row that presolve drops (the cut-off
iterate's multipliers are scattered over the caller's rows); and a
6×3 LP over x1 + x2 and x3, whose singular normal matrix takes the
interior point's lstsq solve, run to Optimal and cut off at max_iter=4.
Failure exits: the k=1 relaxation with a sample of 1e200 features,
whose normal matrix overflows on the way to NumericalFailure; the
unbounded beta=1e-3 fits at n=1, (k, d) = (2, 8), (3, 12) and (5, 20),
each DualUnbounded; the 40×3 LP with every row multiplied by
1e160 and by 1e200 (b left alone), whose normal matrix overflows; the
same LP with row 0 and b_0 multiplied by 1e50 and by 1e100, whose
verdict must not depend on that scale; and the beta=1e-3 QP at k=1 cut
off at max_iter=2.  Last, the k=1
relaxation LP at n=400, d=20 on features given as a strided view
(every other column of a wider array), whose rows are copied
row-major, and the k=1 relaxation LP at n=2000, d=20 of the sweep-k1
benchmark trial at --seed 13, whose kept multipliers miss tol until
they are refitted on the active rows.

The script also compares the stdout bytes and the exit code of
``convrelax fit --json`` and ``convrelax certify --json``, run in
process on CSVs that each tree writes from the same planted datasets:
fit at beta=0 with --trials 3 at k=2 and k=5, at beta=1e-3 at k=1 and
at beta=1e-3 with --trials 3 at k=2, and certify at k=1 and k=2.  It compares those of ``convrelax sweep``
too, with the bytes of the CSV it writes, whose errors have 17 digits:
k=1 at n in {25, 400}, d in {5, 20} and k=2 at n in {50, 200}, d in
{8, 16}, each cell with 2 trials of both methods.  It prints one line
for every command whose output differs.

Gradient descent is compared directly too: for each case, the bytes of
``gd_fit``'s w_hat and final_loss, its iters_used and status, and the
bytes of ``default_config``'s step_size. The cases: the four sweep-k1
shapes (k=1, n in {400, 2000}, d in {10, 20}), k=2 at n=100, d=20,
k=5 at n=60, d=20, a run cut at max_iters=5 (MaxIters) and a run with
its step size multiplied by 1e3 (Diverged). A differing run gets a line
as a differing report does. Among the CLI outputs are those of
``convrelax fit --method gd --json`` at k=1 and k=2.

When a panel run fails, its stderr is printed and the script exits 2.
With a single SRC the script prints that tree's panel as JSON instead.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

FIELDS = ("status", "iterations", "x", "lam", "primal_residual", "dual_residual", "complementarity_gap")


def _presolve_programs():
    """Programs whose presolve drops zero rows (duplicates and a -0.0 twin
    are solved as given), finds an infeasible zero row, or copies a
    column-major matrix row-major; and a 3×4 LP with a zero row that
    presolve drops, whose cost is off its rows' span: DualUnbounded on
    the wide route, its multipliers scattered over the caller's rows."""
    import numpy as np

    from convrelax.qpsolve import ConvexProgram

    rng = np.random.default_rng(20261018)
    g = rng.standard_normal((12, 3))
    h = np.abs(rng.standard_normal(12)) + 0.5
    signed_zero = g[2].copy()
    signed_zero[signed_zero.argmin()] = 0.0
    twin = signed_zero.copy()
    twin[twin == 0.0] = -0.0
    g_dup = np.vstack([g, g[[3, 7, 3]], np.zeros((2, 3)), signed_zero, twin, -np.eye(3)])
    h_dup = np.concatenate([h, h[[3, 7, 3]], [1.0, 0.0], [h[2], h[2]], np.zeros(3)])
    c = rng.standard_normal(3)
    yield "presolve-duplicates-zeros-signed-zero", ConvexProgram(c=c, a_ineq=g_dup, b_ineq=h_dup)
    yield "presolve-infeasible-zero-ineq", ConvexProgram(c=c, a_ineq=np.vstack([g, np.zeros((1, 3))]),
                                                         b_ineq=np.concatenate([h, [-1.0]]))
    yield "presolve-column-major", ConvexProgram(c=c, a_ineq=np.asfortranarray(g), b_ineq=h)
    # the rows of lp-optimal-2x4 and a zero row, feasible at 0; x4 enters
    # both rows, but (0, 0, 0, 1) is off their span
    yield "presolve-zero-row-wide-unbounded-3x4", ConvexProgram(
        c=[0.0, 0.0, 0.0, 1.0], a_ineq=[[1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, -1.0]],
        b_ineq=[1.0, 1.0, 1.0])


def _lifted_qp(ds, r):
    """The beta=1e-3 relaxation over the filter and all n·k slacks, as a
    dense program: Q couples the k slacks of each sample.  At k=1 it is
    the dense twin of ``relax.build``'s split QP."""
    import numpy as np

    from convrelax.qpsolve import ConvexProgram

    n, k, p = ds.n, ds.k, ds.filter_size
    nz = n * k
    slack = p + np.arange(nz)
    a = np.zeros((2 * nz, p + nz))
    a[:nz, :p] = ds.blocks().reshape(nz, p)
    a[np.arange(nz), slack] = -1.0
    a[nz + np.arange(nz), slack] = -1.0
    q = np.zeros((p + nz, p + nz))
    q[p:, p:] = np.kron(np.eye(n), np.ones((k, k)))
    c = np.concatenate([1e-3 * r, np.repeat(-ds.y, k)])
    return ConvexProgram(c=c, q=q, a_ineq=a, b_ineq=np.zeros(2 * nz))


def _coupled_qp():
    """The lifted QP at k=2: no column is separable, so the QP step runs
    with none eliminated."""
    from convrelax import model

    _, ds = model.sample_planted(10, 8, 2, 14)
    return _lifted_qp(ds, model.substream(15, model.STREAM_PERTURBATION).standard_normal(ds.filter_size))


def _shuffled_qp():
    """The beta=1e-3 relaxation at k=1, given densely with its columns
    shuffled, so that the slack columns, separable in the split form the
    package builds, are not the last ones; the solver factors its Q
    whole."""
    import numpy as np

    from convrelax import model
    from convrelax.qpsolve import ConvexProgram

    _, ds = model.sample_planted(30, 6, 1, 16)
    program = _lifted_qp(ds, model.substream(17, model.STREAM_PERTURBATION).standard_normal(ds.filter_size))
    perm = np.random.default_rng(18).permutation(program.n_vars)
    return ConvexProgram(c=program.c[perm], q=program.q[np.ix_(perm, perm)],
                         a_ineq=program.a_ineq[:, perm], b_ineq=program.b_ineq)


def _small_programs():
    """QPs without separable columns and with shuffled ones; and LPs
    named by their shape, rows×variables (fewer rows than variables are
    first written over their rows' span, then every LP takes the dual
    route): Optimal ones, with sign-bound rows -x_j <= 0, without, and
    with fewer rows than variables; infeasible and unbounded ones of
    either shape; and an infeasible LP with a descent ray, 4×2, 5×2 and
    3×4; and degenerate ones whose polish runs, with each tight row
    given twice and with a tight row scaled by 1e6; the wide ones of
    `_wide_rank_cut_programs`; an infeasible QP, 3×2; and a wide split
    QP, Optimal."""
    import numpy as np

    from convrelax import qpsolve
    from convrelax.qpsolve import ConvexProgram

    yield "qp-coupled", _coupled_qp()
    yield "qp-shuffled-columns", _shuffled_qp()
    yield "lp-optimal-4x2-sign-bounds", ConvexProgram(
        c=[-1.0, -2.0], a_ineq=[[1.0, 1.0], [1.0, 3.0], [-1.0, 0.0], [0.0, -1.0]],
        b_ineq=[4.0, 6.0, 0.0, 0.0])
    # free variables, optimal at the vertex (0.8, 0.6)
    yield "lp-optimal-3x2", ConvexProgram(
        c=[1.0, 1.0], a_ineq=[[-1.0, -2.0], [-3.0, -1.0], [1.0, -1.0]], b_ineq=[-2.0, -3.0, 1.0])
    # x1 <= -1 against x1 >= 0
    yield "lp-infeasible-2x3", ConvexProgram(
        c=[1.0, 1.0, 0.5], a_ineq=[[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], b_ineq=[-1.0, 0.0])
    # the ray x1 = x2 -> inf keeps x1 - x2 <= 1, with and without sign bounds
    yield "lp-unbounded-1x3", ConvexProgram(c=[-1.0, 0.0, 0.0], a_ineq=[[1.0, -1.0, 0.0]], b_ineq=[1.0])
    yield "lp-unbounded-3x3", ConvexProgram(
        c=[-1.0, 0.0, 0.0], a_ineq=[[1.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
        b_ineq=[1.0, 0.0, 0.0])
    tall = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
    yield "lp-infeasible-5x2", ConvexProgram(c=[1.0, 2.0], a_ineq=tall, b_ineq=[-1.0, 0.0, 1.0, 1.0, 5.0])
    yield "lp-unbounded-5x2", ConvexProgram(
        c=[-1.0, -1.0], a_ineq=[[-1.0, 0.0], [0.0, -1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        b_ineq=[0.0, 0.0, 1.0, 1.0, 0.0])
    # x1 <= -1 against x1 >= 0, and x2 -> inf lowers the cost
    descent = [[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [0.0, -1.0]]
    yield "lp-infeasible-descent-ray-4x2", ConvexProgram(c=[0.0, -1.0], a_ineq=descent,
                                                         b_ineq=[-1.0, 0.0, 3.0, 1.0])
    yield "lp-infeasible-descent-ray-5x2", ConvexProgram(
        c=[0.0, -1.0], a_ineq=[*descent, [0.0, -1.0]], b_ineq=[-1.0, 0.0, 3.0, 0.0, 1.0])
    # x1 <= -1 against x1 >= 0, and x4, which no row holds, lowers the cost
    yield "lp-infeasible-descent-ray-3x4", ConvexProgram(
        c=[0.0, 0.0, 0.0, -1.0], a_ineq=[[1.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
        b_ineq=[-1.0, 0.0, 2.0])
    # c = -(row 1 + 2·row 2): both rows tight at the optimum, (1, 0, 1, 0)
    # among others
    wide = np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, -1.0]])
    yield "lp-optimal-2x4", ConvexProgram(c=-(wide[0] + 2.0 * wide[1]), a_ineq=wide, b_ineq=[1.0, 1.0])
    # three rows tight at the vertex x0, each twice: the polish is kept
    rng = np.random.default_rng(27)
    x0, g_t, g_s = rng.standard_normal(3), rng.standard_normal((3, 3)), rng.standard_normal((4, 3))
    yield "lp-duplicate-rows-10x3", ConvexProgram(
        c=-g_t.T @ rng.uniform(0.5, 2.0, 3), a_ineq=np.vstack([g_t, g_t, g_s]),
        b_ineq=np.concatenate([g_t @ x0, g_t @ x0, g_s @ x0 + rng.uniform(0.5, 2.0, 4)]))
    # three rows tight at (1, 1), x1 + x2 <= 2 scaled by 1e6
    yield "lp-row-of-1e6-5x2", ConvexProgram(
        c=[-1.0, -0.1], a_ineq=[[1.0, 0.0], [0.0, 1.0], [1e6, 1e6], [-1.0, 0.0], [0.0, -1.0]],
        b_ineq=[1.0, 1.0, 2e6, 5.0, 5.0])
    yield from _wide_rank_cut_programs()
    # x1 <= -1 against x1 >= 0, with Q = I: its rows are infeasible
    yield "qp-infeasible-3x2", ConvexProgram(c=[1.0, -1.0], q=np.eye(2), a_ineq=[[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]],
                                             b_ineq=[-1.0, 0.0, 1.0])
    # 4 rows over 1 dense and 4 separable columns (#1331 of the split
    # panel in tests/test_qpsolve.py), Optimal on the split wide route
    yield "qp-split-wide-optimal-4x5", ConvexProgram(
        c=[2.0, 0.0, 3.0, 0.0, -1.0], a_ineq=[[2.0], [-1.0], [1.0], [-1.0]], b_ineq=[-1.0, 2.0, -2.0, 3.0],
        sep=qpsolve.Separable(q=np.array([1.0, 3.0, 1.0, 3.0]), col=np.array([0, 4, 4, 2]),
                              coef=np.array([-1.0, 0.0, 0.0, 2.0])))


def _wide_rank_cut_programs():
    """Optimal programs with fewer rows than variables whose span has a
    singular value that the rank cut drops: a 3×8 QP over
    [Gᵀ Q], Q of rank 4 (a rank-2 block and two separable columns), 11
    columns of rank 7; and a 4×7 LP whose last row repeats its first."""
    import numpy as np

    from convrelax.qpsolve import ConvexProgram

    rng = np.random.default_rng(32)
    low = rng.standard_normal((5, 2))
    q = np.zeros((8, 8))
    q[:5, :5] = low @ low.T
    q[5, 5], q[6, 6] = 1.0, 2.0
    g, x0 = rng.standard_normal((3, 8)), rng.standard_normal(8)
    # c = Q·u − Gᵀμ, μ > 0: no feasible direction of zero curvature descends
    yield "qp-optimal-rank-cut-3x8", ConvexProgram(
        c=q @ rng.standard_normal(8) - g.T @ rng.uniform(0.5, 2.0, 3), q=q, a_ineq=g,
        b_ineq=g @ x0 + rng.uniform(0.5, 2.0, 3))
    g, x0 = rng.standard_normal((3, 7)), rng.standard_normal(7)
    h = g @ x0 + rng.uniform(0.5, 2.0, 3)
    yield "lp-optimal-duplicate-row-4x7", ConvexProgram(
        c=-g.T @ rng.uniform(0.5, 1.5, 3), a_ineq=np.vstack([g, g[:1]]), b_ineq=np.append(h, h[0]))


def _tall_lp():
    """40 rows over 3 variables, feasible and bounded."""
    import numpy as np

    from convrelax.qpsolve import ConvexProgram

    rng = np.random.default_rng(17)
    a = rng.standard_normal((40, 3))
    b = a @ rng.standard_normal(3) + rng.uniform(0.1, 1.0, 40)
    return ConvexProgram(c=rng.standard_normal(3), a_ineq=a, b_ineq=b)


def run_panel() -> list[dict]:
    import numpy as np

    from convrelax import certify, model, qpsolve, relax, sweep
    from convrelax.qpsolve import ConvexProgram

    records: list[dict] = []
    label = ["?"]
    solve = qpsolve.solve

    def recording_solve(program, *args, **kwargs):
        report = solve(program, *args, **kwargs)
        fields = {}
        for name in FIELDS:
            value = getattr(report, name)
            if name == "status":
                fields[name] = value.value
            elif name == "iterations":
                fields[name] = int(value)
            else:
                fields[name] = np.asarray(value, dtype=float).tobytes().hex()
        records.append({"case": label[0], "fields": fields})
        return report

    qpsolve.solve = recording_solve
    try:
        for n, d, seeds in ((400, 20, (1, 2, 3)), (2000, 10, (4, 5))):
            for seed in seeds:
                label[0] = f"k1-lp n={n} d={d} seed={seed}"
                relax.fit(model.sample_planted(n, d, 1, seed)[1], 0.0, seed)
        for seed in range(4):
            label[0] = f"k1-lp n=40 d=1 seed={seed}"
            relax.fit(model.sample_planted(40, 1, 1, seed)[1], 0.0, seed)
        for k, n in ((2, 100), (5, 60)):
            label[0] = f"block-set-lp k={k} n={n} d=20"
            relax.fit(model.sample_planted(n, 20, k, 6)[1], 0.0, 7)
        label[0] = "beta-qp k=1 n=200 d=20"
        relax.fit(model.sample_planted(200, 20, 1, 8)[1], 1e-3, 9)
        for k, n in ((2, 100), (5, 60)):
            label[0] = f"beta-qp k={k} n={n} d=20"
            relax.fit(model.sample_planted(n, 20, k, 12)[1], 1e-3, 13)
        for k, n, d in ((1, 1000, 20), (2, 100, 40)):
            label[0] = f"beta-qp k={k} n={n} d={d}"
            relax.fit(model.sample_planted(n, d, k, 19)[1], 1e-3, 20)
        # fewer samples than filter entries: the column presolve writes
        # each program over its span, which its cost leaves
        for n, d in ((10, 20), (50, 80)):
            for beta in (0.0, 1e-3):
                label[0] = f"k1-wide n={n} d={d} beta={beta:g}"
                relax.fit(model.sample_planted(n, d, 1, 44)[1], beta, 45)
        # the last case has fewer block rows than filter entries: its dual
        # is infeasible
        for k, n, d, seed in ((2, 120, 8, 10), (1, 80, 6, 10), (5, 60, 20, 10), (2, 4, 10, 1)):
            label[0] = f"certify k={k} n={n} d={d}"
            _, ds = model.sample_planted(n, d, k, seed)
            sets = certify.active_sets(ds.x, model.teacher_filter(ds), k)
            gens, _ = certify.cone_generators(ds, sets)
            r = model.substream(11, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
            certify.check_cone_condition(gens, -r)
            certify.dual_solve(ds, r, sets=sets)
        for name, program in (*_presolve_programs(), *_small_programs()):
            label[0] = name
            qpsolve.solve(program)
        label[0] = "lp-max-iterations-40x3"
        qpsolve.solve(_tall_lp(), max_iter=2)
        # with a zero row that presolve drops: the cut-off iterate's
        # multipliers are scattered over the caller's rows
        label[0] = "lp-zero-row-max-iterations-41x3"
        tall = _tall_lp()
        qpsolve.solve(ConvexProgram(c=tall.c, a_ineq=np.vstack([tall.a_ineq[:20], np.zeros((1, 3)), tall.a_ineq[20:]]),
                                    b_ineq=np.concatenate([tall.b_ineq[:20], [1.0], tall.b_ineq[20:]])), max_iter=2)
        # x1 and x2 enter only as x1 + x2: the normal matrix is singular up
        # to its regularization, its Cholesky factorization fails from the
        # fourth iteration on, and the cut-off solve reports that iterate
        label[0] = "lp-lstsq-6x3"
        for max_iter in (qpsolve.DEFAULT_MAX_ITER, 4):
            qpsolve.solve(ConvexProgram(
                c=[1.0, 1.0, -2.0], a_ineq=[[-1.0, -1.0, 3.0], [1.0, 1.0, 1.0], [1.0, 1.0, 3.0],
                                            [-3.0, -3.0, 2.0], [2.0, 2.0, -1.0], [-1.0, -1.0, 0.0]],
                b_ineq=[3.0, 5.0, -3.0, 5.0, 1.0, 0.0]), max_iter=max_iter)
        label[0] = "k1-lp rows of 1e200 n=8 d=4"
        _, ds = model.sample_planted(8, 4, 1, 2)
        huge = ds.x.copy()
        huge[0] = 1e200
        relax.fit(model.Dataset(huge, ds.y, 1), 0.0, 0)
        # fewer block rows than filter entries: w is unbounded
        for k, d in ((2, 8), (3, 12), (5, 20)):
            label[0] = f"beta-qp unbounded k={k} n=1 d={d}"
            relax.fit(model.sample_planted(1, d, k, 0)[1], 1e-3, 0)
        tall = _tall_lp()
        for scale in (1e160, 1e200):
            label[0] = f"lp-rows-of-{scale:g}-40x3"
            qpsolve.solve(ConvexProgram(c=tall.c, a_ineq=tall.a_ineq * scale, b_ineq=tall.b_ineq))
        # the same feasible set, with row 0 and its b_0 scaled
        for scale in (1e50, 1e100):
            label[0] = f"lp-row0-x{scale:g}-40x3"
            rows = np.ones(tall.n_ineq)
            rows[0] = scale
            qpsolve.solve(ConvexProgram(c=tall.c, a_ineq=tall.a_ineq * rows[:, None], b_ineq=tall.b_ineq * rows))
        label[0] = "beta-qp-max-iterations k=1 n=200 d=20"
        _, ds = model.sample_planted(200, 20, 1, 8)
        r = model.substream(9, model.STREAM_PERTURBATION).standard_normal(ds.filter_size)
        built = relax.build(ds, 1e-3, r)
        qpsolve.solve(getattr(built, "program", built), max_iter=2)  # older trees wrap the program
        # the planted features as every other column of a wider array,
        # which presolve copies row-major
        label[0] = "k1-lp strided features n=400 d=20"
        _, ds = model.sample_planted(400, 20, 1, 41)
        wide = np.zeros((ds.n, 2 * ds.d))
        wide[:, ::2] = ds.x
        relax.fit(model.Dataset(wide[:, ::2], ds.y, 1), 0.0, 42)
        label[0] = "k1-lp refitted multipliers n=2000 d=20"
        seed = sweep.cell_trial_seed(2788924227, sweep.METHOD_RELAXATION, 2000, 20, 0)
        relax.fit(model.sample_planted(2000, 20, 1, seed)[1], 0.0, seed)
    finally:
        qpsolve.solve = solve
    return records


# (case, planted n, d, k, seed, max_iters, step size factor)
GD_CASES = (
    ("gd k=1 n=400 d=10", 400, 10, 1, 31, 5000, 1.0),
    ("gd k=1 n=400 d=20", 400, 20, 1, 32, 5000, 1.0),
    ("gd k=1 n=2000 d=10", 2000, 10, 1, 33, 5000, 1.0),
    ("gd k=1 n=2000 d=20", 2000, 20, 1, 34, 5000, 1.0),
    ("gd k=2 n=100 d=20", 100, 20, 2, 35, 5000, 1.0),
    ("gd k=5 n=60 d=20", 60, 20, 5, 36, 5000, 1.0),
    ("gd k=1 n=400 d=20 max_iters=5", 400, 20, 1, 37, 5, 1.0),
    ("gd k=1 n=400 d=20 step x1e3", 400, 20, 1, 38, 5000, 1e3),
)


def run_gd_panel() -> list[dict]:
    """One record per case of GD_CASES, in the shape of run_panel's."""
    import dataclasses

    import numpy as np

    from convrelax import baseline, model

    records = []
    for case, n, d, k, seed, max_iters, factor in GD_CASES:
        _, ds = model.sample_planted(n, d, k, seed)
        config = baseline.default_config(ds, seed=seed)
        res = baseline.gd_fit(ds, dataclasses.replace(config, max_iters=max_iters,
                                                      step_size=config.step_size * factor))
        records.append({"case": case, "fields": {
            "status": res.status, "iters_used": res.iters_used,
            **{name: np.asarray(value, dtype=float).tobytes().hex() for name, value in
               (("w_hat", res.w_hat), ("final_loss", res.final_loss), ("step_size", config.step_size))}}})
    return records


# (case, planted n, d, k, seed, command and options)
CLI_CASES = (
    ("fit k=2 n=100 d=20 --trials 3", (100, 20, 2, 21), ["fit", "--json", "--trials", "3", "--seed", "1"]),
    ("fit k=5 n=60 d=20 --trials 3", (60, 20, 5, 22), ["fit", "--json", "--trials", "3", "--seed", "2"]),
    ("fit k=1 n=200 d=20 --beta 1e-3", (200, 20, 1, 23), ["fit", "--json", "--beta", "1e-3", "--seed", "3"]),
    ("fit k=2 n=100 d=20 --beta 1e-3 --trials 3", (100, 20, 2, 28),
     ["fit", "--json", "--beta", "1e-3", "--trials", "3", "--seed", "8"]),
    ("certify k=1 n=80 d=6", (80, 6, 1, 24), ["certify", "--json", "--seed", "4"]),
    ("certify k=2 n=120 d=8", (120, 8, 2, 25), ["certify", "--json", "--seed", "5"]),
    ("fit k=1 n=400 d=20 --method gd", (400, 20, 1, 26), ["fit", "--json", "--method", "gd", "--seed", "6"]),
    ("fit k=2 n=100 d=20 --method gd", (100, 20, 2, 27), ["fit", "--json", "--method", "gd", "--seed", "7"]),
)

# (case, sweep options): stdout and the CSV written
SWEEP_CASES = (
    ("sweep k=1 n=25,400 d=5,20 --trials 2",
     ["--n-values", "25,400", "--d-values", "5,20", "--trials", "2", "--seed", "6"]),
    ("sweep k=2 n=50,200 d=8,16 --trials 2",
     ["--k", "2", "--n-values", "50,200", "--d-values", "8,16", "--trials", "2", "--seed", "7"]),
)


def run_cli_panel() -> list[dict]:
    """The exit code and stdout of each command of CLI_CASES, and those
    and the CSV of each sweep of SWEEP_CASES."""
    import contextlib
    import io
    import tempfile

    from convrelax import cli, model

    records = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, (n, d, k, seed), (command, *options) in CLI_CASES:
            path = os.path.join(tmp, "data.csv")
            model.export_csv(model.sample_planted(n, d, k, seed)[1], path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main([command, "--in", path, *options])
            records.append({"case": case, "exit": code, "stdout": out.getvalue()})
        for case, options in SWEEP_CASES:
            path = os.path.join(tmp, "sweep.csv")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["sweep", *options, "--out", path])
            with open(path, encoding="ascii") as f:
                # stdout names the CSV, whose directory differs between runs
                records.append({"case": case, "exit": code, "stdout": out.getvalue().replace(tmp, "TMP"),
                                "csv": f.read()})
    return records


def _panel_of(src: str) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), src], env=env,
                         capture_output=True, text=True)
    if out.returncode != 0:
        # the tree under test failed: show its traceback, not this script's
        sys.stderr.write(out.stderr)
        print(f"the panel of {src} exited with {out.returncode}", file=sys.stderr)
        raise SystemExit(2)
    return json.loads(out.stdout)


def _is_bytes(name: str, value) -> bool:
    """Whether a record field holds the hex bytes of floats."""
    return isinstance(value, str) and name != "status"


def _describe(name: str, old, new) -> str:
    if not _is_bytes(name, old):
        return f"{old!r} != {new!r}"
    import numpy as np

    a, b = (np.frombuffer(bytes.fromhex(v), dtype=float) for v in (old, new))
    if a.shape != b.shape:
        return f"length {a.size} != {b.size}"
    j = int(np.flatnonzero(a.view(np.int64) != b.view(np.int64))[0])
    return f"entry {j}: {float(a[j])!r} != {float(b[j])!r}"


def _extent(name: str, old: str, new: str) -> str:
    """How many entries of a float field differ, and by how much at most."""
    import numpy as np

    a, b = (np.frombuffer(bytes.fromhex(v), dtype=float) for v in (old, new))
    if a.shape != b.shape:
        return f"{name}: length {a.size} != {b.size}"
    differ = a.view(np.int64) != b.view(np.int64)
    delta = float(np.max(np.abs(a[differ] - b[differ])))
    return f"{name}: {np.count_nonzero(differ)} of {a.size} entries differ, max |delta| {delta:.3g}"


def _by_case(records: list[dict]) -> dict[str, list[dict]]:
    cases: dict[str, list[dict]] = {}
    for record in records:
        cases.setdefault(record["case"], []).append(record["fields"])
    return cases


def differences(old: list[dict], new: list[dict]) -> tuple[list[str], int]:
    """One line per differing report and per case whose report count
    differs, and the number of cases with any difference."""
    old_cases, new_cases = _by_case(old), _by_case(new)
    lines: list[str] = []
    differing = 0
    for case in dict.fromkeys([*old_cases, *new_cases]):
        a, b = old_cases.get(case, []), new_cases.get(case, [])
        found = len(lines)
        if len(a) != len(b):
            lines.append(f"{case}: report count {len(a)} != {len(b)}")
        for i, (fa, fb) in enumerate(zip(a, b)):
            name = next((name for name in fa if fa[name] != fb[name]), None)
            if name is not None:
                detail = _describe(name, fa[name], fb[name])
                extents = [_extent(f, fa[f], fb[f]) for f in fa if _is_bytes(f, fa[f]) and fa[f] != fb[f]]
                extent = f" ({'; '.join(extents)})" if extents else ""
                lines.append(f"{case}, report {i}: field {name} differs, {detail}{extent}")
        differing += len(lines) > found
    return lines, differing


def moved_reports(old: list[dict], new: list[dict]) -> int:
    """The number of reports, paired case by case, whose status or
    iteration count differs."""
    old_cases, new_cases = _by_case(old), _by_case(new)
    return sum(fa["status"] != fb["status"] or fa["iterations"] != fb["iterations"]
               for case in old_cases.keys() & new_cases.keys()
               for fa, fb in zip(old_cases[case], new_cases[case]))


def cli_differences(old: list[dict], new: list[dict]) -> list[str]:
    """One line per command whose exit code, stdout or CSV differs, or
    that only one side ran."""
    old_cases = {record["case"]: record for record in old}
    new_cases = {record["case"]: record for record in new}
    lines = []
    for case in dict.fromkeys([*old_cases, *new_cases]):
        a, b = old_cases.get(case), new_cases.get(case)
        if a is None or b is None:
            lines.append(f"{case}: run by one tree only")
        elif a["exit"] != b["exit"]:
            lines.append(f"{case}: exit code {a['exit']} != {b['exit']}")
        else:
            for key in ("stdout", "csv"):
                u, v = a.get(key, ""), b.get(key, "")
                if u != v:
                    at = next((i for i, (p, q) in enumerate(zip(u, v)) if p != q), min(len(u), len(v)))
                    lines.append(f"{case}: {key} differs from character {at}: "
                                 f"{u[at:at + 40]!r} != {v[at:at + 40]!r}")
                    break
    return lines


def main(argv: list[str]) -> int:
    if len(argv) == 1:
        import convrelax

        package_dir = os.path.dirname(os.path.abspath(convrelax.__file__))
        if os.path.dirname(package_dir) != os.path.abspath(argv[0]):
            raise SystemExit(f"convrelax was imported from {package_dir}, not from {argv[0]}")
        json.dump({"reports": run_panel(), "gd": run_gd_panel(), "cli": run_cli_panel()}, sys.stdout)
        return 0
    if len(argv) != 2:
        print("usage: python scripts/bitwise_diff.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    old, new = _panel_of(argv[0]), _panel_of(argv[1])
    lines, differing = differences(old["reports"], new["reports"])
    gd_lines, gd_differing = differences(old["gd"], new["gd"])
    cli_lines = cli_differences(old["cli"], new["cli"])
    cases = len(_by_case(old["reports"]))
    if not lines and not gd_lines and not cli_lines:
        print(f"identical ({len(old['reports'])} reports over {cases} cases; "
              f"{len(old['gd'])} GD runs; {len(old['cli'])} CLI outputs)")
        return 0
    print("\n".join(lines + gd_lines + cli_lines))
    moved = moved_reports(old["reports"], new["reports"])
    print(f"{differing} of {cases} cases differ, {moved} reports with a moved status or iteration count; "
          f"{gd_differing} of {len(old['gd'])} GD runs differ; "
          f"{len(cli_lines)} of {len(old['cli'])} CLI outputs differ")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
