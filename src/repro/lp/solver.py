"""Solver front-end: exact ILP optimum and LP-relaxation lower bounds.

The default exact path uses scipy's HiGHS backend (``scipy.optimize.milp``)
when scipy is importable; otherwise the pure-Python branch and bound from
:mod:`repro.lp.branch_and_bound` takes over, so the library stays fully
functional without compiled dependencies.  LP relaxations likewise fall
back to a dual-ascent bound, which is weaker but still a *valid* lower
bound — experiments report which method produced each number.
"""

from __future__ import annotations

import importlib.util

from ..core.results import OptBounds
from ..errors import SolverError
from .branch_and_bound import (
    IlpSolution,
    dual_ascent_bound,
    greedy_cover,
    solve_branch_and_bound,
)
from .model import CoveringProgram

#: Is the optional, preferred scipy/HiGHS backend installed?  Answered
#: by the import system without importing it: scipy and numpy load on
#: the first solve (:func:`scipy_modules`), so a process that never
#: solves — every ``engine serve`` and ``engine cluster`` process — never
#: pays their import time or memory.
HAVE_SCIPY = all(
    importlib.util.find_spec(name) is not None for name in ("numpy", "scipy")
)


def scipy_modules():
    """``(numpy, scipy.optimize, scipy.sparse)``, imported on first use."""
    import numpy
    from scipy import optimize, sparse

    return numpy, optimize, sparse


def _scipy_matrices(program: CoveringProgram):
    """Assemble (costs, A, b) for scipy from a covering program."""
    _np, _, _sparse = scipy_modules()
    rows, cols, data = [], [], []
    rhs = []
    for row_index, row in enumerate(program.constraints):
        rhs.append(row.rhs)
        for var, coeff in row.terms:
            rows.append(row_index)
            cols.append(var)
            data.append(coeff)
    matrix = _sparse.csr_matrix(
        (data, (rows, cols)),
        shape=(program.num_constraints, program.num_variables),
    )
    return _np.asarray(program.costs, dtype=float), matrix, _np.asarray(rhs)


def solve_ilp(
    program: CoveringProgram, node_budget: int = 200_000
) -> IlpSolution:
    """Exactly solve the 0/1 covering program.

    Uses scipy/HiGHS when available, else branch and bound.  Raises
    :class:`~repro.errors.SolverError` on solver failure.
    """
    if program.num_variables == 0:
        if program.num_constraints and any(
            row.rhs > 1e-9 for row in program.constraints
        ):
            raise SolverError("no variables but positive covering demand")
        return IlpSolution(value=0.0, x=(), method="trivial")

    if HAVE_SCIPY:
        _np, _opt, _ = scipy_modules()
        costs, matrix, rhs = _scipy_matrices(program)
        constraints = (
            _opt.LinearConstraint(matrix, lb=rhs, ub=_np.inf)
            if program.num_constraints
            else ()
        )
        result = _opt.milp(
            c=costs,
            constraints=constraints,
            integrality=_np.ones(program.num_variables),
            bounds=_opt.Bounds(lb=0.0, ub=1.0),
        )
        if not result.success:
            raise SolverError(f"scipy milp failed: {result.message}")
        x = tuple(float(round(v)) for v in result.x)
        # Re-evaluate on the rounded assignment so the value is consistent
        # with the reported x.
        return IlpSolution(
            value=program.objective(list(x)), x=x, method="scipy-highs"
        )

    return solve_branch_and_bound(program, node_budget=node_budget)


def lp_relaxation_value(program: CoveringProgram) -> tuple[float, str]:
    """Optimal value of the LP relaxation (a lower bound on the ILP).

    Returns ``(value, method)``.  Without scipy, the dual-ascent bound is
    returned instead; it is below the true LP value but still valid.
    """
    if program.num_variables == 0:
        return 0.0, "trivial"
    if HAVE_SCIPY:
        _, _opt, _ = scipy_modules()
        costs, matrix, rhs = _scipy_matrices(program)
        result = _opt.linprog(
            c=costs,
            A_ub=-matrix if program.num_constraints else None,
            b_ub=-rhs if program.num_constraints else None,
            bounds=(0.0, 1.0),
            method="highs",
        )
        if not result.success:
            raise SolverError(f"scipy linprog failed: {result.message}")
        return float(result.fun), "scipy-lp"
    return dual_ascent_bound(program, set(), set()), "dual-ascent"


def opt_bounds(
    program: CoveringProgram,
    exact_variable_limit: int = 4_000,
    node_budget: int = 200_000,
) -> OptBounds:
    """Bracket the ILP optimum, solving exactly when the program is small.

    Programs with at most ``exact_variable_limit`` variables are solved
    exactly; larger ones get ``[LP relaxation, greedy cover]`` brackets.
    """
    if program.num_variables <= exact_variable_limit:
        solution = solve_ilp(program, node_budget=node_budget)
        return OptBounds.exactly(solution.value, method=solution.method)
    lower, method = lp_relaxation_value(program)
    greedy = greedy_cover(program)
    if greedy is None:
        raise SolverError("covering program is infeasible")
    upper = program.objective(greedy)
    return OptBounds(
        lower=lower, upper=upper, exact=False, method=f"{method}+greedy"
    )
