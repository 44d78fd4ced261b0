"""The library must stay correct when scipy is unavailable.

The solver front-end promises a pure-Python fallback (branch and bound
for exact ILPs, dual ascent for LP lower bounds).  These tests flip the
``HAVE_SCIPY`` switch and verify the fallback paths produce the same
exact optima and valid brackets.
"""

import random

import pytest

from repro.lp import CoveringProgram, solve_ilp
from repro.lp import solver as solver_module
from repro.parking import make_instance, optimal_interval
from repro.core import LeaseSchedule


@pytest.fixture
def no_scipy(monkeypatch):
    monkeypatch.setattr(solver_module, "HAVE_SCIPY", False)


def random_program(seed, num_vars=7, num_rows=5):
    rng = random.Random(seed)
    program = CoveringProgram()
    for _ in range(num_vars):
        program.add_variable(cost=rng.uniform(0.5, 4.0))
    for _ in range(num_rows):
        support = rng.sample(range(num_vars), rng.randint(1, 3))
        program.add_constraint({v: 1.0 for v in support}, rhs=1)
    return program


class TestFallbackExactness:
    @pytest.mark.parametrize("seed", range(8))
    def test_branch_and_bound_matches_scipy_value(self, seed, monkeypatch):
        program = random_program(seed)
        with_scipy = solver_module.solve_ilp(program)
        monkeypatch.setattr(solver_module, "HAVE_SCIPY", False)
        without = solver_module.solve_ilp(program)
        assert without.method == "branch-and-bound"
        assert without.value == pytest.approx(with_scipy.value, abs=1e-6)

    def test_lp_fallback_is_valid_lower_bound(self, no_scipy):
        program = random_program(3)
        value, method = solver_module.lp_relaxation_value(program)
        assert method == "dual-ascent"
        exact = solve_ilp(program)
        assert value <= exact.value + 1e-9

    def test_opt_bounds_bracket_without_scipy(self, no_scipy):
        program = random_program(5, num_vars=10, num_rows=8)
        bounds = solver_module.opt_bounds(program, exact_variable_limit=1)
        assert not bounds.exact
        assert bounds.lower <= bounds.upper + 1e-9
        assert "dual-ascent" in bounds.method

    def test_parking_pipeline_without_scipy(self, no_scipy):
        """End to end: the parking ILP baseline still solves exactly."""
        schedule = LeaseSchedule.power_of_two(3)
        instance = make_instance(schedule, [0, 1, 4, 9, 10])
        solution = solver_module.solve_ilp(instance.to_covering_program())
        assert solution.value == pytest.approx(
            optimal_interval(instance).cost, abs=1e-6
        )


class TestLazyImport:
    def test_serving_entry_points_leave_scipy_unimported(self):
        """scipy and numpy load on the first solve, never at import: a
        serve or cluster process (workers and respawns included) never
        solves, so it must not pay their import time or memory."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys\n"
            "import repro.cli, repro.serve.server, repro.cluster.router\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'numpy')))\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        assert done.stdout.strip() == "[]"
