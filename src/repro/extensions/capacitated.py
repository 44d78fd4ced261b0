"""Capacitated facility leasing — the Section 4.5 outlook, realised.

The thesis proposes studying "the leasing variant of capacitated
FacilityLocation in which facilities can serve a limited number of
clients per time step" and notes its tight connection to scheduling
(machines = facilities, jobs = clients).  This module provides:

* the model: facility leasing plus a per-facility per-time-step capacity;
* a capacity-aware greedy online algorithm (no competitive guarantee is
  claimed — the thesis leaves the analysis open; the benchmark measures
  its empirical gap);
* an exact MILP baseline extending the Figure 4.1 formulation with
  capacity rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import require
from ..core.lease import Lease
from ..core.store import LeaseStore
from ..errors import InfeasibleError, SolverError
from ..facility.model import Connection, FacilityLeasingInstance
from ..lp.solver import HAVE_SCIPY, scipy_modules


@dataclass(frozen=True)
class CapacitatedInstance:
    """A facility leasing instance plus per-facility step capacities."""

    base: FacilityLeasingInstance
    capacities: tuple[int, ...]

    def __post_init__(self) -> None:
        require(
            len(self.capacities) == self.base.num_facilities,
            "one capacity per facility required",
        )
        for capacity in self.capacities:
            require(capacity >= 1, "capacities must be >= 1")
        for batch in self.base.batches():
            require(
                len(batch.clients) <= sum(self.capacities),
                f"batch at t={batch.arrival} exceeds total capacity",
            )

    def is_feasible_solution(
        self, leases: list[Lease], connections: list[Connection]
    ) -> bool:
        """Base feasibility plus per-(facility, step) load <= capacity."""
        if not self.base.is_feasible_solution(leases, connections):
            return False
        load: dict[tuple[int, int], int] = {}
        arrival_of = {
            client.ident: client.arrival for client in self.base.clients
        }
        for connection in connections:
            key = (connection.facility, arrival_of[connection.client])
            load[key] = load.get(key, 0) + 1
            if load[key] > self.capacities[connection.facility]:
                return False
        return True


class OnlineCapacitatedFacilityLeasing:
    """Capacity-aware greedy online algorithm.

    Clients in a batch are served in order of decreasing isolation (their
    distance to the nearest facility), so hard-to-place clients pick
    first.  Each client either joins the nearest leased facility with
    spare capacity, or leases the facility window minimising
    (lease cost + distance) among facilities with spare capacity —
    choosing the lease type whose amortised per-day price is best for the
    observed demand rate so far.
    """

    def __init__(self, instance: CapacitatedInstance):
        self.instance = instance
        self.base = instance.base
        self.schedule = instance.base.schedule
        self.store = LeaseStore()
        self.connections: list[Connection] = []
        self._served_per_step = 0.0
        self._steps_seen = 0

    def _preferred_type(self) -> int:
        """Lease type chosen by the observed demand rate.

        A crude rate estimator: once the average batch exceeds one client
        per facility-step, longer leases amortise; before that, stay
        short.  This is the knob the benchmark's ablation exercises.
        """
        if self._steps_seen == 0:
            return 0
        rate = self._served_per_step / self._steps_seen
        index = 0
        while (
            index + 1 < self.schedule.num_types
            and rate * self.schedule[index + 1].length
            >= self.schedule[index + 1].cost / self.schedule[0].cost
        ):
            index += 1
        return index

    def on_demand(self, batch) -> None:
        """Serve one time step's batch under capacities."""
        t = batch.arrival
        self._steps_seen += 1
        self._served_per_step += len(batch.clients)
        # Capacities are per time step, so each batch starts fresh.
        remaining = {
            i: self.instance.capacities[i]
            for i in range(self.base.num_facilities)
        }
        order = sorted(
            batch.clients,
            key=lambda client: -min(
                self.base.distance(i, client.ident)
                for i in range(self.base.num_facilities)
            ),
        )
        for client in order:
            open_options = [
                i
                for i in range(self.base.num_facilities)
                if remaining[i] > 0 and self.store.covers(i, t)
            ]
            best_open = None
            if open_options:
                best_open = min(
                    open_options,
                    key=lambda i: self.base.distance(i, client.ident),
                )
            lease_options = [
                i
                for i in range(self.base.num_facilities)
                if remaining[i] > 0
            ]
            if not lease_options:
                raise InfeasibleError(
                    f"no capacity left for client {client.ident} at {t}"
                )
            type_index = self._preferred_type()
            best_new = min(
                lease_options,
                key=lambda i: self.base.lease_costs[i][type_index]
                + self.base.distance(i, client.ident),
            )
            new_total = self.base.lease_costs[best_new][
                type_index
            ] + self.base.distance(best_new, client.ident)
            if best_open is not None and (
                self.base.distance(best_open, client.ident) <= new_total
            ):
                target = best_open
            else:
                self.store.buy(
                    self.base.facility_lease(best_new, type_index, t)
                )
                target = best_new
            remaining[target] -= 1
            self.connections.append(
                Connection(
                    client=client.ident,
                    facility=target,
                    distance=self.base.distance(target, client.ident),
                )
            )

    @property
    def cost(self) -> float:
        """Leasing plus connection cost so far."""
        return self.store.total_cost + sum(
            connection.distance for connection in self.connections
        )

    @property
    def leases(self) -> tuple[Lease, ...]:
        return self.store.leases


def optimal_ilp(instance: CapacitatedInstance) -> float:
    """Exact optimum via MILP: Figure 4.1 plus capacity rows.

    Adds, for every facility ``i`` and arrival step ``t``,
    ``sum_{j in D_t} y_ij <= cap_i`` to the uncapacitated formulation.
    ``y`` stays continuous: capacities are integral and the constraint
    matrix block per step is an assignment polytope, so integral ``x``
    admits an integral optimal ``y``.
    """
    if not HAVE_SCIPY:
        raise SolverError("scipy is required for the capacitated ILP")
    _np, _opt, _sparse = scipy_modules()
    base = instance.base
    arrival_steps = sorted({client.arrival for client in base.clients})
    windows: dict[tuple[int, int, int], Lease] = {}
    for t in arrival_steps:
        for i in range(base.num_facilities):
            for lease_type in base.schedule:
                lease = base.facility_lease(i, lease_type.index, t)
                windows[lease.key] = lease
    window_list = list(windows.values())
    num_windows = len(window_list)
    m = base.num_facilities
    clients = base.clients
    num_vars = num_windows + len(clients) * m

    def y_index(client: int, facility: int) -> int:
        return num_windows + client * m + facility

    costs = _np.zeros(num_vars)
    for index, window in enumerate(window_list):
        costs[index] = window.cost
    for client in clients:
        for facility in range(m):
            costs[y_index(client.ident, facility)] = base.distance(
                facility, client.ident
            )

    rows, cols, data, lower, upper = [], [], [], [], []
    row_count = 0

    def add_row(terms, lo, hi):
        nonlocal row_count
        for var, coeff in terms:
            rows.append(row_count)
            cols.append(var)
            data.append(coeff)
        lower.append(lo)
        upper.append(hi)
        row_count += 1

    for client in clients:
        add_row(
            [(y_index(client.ident, f), 1.0) for f in range(m)],
            1.0,
            _np.inf,
        )
    for client in clients:
        for facility in range(m):
            terms = [
                (index, 1.0)
                for index, window in enumerate(window_list)
                if window.resource == facility
                and window.covers(client.arrival)
            ]
            if not terms:
                continue
            terms.append((y_index(client.ident, facility), -1.0))
            add_row(terms, 0.0, _np.inf)
    for t in arrival_steps:
        step_clients = [c for c in clients if c.arrival == t]
        for facility in range(m):
            add_row(
                [
                    (y_index(c.ident, facility), 1.0)
                    for c in step_clients
                ],
                -_np.inf,
                float(instance.capacities[facility]),
            )

    matrix = _sparse.csr_matrix(
        (data, (rows, cols)), shape=(row_count, num_vars)
    )
    integrality = _np.zeros(num_vars)
    integrality[:num_windows] = 1
    result = _opt.milp(
        c=costs,
        constraints=_opt.LinearConstraint(
            matrix, lb=_np.asarray(lower), ub=_np.asarray(upper)
        ),
        integrality=integrality,
        bounds=_opt.Bounds(lb=0.0, ub=1.0),
    )
    if not result.success:
        raise SolverError(f"capacitated ILP failed: {result.message}")
    return float(result.fun)
