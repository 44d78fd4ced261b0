"""Offline baselines for facility leasing (Figure 4.1 ILP).

The facility ILP is not a pure covering program (the linking rows
``y_{ij} <= sum x`` have mixed signs), so the exact path formulates the
mixed-integer program directly for scipy/HiGHS: facility-window variables
are integral, assignment variables stay continuous — given integral
windows, an optimal assignment puts full weight on the nearest open
facility, so the relaxation of ``y`` is free.

Without scipy, :func:`optimal_brute` enumerates window subsets for tiny
instances and :func:`nearest_heuristic` provides a feasible upper bound;
:func:`optimum` picks the best available method and reports brackets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..core.lease import Lease
from ..core.results import OptBounds
from ..errors import SolverError
from ..lp.solver import HAVE_SCIPY, scipy_modules
from .model import Connection, FacilityLeasingInstance


@dataclass(frozen=True, slots=True)
class OfflineFacilitySolution:
    """An offline solution: cost plus the leases and connections realising it."""

    cost: float
    leases: tuple[Lease, ...]
    connections: tuple[Connection, ...]
    method: str


def _candidate_windows(instance: FacilityLeasingInstance) -> list[Lease]:
    """Aligned facility windows covering at least one arrival step."""
    arrival_steps = sorted({client.arrival for client in instance.clients})
    windows: dict[tuple[int, int, int], Lease] = {}
    for t in arrival_steps:
        for i in range(instance.num_facilities):
            for lease_type in instance.schedule:
                lease = instance.facility_lease(i, lease_type.index, t)
                windows[lease.key] = lease
    return list(windows.values())


def _best_assignment(
    instance: FacilityLeasingInstance, open_windows: list[Lease]
) -> tuple[float, list[Connection]] | None:
    """Cheapest feasible assignment given the opened windows, or None."""
    connections: list[Connection] = []
    total = 0.0
    for client in instance.clients:
        open_facilities = {
            lease.resource
            for lease in open_windows
            if lease.covers(client.arrival)
        }
        if not open_facilities:
            return None
        facility = min(
            open_facilities,
            key=lambda i: instance.distance(i, client.ident),
        )
        distance = instance.distance(facility, client.ident)
        connections.append(
            Connection(
                client=client.ident, facility=facility, distance=distance
            )
        )
        total += distance
    return total, connections


def optimal_ilp(instance: FacilityLeasingInstance) -> OfflineFacilitySolution:
    """Exact optimum via scipy/HiGHS mixed-integer programming."""
    if not HAVE_SCIPY:
        raise SolverError("scipy is required for the facility ILP")
    _np, _opt, _sparse = scipy_modules()
    windows = _candidate_windows(instance)
    num_windows = len(windows)
    clients = instance.clients
    num_clients = len(clients)
    m = instance.num_facilities

    # Variable layout: [x_windows | y_{client, facility}].
    num_vars = num_windows + num_clients * m

    def y_index(client: int, facility: int) -> int:
        return num_windows + client * m + facility

    costs = _np.zeros(num_vars)
    for index, window in enumerate(windows):
        costs[index] = window.cost
    for client in clients:
        for facility in range(m):
            costs[y_index(client.ident, facility)] = instance.distance(
                facility, client.ident
            )

    rows, cols, data, lower = [], [], [], []
    row_count = 0
    # Coverage rows: sum_i y_ij >= 1.
    for client in clients:
        for facility in range(m):
            rows.append(row_count)
            cols.append(y_index(client.ident, facility))
            data.append(1.0)
        lower.append(1.0)
        row_count += 1
    # Linking rows: sum over i's windows covering t of x  -  y_ij >= 0.
    for client in clients:
        for facility in range(m):
            any_window = False
            for index, window in enumerate(windows):
                if window.resource == facility and window.covers(
                    client.arrival
                ):
                    rows.append(row_count)
                    cols.append(index)
                    data.append(1.0)
                    any_window = True
            if not any_window:
                continue
            rows.append(row_count)
            cols.append(y_index(client.ident, facility))
            data.append(-1.0)
            lower.append(0.0)
            row_count += 1

    matrix = _sparse.csr_matrix(
        (data, (rows, cols)), shape=(row_count, num_vars)
    )
    integrality = _np.zeros(num_vars)
    integrality[:num_windows] = 1
    result = _opt.milp(
        c=costs,
        constraints=_opt.LinearConstraint(
            matrix, lb=_np.asarray(lower), ub=_np.inf
        ),
        integrality=integrality,
        bounds=_opt.Bounds(lb=0.0, ub=1.0),
    )
    if not result.success:
        raise SolverError(f"facility ILP failed: {result.message}")
    open_windows = [
        window
        for index, window in enumerate(windows)
        if result.x[index] > 0.5
    ]
    assignment = _best_assignment(instance, open_windows)
    if assignment is None:  # pragma: no cover - ILP guarantees coverage
        raise SolverError("ILP solution left a client unserved")
    connection_cost, connections = assignment
    lease_cost = sum(window.cost for window in open_windows)
    return OfflineFacilitySolution(
        cost=lease_cost + connection_cost,
        leases=tuple(open_windows),
        connections=tuple(connections),
        method="scipy-milp",
    )


def lp_lower_bound(instance: FacilityLeasingInstance) -> float:
    """LP relaxation of the facility ILP — a valid lower bound on OPT."""
    if not HAVE_SCIPY:
        raise SolverError("scipy is required for the facility LP bound")
    solution = _relaxed(instance)
    return solution


def _relaxed(instance: FacilityLeasingInstance) -> float:
    _np, _opt, _sparse = scipy_modules()
    windows = _candidate_windows(instance)
    num_windows = len(windows)
    clients = instance.clients
    m = instance.num_facilities
    num_vars = num_windows + len(clients) * m

    def y_index(client: int, facility: int) -> int:
        return num_windows + client * m + facility

    costs = _np.zeros(num_vars)
    for index, window in enumerate(windows):
        costs[index] = window.cost
    for client in clients:
        for facility in range(m):
            costs[y_index(client.ident, facility)] = instance.distance(
                facility, client.ident
            )
    rows, cols, data, lower = [], [], [], []
    row_count = 0
    for client in clients:
        for facility in range(m):
            rows.append(row_count)
            cols.append(y_index(client.ident, facility))
            data.append(1.0)
        lower.append(1.0)
        row_count += 1
    for client in clients:
        for facility in range(m):
            present = False
            for index, window in enumerate(windows):
                if window.resource == facility and window.covers(
                    client.arrival
                ):
                    rows.append(row_count)
                    cols.append(index)
                    data.append(1.0)
                    present = True
            if not present:
                continue
            rows.append(row_count)
            cols.append(y_index(client.ident, facility))
            data.append(-1.0)
            lower.append(0.0)
            row_count += 1
    matrix = _sparse.csr_matrix(
        (data, (rows, cols)), shape=(row_count, num_vars)
    )
    result = _opt.linprog(
        c=costs,
        A_ub=-matrix,
        b_ub=-_np.asarray(lower),
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not result.success:
        raise SolverError(f"facility LP failed: {result.message}")
    return float(result.fun)


def optimal_brute(
    instance: FacilityLeasingInstance, max_windows: int = 18
) -> OfflineFacilitySolution:
    """Exhaustive optimum over window subsets (tiny instances only)."""
    windows = _candidate_windows(instance)
    if len(windows) > max_windows:
        raise SolverError(
            f"{len(windows)} candidate windows exceed the brute-force "
            f"limit {max_windows}"
        )
    best: OfflineFacilitySolution | None = None
    for size in range(len(windows) + 1):
        for subset in itertools.combinations(windows, size):
            assignment = _best_assignment(instance, list(subset))
            if assignment is None:
                continue
            connection_cost, connections = assignment
            total = sum(w.cost for w in subset) + connection_cost
            if best is None or total < best.cost - 1e-12:
                best = OfflineFacilitySolution(
                    cost=total,
                    leases=tuple(subset),
                    connections=tuple(connections),
                    method="brute-force",
                )
    if best is None:
        raise SolverError("no feasible window subset found")
    return best


def nearest_heuristic(
    instance: FacilityLeasingInstance,
) -> OfflineFacilitySolution:
    """A feasible lease-on-demand heuristic — an upper bound on OPT.

    For each client, either connect to an already-leased facility or lease
    the window minimising (lease cost + distance), whichever is cheaper.
    """
    owned: dict[tuple[int, int, int], Lease] = {}
    connections: list[Connection] = []
    for client in instance.clients:
        open_now = [
            lease for lease in owned.values() if lease.covers(client.arrival)
        ]
        best_existing = None
        if open_now:
            best_existing = min(
                open_now,
                key=lambda lease: instance.distance(
                    lease.resource, client.ident
                ),
            )
        best_new = min(
            (
                instance.facility_lease(i, lease_type.index, client.arrival)
                for i in range(instance.num_facilities)
                for lease_type in instance.schedule
            ),
            key=lambda lease: lease.cost
            + instance.distance(lease.resource, client.ident),
        )
        new_total = best_new.cost + instance.distance(
            best_new.resource, client.ident
        )
        if best_existing is not None and (
            instance.distance(best_existing.resource, client.ident)
            <= new_total
        ):
            facility = best_existing.resource
        else:
            owned[best_new.key] = best_new
            facility = best_new.resource
        connections.append(
            Connection(
                client=client.ident,
                facility=facility,
                distance=instance.distance(facility, client.ident),
            )
        )
    leases = tuple(owned.values())
    total = sum(lease.cost for lease in leases) + sum(
        connection.distance for connection in connections
    )
    return OfflineFacilitySolution(
        cost=total,
        leases=leases,
        connections=tuple(connections),
        method="nearest-heuristic",
    )


def optimum(instance: FacilityLeasingInstance) -> OptBounds:
    """Bracket (or exactly solve) the facility leasing optimum."""
    if HAVE_SCIPY:
        solution = optimal_ilp(instance)
        return OptBounds.exactly(solution.cost, method=solution.method)
    try:
        solution = optimal_brute(instance)
        return OptBounds.exactly(solution.cost, method=solution.method)
    except SolverError:
        upper = nearest_heuristic(instance).cost
        lower = sum(
            min(
                instance.distance(i, client.ident)
                for i in range(instance.num_facilities)
            )
            for client in instance.clients
        )
        return OptBounds(
            lower=lower, upper=upper, exact=False, method="distance+heuristic"
        )
