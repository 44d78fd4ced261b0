"""The HTTP ops plane: routes admin URLs onto a serving backend.

:class:`AdminPlane` mounts the same small set of endpoints on either a
:class:`~repro.serve.server.LeaseServer` (one process, worker 0 only)
or a :class:`~repro.cluster.router.ClusterRouter` (the whole fleet) —
any object implementing the ``admin_*`` backend surface:

========================================  =====================================
endpoint                                  backend call
========================================  =====================================
``GET /metrics``                          ``admin_metrics() -> str``
``GET /metrics/history?family=&window=``  ``admin_history(family, window)``
``GET /healthz``                          ``admin_health() -> dict``
``GET /readyz``                           ``admin_ready() -> (bool, dict)``
``GET /leases?tenant=&resource=``         ``admin_leases(tenant, resource)``
``GET /trace/{trace_id}``                 ``admin_trace(trace_id)``
``GET /profile?seconds=``                 ``admin_profile(seconds)``
``POST /leases/{id}/force-release``       ``admin_force_release(lease_id)``
``POST /workers/{n}/drain``               ``admin_drain(n)``
``POST /workers/{n}/undrain``             ``admin_undrain(n)``
========================================  =====================================

Backend methods may be sync or async — the plane awaits coroutines and
passes plain values through — so each backend uses whichever is natural
(a router's drain must round-trip to a worker; a server's is a state
flip).  Reads are pure observation.  The two mutations are *durable by
construction*: force-release is applied as an ordinary ``release`` on
its shard and committed to the WAL before it is answered, so it lands
in the applied trace as a replayable event and carries the standard
retry-dedup identity — an admin mutation survives ``kill -9`` with
exactly-once semantics, same as any client op.

``/leases`` pagination is offset/limit over a stably sorted book
(resource, tenant, lease_id), so pages are consistent within one
barrier snapshot.
"""

from __future__ import annotations

import asyncio
import inspect

from .http import HttpError, HttpRequest, HttpResponse, HttpServer, \
    json_response, text_response

#: Pagination bounds for ``GET /leases``.
DEFAULT_PAGE_LIMIT = 256
MAX_PAGE_LIMIT = 4096

#: ``GET /profile`` capture-window bounds (seconds).
DEFAULT_PROFILE_SECONDS = 1.0
MAX_PROFILE_SECONDS = 30.0


async def _call(value):
    """Await a backend result if the backend chose to be async."""
    if inspect.isawaitable(value):
        return await value
    return value


def _int_param(query: dict, name: str, default: int | None) -> int | None:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise HttpError(400, f"{name} must be an integer, got {raw!r}") from None
    if value < 0:
        raise HttpError(400, f"{name} must be >= 0, got {value}")
    return value


def _float_param(query: dict, name: str, default: float | None) -> float | None:
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise HttpError(400, f"{name} must be a number, got {raw!r}") from None
    if value <= 0:
        raise HttpError(400, f"{name} must be > 0, got {value}")
    return value


class AdminPlane:
    """Ops-plane HTTP listener over one ``admin_*`` backend."""

    def __init__(self, backend):
        self.backend = backend
        self._http = HttpServer(self._route)

    @property
    def port(self) -> int | None:
        return self._http.port

    async def start_tcp(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind the plane; returns the bound port."""
        return await self._http.start_tcp(host, port)

    async def close(self) -> None:
        await self._http.close()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, request: HttpRequest) -> HttpResponse:
        parts = [p for p in request.path.split("/") if p]
        if request.method == "GET":
            return await self._route_get(request, parts)
        if request.method == "POST":
            return await self._route_post(request, parts)
        raise HttpError(405, f"unsupported method {request.method}")

    async def _route_get(self, request, parts) -> HttpResponse:
        if parts == ["metrics"]:
            return text_response(await _call(self.backend.admin_metrics()))
        if parts == ["metrics", "history"]:
            family = request.query.get("family")
            window = _float_param(request.query, "window", None)
            return json_response(
                await _call(
                    self.backend.admin_history(family=family, window=window)
                )
            )
        if parts == ["profile"]:
            seconds = _float_param(
                request.query, "seconds", DEFAULT_PROFILE_SECONDS
            )
            seconds = min(seconds, MAX_PROFILE_SECONDS)
            return json_response(
                await _call(self.backend.admin_profile(seconds))
            )
        if parts == ["healthz"]:
            return json_response(await _call(self.backend.admin_health()))
        if parts == ["readyz"]:
            ready, detail = await _call(self.backend.admin_ready())
            return json_response(detail, status=200 if ready else 503)
        if parts == ["leases"]:
            return await self._get_leases(request)
        if len(parts) == 2 and parts[0] == "trace":
            tree = await _call(self.backend.admin_trace(parts[1]))
            if tree is None:
                raise HttpError(404, f"no spans for trace {parts[1]!r}")
            return json_response({"trace": parts[1], "roots": tree})
        raise HttpError(404, f"no such resource: GET {request.path}")

    async def _get_leases(self, request) -> HttpResponse:
        tenant = request.query.get("tenant")
        resource = _int_param(request.query, "resource", None)
        offset = _int_param(request.query, "offset", 0)
        limit = _int_param(request.query, "limit", DEFAULT_PAGE_LIMIT)
        limit = min(limit, MAX_PAGE_LIMIT)
        book = await _call(
            self.backend.admin_leases(tenant=tenant, resource=resource)
        )
        page = book[offset : offset + limit]
        return json_response(
            {
                "leases": page,
                "total": len(book),
                "offset": offset,
                "limit": limit,
            }
        )

    async def _route_post(self, request, parts) -> HttpResponse:
        if len(parts) == 3 and parts[0] == "leases" \
                and parts[2] == "force-release":
            result = await _call(self.backend.admin_force_release(parts[1]))
            if result is None:
                raise HttpError(404, f"no live lease {parts[1]!r}")
            return json_response(result)
        if len(parts) == 3 and parts[0] == "workers" \
                and parts[2] in ("drain", "undrain"):
            try:
                worker = int(parts[1])
            except ValueError:
                raise HttpError(
                    400, f"worker must be an integer, got {parts[1]!r}"
                ) from None
            method = (
                self.backend.admin_drain
                if parts[2] == "drain"
                else self.backend.admin_undrain
            )
            state = await _call(method(worker))
            if state is None:
                raise HttpError(404, f"no such worker {worker}")
            return json_response({"worker": worker, "state": state})
        raise HttpError(404, f"no such resource: POST {request.path}")
