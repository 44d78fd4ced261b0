"""repro.admin — the HTTP ops plane over the serving layers.

A stdlib-only asyncio HTTP/1.1 listener (:mod:`repro.admin.http`)
mounted beside the lease listener on both :class:`LeaseServer` and
:class:`ClusterRouter`, routing ops URLs onto a shared ``admin_*``
backend surface (:mod:`repro.admin.plane`): Prometheus scrape, liveness
and readiness, the paginated live lease book, per-trace span trees, and
two durable mutations — force-release and worker drain/undrain — that
are applied on the shards like any client op, so they are WAL'd,
replayable, and exactly-once under crash-retry.
"""

from .http import (
    HttpError,
    HttpRequest,
    HttpResponse,
    HttpServer,
    json_response,
    read_request,
    text_response,
)
from .plane import DEFAULT_PAGE_LIMIT, MAX_PAGE_LIMIT, AdminPlane

__all__ = [
    "AdminPlane",
    "DEFAULT_PAGE_LIMIT",
    "HttpError",
    "HttpRequest",
    "HttpResponse",
    "HttpServer",
    "MAX_PAGE_LIMIT",
    "json_response",
    "read_request",
    "text_response",
]
