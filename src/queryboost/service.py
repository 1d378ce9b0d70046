"""The one retry policy of the outside HTTP services: the chat service that
writes pseudo-references and the remote embedding service.

A request is made up to ``ATTEMPTS`` times in all. A transport error (a body
cut short among them), a 5xx or a 429 is tried again after ``BACKOFF_S``, then
after twice and four times that; any other 4xx fails at once. A 429 or 503
whose ``Retry-After`` header gives a delay in seconds waits at least that long,
and one that asks for more than ``RETRY_AFTER_MAX_S`` fails at once. An HTTP
date in ``Retry-After`` is not read: the backoff applies.
"""

import time

import requests

ATTEMPTS = 4
BACKOFF_S = 0.5
RETRY_AFTER_MAX_S = 30


class ServiceError(ValueError):
    """An outside service failed, or answered without a usable body."""

    def __init__(self, service: str, endpoint: str, problem: str):
        super().__init__(f"{service} {endpoint}: {problem}")


def _retry_after_s(resp: requests.Response) -> int:
    """The delay in whole seconds a 429 or 503 asks for, or 0 if it gives none."""
    value = resp.headers.get("Retry-After", "").strip()
    if resp.status_code in (429, 503) and value.isascii() and value.isdigit():
        return int(value)
    return 0


def post_json(session: requests.Session, service: str, endpoint: str, payload,
              timeout: float, headers: dict[str, str] | None = None) -> requests.Response:
    """The first response below 400 to POSTing payload as JSON, retried as the module says.

    A rejection or giving up raises ServiceError naming the service, the
    endpoint and the last error.
    """
    last_error = None
    for attempt in range(ATTEMPTS):
        wait_s = BACKOFF_S * 2 ** attempt  # before the next attempt, if there is one
        try:
            resp = session.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
        else:
            if resp.status_code < 400:
                return resp
            last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
            if resp.status_code < 500 and resp.status_code != 429:
                raise ServiceError(service, endpoint, f"rejected with {last_error}")
            retry_after_s = _retry_after_s(resp)
            if retry_after_s > RETRY_AFTER_MAX_S:
                raise ServiceError(service, endpoint,
                                   f"asked to retry after {retry_after_s} s, more than "
                                   f"the {RETRY_AFTER_MAX_S} s this client waits: {last_error}")
            wait_s = max(wait_s, retry_after_s)
        if attempt + 1 < ATTEMPTS:
            time.sleep(wait_s)
    raise ServiceError(service, endpoint, f"failed after {ATTEMPTS} attempts: {last_error}")
