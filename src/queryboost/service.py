"""The one retry policy of the outside HTTP services: the chat service that
writes pseudo-references and the remote embedding service.

A request is made up to ``ATTEMPTS`` times in all. A transport error (a body
cut short among them), a 5xx or a 429 is tried again after ``BACKOFF_S``, then
after twice and four times that; any other 4xx fails at once.
"""

import time

import requests

ATTEMPTS = 4
BACKOFF_S = 0.5


class ServiceError(ValueError):
    """An outside service failed, or answered without a usable body."""

    def __init__(self, service: str, endpoint: str, problem: str):
        super().__init__(f"{service} {endpoint}: {problem}")


def post_json(session: requests.Session, service: str, endpoint: str, payload,
              timeout: float, headers: dict[str, str] | None = None) -> requests.Response:
    """The first response below 400 to POSTing payload as JSON, retried as the module says.

    A rejection or giving up raises ServiceError naming the service, the
    endpoint and the last error.
    """
    last_error = None
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            resp = session.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except requests.RequestException as exc:
            last_error = exc
            continue
        if resp.status_code < 400:
            return resp
        last_error = f"HTTP {resp.status_code}: {resp.text[:200]}"
        if resp.status_code < 500 and resp.status_code != 429:
            raise ServiceError(service, endpoint, f"rejected with {last_error}")
    raise ServiceError(service, endpoint, f"failed after {ATTEMPTS} attempts: {last_error}")
