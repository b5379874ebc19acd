"""A retrying client for the study service: ``repro submit``'s engine.

The daemon's overload answers are *structured* — 503 with a
``Retry-After`` header plus a JSON scheduler snapshot — and submissions
are *idempotent* — a job's identity is its spec's content address, so
resubmitting the same spec can only dedupe onto the same job. Those two
properties make a correct client small: retry 503s (and connection
errors, which is what a draining/restarting daemon looks like from
outside) with exponential backoff, honour the server's ``Retry-After``
hint when it is larger, and never worry about double-submitting.

:class:`ServiceClient` wraps the whole REST vocabulary; the ``repro
submit`` CLI subcommand is a thin shell over it.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Callable, Iterator

from repro.util import ReproError

#: Default retry schedule: attempts and backoff shape.
MAX_RETRIES = 8
BACKOFF_BASE = 0.25  #: first retry delay, seconds
BACKOFF_CAP = 30.0  #: ceiling on any single delay


class ServiceError(ReproError):
    """A request that failed for good (non-retryable, or retries spent).

    Attributes:
        status: HTTP status (0 for transport-level failures).
        body: decoded JSON error body when the server sent one.
    """

    def __init__(self, message: str, *, status: int = 0, body: Any = None) -> None:
        super().__init__(message)
        self.status = status
        self.body = body


class ServiceClient:
    """Talks to one study daemon with retry/backoff built in.

    Args:
        host, port: the daemon's endpoint.
        timeout: per-request socket timeout, seconds.
        max_retries: attempts for retryable failures (503, connection
            refused/reset) before :class:`ServiceError`.
        backoff_base: first retry delay; doubles per attempt up to
            ``backoff_cap``. The server's ``Retry-After`` wins when it
            asks for longer.
        sleep: injectable clock for tests (defaults to ``time.sleep``).
        log: optional ``print``-like callable for retry lines.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        max_retries: int = MAX_RETRIES,
        backoff_base: float = BACKOFF_BASE,
        backoff_cap: float = BACKOFF_CAP,
        sleep: Callable[[float], None] = time.sleep,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.max_retries = int(max_retries)
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.sleep = sleep
        self.log = log if log is not None else (lambda _msg: None)
        self.retries = 0  #: lifetime retry count (observability/tests)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _request(
        self, method: str, path: str, body: "dict[str, Any] | None" = None
    ) -> tuple[int, dict[str, str], bytes]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            payload = None
            headers = {}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=payload, headers=headers)
            response = conn.getresponse()
            data = response.read()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                data,
            )
        finally:
            conn.close()

    @staticmethod
    def _decode(data: bytes) -> Any:
        try:
            return json.loads(data) if data else {}
        except json.JSONDecodeError:
            return {}

    def _retry_delay(
        self, attempt: int, headers: dict[str, str], body: Any
    ) -> float:
        """Exponential backoff, floored by the server's Retry-After."""
        delay = min(self.backoff_cap, self.backoff_base * (2**attempt))
        hinted = 0.0
        raw = headers.get("retry-after", "")
        if raw:
            try:
                hinted = float(raw)
            except ValueError:
                hinted = 0.0
        if isinstance(body, dict):
            try:
                hinted = max(hinted, float(body.get("retry_after", 0.0)))
            except (TypeError, ValueError):
                pass
        return min(self.backoff_cap, max(delay, hinted))

    def _with_retries(
        self, method: str, path: str, body: "dict[str, Any] | None" = None
    ) -> Any:
        """One logical request; 503s and transport errors are retried."""
        last: str = "no attempt made"
        for attempt in range(self.max_retries + 1):
            try:
                status, headers, data = self._request(method, path, body)
            except (ConnectionError, OSError) as exc:
                # A draining or restarting daemon refuses/resets; the
                # submit is idempotent, so retrying is always safe.
                last = f"connection failed: {exc}"
                if attempt >= self.max_retries:
                    break
                delay = self._retry_delay(attempt, {}, None)
                self.retries += 1
                self.log(f"retry {attempt + 1}: {last}; sleeping {delay:.2f}s")
                self.sleep(delay)
                continue
            decoded = self._decode(data)
            if status == 503:
                last = (
                    decoded.get("error", "service unavailable")
                    if isinstance(decoded, dict)
                    else "service unavailable"
                )
                if attempt >= self.max_retries:
                    break
                delay = self._retry_delay(attempt, headers, decoded)
                self.retries += 1
                self.log(f"retry {attempt + 1}: {last}; sleeping {delay:.2f}s")
                self.sleep(delay)
                continue
            if status >= 400:
                message = (
                    decoded.get("error", f"HTTP {status}")
                    if isinstance(decoded, dict)
                    else f"HTTP {status}"
                )
                raise ServiceError(message, status=status, body=decoded)
            return decoded
        raise ServiceError(
            f"{method} {path} failed after {self.max_retries + 1} "
            f"attempt(s): {last}",
            status=503,
        )

    # ------------------------------------------------------------------
    # The REST vocabulary
    # ------------------------------------------------------------------
    def health(self) -> dict[str, Any]:
        return self._with_retries("GET", "/v1/health")

    def submit(self, spec: Any) -> dict[str, Any]:
        """Submit a JobSpec (or its JSON form); retries through overload.

        Returns the acceptance body (``job_id``, ``status``,
        ``deduped``). Safe to call repeatedly — identity is the spec's
        content address, so at most one job ever exists for it.
        """
        body = spec.to_json() if hasattr(spec, "to_json") else dict(spec)
        return self._with_retries("POST", "/v1/jobs", body)

    def status(self, job_id: str) -> dict[str, Any]:
        return self._with_retries("GET", f"/v1/jobs/{job_id}")

    def cancel(self, job_id: str) -> dict[str, Any]:
        return self._with_retries("DELETE", f"/v1/jobs/{job_id}")

    def wait(
        self,
        job_id: str,
        *,
        timeout: float | None = None,
        poll: float = 0.2,
        on_progress: Callable[[dict[str, Any]], None] | None = None,
    ) -> dict[str, Any]:
        """Poll until the job is terminal; returns the final snapshot."""
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        while True:
            snapshot = self.status(job_id)
            if on_progress is not None:
                on_progress(snapshot)
            if snapshot.get("status") in ("done", "failed", "cancelled"):
                return snapshot
            if deadline is not None and time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id[:12]} not terminal after {timeout}s "
                    f"(status: {snapshot.get('status')})"
                )
            self.sleep(poll)

    def stream_rows(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield NDJSON rows as the daemon streams them (blocks on live
        jobs until terminal; connection close ends the stream)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/rows")
            response = conn.getresponse()
            if response.status != 200:
                decoded = self._decode(response.read())
                message = (
                    decoded.get("error", f"HTTP {response.status}")
                    if isinstance(decoded, dict)
                    else f"HTTP {response.status}"
                )
                raise ServiceError(
                    message, status=response.status, body=decoded
                )
            for raw in response:
                line = raw.strip()
                if line:
                    yield json.loads(line)
        finally:
            conn.close()

    def rows(self, job_id: str) -> list[dict[str, Any]]:
        """Every row for one job, fully drained."""
        return list(self.stream_rows(job_id))
