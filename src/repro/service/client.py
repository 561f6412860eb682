"""A small stdlib HTTP client for the campaign service.

Used by the CI smoke test and handy from scripts/notebooks::

    client = ServiceClient("127.0.0.1", 8765)
    job = client.submit({"schemes": ["unsync"], "workloads": ["matmul"],
                         "sers": [1e-4], "trials": 20})
    client.wait(job["job_id"])
    print(client.results(job["job_id"])["summary"])

Every method raises :class:`ServiceError` on a non-2xx response, with
the server's ``error`` message attached, so callers never parse failure
bodies themselves.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, List, Optional

#: job states the service reports as final
FINAL_STATES = frozenset({"done", "failed", "cancelled", "suspended"})


class ServiceError(RuntimeError):
    """Non-2xx response from the campaign service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


def request_json(host: str, port: int, timeout: float, method: str,
                 path: str, body: Optional[Dict] = None) -> Dict:
    """One JSON request on a fresh connection to ``host:port``.

    Returns the decoded response body; raises :class:`ServiceError` on a
    non-2xx status and lets socket errors (``OSError``) propagate.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        payload = (json.dumps(body, sort_keys=True).encode()
                   if body is not None else None)
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        raw = response.read()
        try:
            data = json.loads(raw.decode() or "{}")
        except json.JSONDecodeError:
            data = {"error": raw.decode(errors="replace")[:200]}
        if response.status >= 300:
            raise ServiceError(
                response.status,
                str(data.get("error", "unexpected response")))
        return data
    finally:
        conn.close()


class ServiceClient:
    """Talks JSON to one ``repro serve`` instance."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: Optional[Dict] = None) -> Dict:
        return request_json(self.host, self.port, self.timeout, method,
                            path, body)

    # -- API ----------------------------------------------------------------
    def healthz(self) -> Dict:
        return self._request("GET", "/healthz")

    def submit(self, submission: Dict) -> Dict:
        """Submit a grid; returns the new job's status dict."""
        return self._request("POST", "/api/jobs", submission)

    def jobs(self) -> List[Dict]:
        return list(self._request("GET", "/api/jobs")["jobs"])

    def status(self, job_id: str) -> Dict:
        return self._request("GET", f"/api/jobs/{job_id}")

    def cancel(self, job_id: str) -> Dict:
        return self._request("POST", f"/api/jobs/{job_id}/cancel")

    def results(self, job_id: str) -> Dict:
        return self._request("GET", f"/api/jobs/{job_id}/results")

    def metrics(self) -> Dict:
        return self._request("GET", "/api/metrics")

    def wait(self, job_id: str, *, timeout: float = 300.0,
             poll_interval: float = 0.2) -> Dict:
        """Poll until the job reaches a final state; returns its status."""
        deadline = time.monotonic() + timeout
        while True:
            status = self.status(job_id)
            if status["state"] in FINAL_STATES:
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    408, f"job {job_id} still {status['state']!r} "
                    f"after {timeout:.0f}s")
            time.sleep(poll_interval)
