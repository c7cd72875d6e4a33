"""Transport adapters + per-host frequency limiting.

One ``TransportAdapter`` protocol (reference: utils.py:218-316) with two
implementations:

* :class:`RequestsAdapter` — real HTTP via ``requests`` (import-gated;
  the build sandbox has the lib but no network),
* :class:`SyntheticWebAdapter` — deterministic in-process page server
  keyed by URL (the default for tests/benchmarks; see
  uniparser_ray.sources.synthweb).

``Frequency`` is a from-scratch token-interval limiter with the
observable behavior of the reference's per-host gate: at most ``n``
acquisitions per ``interval`` seconds (reference behavior pinned by
test_parsers.py:1326-1383).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Optional, Tuple

from ..config import EngineConfig

try:
    import requests as _requests
except ImportError:  # pragma: no cover
    _requests = None


class Frequency:
    """At most n acquisitions per interval seconds (thread-safe)."""

    __slots__ = ("n", "interval", "_lock", "_times")

    def __init__(self, n: int = 0, interval: float = 0):
        self.n = n
        self.interval = interval
        self._lock = threading.Lock()
        self._times: deque = deque()

    def __enter__(self):
        if not self.n or not self.interval:
            return self
        while True:
            with self._lock:
                now = time.monotonic()
                while self._times and now - self._times[0] >= self.interval:
                    self._times.popleft()
                if len(self._times) < self.n:
                    self._times.append(now)
                    return self
                wait = self._times[0] + self.interval - now
            time.sleep(max(wait, 0.001))

    def __exit__(self, *_):
        pass


class NullFrequency:
    def __enter__(self):
        return self

    def __exit__(self, *_):
        pass


class NullAsyncFrequency:
    async def __aenter__(self):
        return self

    async def __aexit__(self, *_):
        pass


class TransportAdapter:
    """Protocol: ``request(**request_args) -> (text, response)``;
    errors are returned as ``(str(err), err)`` — error-as-value, like
    every other stage (reference: utils.py:235-247)."""

    def __enter__(self):
        return self

    def __exit__(self, *_):
        pass

    def request(self, **request_args) -> Tuple[str, object]:
        raise NotImplementedError

    def close(self):
        pass


class RequestsAdapter(TransportAdapter):
    def __init__(self, session=None):
        if _requests is None:
            raise RuntimeError("requests is not installed")
        self.session = session or _requests.Session()

    def request(self, **request_args):
        request_args.setdefault("timeout", EngineConfig.GLOBAL_TIMEOUT)
        encoding = request_args.pop("encoding", None)
        retry = request_args.pop("retry", 0)
        error = None
        for _ in range(retry + 1):
            try:
                resp = self.session.request(**request_args)
                if encoding:
                    resp.encoding = encoding
                return resp.text, resp
            except Exception as err:
                error = err
        return str(error), error

    def close(self):
        self.session.close()


class SyntheticResponse:
    """Response-shaped object for the synthetic web."""

    __slots__ = ("url", "status_code", "headers", "content", "encoding")

    def __init__(self, url: str, status_code: int, content: bytes,
                 headers: Optional[dict] = None):
        self.url = url
        self.status_code = status_code
        self.content = content
        self.headers = headers or {}
        self.encoding = "utf-8"

    @property
    def text(self) -> str:
        return self.content.decode(self.encoding, "replace")

    def __repr__(self):
        return f"<SyntheticResponse [{self.status_code}] {self.url}>"


class SyntheticWebAdapter(TransportAdapter):
    """Deterministic in-process web: pages come from a ``SynthWeb``
    (or any object with ``get(url) -> (status, headers, body_bytes)``)."""

    def __init__(self, web):
        import inspect
        self.web = web
        try:
            params = inspect.signature(web.get).parameters
            self._takes_attempt = "attempt" in params
            self._takes_headers = "headers" in params
        except (TypeError, ValueError):
            self._takes_attempt = False
            self._takes_headers = False

    def request(self, **request_args):
        resp = self.fetch(**request_args)
        if isinstance(resp, Exception):
            return str(resp), resp
        return resp.text, resp

    def fetch(self, **request_args):
        """The response alone, or the last error as a value: what
        ``request`` returns without decoding the body to text (binary
        bodies such as images never need it)."""
        url = request_args["url"]
        retry = request_args.pop("retry", 0)
        # crawl-loop requeue attempt number (frontier retries column);
        # forwarded only to webs that model per-attempt behavior
        attempt = request_args.pop("attempt", 0)
        # request headers (e.g. If-None-Match conditional GETs) reach
        # webs that model them; others ignore headers entirely
        req_headers = request_args.pop("headers", None)
        error = None
        for _ in range(retry + 1):
            try:
                kwargs = {}
                if self._takes_attempt:
                    kwargs["attempt"] = attempt
                if self._takes_headers and req_headers is not None:
                    kwargs["headers"] = req_headers
                status, headers, body = self.web.get(url, **kwargs)
                return SyntheticResponse(url, status, body, headers)
            except Exception as err:
                error = err
        return error


# -- native async transport (reference: utils.py:258-516) ---------------


class AsyncFrequency:
    """Async twin of :class:`Frequency` — same token-interval window,
    awaits with ``asyncio.sleep`` so the event loop never blocks."""

    __slots__ = ("n", "interval", "_lock", "_times")

    def __init__(self, n: int = 0, interval: float = 0):
        self.n = n
        self.interval = interval
        self._lock = None  # asyncio.Lock bound lazily to the running loop
        self._times: deque = deque()

    async def __aenter__(self):
        if not self.n or not self.interval:
            return self
        import asyncio
        if self._lock is None:
            self._lock = asyncio.Lock()
        while True:
            async with self._lock:
                now = time.monotonic()
                while self._times and now - self._times[0] >= self.interval:
                    self._times.popleft()
                if len(self._times) < self.n:
                    self._times.append(now)
                    return self
                wait = self._times[0] + self.interval - now
            await asyncio.sleep(max(wait, 0.001))

    async def __aexit__(self, *_):
        pass


class AsyncTransportAdapter:
    """Protocol: ``await request(**request_args) -> (text, response)``
    inside ``async with`` — the reference's AsyncRequestAdapter shape
    (utils.py:258-316) with the same retry/timeout/encoding handling
    and error-as-value contract."""

    session = None
    error: tuple = (Exception,)

    async def __aenter__(self):
        return self

    async def __aexit__(self, *_):
        pass

    async def _raw_request(self, **request_args):
        """One attempt -> response object (subclass hook)."""
        raise NotImplementedError

    def _response_text(self, resp, encoding) -> str:
        if encoding:
            return resp.content.decode(encoding)
        return resp.text

    async def request(self, **request_args):
        text, resp = "", None
        retry = request_args.pop("retry", 0)
        encoding = request_args.pop("encoding", None)
        request_args.setdefault("timeout", EngineConfig.GLOBAL_TIMEOUT)
        for _ in range(retry + 1):
            try:
                resp = await self._raw_request(**request_args)
                text = self._response_text(resp, encoding)
                break
            except self.error as e:
                text = str(e)
                resp = e
                continue
        return text, resp

    async def close(self):
        pass


def fix_aiohttp_request_args(request_args: dict, client_timeout_cls,
                             basic_auth_cls) -> dict:
    """requests-style args -> aiohttp-style (reference:
    utils.py:266-290): numeric/tuple timeouts become ClientTimeout,
    ``verify``->``ssl``, requests-style ``proxies`` dict -> ``proxy``
    url, (user, pass) tuples -> BasicAuth.  The constructors are
    parameters so the mapping is testable without aiohttp installed."""
    if "timeout" in request_args:
        timeout = request_args["timeout"]
        if isinstance(timeout, (int, float)):
            request_args["timeout"] = client_timeout_cls(
                sock_connect=timeout, sock_read=timeout)
        elif isinstance(timeout, (tuple, list)):
            request_args["timeout"] = client_timeout_cls(
                sock_connect=timeout[0], sock_read=timeout[1])
        elif timeout is None or isinstance(timeout, client_timeout_cls):
            pass
        else:
            raise ValueError("Bad timeout type")
    if "verify" in request_args:
        request_args["ssl"] = request_args.pop("verify")
    if "proxies" in request_args:
        request_args["proxy"] = "http://%s" % request_args.pop(
            "proxies")["http"]
    if "auth" in request_args and isinstance(request_args["auth"],
                                             (list, tuple)):
        request_args["auth"] = basic_auth_cls(*request_args["auth"])
    return request_args


class AiohttpAdapter(AsyncTransportAdapter):
    """Native aiohttp transport (import-gated: the build sandbox has
    no aiohttp — construction raises, everything else is real)."""

    def __init__(self, session=None, **kwargs):
        try:
            import aiohttp
        except ImportError as e:  # pragma: no cover
            raise RuntimeError("aiohttp is not installed") from e
        self._aiohttp = aiohttp
        self._session_kwargs = kwargs
        self.session = session
        self.error = (aiohttp.ClientError, ValueError)

    async def __aenter__(self):
        if self.session is None:
            self.session = self._aiohttp.ClientSession(**self._session_kwargs)
        return self

    async def _raw_request(self, **request_args):
        request_args = fix_aiohttp_request_args(
            request_args, self._aiohttp.ClientTimeout,
            self._aiohttp.BasicAuth)
        async with self.session.request(**request_args) as r:
            content = await r.read()
            resp = SyntheticResponse(str(r.url), r.status, content,
                                     dict(r.headers))
            resp.encoding = r.charset or "utf-8"
            return resp

    async def close(self):
        if self.session is not None:
            await self.session.close()


class HttpxAdapter(AsyncTransportAdapter):
    """Native httpx transport (import-gated like AiohttpAdapter;
    httpx args are requests-shaped already, so no fixups)."""

    def __init__(self, client=None, **kwargs):
        try:
            import httpx
        except ImportError as e:  # pragma: no cover
            raise RuntimeError("httpx is not installed") from e
        self._httpx = httpx
        self._client_kwargs = kwargs
        self.session = client
        self.error = (httpx.HTTPError, ValueError)

    async def __aenter__(self):
        if self.session is None:
            self.session = self._httpx.AsyncClient(**self._client_kwargs)
        return self

    async def _raw_request(self, **request_args):
        return await self.session.request(**request_args)

    async def close(self):
        if self.session is not None:
            await self.session.aclose()


class SyntheticAsyncWebAdapter(AsyncTransportAdapter):
    """Native-async twin of :class:`SyntheticWebAdapter` — awaitable
    end-to-end, so ``adownload``/``acrawl`` exercise the real async
    transport path offline."""

    def __init__(self, web):
        self.web = web
        self.error = (Exception,)

    async def _raw_request(self, **request_args):
        url = request_args["url"]
        status, headers, body = self.web.get(url)
        return SyntheticResponse(url, status, body, headers)

    def _response_text(self, resp, encoding):
        if encoding:
            resp.encoding = encoding
        return resp.text
