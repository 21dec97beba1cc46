"""The simulated Internet fabric: who is reachable at which address.

:class:`Internet` is the routing core every other component plugs into.  It
maps destination IPs to HTTP servers, ``(IP, port)`` pairs to TLS endpoints,
and resolver service addresses to :class:`~repro.dnssim.resolver.RecursiveResolver`
instances, and it owns the shared clock/event scheduler that content monitors
schedule their delayed re-fetches on.

It deliberately knows nothing about violations: middleboxes and host software
live on the *path* (see :mod:`repro.hosts`), not in the fabric.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.clock import EventScheduler, SimClock
from repro.net.ip import ip_to_str
from repro.dnssim.authoritative import DnsRoot
from repro.dnssim.resolver import RecursiveResolver
from repro.obs.recorder import NULL_RECORDER, MetricsRecorder, NullRecorder, TraceRecorder
from repro.tlssim.certs import CertificateChain
from repro.tlssim.handshake import TlsEndpoint
from repro.web.http import HttpRequest, HttpResponse
from repro.web.server import HttpHandler


class UnreachableError(ConnectionError):
    """Raised when no one is listening at the destination address/port."""


class Internet:
    """Registry and router for the simulated network."""

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.scheduler = EventScheduler(self.clock)
        #: The observability recorder every component on this fabric shares.
        #: Defaults to the no-op recorder; the engine installs a
        #: :class:`~repro.obs.recorder.MetricsRecorder` at the ``metrics``
        #: level and a :class:`~repro.obs.recorder.TraceRecorder` at ``trace``.
        #: Instrumented hot paths guard with ``if obs.enabled:``.
        self.obs: NullRecorder | MetricsRecorder | TraceRecorder = NULL_RECORDER
        self.dns_root = DnsRoot()
        self._web_servers: dict[int, HttpHandler] = {}
        self._tls_endpoints: dict[tuple[int, int], TlsEndpoint] = {}
        self._resolvers: dict[int, RecursiveResolver] = {}
        self._smtp_servers: dict[int, object] = {}

    # -- registration -----------------------------------------------------

    def register_web_server(self, ip: int, handler: HttpHandler) -> None:
        """Attach an HTTP handler at an address (one handler per address)."""
        if ip in self._web_servers:
            raise ValueError(f"web server already registered at {ip_to_str(ip)}")
        self._web_servers[ip] = handler

    def register_tls_endpoint(self, ip: int, port: int, endpoint: TlsEndpoint) -> None:
        """Attach a TLS endpoint at ``(ip, port)``."""
        key = (ip, port)
        if key in self._tls_endpoints:
            raise ValueError(f"TLS endpoint already registered at {ip_to_str(ip)}:{port}")
        self._tls_endpoints[key] = endpoint

    def register_resolver(self, resolver: RecursiveResolver) -> None:
        """Make a recursive resolver reachable at its service address."""
        existing = self._resolvers.get(resolver.service_ip)
        if existing is not None and existing is not resolver:
            raise ValueError(
                f"resolver already registered at {ip_to_str(resolver.service_ip)}"
            )
        self._resolvers[resolver.service_ip] = resolver

    def register_smtp_server(self, ip: int, server) -> None:
        """Attach an SMTP server (port 25) at an address (§3.4 extension)."""
        if ip in self._smtp_servers:
            raise ValueError(f"SMTP server already registered at {ip_to_str(ip)}")
        self._smtp_servers[ip] = server

    def smtp_server_at(self, ip: int):
        """The SMTP server at an address; raises when nothing listens."""
        server = self._smtp_servers.get(ip)
        if server is None:
            raise UnreachableError(f"no SMTP server at {ip_to_str(ip)}")
        return server

    # -- data plane ---------------------------------------------------------

    def http_fetch(self, dest_ip: int, request: HttpRequest) -> HttpResponse:
        """Deliver an HTTP request to the server at ``dest_ip``."""
        handler = self._web_servers.get(dest_ip)
        if handler is None:
            raise UnreachableError(f"no HTTP server at {ip_to_str(dest_ip)}")
        return handler.handle_http(request)

    def has_web_server(self, dest_ip: int) -> bool:
        """Whether anything serves HTTP at the address."""
        return dest_ip in self._web_servers

    def tls_chain(self, dest_ip: int, port: int, server_name: str) -> CertificateChain:
        """Run the server side of a handshake: the chain presented at the endpoint."""
        endpoint = self._tls_endpoints.get((dest_ip, port))
        if endpoint is None:
            raise UnreachableError(f"no TLS endpoint at {ip_to_str(dest_ip)}:{port}")
        return endpoint.certificate_chain(server_name)

    def resolver_at(self, service_ip: int) -> Optional[RecursiveResolver]:
        """The resolver reachable at a service address, if any."""
        return self._resolvers.get(service_ip)

    # -- time ---------------------------------------------------------------

    def schedule_at(self, when: float, callback: Callable[[], object]) -> None:
        """Schedule a deferred action (monitor re-fetches) at an absolute time."""
        self.scheduler.schedule_at(when, callback)

    def advance(self, seconds: float) -> int:
        """Advance simulated time, firing due events.  Returns events fired."""
        return self.scheduler.run_for(seconds)
