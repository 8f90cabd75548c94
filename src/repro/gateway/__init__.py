"""Fleet serving gateway: async multi-tenant scoring for the whole machine.

Layers (bottom up):

* :mod:`repro.gateway.clock` — counted virtual clock (tests never sleep)
* :mod:`repro.gateway.alarms` — dedup / ack / escalation alarm engine
* :mod:`repro.gateway.codec` — JSON wire codec for telemetry events
* :mod:`repro.gateway.watcher` — registry watcher, rolling hot-swaps
* :mod:`repro.gateway.core` — the gateway itself: whole runs to shard
  ``run_idx % N``, SBE/label events to every shard; zero-drop accounting
* :mod:`repro.gateway.http` — stdlib-asyncio HTTP front end
* :mod:`repro.gateway.fleet` — synthetic multi-tenant replay clients

Every shard runs the same :class:`~repro.serve.worker.ScorerWorker` loop
as ``serve_replay``, so every alert's score and prediction equal the
replay's at any shard and client count; with one shard the scored-alert
digest is bit-identical to the replay's (the parity gate in
``tools/check_determinism.py`` enforces it).
"""

from repro.gateway.alarms import Alarm, AlarmConfig, AlarmEngine
from repro.gateway.clock import VirtualClock
from repro.gateway.codec import event_from_dict, event_to_dict
from repro.gateway.core import Gateway, GatewayConfig, GatewayStats, build_gateway
from repro.gateway.fleet import FleetReport, SyntheticClient, build_fleet, run_fleet
from repro.gateway.http import GatewayHTTPServer, http_request
from repro.gateway.watcher import RegistryWatcher

__all__ = [
    "Alarm",
    "AlarmConfig",
    "AlarmEngine",
    "VirtualClock",
    "event_from_dict",
    "event_to_dict",
    "Gateway",
    "GatewayConfig",
    "GatewayStats",
    "build_gateway",
    "FleetReport",
    "SyntheticClient",
    "build_fleet",
    "run_fleet",
    "GatewayHTTPServer",
    "http_request",
    "RegistryWatcher",
]
