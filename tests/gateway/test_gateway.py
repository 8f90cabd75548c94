"""Gateway integration: replay parity, zero-drop, rolling swaps, HTTP."""

import asyncio

import pytest

from repro.gateway import (
    GatewayConfig,
    GatewayHTTPServer,
    build_gateway,
    http_request,
    run_fleet,
)
from repro.serve import ChaosPlan, serve_replay
from repro.utils.errors import ValidationError
from tests.golden.serving import serving_digest

CHAOS = ChaosPlan(intensity=0.25, seed=7)


def drive(
    trace,
    splits,
    root,
    *,
    shards=1,
    clients=1,
    chaos=None,
    publish_v2_after=None,
):
    """Build a gateway, replay the fleet through it, close it."""

    async def go():
        gateway = build_gateway(
            trace,
            root,
            splits=splits,
            config=GatewayConfig(shards=shards, batch_size=64),
            fast=True,
            chaos=chaos,
        )
        await gateway.start()
        if publish_v2_after is None:
            report = await run_fleet(gateway, trace, clients=clients)
        else:
            # Manual fleet: republish the same weights as v2 mid-stream
            # to exercise the rolling hot-swap without changing scores.
            from repro.serve.events import iter_trace_events

            watcher = gateway.watcher
            predictor, _ = watcher.registry.load_model(
                watcher.name,
                watcher.current_version,
                expect_feature_names=watcher.expect_feature_names,
            )
            report = None
            for index, event in enumerate(iter_trace_events(trace)):
                if index == publish_v2_after:
                    watcher.registry.save_model(
                        predictor, name=watcher.name, metadata={"same": True}
                    )
                await gateway.ingest(event)
        await gateway.close()
        return gateway, report

    return asyncio.run(go())


def alert_scores(alerts):
    """(run_idx, node_id) -> (score, predicted) for every scored alert."""
    return {
        (int(a.run_idx), int(a.node_id)): (float(a.score), int(a.predicted))
        for a in alerts
    }


@pytest.fixture(scope="module")
def splits(tiny_context):
    return tiny_context.preset_splits()


@pytest.fixture(scope="module")
def parity_runs(tiny_trace, splits, tmp_path_factory):
    """Single-shard single-client gateway + the replay oracle."""
    gateway, fleet = drive(
        tiny_trace, splits, tmp_path_factory.mktemp("gw-parity")
    )
    report = serve_replay(
        tiny_trace,
        tmp_path_factory.mktemp("replay"),
        splits=splits,
        batch_size=64,
        fast=True,
    )
    return gateway, fleet, report


@pytest.fixture(scope="module")
def chaos_runs(tiny_trace, splits, tmp_path_factory):
    """The same 2-shard 3-client chaos fleet, run twice."""
    return [
        drive(
            tiny_trace,
            splits,
            tmp_path_factory.mktemp(f"gw-chaos-{i}"),
            shards=2,
            clients=3,
            chaos=CHAOS,
        )[0]
        for i in range(2)
    ]


class TestReplayParity:
    def test_scored_alert_digest_bit_identical_to_replay(self, parity_runs):
        gateway, _, report = parity_runs
        assert gateway.scored_alert_digest() == report.scored_alert_digest()
        assert gateway.scored_alert_digest() == serving_digest("scored_alerts")

    @pytest.mark.parametrize("clients", [2, 3, 4])
    def test_one_shard_parity_holds_at_any_client_count(
        self, tiny_trace, splits, tmp_path, clients
    ):
        # Clients only change the ingest interleaving; one shard sees the
        # trace's time order either way, so every alert is unchanged.
        gateway, _ = drive(tiny_trace, splits, tmp_path, clients=clients)
        assert gateway.scored_alert_digest() == serving_digest("scored_alerts")

    @pytest.mark.parametrize("clients", [1, 3])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_every_alert_scores_as_in_replay(
        self, tiny_trace, splits, parity_runs, tmp_path, shards, clients
    ):
        # Whole runs go to one shard and every shard sees every SBE and
        # label event, so each row's features, score and prediction are
        # the replay's; only scored_minute follows per-shard flushes.
        # One shard is covered by the full-digest pins above.
        gateway, _ = drive(
            tiny_trace, splits, tmp_path, shards=shards, clients=clients
        )
        expected = alert_scores(parity_runs[2].alerts)
        assert len(expected) == len(parity_runs[2].alerts)
        assert len(gateway.scored_alerts) == len(expected)
        assert alert_scores(gateway.scored_alerts) == expected

    def test_gateway_saw_the_exact_replay_event_count(self, parity_runs):
        gateway, fleet, report = parity_runs
        assert gateway.stats.events_in == report.num_events
        assert fleet.events_sent == report.num_events
        assert gateway.workers[0].num_events == report.num_events

    def test_alert_volume_matches_replay(self, parity_runs):
        gateway, _, report = parity_runs
        assert len(gateway.scored_alerts) == len(report.alerts)

    def test_zero_drop_and_latency_populated(self, parity_runs):
        gateway, _, _ = parity_runs
        assert gateway.stats.zero_drop
        assert gateway.stats.events_rejected == 0
        latency = gateway.latency_percentiles()
        assert 0.0 < latency["p50"] <= latency["p99"]

    def test_trends_capped_and_scored(self, parity_runs):
        gateway, _, _ = parity_runs
        assert gateway.trends  # at least one node scored
        node_id = next(iter(gateway.trends))
        trend = gateway.node_trend(node_id)
        assert 0 < len(trend) <= gateway.config.trend_length
        assert {"end_minute", "score", "predicted", "model_version"} <= set(
            trend[0]
        )


class TestChaosFleet:
    def test_zero_drop_accounting_under_chaos(self, chaos_runs):
        gateway = chaos_runs[0]
        stats = gateway.stats
        assert stats.zero_drop
        assert stats.events_in == 1395  # tiny trace stream length
        assert stats.events_scored + stats.events_dead_lettered == stats.events_in
        # Broadcast replicas mean more deliveries than ingests.
        assert stats.deliveries > stats.events_in

    def test_no_rows_left_unresolved(self, chaos_runs):
        gateway = chaos_runs[0]
        assert all(
            w.scorer.resilience.unresolved_rows == 0 for w in gateway.workers
        )
        assert any(
            w.scorer.resilience.injected_events > 0 for w in gateway.workers
        )

    def test_chaos_fleet_is_deterministic(self, chaos_runs):
        first, second = chaos_runs
        assert first.scored_alert_digest() == second.scored_alert_digest()
        assert first.alarm_engine.digest() == second.alarm_engine.digest()
        assert first.stats.to_dict() == second.stats.to_dict()

    def test_alarms_fold_the_positive_stream(self, chaos_runs):
        engine = chaos_runs[0].alarm_engine
        assert engine.positives_seen > len(engine.alarms)
        assert engine.deduplicated > 0


class TestRollingSwap:
    def test_same_weights_v2_rolls_across_all_shards(
        self, tiny_trace, splits, parity_runs, tmp_path_factory
    ):
        gateway, _ = drive(
            tiny_trace,
            splits,
            tmp_path_factory.mktemp("gw-swap"),
            shards=2,
            publish_v2_after=300,
        )
        watcher = gateway.watcher
        assert watcher.swaps_completed == 1
        assert watcher.current_version == 2
        assert all(w.scorer.model_version == 2 for w in gateway.workers)
        # No events dropped during the roll, and — same weights — every
        # alert scores as before (the full digest, scored_minute included,
        # is a one-shard property: see the test below).
        assert gateway.stats.zero_drop
        assert len(gateway.scored_alerts) == len(parity_runs[0].scored_alerts)
        assert alert_scores(gateway.scored_alerts) == alert_scores(
            parity_runs[0].scored_alerts
        )

    def test_swap_preserves_single_shard_digest(
        self, tiny_trace, splits, parity_runs, tmp_path_factory
    ):
        gateway, _ = drive(
            tiny_trace,
            splits,
            tmp_path_factory.mktemp("gw-swap-1"),
            shards=1,
            publish_v2_after=300,
        )
        assert gateway.watcher.swaps_completed == 1
        # Alert digests exclude the model version, and v2 has identical
        # weights, so the swap must be invisible to the scored output.
        assert (
            gateway.scored_alert_digest()
            == parity_runs[0].scored_alert_digest()
        )


class TestHTTP:
    @pytest.fixture(scope="class")
    def http_session(self, tiny_trace, splits, tmp_path_factory):
        """Fleet over HTTP, plus scripted endpoint probes, one event loop."""

        async def go():
            gateway = build_gateway(
                tiny_trace,
                str(tmp_path_factory.mktemp("gw-http")),
                splits=splits,
                config=GatewayConfig(shards=2, batch_size=64),
                fast=True,
            )
            await gateway.start()
            server = GatewayHTTPServer(gateway)
            await server.start()
            fleet = await run_fleet(
                gateway, tiny_trace, clients=3, server=server
            )
            await gateway.drain()
            probes = {}
            probes["stats"] = await http_request(
                server.host, server.port, "GET", "/stats"
            )
            node_id = next(iter(gateway.trends))
            probes["trend"] = await http_request(
                server.host, server.port, "GET", f"/nodes/{node_id}/trend"
            )
            probes["alarms"] = await http_request(
                server.host, server.port, "GET", "/alarms?active=1"
            )
            first_alarm = gateway.alarm_engine.alarms[0].alarm_id
            probes["ack"] = await http_request(
                server.host, server.port, "POST", f"/alarms/{first_alarm}/ack"
            )
            probes["ack_again"] = await http_request(
                server.host, server.port, "POST", f"/alarms/{first_alarm}/ack"
            )
            probes["malformed"] = await http_request(
                server.host, server.port, "POST", "/events",
                {"type": "sbe_observed", "minute": "soon"},
            )
            probes["lost"] = await http_request(
                server.host, server.port, "GET", "/no/such/route"
            )
            await gateway.close()
            await server.close()
            return gateway, fleet, probes

        return asyncio.run(go())

    def test_fleet_posts_every_event_over_http(self, http_session):
        gateway, fleet, _ = http_session
        assert fleet.via_http
        assert fleet.events_sent == 1395
        assert sum(fleet.per_client.values()) == fleet.events_sent
        assert len([c for c in fleet.per_client.values() if c > 0]) == 3

    def test_stats_endpoint_reports_zero_drop(self, http_session):
        _, _, probes = http_session
        status, body = probes["stats"]
        assert status == 200
        assert body["stats"]["zero_drop"] is True
        assert body["shards"] == 2

    def test_trend_endpoint_serves_scored_points(self, http_session):
        _, _, probes = http_session
        status, body = probes["trend"]
        assert status == 200
        assert body["trend"] and "score" in body["trend"][0]

    def test_alarm_ack_flow_over_http(self, http_session):
        _, _, probes = http_session
        status, body = probes["alarms"]
        assert status == 200 and body["alarms"]
        status, body = probes["ack"]
        assert status == 200 and body["acknowledged"] is True
        status, body = probes["ack_again"]
        assert status == 409

    def test_malformed_event_rejected_and_counted(self, http_session):
        gateway, _, probes = http_session
        status, body = probes["malformed"]
        assert status == 400
        assert body["rejected"] == 1
        assert gateway.stats.events_rejected == 1
        assert gateway.stats.zero_drop  # rejection is accounted, not lost

    def test_unknown_route_is_404(self, http_session):
        _, _, probes = http_session
        status, _ = probes["lost"]
        assert status == 404


class TestLifecycle:
    def test_ingest_before_start_rejected_and_counted(
        self, tiny_trace, splits, tmp_path_factory
    ):
        async def go():
            gateway = build_gateway(
                tiny_trace,
                str(tmp_path_factory.mktemp("gw-life")),
                splits=splits,
                fast=True,
            )
            from repro.serve.events import iter_trace_events

            event = next(iter_trace_events(tiny_trace))
            with pytest.raises(ValidationError):
                await gateway.ingest(event)
            assert gateway.stats.events_rejected == 1
            assert gateway.stats.zero_drop

        asyncio.run(go())

    def test_malformed_run_events_are_dead_lettered(
        self, tiny_trace, splits, tmp_path_factory
    ):
        """Run events whose per-row arrays disagree are refused whole,
        never truncated, by the one shard that owns the run, so no shard
        keeps the run pending.  The ledger counts one dead letter per
        event and still balances."""
        import dataclasses

        from repro.serve.events import RunCompleted, RunStarted, iter_trace_events

        async def go():
            gateway = build_gateway(
                tiny_trace,
                str(tmp_path_factory.mktemp("gw-malformed")),
                splits=splits,
                config=GatewayConfig(shards=2, batch_size=64),
                fast=True,
            )
            events = list(iter_trace_events(tiny_trace))
            start = next(
                e
                for e in events
                if isinstance(e, RunStarted) and len(e.node_ids) > 1
            )
            stream = []
            for event in events:
                if isinstance(event, RunCompleted) and event.run_idx == start.run_idx:
                    event = dataclasses.replace(
                        event, rows=dict(event.rows, gpu_util=event.rows["gpu_util"][:-1])
                    )
                stream.append(event)
                if event is start:
                    stream.append(
                        dataclasses.replace(start, run_idx=-1, app_ids=start.app_ids[:-1])
                    )
            await gateway.start()
            for event in stream:
                await gateway.ingest(event)
            await asyncio.wait_for(gateway.close(), timeout=120)
            return gateway, len(stream)

        gateway, sent = asyncio.run(go())
        assert gateway.stats.events_in == sent
        assert gateway.stats.events_dead_lettered == 2
        assert gateway.stats.zero_drop
        # The bad start and the bad completion, each at its run's shard.
        assert sum(w.events_quarantined for w in gateway.workers) == 2
        assert all(w.engine._pending == {} for w in gateway.workers)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            GatewayConfig(shards=0)
        with pytest.raises(ValidationError):
            GatewayConfig(max_queue_depth=0)
