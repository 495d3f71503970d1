"""Unit tests for the fluent flow builder."""

import pytest

from repro import FlowBuilder, LayerKind
from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.pricing import PriceBook, ResourcePrice
from repro.control import RuleBasedController
from repro.core.errors import ConfigurationError
from repro.workload import ConstantRate


class TestBuilder:
    def test_requires_workload(self):
        with pytest.raises(ConfigurationError, match="workload"):
            FlowBuilder().build()

    def test_minimal_build(self):
        manager = FlowBuilder("f").workload(ConstantRate(100)).build()
        assert manager.flow.name == "f"
        assert manager.loops == {}

    def test_layer_capacities_propagate(self):
        manager = (
            FlowBuilder()
            .ingestion(shards=4)
            .analytics(vms=3)
            .storage(write_units=500)
            .workload(ConstantRate(100))
            .build()
        )
        assert manager.stream.shard_count(0) == 4
        assert manager.fleet.running_count(0) == 3
        assert manager.table.writes.capacity(0) == 500

    @pytest.mark.parametrize("field, value, place", [
        ("shards", 0, lambda b, v: b.ingestion(shards=v)),
        ("vms", 0, lambda b, v: b.analytics(vms=v)),
        ("write_units", -5, lambda b, v: b.storage(write_units=v)),
        ("read_units", -1, lambda b, v: b.reads(ConstantRate(10), read_units=v)),
    ])
    def test_bad_initial_capacity_names_its_field(self, field, value, place):
        builder = place(FlowBuilder().workload(ConstantRate(100)), value)
        with pytest.raises(ConfigurationError, match=rf"^{field} must be >= 1, got {value}$"):
            builder.build()

    def test_control_all_attaches_three_loops(self):
        manager = (
            FlowBuilder().workload(ConstantRate(100)).control_all(style="adaptive").build()
        )
        assert set(manager.loops) == set(LayerKind)

    def test_control_single_layer_with_style(self):
        manager = (
            FlowBuilder()
            .workload(ConstantRate(100))
            .control(LayerKind.STORAGE, style="rule", period=120)
            .build()
        )
        loop = manager.loops[LayerKind.STORAGE]
        assert isinstance(loop.controller, RuleBasedController)
        assert loop.period == 120

    def test_control_with_explicit_controller(self):
        from repro.control import RuleBasedConfig

        controller = RuleBasedController(
            RuleBasedConfig(upper_threshold=80, lower_threshold=20)
        )
        manager = (
            FlowBuilder()
            .workload(ConstantRate(100))
            .control(LayerKind.ANALYTICS, controller=controller)
            .build()
        )
        assert manager.loops[LayerKind.ANALYTICS].controller is controller

    def test_uncontrolled_removes_loop(self):
        manager = (
            FlowBuilder()
            .workload(ConstantRate(100))
            .control_all()
            .uncontrolled(LayerKind.INGESTION)
            .build()
        )
        assert LayerKind.INGESTION not in manager.loops
        assert LayerKind.ANALYTICS in manager.loops

    def test_service_configs_propagate(self):
        manager = (
            FlowBuilder()
            .storage(write_units=100, config=DynamoDBConfig(update_delay_seconds=99))
            .workload(ConstantRate(100))
            .build()
        )
        assert manager.table.config.update_delay_seconds == 99

    def test_pricing_override(self):
        book = PriceBook({
            "kinesis.shard": ResourcePrice("kinesis.shard", hourly=9.0),
            "ec2.m4.large": ResourcePrice("ec2.m4.large", hourly=9.0),
            "dynamodb.wcu": ResourcePrice("dynamodb.wcu", hourly=9.0),
            "dynamodb.rcu": ResourcePrice("dynamodb.rcu", hourly=9.0),
        })
        manager = FlowBuilder().pricing(book).workload(ConstantRate(100)).build()
        assert manager.price_book.price("kinesis.shard").hourly == 9.0

    def test_tick_setting(self):
        manager = FlowBuilder().tick(5).workload(ConstantRate(100)).build()
        assert manager.engine.clock.tick_seconds == 5

    def test_fluent_chaining_returns_self(self):
        builder = FlowBuilder()
        assert builder.ingestion() is builder
        assert builder.analytics() is builder
        assert builder.storage() is builder
        assert builder.workload(ConstantRate(1)) is builder
        assert builder.control_all() is builder
