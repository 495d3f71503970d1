"""The flow builder: the demo's GUI, as a fluent API.

In the demonstration the attendee "will use Flower's Flow Builder to
drag and drop multiple platforms and create a data analytics flow",
then "follow a wizard to configure the controllers with information
such as resource name, desired reference value, and monitoring period"
(Sec. 4). This builder is the programmatic equivalent: declare the
three layers, attach a workload, configure controllers per layer (or
all at once), then :meth:`build` a ready-to-run
:class:`~repro.core.manager.FlowElasticityManager`.

Example::

    manager = (
        FlowBuilder("click-stream", seed=7)
        .ingestion(shards=2)
        .analytics(vms=2)
        .storage(write_units=300)
        .workload(DiurnalRate(mean=800, amplitude=500))
        .control_all(style="adaptive", reference=60.0, period=60)
        .build()
    )
    result = manager.run(6 * 3600)
"""

from __future__ import annotations

from repro.cloud.dynamodb import DynamoDBConfig
from repro.cloud.ec2 import EC2Config
from repro.cloud.kinesis import KinesisConfig
from repro.cloud.pricing import PriceBook
from repro.cloud.storm import StormConfig, TopologyConfig
from repro.control.base import Controller
from repro.core.config import DEFAULT_REFERENCE, LayerControlConfig, make_controller
from repro.core.errors import ConfigurationError
from repro.core.flow import FlowSpec, LayerKind, clickstream_flow_spec
from repro.core.manager import FlowElasticityManager, ServiceCapacities
from repro.observability.recorder import FlightRecorder
from repro.workload.clickstream import ClickStreamConfig
from repro.workload.generators import RatePattern


class FlowBuilder:
    """Fluent construction of a managed data analytics flow."""

    def __init__(self, name: str = "click-stream-analytics", seed: int = 0) -> None:
        self._spec: FlowSpec = clickstream_flow_spec(name)
        self._seed = seed
        self._shards = 2
        self._vms = 2
        self._write_units = 300
        self._pattern: RatePattern | None = None
        self._controls: dict[LayerKind, LayerControlConfig] = {}
        self._share_bounds: dict[LayerKind, int] = {}
        self._share_schedule = None
        self._read_pattern: RatePattern | None = None
        self._read_units = 100
        self._read_control: LayerControlConfig | None = None
        self._topology: TopologyConfig | None = None
        self._price_book: PriceBook | None = None
        self._tick_seconds = 1
        self._clickstream: ClickStreamConfig | None = None
        self._kinesis: KinesisConfig | None = None
        self._storm: StormConfig | None = None
        self._ec2: EC2Config | None = None
        self._dynamodb: DynamoDBConfig | None = None
        self._recorder: FlightRecorder | None = None
        self._span_execution = True
        self._chaos = None
        self._invariants = True
        self._exact = True

    # ------------------------------------------------------------------
    # Layers (the drag-and-drop step)
    # ------------------------------------------------------------------
    def ingestion(self, shards: int = 2, config: KinesisConfig | None = None) -> "FlowBuilder":
        """Place the Kinesis ingestion layer."""
        self._shards = shards
        self._kinesis = config
        return self

    def analytics(
        self,
        vms: int = 2,
        storm: StormConfig | None = None,
        ec2: EC2Config | None = None,
        topology: "TopologyConfig | None" = None,
    ) -> "FlowBuilder":
        """Place the Storm-on-EC2 analytics layer.

        With ``topology`` set, the cluster uses the fixed-parallelism
        model: explicit bolts, executor slots, and a rebalance pause
        whenever the running VM count changes.
        """
        self._vms = vms
        self._storm = storm
        self._ec2 = ec2
        self._topology = topology
        return self

    def storage(self, write_units: int = 300, config: DynamoDBConfig | None = None) -> "FlowBuilder":
        """Place the DynamoDB storage layer."""
        self._write_units = write_units
        self._dynamodb = config
        return self

    # ------------------------------------------------------------------
    # Workload
    # ------------------------------------------------------------------
    def workload(
        self, pattern: RatePattern, clickstream: ClickStreamConfig | None = None
    ) -> "FlowBuilder":
        """Attach the click-stream source and its arrival-rate pattern."""
        self._pattern = pattern
        self._clickstream = clickstream
        return self

    def reads(
        self,
        pattern: RatePattern,
        read_units: int = 100,
        style: str | None = None,
        reference: float = DEFAULT_REFERENCE,
        period: int = 60,
    ) -> "FlowBuilder":
        """Attach a dashboard read workload against the storage layer.

        ``pattern`` gives read-capacity-units/second consumed by the
        demo's sliding-window dashboard. With ``style`` set, a fourth
        control loop manages the table's read capacity independently of
        its write capacity ("DynamoDB read/write units", Sec. 2).
        """
        self._read_pattern = pattern
        self._read_units = read_units
        if style is not None:
            # Read capacity behaves like the storage layer's write
            # dimension; reuse its calibration.
            controller = make_controller(style, LayerKind.STORAGE, reference)
            self._read_control = LayerControlConfig(
                controller=controller, period=period, window=period
            )
        return self

    # ------------------------------------------------------------------
    # Controllers (the configuration-wizard step)
    # ------------------------------------------------------------------
    def control(
        self,
        kind: LayerKind,
        controller: Controller | None = None,
        style: str = "adaptive",
        reference: float = DEFAULT_REFERENCE,
        period: int = 60,
        window: int | None = None,
        statistic: str = "Average",
    ) -> "FlowBuilder":
        """Attach a controller to one layer.

        Pass a ready :class:`Controller`, or let the wizard build one of
        the named styles (``adaptive``, ``fixed``, ``quasi``, ``rule``)
        with layer-calibrated defaults.
        """
        if controller is None:
            controller = make_controller(style, kind, reference)
        self._controls[kind] = LayerControlConfig(
            controller=controller,
            period=period,
            window=window if window is not None else period,
            statistic=statistic,
        )
        return self

    def control_all(
        self,
        style: str = "adaptive",
        reference: float = DEFAULT_REFERENCE,
        period: int = 60,
    ) -> "FlowBuilder":
        """Attach same-style controllers to all three layers."""
        for kind in LayerKind:
            self.control(kind, style=style, reference=reference, period=period)
        return self

    def uncontrolled(self, kind: LayerKind) -> "FlowBuilder":
        """Remove any controller from a layer (static provisioning)."""
        self._controls.pop(kind, None)
        return self

    def share_bounds(self, bounds) -> "FlowBuilder":
        """Cap each layer's controller at its resource share (Sec. 2).

        Accepts either a ``{LayerKind: max_units}`` mapping or a
        :class:`~repro.optimization.share_analyzer.ResourceShare` picked
        from the share analyzer's Pareto front, closing the loop between
        the Eq. 3–5 optimisation and the runtime controllers.
        """
        if hasattr(bounds, "as_dict"):
            bounds = bounds.as_dict()
        self._share_bounds = {kind: int(units) for kind, units in bounds.items()}
        return self

    def share_schedule(self, schedule) -> "FlowBuilder":
        """Follow a time-windowed :class:`ShareSchedule` at run time.

        The paper's arbitrary-time-window resource shares (Sec. 2): the
        bounds enforced on each controller switch as the simulation
        crosses window boundaries.
        """
        self._share_schedule = schedule
        return self

    # ------------------------------------------------------------------
    # Misc settings
    # ------------------------------------------------------------------
    def pricing(self, book: PriceBook) -> "FlowBuilder":
        self._price_book = book
        return self

    def tick(self, seconds: int) -> "FlowBuilder":
        """Simulation tick length (1 s default; coarser runs faster)."""
        self._tick_seconds = seconds
        return self

    def spans(self, enabled: bool = True) -> "FlowBuilder":
        """Enable or disable span-batched execution (on by default).

        With spans the engine fuses the quiet ticks between control
        boundaries into single batched calls — bit-identical to the
        per-tick reference loop, just faster. Disable to force the
        reference loop (e.g. for equivalence checks).
        """
        self._span_execution = enabled
        return self

    def exact(self, enabled: bool = True) -> "FlowBuilder":
        """Choose the workload path: bit-exact reference (default) or
        the block-vectorized approximate fast path.

        ``exact(False)`` swaps in the fast click-stream generator:
        statistically identical arrivals, payload bytes and distinct
        pages, drawn in numpy blocks instead of per-tick — several times
        faster, but *not* bit-comparable to exact runs. The flag is
        carried through the run result and scorecards, and mixed
        exact/fast scorecard comparisons raise. See the approximation
        contract in DESIGN.md.
        """
        self._exact = enabled
        return self

    def observe(
        self, profile: bool = False, recorder: FlightRecorder | None = None
    ) -> "FlowBuilder":
        """Attach a flight recorder to the flow.

        Every layer then publishes structured events to the recorder's
        bus, every control loop feeds its decision audit log, and — with
        ``profile`` — the engine times each component and task per tick.
        Pass an existing :class:`FlightRecorder` to share one across
        flows; otherwise a fresh one is created.
        """
        self._recorder = recorder if recorder is not None else FlightRecorder(profile=profile)
        return self

    def chaos(self, schedule) -> "FlowBuilder":
        """Inject a :class:`~repro.chaos.ChaosSchedule` into the run.

        The schedule's faults land deterministically (same schedule +
        seed, same run) across all three layers and the monitoring
        path; the run result then carries the applied
        :class:`~repro.chaos.injector.ChaosEvent` timeline.
        """
        self._chaos = schedule
        return self

    def invariants(self, enabled: bool = True) -> "FlowBuilder":
        """Enable or disable the always-on invariant checker (on by
        default). It audits conservation, capacity bounds and cost
        additivity at every tick or span boundary; the run result's
        ``invariants`` report summarises what it saw."""
        self._invariants = enabled
        return self

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> FlowElasticityManager:
        """Validate and assemble the elasticity manager."""
        if self._pattern is None:
            raise ConfigurationError(
                "no workload attached; call .workload(pattern) before .build()"
            )
        return FlowElasticityManager(
            workload=self._pattern,
            capacities=ServiceCapacities(
                shards=self._shards,
                vms=self._vms,
                write_units=self._write_units,
                read_units=self._read_units,
            ),
            controls=self._controls,
            flow=self._spec,
            price_book=self._price_book,
            seed=self._seed,
            tick_seconds=self._tick_seconds,
            share_bounds=self._share_bounds,
            share_schedule=self._share_schedule,
            read_workload=self._read_pattern,
            read_control=self._read_control,
            clickstream=self._clickstream,
            kinesis=self._kinesis,
            storm=self._storm,
            topology=self._topology,
            ec2=self._ec2,
            dynamodb=self._dynamodb,
            recorder=self._recorder,
            span_execution=self._span_execution,
            chaos=self._chaos,
            invariants=self._invariants,
            exact=self._exact,
        )
