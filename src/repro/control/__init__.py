"""Resource provisioning controllers (paper Sec. 3.3).

The centerpiece is Flower's adaptive integral controller (Eq. 6–7):
``u_{k+1} = u_k + l_{k+1}(y_k - y_r)`` with the gain ``l`` adaptively
updated and clamped to ``[l_min, l_max]``, extended with a *memory of
recent controller decisions* for rapid elasticity. Baselines from the
paper's related work are included for the comparison experiments:
fixed-gain integral control [12], quasi-adaptive control [14] and the
rule-based threshold autoscaling of cloud providers [1].
"""

from repro.control.actuators import (
    CallbackActuator,
    DynamoDBActuator,
    KinesisShardActuator,
    StormVMActuator,
)
from repro.control.adaptive import AdaptiveGainController, AdaptiveGainConfig
from repro.control.base import Actuator, Controller, ControlLoop, ControlRecord, Sensor
from repro.control.bounded import BoundedActuator
from repro.control.fixed_gain import FixedGainConfig, FixedGainController
from repro.control.gain_memory import GainMemory
from repro.control.quasi_adaptive import QuasiAdaptiveConfig, QuasiAdaptiveController
from repro.control.rule_based import RuleBasedConfig, RuleBasedController
from repro.control.sensors import CloudWatchSensor
from repro.control.stability import (
    estimate_process_gain,
    is_stable,
    max_stable_gain,
    suggest_gain_bounds,
)

__all__ = [
    "Sensor",
    "Actuator",
    "Controller",
    "ControlLoop",
    "ControlRecord",
    "CloudWatchSensor",
    "CallbackActuator",
    "BoundedActuator",
    "KinesisShardActuator",
    "StormVMActuator",
    "DynamoDBActuator",
    "AdaptiveGainController",
    "AdaptiveGainConfig",
    "GainMemory",
    "FixedGainController",
    "FixedGainConfig",
    "QuasiAdaptiveController",
    "QuasiAdaptiveConfig",
    "RuleBasedController",
    "RuleBasedConfig",
    "estimate_process_gain",
    "max_stable_gain",
    "is_stable",
    "suggest_gain_bounds",
]
