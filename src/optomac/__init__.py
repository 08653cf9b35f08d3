"""Deterministic simulator and protocol stack for laser-clocked in-vivo
optical sensor/actuator networks.

The package layers, bottom up:

* :mod:`optomac.timebase` - laser clock, subcycle framing, non-clock events,
  counter-based RNG.
* :mod:`optomac.geometry` - hex scan grid, node poses, detector sides.
* :mod:`optomac.antenna` - voltage-controlled emitter arrays and gain
  pattern synthesis.
* :mod:`optomac.channel` - on-off-keyed optical propagation with OR
  superposition per detector side.
* :mod:`optomac.protocol` - frame codec, address space, receive vetting,
  per-node memory tables and backoff.
* :mod:`optomac.nodes` - sensor/actuator protocol state machines.
* :mod:`optomac.engine` - world simulation stepped one instruction cycle at
  a time.
* :mod:`optomac.learning` - four-phase commissioning pass that fills the
  memory tables.
* :mod:`optomac.scenarios` - scripted therapy scenarios with metrics.
* :mod:`optomac.config` - deployment files, validation, world assembly.
* :mod:`optomac.cli` - the ``optomac`` command.
"""

from .channel import ChannelConfig
from .config import ConfigError, WorldConfig, load_fixture, load_path
from .engine import World
from .metrics import Metrics
from .nodes import Agent, Variant
from .protocol import Frame, NodeMemory, Opcode
from .scenarios import ScenarioResult, default_config, run_scenario
from .timebase import ClockConfig, Rng, Subcycle
from .trace import TraceWriter

__version__ = "0.1.0"

__all__ = [
    "Agent",
    "ChannelConfig",
    "ClockConfig",
    "ConfigError",
    "Frame",
    "Metrics",
    "NodeMemory",
    "Opcode",
    "Rng",
    "ScenarioResult",
    "Subcycle",
    "TraceWriter",
    "Variant",
    "World",
    "WorldConfig",
    "__version__",
    "default_config",
    "load_fixture",
    "load_path",
    "run_scenario",
]
