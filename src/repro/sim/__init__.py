"""Discrete-event simulation kernel used by the NDPBridge model."""

from .engine import Event, SimulationError, Simulator, sanitize_from_env
from .component import Component
from .rng import DeterministicRNG
from .stats import Accumulator, Counter, Histogram, StatsRegistry
from .partition import PartitionPlan, plan_partition, shards_from_env
from .sharded import (
    BoundaryMessage,
    ControlDecision,
    FixedLookaheadPlan,
    ShardedResult,
    ShardedSimulator,
    ShardReport,
    ShardRuntime,
    default_policy,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "sanitize_from_env",
    "Component",
    "DeterministicRNG",
    "Accumulator",
    "Counter",
    "Histogram",
    "StatsRegistry",
    "PartitionPlan",
    "plan_partition",
    "shards_from_env",
    "BoundaryMessage",
    "ControlDecision",
    "FixedLookaheadPlan",
    "ShardedResult",
    "ShardedSimulator",
    "ShardReport",
    "ShardRuntime",
    "default_policy",
]
