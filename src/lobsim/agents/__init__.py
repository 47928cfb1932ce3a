from .base import TradingAgent
from .exchange import ExchangeAgent
from .replay import MarketReplayAgent
from .momentum import MomentumAgent, MomentumConfig
from .twap import TWAPExecutionAgent
from .ddql import DDQLConfig, DDQLExecutionAgent, LearnerState, compute_target, select_action

__all__ = [
    "TradingAgent",
    "ExchangeAgent",
    "MarketReplayAgent",
    "MomentumAgent",
    "MomentumConfig",
    "TWAPExecutionAgent",
    "DDQLConfig",
    "DDQLExecutionAgent",
    "LearnerState",
    "compute_target",
    "select_action",
]
