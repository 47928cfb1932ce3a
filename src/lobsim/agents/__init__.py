from .base import TradingAgent
from .exchange import ExchangeAgent
from .replay import MarketReplayAgent
from .momentum import MomentumAgent, MomentumConfig
from .twap import TWAPExecutionAgent, twap_schedule
from .ddql import DDQLConfig, DDQLExecutionAgent, LearnerState, compute_target, select_action

__all__ = [
    "TradingAgent",
    "ExchangeAgent",
    "MarketReplayAgent",
    "MomentumAgent",
    "MomentumConfig",
    "TWAPExecutionAgent",
    "twap_schedule",
    "DDQLConfig",
    "DDQLExecutionAgent",
    "LearnerState",
    "compute_target",
    "select_action",
]
