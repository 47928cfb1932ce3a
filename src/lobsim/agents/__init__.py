from .base import TradingAgent
from .exchange import ExchangeAgent
from .replay import MarketReplayAgent
from .momentum import MomentumAgent, MomentumConfig, momentum_decide
from .twap import TWAPExecutionAgent, twap_schedule
from .ddql import DDQLConfig, DDQLExecutionAgent, LearnerState, compute_target, select_action

__all__ = [
    "TradingAgent",
    "ExchangeAgent",
    "MarketReplayAgent",
    "MomentumAgent",
    "MomentumConfig",
    "momentum_decide",
    "TWAPExecutionAgent",
    "twap_schedule",
    "DDQLConfig",
    "DDQLExecutionAgent",
    "LearnerState",
    "compute_target",
    "select_action",
]
