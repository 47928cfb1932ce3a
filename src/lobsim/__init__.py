"""Discrete-event limit order book simulation with a learning execution agent.

The package splits into a simulation core (kernel, book, messages), market
data handling (lobster), the trading agents, the learning stack (rl, mlp),
and post-hoc analysis (metrics). `training` wires them into reproducible
experiment runs and `cli` exposes those as commands.
"""

from .agents import (
    DDQLConfig,
    DDQLExecutionAgent,
    ExchangeAgent,
    LearnerState,
    MarketReplayAgent,
    MomentumAgent,
    MomentumConfig,
    TradingAgent,
    TWAPExecutionAgent,
)
from .book import BookSnapshot, Fill, Order, OrderBook, OrderKind, Side, SubmitResult
from .kernel import (
    Agent,
    AgentFault,
    Kernel,
    KernelConfig,
    KernelError,
    LogRecord,
    SchedulingError,
    SimulationLog,
    UnknownRecipientError,
    Wakeup,
    build_kernel,
    seconds,
    time_from_str,
    time_to_str,
)
from .lobster import (
    EventType,
    LobsterEvent,
    LobsterParseError,
    SyntheticFlowConfig,
    generate_synthetic,
    generate_to_file,
    parse_message_file,
    write_message_file,
)
from .mlp import MLPParams, forward, init_params, train_step
from .rl import (
    Action,
    ActionSpace,
    Experience,
    ReplayBuffer,
    StateVector,
    compute_reward,
    featurize,
    schedule_orders,
)
from .training import DataSource, RunSetup, evaluate, run_episode, train

__version__ = "0.1.0"

__all__ = [
    "Action",
    "ActionSpace",
    "Agent",
    "AgentFault",
    "BookSnapshot",
    "DDQLConfig",
    "DDQLExecutionAgent",
    "DataSource",
    "EventType",
    "ExchangeAgent",
    "Experience",
    "Fill",
    "Kernel",
    "KernelConfig",
    "KernelError",
    "LearnerState",
    "LobsterEvent",
    "LobsterParseError",
    "LogRecord",
    "MLPParams",
    "MarketReplayAgent",
    "MomentumAgent",
    "MomentumConfig",
    "Order",
    "OrderBook",
    "OrderKind",
    "ReplayBuffer",
    "RunSetup",
    "SchedulingError",
    "Side",
    "SimulationLog",
    "StateVector",
    "SubmitResult",
    "SyntheticFlowConfig",
    "TWAPExecutionAgent",
    "TradingAgent",
    "UnknownRecipientError",
    "Wakeup",
    "build_kernel",
    "compute_reward",
    "evaluate",
    "featurize",
    "forward",
    "generate_synthetic",
    "generate_to_file",
    "init_params",
    "parse_message_file",
    "run_episode",
    "schedule_orders",
    "seconds",
    "time_from_str",
    "time_to_str",
    "train",
    "train_step",
    "write_message_file",
    "__version__",
]
