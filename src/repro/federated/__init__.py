"""Federated and distributed training over simulated mobile fleets."""

from .comm import (
    CommunicationLedger,
    RoundTraffic,
    sparse_update_bytes,
    state_bytes,
)
from .client import FederatedClient
from .server import ParameterServer, QuorumError, update_is_corrupt
from .algorithms import (
    FedAvg,
    FedSGD,
    FederatedHistory,
    RobustnessPolicy,
    RoundRecord,
)
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .selective import (
    DistributedSelectiveSGD,
    SelectiveSGDParticipant,
)
from .secure_agg import SecureAggregator
from .fleet import (
    EdgeTopology,
    FleetSimulator,
    FleetState,
)

__all__ = [
    "CommunicationLedger",
    "RoundTraffic",
    "sparse_update_bytes",
    "state_bytes",
    "FederatedClient",
    "ParameterServer",
    "QuorumError",
    "update_is_corrupt",
    "FedAvg",
    "FedSGD",
    "FederatedHistory",
    "RobustnessPolicy",
    "RoundRecord",
    "CheckpointError",
    "load_checkpoint",
    "save_checkpoint",
    "DistributedSelectiveSGD",
    "SelectiveSGDParticipant",
    "SecureAggregator",
    "EdgeTopology",
    "FleetSimulator",
    "FleetState",
]
