"""Mobile device, network, and cost-model substrate.

The fleet's availability (the paper's idle, charging, on-WiFi policy)
lives with the federated sampler, :mod:`repro.federated.fleet.sampling`.
"""

from .device import (
    CLOUD_SERVER,
    FLAGSHIP_PHONE,
    LOW_END_PHONE,
    MID_RANGE_PHONE,
    DeviceProfile,
    EnergyConstants,
)
from .network import CELLULAR_3G, CELLULAR_4G, OFFLINE, WIFI, NetworkLink
from .cost import BYTES_PER_WORD, LayerCost, ModelCostProfile, profile_model
from .simulator import ExecutionCost, estimate_execution, estimate_transfer

__all__ = [
    "DeviceProfile",
    "EnergyConstants",
    "LOW_END_PHONE",
    "MID_RANGE_PHONE",
    "FLAGSHIP_PHONE",
    "CLOUD_SERVER",
    "NetworkLink",
    "CELLULAR_3G",
    "CELLULAR_4G",
    "WIFI",
    "OFFLINE",
    "BYTES_PER_WORD",
    "LayerCost",
    "ModelCostProfile",
    "profile_model",
    "ExecutionCost",
    "estimate_execution",
    "estimate_transfer",
]
