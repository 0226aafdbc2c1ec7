"""OpenFaaS-model serverless substrate: gateway, instances, controller and
the paper's three accelerated cloud functions."""

from .apps import (
    AlexNetApp,
    FIRApp,
    FunctionApp,
    HistogramApp,
    MMApp,
    SobelApp,
)
from .controller import FunctionController
from .gateway import (
    GATEWAY_OVERHEAD,
    CircuitBreaker,
    DeployedFunction,
    FunctionSpec,
    Gateway,
    InvocationError,
    Request,
)
from .instance import FunctionInstance, InstanceStartupError

__all__ = [
    "AlexNetApp",
    "CircuitBreaker",
    "DeployedFunction",
    "FIRApp",
    "FunctionApp",
    "HistogramApp",
    "FunctionController",
    "FunctionInstance",
    "FunctionSpec",
    "GATEWAY_OVERHEAD",
    "Gateway",
    "InstanceStartupError",
    "InvocationError",
    "MMApp",
    "Request",
    "SobelApp",
]
