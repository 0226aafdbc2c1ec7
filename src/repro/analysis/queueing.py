"""Queueing-theory reference models.

Used to sanity-check the simulator: a single FPGA board served FIFO with
deterministic service times and Poisson arrivals is an M/D/1 queue, so the
simulated mean waits must match Pollaczek–Khinchine.  The test suite runs
that comparison (see ``tests/analysis/test_queueing_validation.py``), which
guards the whole timing machinery against systemic bias.
"""

from __future__ import annotations

import math


def utilization(arrival_rate: float, service_time: float) -> float:
    """Offered load ρ = λ·E[S]."""
    if arrival_rate < 0 or service_time < 0:
        raise ValueError("rates and times must be non-negative")
    return arrival_rate * service_time


def mm1_wait(arrival_rate: float, service_rate: float) -> float:
    """Mean time in queue (excluding service) for M/M/1."""
    if service_rate <= arrival_rate:
        return math.inf
    rho = arrival_rate / service_rate
    return rho / (service_rate - arrival_rate)


def md1_wait(arrival_rate: float, service_time: float) -> float:
    """Mean time in queue for M/D/1 (Pollaczek–Khinchine, zero variance).

    W_q = ρ·E[S] / (2·(1-ρ))
    """
    rho = utilization(arrival_rate, service_time)
    if rho >= 1.0:
        return math.inf
    return rho * service_time / (2.0 * (1.0 - rho))


def md1_response(arrival_rate: float, service_time: float) -> float:
    """Mean response time for M/D/1."""
    wait = md1_wait(arrival_rate, service_time)
    return wait + service_time if math.isfinite(wait) else math.inf

