"""Linear performance metrics over the marginal variable space.

The paper bounds any index expressible as a linear function ``f(pi)`` of
the marginal probabilities: throughput, utilization, queue-length moments
(mean, variance via moments, higher moments).  Response times are *derived*
from throughput bounds through Little's law (``R_min = N / X_max``), which
is how :func:`repro.core.bounds.response_time_bounds` does it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.variables import VariableIndex
from repro.network.model import Network

__all__ = [
    "LinearMetric",
    "throughput_metric",
    "utilization_metric",
    "queue_length_metric",
    "queue_length_moment_metric",
    "idle_probability_metric",
    "system_throughput_metric",
]


@dataclass(frozen=True)
class LinearMetric:
    """A metric ``value(x) = coeffs . x + constant`` over LP variables."""

    name: str
    cols: np.ndarray
    vals: np.ndarray
    constant: float = 0.0

    def dense(self, n_vars: int) -> np.ndarray:
        """Dense coefficient vector (the LP cost vector)."""
        c = np.zeros(n_vars)
        np.add.at(c, self.cols, self.vals)
        return c

    def evaluate(self, x: np.ndarray) -> float:
        """Evaluate the metric at a variable assignment."""
        return float(x[self.cols] @ self.vals) + self.constant


def _station_grid(network: Network, k: int):
    N = network.population
    Kk = network.stations[k].phases
    nn, hh = np.meshgrid(np.arange(N + 1), np.arange(Kk), indexing="ij")
    return nn, hh


def throughput_metric(network: Network, vi: VariableIndex, k: int) -> LinearMetric:
    """Departure rate of station k: ``sum_{n,h} c_k(n) e_k(h) pi_k(n,h)``."""
    st = network.stations[k]
    nn, hh = _station_grid(network, k)
    c_k = st.rate_scale(np.arange(network.population + 1))
    e_k = st.service.D1.sum(axis=1)
    vals = (c_k[:, None] * e_k[None, :]).ravel()
    return LinearMetric(
        name=f"throughput[{st.name}]",
        cols=np.asarray(vi.pi(k, nn.ravel(), hh.ravel())),
        vals=vals,
    )


def utilization_metric(network: Network, vi: VariableIndex, k: int) -> LinearMetric:
    """Busy probability ``P[n_k >= 1] = 1 - sum_h pi_k(0, h)``."""
    st = network.stations[k]
    h = np.arange(st.phases)
    return LinearMetric(
        name=f"utilization[{st.name}]",
        cols=np.asarray(vi.pi(k, 0, h)),
        vals=-np.ones(st.phases),
        constant=1.0,
    )


def idle_probability_metric(
    network: Network, vi: VariableIndex, k: int
) -> LinearMetric:
    """``P[n_k = 0]`` — complements the utilization metric."""
    st = network.stations[k]
    h = np.arange(st.phases)
    return LinearMetric(
        name=f"idle[{st.name}]",
        cols=np.asarray(vi.pi(k, 0, h)),
        vals=np.ones(st.phases),
    )


def queue_length_metric(network: Network, vi: VariableIndex, k: int) -> LinearMetric:
    """Mean queue length ``E[n_k]``."""
    return queue_length_moment_metric(network, vi, k, order=1)


def queue_length_moment_metric(
    network: Network, vi: VariableIndex, k: int, order: int
) -> LinearMetric:
    """Raw queue-length moment ``E[n_k^order]``."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    st = network.stations[k]
    nn, hh = _station_grid(network, k)
    vals = (nn.ravel().astype(float)) ** order
    return LinearMetric(
        name=f"qlen^{order}[{st.name}]",
        cols=np.asarray(vi.pi(k, nn.ravel(), hh.ravel())),
        vals=vals,
    )


def system_throughput_metric(
    network: Network, vi: VariableIndex, reference: int = 0
) -> LinearMetric:
    """System throughput measured at the reference station (``v_ref = 1``)."""
    m = throughput_metric(network, vi, reference)
    return LinearMetric(
        name=f"system_throughput[ref={reference}]",
        cols=m.cols,
        vals=m.vals,
    )
