"""Numerical verification lab for restriction estimates on degenerate
curves: curve models, offspring Jacobians, kernel identities, mean-value
conditions, parallelepiped geometry, and oscillatory-integral probes.
"""

__version__ = "0.1.0"

from .report import CheckReport, ConfigError, DomainError, ExperimentConfig

__all__ = [
    "__version__",
    "CheckReport",
    "ConfigError",
    "DomainError",
    "ExperimentConfig",
]
