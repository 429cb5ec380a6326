"""Spectral laboratory for Laplace, magnetic and Schrodinger operators on
conformally cusp ends: analytic criteria plus one-dimensional numerics.

The pipeline is  model -> criteria (analytic) and
model -> reduce -> sturm -> assemble (numeric), with `zeta` feeding the
counting constants and `cli`/`selftest` on top.
"""

from .model import (ConfigError, CrossSection, EndGeometry, MagneticData,
                    Numerics, ProblemConfig, RadialPotential,
                    builtin_cross_section, parse_config)
from .criteria import Prediction, classify
from .assemble import SpectrumReport, global_counting, threshold_probe, weyl_fit

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "CrossSection", "EndGeometry", "MagneticData", "Numerics",
    "ProblemConfig", "RadialPotential", "builtin_cross_section",
    "parse_config", "Prediction", "classify",
    "SpectrumReport", "global_counting", "threshold_probe", "weyl_fit",
    "__version__",
]
