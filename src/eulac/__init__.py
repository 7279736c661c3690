"""Kernel one-vs-rest classification with an augmented novel class.

Training minimises an estimator of the deployment-time risk built from
labeled known-class data and unlabeled data drawn from the deployment
distribution, so novel classes can be recognised without ever observing a
labeled example of them.

The package root holds the library quick start (see the README); every
other name is imported from its submodule.
"""

from .data import (
    LabeledDataset,
    SyntheticSpec,
    UnlabeledDataset,
    parse_synthetic_spec,
    sample_synthetic,
)
from .kernel import KernelSpec, median_heuristic
from .mixture import ThetaEstimate, estimate_theta
from .modelsel import CvReport, HyperGrid, fit_with_selection
from .solver import DualModel

__version__ = "0.1.0"
