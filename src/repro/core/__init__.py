"""The paper's primary contribution: Algorithm RV-asynch-poly and its pieces.

Public API
----------
* labels: :func:`~repro.core.labels.modified_label`,
  :func:`~repro.core.labels.first_difference`
* trajectories: the generators ``traj_X``, ``traj_Q``, ``traj_Y``, ``traj_Z``,
  ``traj_A``, ``traj_B``, ``traj_K``, ``traj_Omega`` and
  :func:`~repro.core.trajectories.trajectory_structure`
* the algorithm: :func:`~repro.core.rendezvous.run_rendezvous`,
  :class:`~repro.core.rendezvous.RendezvousController`
* the exponential baseline: :func:`~repro.core.baseline.run_baseline_rendezvous`,
  :class:`~repro.core.baseline.BaselineController`

The analytic bounds — Theorem 3.1's ``Π(n, |L|)`` and the baseline's
exponential trajectory length — live in the cost model
(:mod:`repro.exploration.cost_model`); the ``bounds`` problem and
experiment E3 compare them per (n, label).
"""

from .labels import (
    binary_bits,
    first_difference,
    label_length,
    modified_label,
    modified_label_length,
    validate_label,
)
from .trajectories import (
    TRAJECTORY_KINDS,
    traj_A,
    traj_A_prime,
    traj_B,
    traj_K,
    traj_Omega,
    traj_Q,
    traj_R,
    traj_X,
    traj_Y,
    traj_Y_prime,
    traj_Z,
    trajectory_structure,
)
from .rendezvous import RendezvousController, rv_route, run_rendezvous
from .baseline import BaselineController, baseline_route, run_baseline_rendezvous

__all__ = [
    "binary_bits",
    "first_difference",
    "label_length",
    "modified_label",
    "modified_label_length",
    "validate_label",
    "TRAJECTORY_KINDS",
    "traj_A",
    "traj_A_prime",
    "traj_B",
    "traj_K",
    "traj_Omega",
    "traj_Q",
    "traj_R",
    "traj_X",
    "traj_Y",
    "traj_Y_prime",
    "traj_Z",
    "trajectory_structure",
    "RendezvousController",
    "rv_route",
    "run_rendezvous",
    "BaselineController",
    "baseline_route",
    "run_baseline_rendezvous",
]
