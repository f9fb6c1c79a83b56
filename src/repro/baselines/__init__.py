"""Baseline partitioners the paper compares against (or that ground it).

* :func:`multilevel_partition` — from-scratch hMetis-style multilevel
  k-way partitioner (coarsen / initial / uncoarsen+FM / recursive
  bisection); the paper ran hMetis on the flattened netlist.  It shares
  the production engine's heavy-edge matcher, projector and contraction
  loop (:func:`repro.core.multilevel.contract_levels`) and differs only
  in policy: recursive bisection, stop size, cluster cap and two-way FM.
* :func:`multilevel_bisect` — one multilevel bisection.
* :func:`random_partition` — seeded balanced random floor.
"""

from .multilevel import MultilevelResult, multilevel_bisect, multilevel_partition
from .random_partition import random_partition
from .fm2 import fm_refine_bisection
from .initial import grow_bisection, random_bisection

__all__ = [
    "MultilevelResult",
    "multilevel_bisect",
    "multilevel_partition",
    "random_partition",
    "fm_refine_bisection",
    "grow_bisection",
    "random_bisection",
]
