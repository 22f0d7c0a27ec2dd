"""Greedy merge policies (the CHOOSETWOSETS subroutines of Algorithm 1).

Importing this package registers every built-in policy with the registry
in :mod:`repro.core.policies.base`; use :func:`make_policy` to
instantiate one by name or paper alias (``"SI"``, ``"BT(I)"``, ...).
"""

from .balance_tree import BalanceTreePolicy
from .base import (
    ChoosePolicy,
    GreedyState,
    available_policies,
    canonical_policy_name,
    make_policy,
    register_policy,
)
from .candidate_index import CandidateIndex
from .largest_match import LargestMatchPolicy
from .random_policy import RandomPolicy
from .smallest_input import SmallestInputPolicy
from .smallest_output import SmallestOutputPolicy

__all__ = [
    "BalanceTreePolicy",
    "CandidateIndex",
    "ChoosePolicy",
    "GreedyState",
    "LargestMatchPolicy",
    "RandomPolicy",
    "SmallestInputPolicy",
    "SmallestOutputPolicy",
    "available_policies",
    "canonical_policy_name",
    "make_policy",
    "register_policy",
]
