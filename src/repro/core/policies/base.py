"""Policy protocol and registry for the greedy merging framework.

A *policy* implements the CHOOSETWOSETS subroutine of the paper's generic
greedy algorithm (Algorithm 1), generalized to fan-in ``k``: given the
live collection of tables it names the tables to merge next.  Policies
are stateful objects — most maintain incremental data structures (heaps,
pair caches, HLL sketches) across iterations — created fresh for each run
via :func:`make_policy`.

Registered names (with their paper aliases):

============================  =======================================
name                          heuristic
============================  =======================================
``smallest_input`` / ``SI``   §4.3.2, merge the k smallest tables
``smallest_output`` / ``SO``  §4.3.3, smallest union (exact or HLL)
``balance_tree`` / ``BT``     §4.3.1, level-balanced merging
``BT(I)`` / ``BT(O)``         BALANCETREE with SI / SO per level (§5.1)
``largest_match`` / ``LM``    §4.3.4, largest intersection
``random`` / ``RANDOM``       §5.1 strawman
============================  =======================================
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Optional

from ...errors import EstimatorError, PolicyError
from ..backend import FrozensetBackend, SetBackend, SetHandle
from ..estimator import CardinalityEstimator, EstimatorSpec, make_estimator
from ..instance import MergeInstance


@dataclass
class GreedyState:
    """Mutable state shared between the greedy loop and its policy.

    ``live`` maps table id to the *backend handle* of the key set for
    every not-yet-consumed table (ids ``0..n-1`` are the inputs; merged
    outputs get increasing fresh ids, so id order is creation order — the
    deterministic tie-break used throughout).  Under the default
    ``frozenset`` backend a handle *is* the key ``frozenset``, so legacy
    policies that treat ``live`` values as sets keep working; backend-
    agnostic policies go through ``backend`` ops or :meth:`keys` instead.
    ``sizes`` caches cardinalities so policies never re-measure large
    sets; the greedy loop keeps its key set identical to ``live``'s.
    """

    instance: MergeInstance
    k: int
    rng: random.Random
    live: dict[int, SetHandle] = field(default_factory=dict)
    sizes: dict[int, int] = field(default_factory=dict)
    next_id: int = 0
    backend: SetBackend = field(default_factory=FrozensetBackend)

    @property
    def n_live(self) -> int:
        return len(self.live)

    def arity_for_next_merge(self) -> int:
        """Fan-in available to the next merge: ``min(k, live tables)``."""
        return min(self.k, len(self.live))

    def keys(self, table_id: int) -> frozenset:
        """The plain key ``frozenset`` of a live table (decoded handle)."""
        return self.backend.decode(self.live[table_id])


class ChoosePolicy(ABC):
    """Strategy object choosing which live tables to merge next."""

    name: str = "abstract"
    #: The union-cardinality oracle an output-sensitive policy consults
    #: (``None`` for every other policy).
    estimator: Optional[CardinalityEstimator] = None

    def prepare(self, state: GreedyState) -> None:
        """Called once before the first iteration; build incremental state."""

    @abstractmethod
    def choose(self, state: GreedyState) -> tuple[int, ...]:
        """Return the ids (2..k of them) of the live tables to merge next."""

    def observe_merge(
        self, state: GreedyState, consumed: tuple[int, ...], new_id: int
    ) -> None:
        """Called after each merge so the policy can update its caches."""

    def extras(self) -> dict:
        """Optional run metadata (e.g. BALANCETREE's per-step levels)."""
        return {}

    def describe(self) -> str:
        return self.name


#: canonical name -> (factory, default estimator, preset keywords).  A
#: default estimator of ``None`` marks a policy that consults none.
_REGISTRY: dict[str, tuple[Callable[..., ChoosePolicy], Optional[str], dict]] = {}
_ALIASES: dict[str, str] = {}


def register_policy(
    name: str, *aliases: str, estimator: Optional[str] = None, **presets
):
    """Class decorator registering a policy under ``name`` (+ aliases).

    One class may carry several registrations: ``presets`` are the
    constructor keywords a name pre-binds (``"BT(O)"`` is BALANCETREE
    with ``suborder="output"``) and ``estimator`` is the estimator an
    output-sensitive name defaults to.
    """

    def decorator(factory: Callable[..., ChoosePolicy]):
        _REGISTRY[name] = (factory, estimator, presets)
        for alias in aliases:
            _ALIASES[alias.lower()] = name
        return factory

    return decorator


def canonical_policy_name(name: str) -> str:
    """Resolve an alias like ``"BT(I)"`` to its canonical registry name."""
    lowered = name.lower()
    if lowered in _REGISTRY:
        return lowered
    if lowered in _ALIASES:
        return _ALIASES[lowered]
    raise PolicyError(
        f"unknown policy {name!r}; available: {sorted(_REGISTRY)} "
        f"(aliases: {sorted(_ALIASES)})"
    )


def make_policy(name: str, estimator: EstimatorSpec = None, **kwargs) -> ChoosePolicy:
    """Instantiate a registered policy by (possibly aliased) name.

    The one place an estimator spec is resolved: ``estimator`` is a
    name, alias or :class:`~repro.core.estimator.CardinalityEstimator`
    instance (``None``: the name's registered default), and
    ``hll_precision`` / ``hll_seed`` parameterize a fresh ``hll``
    estimator.  The policy receives the instance; a policy that consults
    no estimator rejects all three.  Everything else in ``kwargs`` goes
    to the policy's constructor after the name's presets.
    """
    canonical = canonical_policy_name(name)
    factory, default_estimator, presets = _REGISTRY[canonical]
    if default_estimator is not None:
        hll = {
            key: kwargs.pop(key)
            for key in ("hll_precision", "hll_seed")
            if key in kwargs
        }
        try:
            kwargs["estimator"] = make_estimator(
                default_estimator if estimator is None else estimator, **hll
            )
        except EstimatorError as exc:
            raise PolicyError(str(exc)) from None
    elif estimator is not None:
        raise PolicyError(f"policy {canonical!r} consults no estimator")
    policy = factory(**presets, **kwargs)
    policy.name = canonical
    return policy


def available_policies() -> tuple[str, ...]:
    """Canonical names of all registered policies."""
    return tuple(sorted(_REGISTRY))


def pick_smallest(
    state: GreedyState, candidates: list[int], count: int
) -> tuple[int, ...]:
    """The ``count`` smallest candidate ids by (cardinality, creation order)."""
    if count > len(candidates):
        raise PolicyError(
            f"asked for {count} tables but only {len(candidates)} candidates"
        )
    sizes = state.sizes
    ordered = sorted(candidates, key=lambda table_id: (sizes[table_id], table_id))
    return tuple(ordered[:count])
