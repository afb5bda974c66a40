"""Search-space declarations for the autotuner (tentpole part 1).

Two modes, one contract:

* **Parameter mode** — a declarative grid of named :class:`Choice`\\ s
  (tile sizes, vector widths, memory placements, on/off toggles) plus a
  user ``build(base, **params)`` function that derives a schedule from
  them with ordinary directives.
* **Action mode** — no hand-written build: candidates are *sequences of
  primitive applications* enumerated at cursor targets by
  :func:`repro.scheduling.actions.enumerate_actions`.

In both modes candidates are constructed exclusively through the public
``Procedure`` directive API, where every rewrite runs the safety checks
(typecheck + bounds/assert + race re-verification).  A directive that
fails — an unprovable split divisibility, a racy ``parallelize``, an
instruction pattern that does not unify — raises, and
:meth:`Space.build_candidate` converts that into a *pruned* candidate
(``autotune.candidates_pruned``): illegal schedules are discarded before
they exist.  Surviving candidates carry an all-``ok``-verdict provenance
journal, which is how the tuner later proves the winner was fully
checked and replays it byte-identically.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..obs import trace as _obs
from ..scheduling.actions import Action, enumerate_actions

__all__ = ["Choice", "Candidate", "Space", "enumerate_actions"]


@dataclass(frozen=True)
class Choice:
    """One named axis of a parameter space."""

    name: str
    values: Tuple

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"choice {self.name!r} has no values")


@dataclass
class Candidate:
    """One point of a space: its parameters, the scheduled procedure (or
    the pruning error), and — once ranked/measured — its costs."""

    params: Dict
    proc: Optional[object] = None  # api.Procedure
    error: Optional[str] = None
    cost: Optional[object] = None  # autotune.cost.Cost
    measured_s: Optional[float] = None
    measure_error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.proc is not None

    def describe(self) -> str:
        if "actions" in self.params:
            inner = "; ".join(a.describe() for a in self.params["actions"])
        else:
            inner = ", ".join(f"{k}={_short(v)}" for k, v in self.params.items())
        return inner or "<base>"

    def params_key(self) -> tuple:
        """Hashable, deterministic identity of this candidate's params."""
        if "actions" in self.params:
            return tuple(a.key() for a in self.params["actions"])
        return tuple((k, _short(v)) for k, v in sorted(self.params.items()))


def _short(v) -> object:
    return v.__name__ if isinstance(v, type) else v


class Space:
    """A candidate-schedule space over a fixed ``base`` procedure.

    Parameter mode::

        space = Space("sgemm", base,
                      choices=[Choice("mr", (2, 3, 4, 5, 6)),
                               Choice("nv", (1, 2, 4)),
                               Choice("vectorize", (False, True))],
                      build=my_build)     # my_build(base, mr=..., ...)

    Action mode::

        space = Space.action_space("gemm", base, depth=3,
                                   split_factors=(4, 8),
                                   memories=(SCRATCHPAD,))
    """

    def __init__(
        self,
        name: str,
        base,
        choices: Sequence[Choice] = (),
        build: Optional[Callable] = None,
    ):
        if build is not None and not choices:
            raise ValueError("parameter mode needs at least one Choice")
        self.name = name
        self.base = base
        self.choices = tuple(choices)
        self.build = build
        self._action_kwargs: Optional[dict] = None
        self.depth = 0

    # -- action mode --------------------------------------------------------

    @classmethod
    def action_space(cls, name: str, base, depth: int = 3, **enum_kwargs):
        """A space whose candidates are action sequences of length <=
        ``depth``; ``enum_kwargs`` forward to :func:`enumerate_actions`."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self = cls(name, base)
        self._action_kwargs = dict(enum_kwargs)
        self.depth = depth
        return self

    @property
    def is_action_space(self) -> bool:
        return self._action_kwargs is not None

    def neighbors(self, proc) -> List[Action]:
        """Legal-looking next actions from ``proc`` (action mode only),
        in deterministic enumeration order."""
        if not self.is_action_space:
            raise ValueError(f"space {self.name!r} is not an action space")
        return enumerate_actions(proc, **self._action_kwargs)

    # -- parameter mode ------------------------------------------------------

    def grid(self) -> List[Dict]:
        """Every parameter assignment, in deterministic (row-major
        itertools.product) order."""
        if not self.choices:
            return []
        names = [c.name for c in self.choices]
        return [
            dict(zip(names, vals))
            for vals in itertools.product(*(c.values for c in self.choices))
        ]

    def size(self) -> int:
        n = 1
        for c in self.choices:
            n *= len(c.values)
        return n if self.choices else 0

    # -- candidate construction ---------------------------------------------

    def build_candidate(self, params: Dict) -> Candidate:
        """Materialize one candidate.  Never raises for *illegal schedule*
        reasons: directive failures become a pruned Candidate with the
        error message attached."""
        _obs.incr("autotune.candidates_generated")
        try:
            if "actions" in params:
                proc = self.base
                for act in params["actions"]:
                    proc = act.apply(proc)
            elif self.build is not None:
                proc = self.build(self.base, **params)
            else:
                raise ValueError(
                    f"space {self.name!r} has no build function and params "
                    f"carry no 'actions'"
                )
            if proc is None:
                raise ValueError("build returned None")
        except Exception as e:  # illegal schedule -> pruned, not fatal
            _obs.incr("autotune.candidates_pruned")
            return Candidate(params=params, error=f"{type(e).__name__}: {e}")
        _obs.incr("autotune.candidates_checked")
        return Candidate(params=params, proc=proc)
