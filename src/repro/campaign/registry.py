"""Experiment registry: how workers resolve a run's callable by name.

Campaign runs carry only a *string* experiment reference so that specs
are serialisable and worker processes can re-resolve the callable on
their side.  Two forms are accepted:

* a short registry name (``"fig3"``, ``"fig9_size"``, ...) listed in
  :data:`CAMPAIGN_EXPERIMENTS`;
* a ``"module:qualname"`` path to any importable callable accepting a
  ``seed`` keyword and returning a
  :class:`~repro.experiments.render.FigureResult`.

The registered callables are exactly the in-process figure functions —
a campaign worker therefore seeds :class:`~repro.sim.rng.RngHub` exactly
as a sequential call does, which is what makes parallel runs bit-identical
to ``--jobs 1``.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict

from repro.campaign.spec import SpecError
from repro.experiments import EXPERIMENTS, fig9_rate_point, fig9_size_point

__all__ = ["CAMPAIGN_EXPERIMENTS", "UnknownExperimentError",
           "resolve_experiment", "experiment_ref"]


class UnknownExperimentError(SpecError):
    """The experiment reference cannot be resolved (CLI exit code 2)."""


#: the command-line experiments (less ``table1``, which takes no seed)
#: plus the single Fig. 9 sweep points a campaign grid fans out over
CAMPAIGN_EXPERIMENTS: Dict[str, Callable] = {
    **{name: fn for name, fn in EXPERIMENTS.items() if name != "table1"},
    "fig9_size": fig9_size_point,
    "fig9_rate": fig9_rate_point,
}


def resolve_experiment(ref: str) -> Callable:
    """Resolve an experiment reference to its callable.

    Registry names win; otherwise ``module:qualname`` is imported.  Raises
    :class:`UnknownExperimentError` on anything unresolvable.
    """
    fn = CAMPAIGN_EXPERIMENTS.get(ref)
    if fn is not None:
        return fn
    if ":" in ref:
        mod_name, _, qualname = ref.partition(":")
        try:
            mod = importlib.import_module(mod_name)
        except ImportError as exc:
            raise UnknownExperimentError(
                f"cannot import experiment module {mod_name!r}: {exc}"
            ) from exc
        obj = mod
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                raise UnknownExperimentError(
                    f"no callable {qualname!r} in module {mod_name!r}"
                )
        if not callable(obj):
            raise UnknownExperimentError(f"{ref!r} is not callable")
        return obj
    raise UnknownExperimentError(
        f"unknown experiment {ref!r}; registry names: "
        f"{', '.join(sorted(CAMPAIGN_EXPERIMENTS))} "
        f"(or use 'module:qualname')"
    )


def experiment_ref(fn: Callable) -> str:
    """The canonical string reference for a callable.

    Prefers a registry name; falls back to ``module:qualname``, verifying
    it round-trips to the same object (closures and lambdas do not and are
    rejected — they cannot be re-resolved inside a worker process).
    """
    for name, registered in CAMPAIGN_EXPERIMENTS.items():
        if registered is fn:
            return name
    mod = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    ref = f"{mod}:{qualname}"
    if not mod or "<" in qualname:
        raise UnknownExperimentError(
            f"experiment {fn!r} is not importable by name; campaign workers "
            f"need a module-level callable"
        )
    if resolve_experiment(ref) is not fn:
        raise UnknownExperimentError(
            f"experiment reference {ref!r} does not round-trip to {fn!r}"
        )
    return ref
