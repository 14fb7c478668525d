"""Named, independently seeded random streams.

Every stochastic decision in the library draws from a stream obtained via
:meth:`RngHub.stream`.  Streams are derived from the hub seed and the stream
name with NumPy's ``SeedSequence.spawn`` machinery, so

* two runs with the same hub seed are identical, and
* changing how often one subsystem draws (e.g. adding a partner probe)
  does not perturb the draws seen by any other subsystem.

The second property is what makes A/B ablations (DESIGN.md section 5)
meaningful: the arrival process of an ablated run is bit-identical to the
baseline's.

Seed-discipline sanitizer
-------------------------

The convention above is also what ``repro check`` (DET001) enforces
statically; the *sanitizer* is its runtime counterpart.  Opt in with the
``REPRO_RNG_SANITIZE`` environment variable (``1``/``strict`` raise on
violations, ``warn`` records them) or per hub with
``RngHub(seed, sanitize="strict")``.  When enabled, streams are wrapped
in a transparent proxy that

* counts draws per stream (:attr:`RngHub.draw_counts`),
* flags creation of a stream that was never :meth:`RngHub.declare`-d
  (only once at least one declaration exists -- an undeclared hub stays
  in pure accounting mode), and
* flags draws from a stream outside its declared owner scope
  (:meth:`RngHub.owned_by`), and
* flags re-creation of a stream that was :meth:`RngHub.release`-d.

Violations increment ``rng.sanitizer.violations`` (plus a per-kind
counter) on the ambient obs metrics registry and are kept on
:attr:`RngHub.violations`; in strict mode they additionally raise
:class:`RngDisciplineError`.  The proxy delegates to the *same*
underlying generator, so draws are bit-identical with the sanitizer on
or off.
"""

from __future__ import annotations

import os
import zlib
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

import numpy as np

__all__ = ["RngHub", "RngDisciplineError", "sanitize_mode_from_env"]


class RngDisciplineError(RuntimeError):
    """A named-stream discipline violation under the strict sanitizer."""


#: attributes of a Generator that do not consume random state
_NON_DRAW_ATTRS = frozenset({"bit_generator", "spawn", "__getstate__",
                             "__setstate__", "__reduce__"})


def sanitize_mode_from_env() -> Union[bool, str]:
    """The sanitizer mode requested via ``REPRO_RNG_SANITIZE``.

    ``1``/``true``/``strict`` -> ``"strict"``; ``warn``/``record`` ->
    ``"warn"``; anything else (including unset) -> ``False``.
    """
    raw = os.environ.get("REPRO_RNG_SANITIZE", "").strip().lower()
    if raw in ("1", "true", "strict", "yes", "on"):
        return "strict"
    if raw in ("warn", "record"):
        return "warn"
    return False


def _obs_inc(name: str) -> None:
    """Bump an ambient obs counter (no-op when observability is off)."""
    try:
        import repro.obs as obs
        obs.inc(name)
    except Exception:  # pragma: no cover - obs must never break draws
        pass


class _SanitizedStream:
    """Transparent draw-counting, owner-checking Generator proxy.

    Method access is forwarded to the wrapped generator; calling any
    non-underscore method counts as one draw event and re-validates the
    owner scope.  The generator object itself is shared, so sequences
    are bit-identical to the unwrapped stream.
    """

    __slots__ = ("_hub", "_name", "_gen")

    def __init__(self, hub: "RngHub", name: str,
                 gen: np.random.Generator) -> None:
        self._hub = hub
        self._name = name
        self._gen = gen

    def __getattr__(self, attr: str):
        value = getattr(self._gen, attr)
        if (attr.startswith("_") or attr in _NON_DRAW_ATTRS
                or not callable(value)):
            return value
        hub, name = self._hub, self._name

        def drawing(*args, **kwargs):
            hub._record_draw(name)
            return value(*args, **kwargs)

        drawing.__name__ = attr
        return drawing

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_SanitizedStream({self._name!r}, {self._gen!r})"


class RngHub:
    """Factory of named :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0,
                 sanitize: Optional[Union[bool, str]] = None) -> None:
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        if sanitize is None:
            sanitize = sanitize_mode_from_env()
        elif sanitize is True:
            sanitize = "strict"
        self._sanitize: Union[bool, str] = sanitize
        # declaration / accounting state (empty and unused when disabled)
        self._declared: Dict[str, Optional[str]] = {}
        self._draw_counts: Dict[str, int] = {}
        self._owner_stack: List[str] = []
        self._violations: List[Tuple[str, str]] = []
        self._released: Set[str] = set()

    @property
    def seed(self) -> int:
        """The root seed of this hub."""
        return self._seed

    @property
    def sanitize(self) -> Union[bool, str]:
        """Sanitizer mode: ``False``, ``"warn"`` or ``"strict"``."""
        return self._sanitize

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same name always maps to the same stream object (and hence a
        continuing sequence), so callers may re-request it freely.
        """
        gen = self._streams.get(name)
        if gen is None:
            # Derive a child seed from (hub seed, crc32(name)): stable across
            # processes and insertion orders, unlike spawn() call order.
            key = zlib.crc32(name.encode("utf-8"))
            ss = np.random.SeedSequence([self._seed, key])
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[name] = gen
            if self._sanitize and self._declared and name not in self._declared:
                self._violation(
                    "undeclared_stream",
                    f"stream {name!r} created without declaration "
                    f"(declared: {sorted(self._declared)})")
            if self._sanitize and name in self._released:
                self._violation(
                    "released_stream",
                    f"stream {name!r} re-created after release() "
                    f"(it would replay its draws from the start)")
        if self._sanitize:
            return self._wrapped(name, gen)  # type: ignore[return-value]
        return gen

    def release(self, name: str) -> None:
        """Forget the stream ``name`` (a departed peer's ``node.{id}``).

        The hub then holds nothing for it, so memory follows the live
        streams, not every stream ever created.  Other streams' draws are
        untouched: each is derived from (hub seed, name) alone.  A
        released name must not be requested again -- it would restart
        from its first draw -- and under the sanitizer doing so is a
        violation.  Releasing an unknown name is a no-op.
        """
        self._streams.pop(name, None)
        if self._sanitize:
            self._released.add(name)

    # --- seed-discipline sanitizer -----------------------------------
    def declare(self, name: str, owner: Optional[str] = None) -> None:
        """Declare a stream (optionally bound to an ``owner`` scope).

        Declarations are cheap and always recorded, so library code can
        declare unconditionally; they only have teeth when the sanitizer
        is enabled.  Once any stream is declared on a sanitizing hub,
        creating an *undeclared* stream is a violation, and draws from an
        owned stream outside ``with hub.owned_by(owner)`` are violations.
        """
        self._declared[name] = owner

    @contextmanager
    def owned_by(self, owner: str) -> Iterator[None]:
        """Scope marking ``owner`` as the active drawing subsystem."""
        self._owner_stack.append(str(owner))
        try:
            yield
        finally:
            self._owner_stack.pop()

    @property
    def draw_counts(self) -> Dict[str, int]:
        """Per-stream draw-event counts (sanitizer enabled only)."""
        return dict(self._draw_counts)

    @property
    def violations(self) -> List[Tuple[str, str]]:
        """Recorded ``(kind, message)`` violations, in occurrence order."""
        return list(self._violations)

    def _wrapped(self, name: str, gen: np.random.Generator) -> _SanitizedStream:
        return _SanitizedStream(self, name, gen)

    def _record_draw(self, name: str) -> None:
        self._draw_counts[name] = self._draw_counts.get(name, 0) + 1
        owner = self._declared.get(name)
        if owner is not None and self._owner_stack:
            current = self._owner_stack[-1]
            if current != owner:
                self._violation(
                    "out_of_owner_draw",
                    f"stream {name!r} (owner {owner!r}) drawn from "
                    f"within scope {current!r}")

    def _violation(self, kind: str, message: str) -> None:
        self._violations.append((kind, message))
        _obs_inc("rng.sanitizer.violations")
        _obs_inc(f"rng.sanitizer.{kind}")
        if self._sanitize == "strict":
            raise RngDisciplineError(f"[{kind}] {message}")

    def fork(self, salt: int) -> "RngHub":
        """A new hub whose streams are independent of this one.

        Used by parameter sweeps: replicate ``i`` runs on ``hub.fork(i)``.
        """
        return RngHub(seed=(self._seed * 1_000_003 + int(salt)) & 0x7FFFFFFF,
                      sanitize=self._sanitize)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngHub(seed={self._seed}, streams={sorted(self._streams)})"
