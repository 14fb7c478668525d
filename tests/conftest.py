"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import SystemConfig
from repro.core.system import CoolstreamingSystem


@pytest.fixture
def rng():
    """A seeded generator for tests that need raw randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_cfg():
    """A configuration sized for fast protocol tests."""
    return SystemConfig(n_servers=2, server_max_partners=16)


@pytest.fixture
def small_system(small_cfg):
    """A running system with two servers and no peers yet."""
    return CoolstreamingSystem(small_cfg, seed=99)


def spawn_and_run(system, n_peers: int, spacing_s: float, until: float):
    """Spawn ``n_peers`` users ``spacing_s`` apart and run to ``until``."""
    for u in range(n_peers):
        system.engine.schedule(
            u * spacing_s, lambda u=u: system.spawn_peer(user_id=u)
        )
    system.run(until=until)
    return system


@pytest.fixture
def populated_system(small_system):
    """A small system after 15 peers streamed past their first 5-minute
    status report."""
    return spawn_and_run(small_system, n_peers=15, spacing_s=2.0, until=400.0)


def _pin_failure(what: str, pinned_under: str) -> str:
    """The failure message of a byte pin taken under numpy
    ``pinned_under`` (major.minor): it names that numpy and this one.

    Seeded ``Generator`` streams are not promised stable across numpy
    releases (NEP 19), so a pin that moves under another minor may be
    numpy's doing; under the same minor it is the engine's.
    """
    running = ".".join(np.__version__.split(".")[:2])
    cause = ("the same numpy, so the engine changed" if running == pinned_under
             else "another numpy: check whether its Generator streams "
                  "changed before suspecting the engine, and re-record no "
                  "pin to hide an engine change")
    return (f"{what} differs from its pin, taken under numpy {pinned_under}; "
            f"this is numpy {running}, {cause}")


@pytest.fixture
def pin_failure():
    """``pin_failure(what, pinned_under)``: a byte pin's failure message,
    naming the numpy the pin was taken under and the running one."""
    return _pin_failure
