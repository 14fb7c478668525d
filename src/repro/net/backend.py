"""``NetBackend``: the ``StreamingBackend`` contract over real sockets.

The backend owns one deployment: a private asyncio event loop hosting
the coordinator plus every peer's sockets, a
:class:`~repro.net.clock.VirtualClock` mapping the host clock onto the
scenario's virtual timeline, and the *pump* that fires due virtual-time
events (the reused protocol code's ``PeriodicTask``/delayed callbacks)
between I/O.  ``run(until)`` resumes the clock, interleaves engine pumps
with socket traffic until virtual time reaches ``until``, then pauses,
drains in-flight frames and hands back -- so the driver, parity harness
and campaign runner treat ``engine="net"`` exactly like the simulators.

Startup failures (a fixed coordinator port already bound, servers unable
to reach the coordinator) raise
:class:`~repro.runtime.backends.BackendStartupError`, which the CLIs map
to a uniform exit code.
"""

from __future__ import annotations

import asyncio
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.net.clock import VirtualClock
from repro.net.config import NetConfig
from repro.net.coordinator import NetCoordinator
from repro.net.peer import NetServer
from repro.net.system import NetSystem
from repro.runtime.backends import BackendStartupError
from repro.telemetry.server import LogServer
from repro.telemetry.sink import MemorySink
from repro.workload.sessions import ProgramSchedule
from repro.workload.users import UserPopulation

__all__ = ["NetBackend"]


class NetBackend:
    """Real-network engine behind the :class:`StreamingBackend` contract.

    Construction wires nothing network-visible; sockets come up inside
    the first :meth:`run` (on the backend's private event loop), so the
    staging lifecycle -- ``apply_workload`` then any number of
    ``add_program_ending`` calls -- matches ``DetailedBackend``.

    Pass ``net=NetConfig(...)`` to pin ports, change the virtual-time
    scale or tighten timeouts; the default binds everything to ephemeral
    localhost ports.
    """

    name = "net"

    def __init__(self, scenario, seed: int = 0, *,
                 net: Optional[NetConfig] = None) -> None:
        self.scenario = scenario
        self.seed = int(seed)
        self.net = net if net is not None else NetConfig()
        self.system = NetSystem(
            scenario.cfg,
            seed=self.seed,
            net=self.net,
            capacity_model=scenario.capacity_model,
            connectivity_mix=scenario.connectivity_mix,
        )
        self.clock = VirtualClock(self.net.time_scale)
        self.coordinator: Optional[NetCoordinator] = None
        self.population: Optional[UserPopulation] = None
        self._times: Optional[np.ndarray] = None
        self._durations: Optional[np.ndarray] = None
        self._endings: List[Tuple[float, float]] = []
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = False
        self._closed = False
        self._run_until: Optional[float] = None

    # -- workload ------------------------------------------------------
    def apply_workload(self, times: np.ndarray, durations: np.ndarray) -> None:
        """Stage the audience (deployed on the first :meth:`run`)."""
        if self._times is not None:
            raise RuntimeError("workload already applied")
        times = np.asarray(times, dtype=float)
        durations = np.asarray(durations, dtype=float)
        if times.shape != durations.shape:
            raise ValueError("times and durations must align")
        self._times = times
        self._durations = durations

    def add_program_ending(self, time_s: float, leave_probability: float) -> None:
        """Stage a program-end wave (must precede the first :meth:`run`)."""
        if self.population is not None:
            raise RuntimeError("cannot add program endings after run()")
        self._endings.append((float(time_s), float(leave_probability)))

    def at(self, time_s: float, callback: Callable[[NetSystem], None]) -> None:
        """Run ``callback(system)`` at virtual time ``time_s``.

        Fault-injection hook for tests and harnesses (e.g. kill one peer
        abruptly mid-run and watch its partners recover)."""
        self.system.engine.schedule_at(
            float(time_s), lambda: callback(self.system))

    # -- execution -----------------------------------------------------
    def run(self, until: float) -> None:
        """Advance the deployment to virtual time ``until``.

        The first call brings the network up (coordinator bind, server
        registration, audience attach); reaching the scenario horizon
        tears it down again so a completed run leaves no sockets or
        event loops behind."""
        if self._closed:
            raise RuntimeError("net backend is closed (run already completed)")
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
        self._loop.run_until_complete(self._run_async(float(until)))
        if until >= float(self.scenario.horizon_s) - 1e-9:
            self.close()

    async def _run_async(self, until: float) -> None:
        if not self._started:
            await self._setup()
            self._started = True
        engine = self.system.engine
        self._run_until = until
        self.clock.resume()
        try:
            while self.clock.now() < until:
                self._pump()
                await asyncio.sleep(self.net.pump_wall_s)
        finally:
            self.clock.pause()
            self.clock.clamp(until)
            self._run_until = None
        if not engine._running:
            engine.run(until=until)
        await self._drain()
        self._order_log()

    async def _setup(self) -> None:
        """Bring the deployment up: coordinator, servers, audience."""
        system = self.system
        net = self.net
        system.loop = asyncio.get_running_loop()
        coordinator = NetCoordinator(
            system.cfg,
            net=net,
            engine=system.engine,
            rng=system.rng,
            geometry=system.geometry,
            log=system.log,
            stats=system.stats,
        )
        try:
            await coordinator.start()
        except OSError as exc:
            raise BackendStartupError(
                f"cannot bind coordinator to {net.host}:{net.port}: {exc}"
            ) from exc
        self.coordinator = coordinator
        system.coordinator_address = coordinator.address
        system.pump = self._pump
        coordinator.pump = self._pump

        for i in range(system.cfg.n_servers):
            server = NetServer(system, node_id=i + 1)
            system._nodes[server.node_id] = server
            system.servers.append(server)
            system.spawn_task(server.start_net())
        startup_wall = (net.connect_timeout_s * (net.connect_retries + 1)
                        + 5.0)
        try:
            await asyncio.wait_for(
                asyncio.gather(*(s.ready.wait() for s in system.servers)),
                timeout=startup_wall,
            )
        except asyncio.TimeoutError as exc:
            raise BackendStartupError(
                "dedicated servers failed to register with the coordinator "
                f"at {coordinator.address} within {startup_wall:.0f}s"
            ) from exc

        if self._times is None:
            raise RuntimeError("apply_workload() must be called before run()")
        schedule = ProgramSchedule(endings=tuple(sorted(self._endings)))
        self.population = UserPopulation(
            system,
            arrival_times=self._times,
            durations=self._durations,
            duration_model=self.scenario.duration_model,
            schedule=schedule,
            silent_leave_prob=self.scenario.silent_leave_prob,
        )
        self.population.attach()

    def _pump(self) -> None:
        """Fire due virtual-time events.  Reentrancy-guarded: callers
        inside an engine callback (which may send frames synchronously)
        become no-ops."""
        engine = self.system.engine
        if engine._running:
            return
        target = self.clock.now()
        if self._run_until is not None and target > self._run_until:
            target = self._run_until
        if target > engine.now:
            engine.run(until=target)

    async def _drain(self) -> None:
        """Wait (bounded, wall-clock) until frame traffic quiesces so
        in-flight LOG/BM frames land before the log is read."""
        stats = self.system.stats
        last = -1
        for _ in range(200):
            current = stats.messages_sent + stats.messages_received
            if current == last:
                return
            last = current
            await asyncio.sleep(self.net.drain_wall_s)

    def _order_log(self) -> None:
        """Stable-sort an in-memory log by virtual arrival time: frames
        from independent connections interleave slightly out of order,
        and downstream folds expect arrival-ordered entries.  A log found
        out of order is rebuilt, sorted as its ``.3f`` times read (entries
        within one millisecond keep their order), into a sink like the one
        it replaces."""
        log = self.system.log
        sink = log.sink
        if isinstance(sink, MemorySink) and not log.in_arrival_order():
            ordered = MemorySink(lines_per_chunk=sink.lines_per_chunk)
            for entry in sorted(sink.iter_entries(),
                                key=attrgetter("arrival_time")):
                ordered.append(entry)
            if sink.closed:
                ordered.close()
            log.sink = ordered

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Release every socket and the private event loop.  Idempotent;
        the collected log and metric snapshots stay readable."""
        if self._closed or self._loop is None:
            self._closed = True
            return
        self._closed = True

        async def _teardown() -> None:
            for node in list(self.system._nodes.values()):
                close_sockets = getattr(node, "close_sockets", None)
                if close_sockets is not None:
                    close_sockets()
            if self.coordinator is not None:
                self.coordinator.close()
            await asyncio.sleep(0)

        self._loop.run_until_complete(_teardown())
        pending = asyncio.all_tasks(self._loop)
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
        self._loop.close()
        self._loop = None

    # -- views ---------------------------------------------------------
    @property
    def log(self) -> LogServer:
        """The coordinator-collected telemetry log."""
        return self.system.log

    def snapshot_metrics(self) -> Dict[str, float]:
        """Deployment-side ground truth plus transport counters."""
        system = self.system
        summary = system.summary()
        out: Dict[str, float] = {
            "concurrent_users": float(system.concurrent_users),
            "playing_users": float(summary["playing"]),
            "sessions_spawned": float(system.sessions_spawned),
            "mean_continuity": float(summary["mean_continuity"]),
        }
        if self.population is not None:
            out["success_fraction"] = self.population.success_fraction()
            out["adaptations"] = float(system.adaptations)
        out.update(system.stats.as_dict())
        return out
