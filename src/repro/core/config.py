"""System parameters (Table I of the paper) plus engine knobs.

Table I:

====  =========================================================
R     bit rate of the live video stream
K     number of sub-streams
B     length of a peer's buffer in units of time
T_s   out-of-synchronization threshold (max deviation between
      sub-streams)
T_p   maximum allowable latency for a partner behind others
T_a   period within which a peer re-selects a parent at most once
D_p   out-going sub-stream degree of node p (state, not a knob)
====  =========================================================

Internally all sequence arithmetic is done in *sub-stream-local block
indices*: one block carries exactly one second of one sub-stream, so a
local index difference is directly a time difference in seconds and the
thresholds below are expressed in seconds.  :class:`repro.core.blocks.
StreamGeometry` converts to and from the on-the-wire global sequence
numbers of Fig. 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = ["SystemConfig"]


@dataclass(frozen=True)
class SystemConfig:
    """All protocol and engine parameters.

    The defaults correspond to the measured deployment where the paper
    gives numbers (R = 768 kbps, 5-minute status reports, 24 servers at
    100 Mbps) and to sensible DONet-lineage values elsewhere.
    """

    # --- Table I -------------------------------------------------------
    stream_rate_bps: float = 768_000.0  # R: TV-quality rate used in Sec. V
    n_substreams: int = 4               # K
    buffer_seconds: float = 60.0        # B: cache-buffer span per peer
    ts_seconds: float = 10.0            # T_s: out-of-sync threshold
    tp_seconds: float = 15.0            # T_p: partner-lag threshold & join offset
    ta_seconds: float = 20.0            # T_a: adaptation cool-down period

    # --- membership / partnership ---------------------------------------
    max_partners: int = 8               # M: upper bound on partnerships
    target_partners: int = 5            # partnerships a node tries to hold
    mcache_size: int = 32               # partial-view size
    gossip_period_s: float = 10.0       # mCache exchange period
    gossip_fanout: int = 4              # entries shipped per gossip message
    bootstrap_sample: int = 8           # nodes returned by the boot-strap
    bm_exchange_period_s: float = 2.0   # buffer-map exchange period

    # --- delivery / playback --------------------------------------------
    delivery_mode: str = "push"         # "push" (the measured system) |
                                        # "pull" (the DONet [3] baseline)
    delivery_interval_s: float = 1.0    # parent push scheduling quantum
    pull_horizon_s: float = 8.0         # pull: request window per round
    pull_timeout_s: float = 4.0         # pull: re-request after this long
    player_buffer_s: float = 12.0       # contiguous seconds needed for
                                        # "media player ready" (Fig. 6 shows
                                        # a 10-20 s buffering wait)

    # --- user behaviour ---------------------------------------------------
    join_patience_s: float = 45.0       # give up joining after this long
    max_join_retries: int = 5           # re-tries before abandoning (Fig. 10b)
    retry_backoff_s: float = 5.0        # wait between join attempts
    stall_window_s: float = 15.0        # horizon of the unwatchability check
    stall_exit_continuity: float = 0.25  # below this, depart and re-enter
                                         # (Sec. V.D: slow catch-up users
                                         # "simply depart and re-enter")

    # --- telemetry (Section V.A) ------------------------------------------
    status_report_period_s: float = 300.0  # the 5-minute status cadence

    # --- deployment -------------------------------------------------------
    n_servers: int = 24                 # dedicated servers (Sec. V.A)
    server_upload_bps: float = 100_000_000.0
    server_max_partners: int = 64       # servers hold many more partnerships
    source_upload_bps: float = 40_000_000.0  # source feeds the servers only

    # --- ablation switches (DESIGN.md section 5) --------------------------
    initial_offset_mode: str = "tp"     # "tp" (paper: m - T_p) | "latest" | "oldest"
    parent_choice: str = "random"       # "random" (paper) | "best"
    mcache_replacement: str = "random"  # "random" (paper) | "age"
    cooldown_enabled: bool = True       # T_a timer on/off
    nat_traversal_prob: float = 0.02    # rare NAT<->NAT "random links"

    def __post_init__(self) -> None:
        # every check is written so that NaN fails it
        if not self.stream_rate_bps > 0:
            raise ValueError("stream_rate_bps must be positive")
        if not self.n_substreams >= 1:
            raise ValueError("n_substreams must be >= 1")
        # the cache window is int(buffer_seconds) blocks; it must hold one
        if not self.buffer_seconds >= 1:
            raise ValueError("buffer_seconds must be at least 1 s")
        if not (self.ts_seconds > 0 and self.tp_seconds > 0):
            raise ValueError("T_s and T_p must be positive")
        if not self.ta_seconds >= 0:
            raise ValueError("T_a must be non-negative")
        if not (0 < self.target_partners <= self.max_partners):
            raise ValueError("need 0 < target_partners <= max_partners")
        if not self.mcache_size >= self.bootstrap_sample:
            raise ValueError("mcache_size must hold a bootstrap sample")
        if not (self.gossip_period_s > 0 and self.bm_exchange_period_s > 0):
            raise ValueError("gossip/buffer-map periods must be positive")
        if not self.gossip_fanout >= 1:
            raise ValueError("gossip_fanout must be >= 1")
        if not self.delivery_interval_s > 0:
            raise ValueError("delivery_interval_s must be positive")
        if not self.join_patience_s > 0:
            raise ValueError("join_patience_s must be positive")
        if not self.max_join_retries >= 0:
            raise ValueError("max_join_retries must be non-negative")
        if not self.retry_backoff_s >= 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if not self.stall_window_s > 0:
            raise ValueError("stall_window_s must be positive")
        if not (0.0 <= self.stall_exit_continuity <= 1.0):
            raise ValueError("stall_exit_continuity must be a fraction")
        if not self.status_report_period_s > 0:
            raise ValueError("status_report_period_s must be positive")
        if not self.n_servers >= 0:
            raise ValueError("n_servers must be non-negative")
        if not (self.server_upload_bps > 0 and self.source_upload_bps > 0):
            raise ValueError("server/source upload rates must be positive")
        if not self.server_max_partners >= 1:
            raise ValueError("server_max_partners must be >= 1")
        if not self.player_buffer_s > 0:
            raise ValueError("player_buffer_s must be positive")
        if not self.tp_seconds < self.buffer_seconds:
            raise ValueError("T_p must be smaller than the buffer span")
        if self.delivery_mode not in ("push", "pull"):
            raise ValueError(f"unknown delivery_mode {self.delivery_mode!r}")
        if not (self.pull_horizon_s > 0 and self.pull_timeout_s > 0):
            raise ValueError("pull parameters must be positive")
        if self.initial_offset_mode not in ("tp", "latest", "oldest"):
            raise ValueError(f"unknown initial_offset_mode {self.initial_offset_mode!r}")
        if self.parent_choice not in ("random", "best"):
            raise ValueError(f"unknown parent_choice {self.parent_choice!r}")
        if self.mcache_replacement not in ("random", "age"):
            raise ValueError(f"unknown mcache_replacement {self.mcache_replacement!r}")
        if not (0.0 <= self.nat_traversal_prob <= 1.0):
            raise ValueError("nat_traversal_prob must be a probability")

    # --- derived quantities ----------------------------------------------
    @property
    def substream_rate_bps(self) -> float:
        """R/K: nominal rate of one sub-stream."""
        return self.stream_rate_bps / self.n_substreams

    @property
    def block_bits(self) -> float:
        """Bits per block: one second of one sub-stream."""
        return self.substream_rate_bps  # 1 s worth by construction

    def upload_slots(self, upload_bps: float) -> float:
        """Upload capacity expressed in sub-stream units (how many full
        sub-streams a node can sustain simultaneously)."""
        return upload_bps / self.substream_rate_bps

    def with_overrides(self, **kwargs: Any) -> "SystemConfig":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **kwargs)

    def table1(self) -> list[tuple[str, str, str]]:
        """Rows (symbol, meaning, value) reproducing Table I."""
        return [
            ("R", "bit rate of the live video stream",
             f"{self.stream_rate_bps / 1000:.0f} kbps"),
            ("K", "number of sub-streams", str(self.n_substreams)),
            ("B", "length of a peer's buffer (time)",
             f"{self.buffer_seconds:.0f} s"),
            ("T_s", "out-of-synchronization threshold",
             f"{self.ts_seconds:.0f} s"),
            ("T_p", "max allowable latency for a partner behind others",
             f"{self.tp_seconds:.0f} s"),
            ("T_a", "peer re-selection cool-down period",
             f"{self.ta_seconds:.0f} s"),
            ("D_p", "out-going sub-stream degree of node p",
             "run-time state"),
        ]
