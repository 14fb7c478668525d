"""Block and sub-stream framing (Fig. 2).

The live stream is split round-robin into ``K`` sub-streams; each
sub-stream is divided into fixed-size blocks carrying one second of that
sub-stream.  Blocks carry a *global* sequence number giving playback order:
global sequence ``s`` belongs to sub-stream ``s mod K`` and is that
sub-stream's block number ``s // K`` (its *local index*).

All engine arithmetic uses local indices (differences are directly seconds);
this module is the single place converting a global sequence number to its
local index.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StreamGeometry"]


@dataclass(frozen=True)
class StreamGeometry:
    """Framing math for a ``K``-sub-stream block schedule.

    One block of one sub-stream covers one second of play, so local
    indices are seconds: the library's threshold arithmetic (the block
    lags Inequalities (1)/(2) compare against ``T_s``/``T_p``) relies on it.

    Parameters
    ----------
    n_substreams:
        K, the number of sub-streams.
    """

    n_substreams: int

    def __post_init__(self) -> None:
        if self.n_substreams < 1:
            raise ValueError("n_substreams must be >= 1")

    # --- framing conversions ---------------------------------------------
    def local_index(self, global_seq: int) -> int:
        """Position of ``global_seq`` within its sub-stream."""
        if global_seq < 0:
            raise ValueError("sequence numbers are non-negative")
        return global_seq // self.n_substreams

    def live_edge_local(self, elapsed_s: float) -> int:
        """Local index of the newest *complete* block the source has
        produced on every sub-stream, ``elapsed_s`` after stream start.
        Returns -1 before the first block completes."""
        return int(elapsed_s) - 1
