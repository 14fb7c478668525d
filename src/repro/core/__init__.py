"""Reference implementation of the Coolstreaming protocol (Sections III-IV).

The package mirrors Fig. 1 of the paper:

* :mod:`repro.core.membership` -- membership manager (mCache + gossip).
* :mod:`repro.core.partnership` -- partnership manager (TCP-partnerships,
  buffer-map exchange, incoming/outgoing direction bookkeeping).
* :mod:`repro.core.stream` -- stream manager (sub-stream subscription,
  parent selection, push delivery, playback).
* :mod:`repro.core.buffer` -- synchronization buffer and the 2K-tuple
  buffer map of Fig. 2.
* :mod:`repro.core.adaptation` -- Inequalities (1)/(2), cool-down timer.
* :mod:`repro.core.node` / :mod:`repro.core.source` -- peer node, source,
  dedicated servers and the bootstrap node.
* :mod:`repro.core.system` -- wires a whole system together on one engine.
* :mod:`repro.core.config` -- Table I parameters.
"""

from repro.core.config import SystemConfig
from repro.core.blocks import StreamGeometry
from repro.core.buffer import BufferMap, SyncBuffer
from repro.core.membership import MCache, MCacheEntry, ReplacementPolicy
from repro.core.multichannel import MultiChannelDeployment
from repro.core.node import PeerNode, SessionOutcome
from repro.core.pull import PullRequest, PullRequester, PullScheduler
from repro.core.source import BootstrapNode, DedicatedServer, SourceNode
from repro.core.system import CoolstreamingSystem

__all__ = [
    "SystemConfig",
    "StreamGeometry",
    "BufferMap",
    "SyncBuffer",
    "MCache",
    "MCacheEntry",
    "ReplacementPolicy",
    "MultiChannelDeployment",
    "PeerNode",
    "SessionOutcome",
    "PullRequest",
    "PullRequester",
    "PullScheduler",
    "BootstrapNode",
    "DedicatedServer",
    "SourceNode",
    "CoolstreamingSystem",
]
