"""Report dataclasses: the payloads peers send to the log server.

Section V.A defines two classes of report.  *Activity reports* (join,
start-subscription, media-player-ready, leave) are sent immediately when
the event occurs.  *Status reports* are sent every five minutes and come in
three types: QoS (perceived quality, e.g. fraction of video missing at the
playback deadline), traffic (bytes up/down) and partner (a compact series
of partner add/drop activities, batched to reduce log-server load).

Every report can serialize itself to the flat ``name=value`` dictionary
used by the log-string codec, and be parsed back.  ``session_id`` ties the
four activity events of one session together; ``user_id`` ties a user's
retry sessions together (Fig. 10b).
"""

from __future__ import annotations

import dataclasses
import enum
import re
import typing
from dataclasses import dataclass, field
from typing import (Callable, ClassVar, Dict, List, Optional, Pattern,
                    Sequence, Tuple, Type)
from urllib.parse import quote

from .logstring import LOG_PATH, decode_log_string, encode_log_string

__all__ = [
    "ActivityEvent",
    "LeaveReason",
    "Report",
    "ActivityReport",
    "QoSReport",
    "TrafficReport",
    "PartnerOp",
    "PartnerEvent",
    "PartnerReport",
    "parse_report",
    "decode_report",
]


class ActivityEvent(str, enum.Enum):
    """The four session events of Section V.C."""

    JOIN = "join"
    START_SUBSCRIPTION = "sub"
    PLAYER_READY = "ready"
    LEAVE = "leave"


class LeaveReason(str, enum.Enum):
    """Why a session ended (ours; the paper infers this from durations)."""

    NORMAL = "normal"          # user chose to stop watching
    PROGRAM_END = "prog_end"   # broadcast ended (the 22:00 drop of Fig. 5b)
    IMPATIENCE = "impatience"  # gave up before the player became ready
    FAILURE = "failure"        # abrupt disconnect (no leave report reaches
                               # the server in this case -- see NodeReporter)


_HEADER_KEYS = ("t", "node", "user", "sess")
_HEADER_FIELDS = ("time", "node_id", "user_id", "session_id")
_TYPE_AT = len(f"{LOG_PATH}?type=")


def _wire_pattern(report_type: str, *keys: str,
                  optional: Tuple[str, ...] = ()) -> Pattern[str]:
    """The canonical log string of one report class, as a pattern: the
    header keys then ``keys``, in the order ``to_log_string`` writes
    them, each value captured raw.  A value may hold anything but ``&``
    (the separator) and ``%``/``+`` (the codec's escapes), so a string
    that matches in full decodes to exactly the captured groups: every
    key once, nothing to unquote, and no room for a further key.
    """
    parts = [re.escape(f"{LOG_PATH}?type={report_type}")]
    for key in _HEADER_KEYS + keys:
        piece = f"&{key}=([^&%+]*)"
        parts.append(f"(?:{piece})?" if key in optional else piece)
    return re.compile("".join(parts))


def _wire_decoder(cls: type, keys: Sequence[Tuple[str, str]],
                  optional: Tuple[str, ...]) -> Callable[..., "Report"]:
    """The function that builds a ``cls`` report from the groups of its
    wire pattern: the header then ``keys``, ``(wire key, field)`` pairs.

    It returns what ``cls(...)`` of the converted values returns, without
    calling the frozen dataclass ``__init__``, which pays one
    ``object.__setattr__`` per field: the report comes from
    ``object.__new__`` and gets its fields in one ``__dict__.update``, in
    field order.  Each value goes through the conversion ``from_params``
    applies to its field's type -- ``float``, ``int``, ``== "1"`` for a
    flag, and for an enum a lookup by value that falls back to the enum
    call, so an unknown value raises its ``ValueError``; the value of an
    absent ``optional`` key is ``None``.  A field no key carries gets its
    default.  The function is compiled once per class, as ``dataclass``
    compiles ``__init__``, so a line costs no loop over fields.
    """
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ that the wire "
                        "decoder would skip")
    wire = dict(zip(_HEADER_FIELDS, _HEADER_KEYS))
    wire.update((name, key) for key, name in keys)
    arg_of = {key: f"v{i}" for i, key in enumerate(_HEADER_KEYS + tuple(
        key for key, _ in keys))}
    hints = typing.get_type_hints(cls)
    namespace: Dict[str, object] = {
        "_new": object.__new__, "_cls": cls, "float": float, "int": int}
    values = []
    for f in dataclasses.fields(cls):
        key = wire.pop(f.name, None)
        if key is None:  # not on the wire: the constructor's default
            if f.default_factory is dataclasses.MISSING:
                namespace[f"_d_{f.name}"] = f.default
                values.append(f"{f.name}=_d_{f.name}")
            else:
                namespace[f"_d_{f.name}"] = f.default_factory
                values.append(f"{f.name}=_d_{f.name}()")
            continue
        arg, kind = arg_of[key], hints[f.name]
        if key in optional:
            (kind,) = (a for a in typing.get_args(kind) if a is not type(None))
        if kind is bool:
            value = f'{arg} == "1"'
        elif kind in (int, float):
            value = f"{kind.__name__}({arg})"
        elif isinstance(kind, type) and issubclass(kind, enum.Enum):
            namespace[f"_{kind.__name__}"] = kind
            namespace[f"_{kind.__name__}_by_value"] = {m.value: m for m in kind}
            # a miss (or a falsy member) goes through the enum call
            value = (f"_{kind.__name__}_by_value.get({arg}) "
                     f"or _{kind.__name__}({arg})")
        else:
            raise TypeError(f"{cls.__name__}.{f.name}: no wire conversion "
                            f"for {kind!r}")
        if key in optional:
            value = f"None if {arg} is None else {value}"
        values.append(f"{f.name}={value}")
    if wire:
        raise TypeError(f"{cls.__name__} has no field {sorted(wire)}")
    source = (f"def _from_wire({', '.join(arg_of.values())}):\n"
              f"    report = _new(_cls)\n"
              f"    report.__dict__.update({', '.join(values)})\n"
              f"    return report\n")
    exec(source, namespace)
    decode = namespace["_from_wire"]
    decode.__qualname__ = f"{cls.__qualname__}._from_wire"  # type: ignore[attr-defined]
    return decode  # type: ignore[return-value]


def _wire_form(*keys: Tuple[str, str], optional: Tuple[str, ...] = ()):
    """Class decorator giving a report class its canonical wire form.

    ``keys`` pairs each key after the header with the field it carries,
    in the order ``to_log_string`` writes them; a key in ``optional`` may
    be absent.  The class gets ``_WIRE``, the :func:`_wire_pattern` of
    those keys, and ``_from_wire``, the :func:`_wire_decoder` of the same
    keys, which builds the report from ``_WIRE``'s groups.
    """
    def decorate(cls):
        cls._WIRE = _wire_pattern(cls.TYPE, *(key for key, _ in keys),
                                  optional=optional)
        cls._from_wire = staticmethod(_wire_decoder(cls, keys, optional))
        return cls
    return decorate


@dataclass(frozen=True)
class Report:
    """Common report header."""

    time: float
    node_id: int
    user_id: int
    session_id: int

    TYPE: ClassVar[str] = "?"
    #: the canonical wire form and its decoder (see :func:`_wire_form`)
    _WIRE: ClassVar[Pattern[str]]
    _from_wire: ClassVar[Callable[..., Report]]

    def _header(self) -> Dict[str, str]:
        return {
            "type": self.TYPE,
            "t": f"{self.time:.3f}",
            "node": str(self.node_id),
            "user": str(self.user_id),
            "sess": str(self.session_id),
        }

    def to_params(self) -> Dict[str, str]:
        """Serialize to the flat ``name=value`` parameter dict."""
        raise NotImplementedError

    def to_log_string(self) -> str:
        """Encode straight to the wire log string.

        Always equals ``encode_log_string(self.to_params())``; each
        subclass renders its fields with the one f-string of its
        ``log_strings`` -- reports are emitted millions of times at paper
        scale, and skipping the dict round-trip is a measurable win on
        the simulation hot path.
        """
        return encode_log_string(self.to_params())

    @classmethod
    def _header_strs(cls, time: float, nodes: Sequence[int],
                     users: Sequence[int],
                     sessions: Sequence[int]) -> List[str]:
        """The wire header of each report of a batch sent at ``time``;
        the prefix up to the node id is formatted once."""
        # the f-string twin of _header() -- keep the two in sync
        head = f"{LOG_PATH}?type={cls.TYPE}&t={time:.3f}&node="
        return [f"{head}{node}&user={user}&sess={session}"
                for node, user, session in zip(nodes, users, sessions)]


@_wire_form(("ev", "event"), ("try", "attempt"), ("pub", "address_public"),
            ("why", "reason"), optional=("why",))
@dataclass(frozen=True)
class ActivityReport(Report):
    """Immediate join / start-subscription / player-ready / leave report."""

    event: ActivityEvent = ActivityEvent.JOIN
    attempt: int = 1                      # 1-based join attempt (retries)
    address_public: bool = True           # what the client can see locally
    reason: Optional[LeaveReason] = None  # only for LEAVE

    TYPE: ClassVar[str] = "act"

    def to_params(self) -> Dict[str, str]:
        """Serialize to the flat ``name=value`` parameter dict."""
        params = self._header()
        params["ev"] = self.event.value
        params["try"] = str(self.attempt)
        params["pub"] = "1" if self.address_public else "0"
        if self.reason is not None:
            params["why"] = self.reason.value
        return params

    @classmethod
    def log_strings(cls, time: float, nodes: Sequence[int],
                    users: Sequence[int], sessions: Sequence[int],
                    event: ActivityEvent, attempts: Sequence[int],
                    publics: Sequence[bool],
                    reason: Optional[LeaveReason] = None) -> List[str]:
        """The wire log strings of one ``event`` (and leave ``reason``)
        reported by a batch of peers at ``time``, one per row of the
        field columns: row ``i`` is ``encode_log_string(to_params())`` of
        the report built from the columns' ``i``-th values."""
        ev = event.value
        why = "" if reason is None else f"&why={reason.value}"
        return [f"{header}&ev={ev}&try={attempt}&pub={'1' if public else '0'}"
                f"{why}"
                for header, attempt, public in zip(
                    cls._header_strs(time, nodes, users, sessions),
                    attempts, publics)]

    def to_log_string(self) -> str:
        """Direct wire encoding (== ``encode_log_string(to_params())``)."""
        return self.log_strings(
            self.time, (self.node_id,), (self.user_id,), (self.session_id,),
            self.event, (self.attempt,), (self.address_public,),
            self.reason)[0]

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "ActivityReport":
        """Parse back from a decoded parameter dict."""
        return cls(
            time=float(p["t"]), node_id=int(p["node"]), user_id=int(p["user"]),
            session_id=int(p["sess"]), event=ActivityEvent(p["ev"]),
            attempt=int(p.get("try", "1")),
            address_public=p.get("pub", "1") == "1",
            reason=LeaveReason(p["why"]) if "why" in p else None,
        )


@_wire_form(("ci", "continuity"), ("buf", "buffered_seconds"),
            ("par", "n_parents"), ("play", "playing"), optional=("ci",))
@dataclass(frozen=True)
class QoSReport(Report):
    """Perceived quality over the last report window.

    ``continuity`` is the window continuity index (``None`` when no blocks
    came due yet -- the client omits the field, as a player that has not
    started has no playback quality to report).
    """

    continuity: Optional[float] = None
    buffered_seconds: float = 0.0
    n_parents: int = 0
    playing: bool = False

    TYPE: ClassVar[str] = "qos"

    def to_params(self) -> Dict[str, str]:
        """Serialize to the flat ``name=value`` parameter dict."""
        params = self._header()
        if self.continuity is not None:
            params["ci"] = f"{self.continuity:.5f}"
        params["buf"] = f"{self.buffered_seconds:.2f}"
        params["par"] = str(self.n_parents)
        params["play"] = "1" if self.playing else "0"
        return params

    @classmethod
    def log_strings(cls, time: float, nodes: Sequence[int],
                    users: Sequence[int], sessions: Sequence[int],
                    continuity: Sequence[Optional[float]],
                    buffered_seconds: Sequence[float],
                    n_parents: Sequence[int],
                    playing: Sequence[bool]) -> List[str]:
        """The wire log strings of a batch of reports sent at ``time``, one
        per row of the field columns: row ``i`` is
        ``encode_log_string(to_params())`` of the report built from the
        columns' ``i``-th values."""
        return [f"{header}{'' if ci is None else f'&ci={ci:.5f}'}"
                f"&buf={buf:.2f}&par={par}&play={'1' if play else '0'}"
                for header, ci, buf, par, play in zip(
                    cls._header_strs(time, nodes, users, sessions),
                    continuity, buffered_seconds, n_parents, playing)]

    def to_log_string(self) -> str:
        """Direct wire encoding (== ``encode_log_string(to_params())``)."""
        return self.log_strings(
            self.time, (self.node_id,), (self.user_id,), (self.session_id,),
            (self.continuity,), (self.buffered_seconds,), (self.n_parents,),
            (self.playing,))[0]

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "QoSReport":
        """Parse back from a decoded parameter dict."""
        return cls(
            time=float(p["t"]), node_id=int(p["node"]), user_id=int(p["user"]),
            session_id=int(p["sess"]),
            continuity=float(p["ci"]) if "ci" in p else None,
            buffered_seconds=float(p.get("buf", "0")),
            n_parents=int(p.get("par", "0")),
            playing=p.get("play", "0") == "1",
        )


@_wire_form(("up", "bytes_up"), ("down", "bytes_down"), ("tup", "total_up"),
            ("tdown", "total_down"))
@dataclass(frozen=True)
class TrafficReport(Report):
    """Bytes moved since the previous traffic report (plus totals)."""

    bytes_up: float = 0.0
    bytes_down: float = 0.0
    total_up: float = 0.0
    total_down: float = 0.0

    TYPE: ClassVar[str] = "traf"

    def to_params(self) -> Dict[str, str]:
        """Serialize to the flat ``name=value`` parameter dict."""
        params = self._header()
        params["up"] = f"{self.bytes_up:.0f}"
        params["down"] = f"{self.bytes_down:.0f}"
        params["tup"] = f"{self.total_up:.0f}"
        params["tdown"] = f"{self.total_down:.0f}"
        return params

    @classmethod
    def log_strings(cls, time: float, nodes: Sequence[int],
                    users: Sequence[int], sessions: Sequence[int],
                    bytes_up: Sequence[float], bytes_down: Sequence[float],
                    total_up: Sequence[float],
                    total_down: Sequence[float]) -> List[str]:
        """The wire log strings of a batch of reports sent at ``time``, one
        per row of the field columns: row ``i`` is
        ``encode_log_string(to_params())`` of the report built from the
        columns' ``i``-th values."""
        return [f"{header}&up={up:.0f}&down={down:.0f}&tup={tup:.0f}"
                f"&tdown={tdown:.0f}"
                for header, up, down, tup, tdown in zip(
                    cls._header_strs(time, nodes, users, sessions),
                    bytes_up, bytes_down, total_up, total_down)]

    def to_log_string(self) -> str:
        """Direct wire encoding (== ``encode_log_string(to_params())``)."""
        return self.log_strings(
            self.time, (self.node_id,), (self.user_id,), (self.session_id,),
            (self.bytes_up,), (self.bytes_down,), (self.total_up,),
            (self.total_down,))[0]

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "TrafficReport":
        """Parse back from a decoded parameter dict."""
        return cls(
            time=float(p["t"]), node_id=int(p["node"]), user_id=int(p["user"]),
            session_id=int(p["sess"]),
            bytes_up=float(p["up"]), bytes_down=float(p["down"]),
            total_up=float(p.get("tup", "0")), total_down=float(p.get("tdown", "0")),
        )


class PartnerOp(str, enum.Enum):
    """Partner activity kind in the compact event series."""

    ADD = "a"
    DROP = "d"


@dataclass(frozen=True)
class PartnerEvent:
    """One partner add/drop, with direction seen from the reporting node."""

    time: float
    op: PartnerOp
    partner_id: int
    incoming: bool  # True when the partner initiated the partnership

    def encode(self) -> str:
        """Encode to the compact wire token."""
        d = "i" if self.incoming else "o"
        return f"{self.time:.1f}:{self.op.value}:{self.partner_id}:{d}"

    @classmethod
    def decode(cls, token: str) -> "PartnerEvent":
        """Parse a compact wire token."""
        t, op, pid, d = token.split(":")
        return cls(time=float(t), op=PartnerOp(op), partner_id=int(pid),
                   incoming=(d == "i"))


# no ``pev``: its ``:``/``|`` separators are always percent-encoded, so a
# report that carries events is never in the escape-free form
@_wire_form(("np", "n_partners"), ("nin", "n_incoming"),
            ("nout", "n_outgoing"))
@dataclass(frozen=True)
class PartnerReport(Report):
    """Compact series of partner activities since the last status report.

    "Since the nodes might change partners frequently, we use a compact
    report that records a series of activities to reduce log server's
    load." (Section V.A)
    """

    events: tuple[PartnerEvent, ...] = field(default_factory=tuple)
    n_partners: int = 0
    n_incoming: int = 0
    n_outgoing: int = 0

    TYPE: ClassVar[str] = "part"

    def to_params(self) -> Dict[str, str]:
        """Serialize to the flat ``name=value`` parameter dict."""
        params = self._header()
        params["np"] = str(self.n_partners)
        params["nin"] = str(self.n_incoming)
        params["nout"] = str(self.n_outgoing)
        if self.events:
            params["pev"] = "|".join(e.encode() for e in self.events)
        return params

    @classmethod
    def log_strings(cls, time: float, nodes: Sequence[int],
                    users: Sequence[int], sessions: Sequence[int],
                    n_partners: Sequence[int], n_incoming: Sequence[int],
                    n_outgoing: Sequence[int]) -> List[str]:
        """The wire log strings of a batch of event-free reports sent at
        ``time``, one per row of the field columns: row ``i`` is
        ``encode_log_string(to_params())`` of the report built from the
        columns' ``i``-th values."""
        return [f"{header}&np={np_}&nin={nin}&nout={nout}"
                for header, np_, nin, nout in zip(
                    cls._header_strs(time, nodes, users, sessions),
                    n_partners, n_incoming, n_outgoing)]

    def to_log_string(self) -> str:
        """Direct wire encoding (== ``encode_log_string(to_params())``)."""
        s = self.log_strings(
            self.time, (self.node_id,), (self.user_id,), (self.session_id,),
            (self.n_partners,), (self.n_incoming,), (self.n_outgoing,))[0]
        if self.events:
            # the event tokens carry ":" / "|" separators, which the
            # codec percent-encodes -- mirror it exactly
            pev = quote("|".join(e.encode() for e in self.events), safe="")
            s = f"{s}&pev={pev}"
        return s

    @classmethod
    def from_params(cls, p: Dict[str, str]) -> "PartnerReport":
        """Parse back from a decoded parameter dict."""
        events: tuple[PartnerEvent, ...] = ()
        if "pev" in p and p["pev"]:
            events = tuple(PartnerEvent.decode(tok) for tok in p["pev"].split("|"))
        return cls(
            time=float(p["t"]), node_id=int(p["node"]), user_id=int(p["user"]),
            session_id=int(p["sess"]), events=events,
            n_partners=int(p.get("np", "0")),
            n_incoming=int(p.get("nin", "0")),
            n_outgoing=int(p.get("nout", "0")),
        )


_REGISTRY: Dict[str, Type[Report]] = {
    ActivityReport.TYPE: ActivityReport,
    QoSReport.TYPE: QoSReport,
    TrafficReport.TYPE: TrafficReport,
    PartnerReport.TYPE: PartnerReport,
}


def parse_report(params: Dict[str, str]) -> Report:
    """Dispatch a decoded parameter dict to the right report class."""
    try:
        cls = _REGISTRY[params["type"]]
    except KeyError:
        raise ValueError(f"unknown report type {params.get('type')!r}") from None
    try:
        return cls.from_params(params)  # type: ignore[attr-defined]
    except KeyError as exc:
        raise ValueError(f"{cls.TYPE!r} report lacks field {exc}") from None


def decode_report(log_string: str) -> Report:
    """Decode and parse one log string.

    Returns -- or raises -- exactly what
    ``parse_report(decode_log_string(log_string))`` does; that pair is
    the general path and the oracle the tests hold this function to.  A
    string in the canonical form ``to_log_string`` emits (the class's
    keys once each, in order, no escapes) skips the parameter dict: its
    captured values go through the same ``float``/``int``/enum
    conversions ``from_params`` applies.  Anything else -- reordered,
    repeated, missing or extra keys, ``%``/``+`` escapes, a partner
    report's ``pev`` list, another path -- does not match and takes the
    general path.
    """
    cls = _REGISTRY.get(log_string[_TYPE_AT:log_string.find("&")])
    if cls is not None:
        match = cls._WIRE.fullmatch(log_string)  # type: ignore[attr-defined]
        if match is not None:
            return cls._from_wire(*match.groups())  # type: ignore[attr-defined]
    return parse_report(decode_log_string(log_string))
