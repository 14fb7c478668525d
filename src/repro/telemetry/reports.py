"""Report dataclasses: the payloads peers send to the log server.

Section V.A defines two classes of report.  *Activity reports* (join,
start-subscription, media-player-ready, leave) are sent immediately when
the event occurs.  *Status reports* are sent every five minutes and come in
three types: QoS (perceived quality, e.g. fraction of video missing at the
playback deadline), traffic (bytes up/down) and partner (a compact series
of partner add/drop activities, batched to reduce log-server load).

Each class declares its log string once, in its :func:`_wire_form`
table: the ``(wire key, field, format)`` of every ``name=value`` pair,
in line order, after the header the base :class:`Report` declares.  The
format is the measurement -- a time goes on the wire to the
millisecond, a continuity index to five decimals -- so everything that
writes or reads a line is compiled from that one table: ``log_strings``
(a batch of rows), ``to_log_string`` (one report), ``_WIRE`` and
``_from_wire`` (the canonical line, read by position) and
``from_params`` (any parameter dict).  ``session_id`` ties the four
activity events of one session together; ``user_id`` ties a user's retry
sessions together (Fig. 10b).
"""

from __future__ import annotations

import dataclasses
import enum
import re
import typing
from dataclasses import dataclass, field
from typing import (Callable, ClassVar, Dict, List, NamedTuple, Optional,
                    Pattern, Tuple, Type)
from urllib.parse import quote

from .logstring import LOG_PATH, decode_log_string

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


_TYPE_AT = len(f"{LOG_PATH}?type=")

#: one ``(wire key, field, format)`` entry of a wire table
_Entry = Tuple[str, str, str]

#: a value on the canonical line: anything but ``&`` (the separator) and
#: ``%``/``+`` (the codec's escapes), so a line that matches in full
#: decodes to exactly the captured groups, with nothing to unquote
_RAW = "[^&%+]*"


def _flag(value: str) -> bool:
    """A flag's wire value: ``1`` or ``0``, and nothing else."""
    if value == "1":
        return True
    if value == "0":
        return False
    raise ValueError(f"not a flag: {value!r}")


def _join_items(items: tuple) -> str:
    """A tuple field's wire value: its items' ``encode()`` tokens joined
    by ``|``, percent-escaped as the codec escapes any value."""
    return quote("|".join(item.encode() for item in items), safe="")


def _split_items(item: type, value: str) -> tuple:
    """The inverse of :func:`_join_items` on an unescaped value."""
    return tuple(map(item.decode, value.split("|"))) if value else ()


class _Codec(NamedTuple):
    """How one field type goes on the wire.  ``$`` stands for the value
    (``render``) or its wire string (``parse``, ``matched``)."""

    #: f-string field that writes the value
    render: str
    #: expression that reads the value back from any wire string
    parse: str
    #: expression that reads it back from a string ``group`` matched
    matched: str
    #: pattern of the value on the canonical line; ``None`` when its
    #: value is always escaped, so a line carrying it is never canonical
    group: Optional[str]
    #: whether ``log_strings`` takes one value per batch, not a column
    per_batch: bool = False


def _codec(cls: type, name: str, kind: object, fmt: str,
           namespace: Dict[str, object]) -> _Codec:
    """The :class:`_Codec` of field ``name`` of type ``kind``, written
    with format spec ``fmt``; the names its expressions use go into
    ``namespace``."""
    if kind is bool:
        return _Codec("{'1' if $ else '0'}", "_flag($)", '$ == "1"', "[01]")
    if kind in (int, float):
        parse = f"{kind.__name__}($)"
        return _Codec(f"{{${':' if fmt else ''}{fmt}}}", parse, parse, _RAW)
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        namespace[f"_{kind.__name__}"] = kind
        namespace[f"_{kind.__name__}_by_value"] = {m.value: m for m in kind}
        # a miss (or a falsy member) goes through the enum call, which
        # raises the ValueError of an unknown value
        parse = f"_{kind.__name__}_by_value.get($) or _{kind.__name__}($)"
        return _Codec("{$.value}", parse, parse, _RAW, per_batch=True)
    item, *rest = typing.get_args(kind) or (None,)
    if (typing.get_origin(kind) is tuple and rest == [Ellipsis]
            and hasattr(item, "decode")):
        namespace[f"_{item.__name__}"] = item
        parse = f"_split_items(_{item.__name__}, $)"
        return _Codec("{_join_items($)}", parse, parse, None)
    raise TypeError(f"{cls.__name__}.{name}: no wire conversion for "
                    f"{kind!r}")


def _compile(cls: type, table: Tuple[_Entry, ...], optional: Tuple[str, ...],
             required: Tuple[str, ...]) -> None:
    """Give ``cls`` its wire codecs, compiled from ``table`` (see
    :func:`_wire_form`) once, as ``dataclass`` compiles ``__init__``, so
    a line costs no loop over fields."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} has a __post_init__ that the wire "
                        "decoders would skip")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    missing = sorted(name for _, name, _ in table if name not in fields)
    if missing:
        raise TypeError(f"{cls.__name__} has no field {missing}")
    hints = typing.get_type_hints(cls)
    namespace: Dict[str, object] = {
        "_new": object.__new__, "_cls": cls, "float": float, "int": int,
        "_flag": _flag, "_join_items": _join_items,
        "_split_items": _split_items}
    default: Dict[str, str] = {}
    for f in fields.values():
        if f.default is not dataclasses.MISSING:
            namespace[f"_d_{f.name}"] = f.default
            default[f.name] = f"_d_{f.name}"
        elif f.default_factory is not dataclasses.MISSING:
            namespace[f"_d_{f.name}"] = f.default_factory
            default[f.name] = f"_d_{f.name}()"
    codecs = []
    for key, name, fmt in table:
        kind = hints[name]
        if type(None) in typing.get_args(kind):  # Optional[X]: X, or None
            (kind,) = (a for a in typing.get_args(kind) if a is not type(None))
        codecs.append((key, name, _codec(cls, name, kind, fmt, namespace)))

    def piece(key: str, name: str, codec: _Codec, value: str) -> str:
        """The f-string source of one ``&key=value`` pair; an optional
        key is left off while its field is ``None`` or empty."""
        text = f"&{key}={codec.render.replace('$', value)}"
        if key not in optional:
            return text
        absent = (f"{value} is None" if fields[name].default is None
                  else f"not {value}")
        return f"{{'' if {absent} else f'{text}'}}"

    head = f"{LOG_PATH}?type={cls.TYPE}"

    # log_strings: ``time`` and enum fields take one value per batch,
    # formatted once, every other field a column; a pair whose value is
    # always escaped is left off (event-free rows)
    params, columns, batch, row = ["cls"], [], [], [head]
    for i, (key, name, codec) in enumerate(codecs):
        if codec.group is None:
            continue
        if name == "time" or codec.per_batch:
            params.append(f"{name}={default[name]}" if key in optional
                          else name)
            batch.append(f'    _{i} = f"{piece(key, name, codec, name)}"\n')
            row.append(f"{{_{i}}}")
        else:
            params.append(name)
            columns.append((f"_{i}", name))
            row.append(piece(key, name, codec, f"_{i}"))
    names, values = zip(*columns)
    log_strings = (
        f"def log_strings({', '.join(params)}):\n{''.join(batch)}"
        f'    return [f"{"".join(row)}"\n'
        f"            for {', '.join(names)} in zip({', '.join(values)})]\n")

    to_log_string = (
        "def to_log_string(self):\n"
        f'    return f"{head}'
        + "".join(piece(key, name, codec, f"self.{name}")
                  for key, name, codec in codecs) + '"\n')

    # _WIRE and _from_wire: the canonical line and its groups, in order
    pattern = [re.escape(head)]
    args: Dict[str, str] = {}
    for key, name, codec in codecs:
        if codec.group is None:
            continue
        pair = f"&{key}=({codec.group})"
        pattern.append(f"(?:{pair})?" if key in optional else pair)
        args[name] = f"v{len(args)}"

    from_wire = []
    from_params = []
    by_name = {name: (key, codec) for key, name, codec in codecs}
    for name in fields:
        if name not in by_name:  # not on the wire: the constructor's default
            from_wire.append(f"{name}={default[name]}")
            from_params.append(f"{name}={default[name]}")
            continue
        key, codec = by_name[name]
        if name not in args:  # always escaped: never on a canonical line
            from_wire.append(f"{name}={default[name]}")
        elif key in optional:
            from_wire.append(f"{name}={default[name]} if {args[name]} is None"
                             f" else {codec.matched.replace('$', args[name])}")
        else:
            from_wire.append(f"{name}={codec.matched.replace('$', args[name])}")
        # the general path: a key absent from the dict reads as its
        # field's default, unless it is required or there is none
        expr = codec.parse.replace("$", f'p["{key}"]')
        if key in required or name not in default:
            from_params.append(f"{name}={expr}")
        else:
            from_params.append(
                f'{name}={expr} if "{key}" in p else {default[name]}')
    decoders = (
        f"def _from_wire({', '.join(args.values())}):\n"
        "    report = _new(_cls)\n"
        f"    report.__dict__.update({', '.join(from_wire)})\n"
        "    return report\n"
        "def from_params(p):\n"
        "    report = _new(_cls)\n"
        f"    report.__dict__.update({', '.join(from_params)})\n"
        "    return report\n")

    exec(log_strings + to_log_string + decoders, namespace)
    for name in ("log_strings", "to_log_string", "_from_wire", "from_params"):
        namespace[name].__qualname__ = f"{cls.__qualname__}.{name}"
    cls.log_strings = classmethod(namespace["log_strings"])
    cls.to_log_string = namespace["to_log_string"]
    cls._WIRE = re.compile("".join(pattern))
    cls._from_wire = staticmethod(namespace["_from_wire"])
    cls.from_params = staticmethod(namespace["from_params"])


def _wire_form(*entries: _Entry, optional: Tuple[str, ...] = (),
               required: Tuple[str, ...] = ()):
    """Class decorator: the one declaration of a report's log string.

    ``entries`` are the ``(wire key, field, format)`` of each
    ``name=value`` pair after the base class's, in line order; ``format``
    is the spec a number is written with (``.3f`` keeps milliseconds).
    A key in ``optional`` is left off the line while its field is
    ``None`` or empty.  Reading a line, a key it lacks gives its field's
    default -- on the canonical line only an ``optional`` one may be
    lacking; on the general path any key may, unless it is in
    ``required`` or its field has no default.

    A class without a ``TYPE`` (the :class:`Report` header) only
    declares the entries its subclasses' lines start with.  Every other
    class gets, compiled from its table:

    * ``log_strings(time, node_id, user_id, session_id, ...)`` -- the
      lines of a batch of reports sent at ``time``, one per row of the
      field columns, in table order; ``time`` and enum fields take one
      value per batch, and a pair whose value is always escaped (the
      partner events) is left off;
    * ``to_log_string()`` -- the report's own line;
    * ``_WIRE`` -- that line as a pattern, each value captured raw; a
      value that is always escaped has no place in it;
    * ``_from_wire`` -- the report built from ``_WIRE``'s groups;
    * ``from_params`` -- the report built from any parameter dict.

    Both decoders build the report without calling the frozen dataclass
    ``__init__``, which pays one ``object.__setattr__`` per field: it
    comes from ``object.__new__`` and gets its fields in one
    ``__dict__.update``, in field order.
    """
    def decorate(cls):
        if not hasattr(cls, "TYPE"):
            cls._WIRE_HEADER = entries
            return cls
        _compile(cls, cls._WIRE_HEADER + entries, optional, required)
        return cls
    return decorate


@_wire_form(("t", "time", ".3f"), ("node", "node_id", ""),
            ("user", "user_id", ""), ("sess", "session_id", ""))
@dataclass(frozen=True)
class Report:
    """Common report header: its table holds the keys every report's
    line starts with, after ``type``."""

    time: float
    node_id: int
    user_id: int
    session_id: int

    TYPE: ClassVar[str]
    _WIRE_HEADER: ClassVar[Tuple[_Entry, ...]]
    #: compiled from each subclass's table (see :func:`_wire_form`)
    log_strings: ClassVar[Callable[..., List[str]]]
    to_log_string: ClassVar[Callable[[Report], str]]
    from_params: ClassVar[Callable[[Dict[str, str]], Report]]
    _WIRE: ClassVar[Pattern[str]]
    _from_wire: ClassVar[Callable[..., Report]]


@_wire_form(("ev", "event", ""), ("try", "attempt", ""),
            ("pub", "address_public", ""), ("why", "reason", ""),
            optional=("why",), required=("ev",))
@dataclass(frozen=True)
class ActivityReport(Report):
    """Immediate join / start-subscription / player-ready / leave report."""

    event: ActivityEvent = ActivityEvent.JOIN
    attempt: int = 1                      # 1-based join attempt (retries)
    address_public: bool = True           # what the client can see locally
    reason: Optional[LeaveReason] = None  # only for LEAVE

    TYPE: ClassVar[str] = "act"


@_wire_form(("ci", "continuity", ".5f"), ("buf", "buffered_seconds", ".2f"),
            ("par", "n_parents", ""), ("play", "playing", ""),
            optional=("ci",))
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


@_wire_form(("up", "bytes_up", ".0f"), ("down", "bytes_down", ".0f"),
            ("tup", "total_up", ".0f"), ("tdown", "total_down", ".0f"),
            required=("up", "down"))
@dataclass(frozen=True)
class TrafficReport(Report):
    """Bytes moved since the previous traffic report (plus totals)."""

    bytes_up: float = 0.0
    bytes_down: float = 0.0
    total_up: float = 0.0
    total_down: float = 0.0

    TYPE: ClassVar[str] = "traf"


class PartnerOp(str, enum.Enum):
    """Partner activity kind in the compact event series."""

    ADD = "a"
    DROP = "d"


@dataclass(frozen=True, slots=True)
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
        if d not in ("i", "o"):
            raise ValueError(f"not a partner direction: {d!r}")
        return cls(time=float(t), op=PartnerOp(op), partner_id=int(pid),
                   incoming=(d == "i"))


@_wire_form(("np", "n_partners", ""), ("nin", "n_incoming", ""),
            ("nout", "n_outgoing", ""), ("pev", "events", ""),
            optional=("pev",))
@dataclass(frozen=True)
class PartnerReport(Report):
    """Compact series of partner activities since the last status report.

    "Since the nodes might change partners frequently, we use a compact
    report that records a series of activities to reduce log server's
    load." (Section V.A)  The events go on the wire as one ``pev`` value,
    :meth:`PartnerEvent.encode` tokens joined by ``|``; its ``:``/``|``
    separators are always percent-encoded, so a report that carries
    events is never in the canonical form.
    """

    events: tuple[PartnerEvent, ...] = field(default_factory=tuple)
    n_partners: int = 0
    n_incoming: int = 0
    n_outgoing: int = 0

    TYPE: ClassVar[str] = "part"


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
        return cls.from_params(params)
    except KeyError as exc:
        raise ValueError(f"{cls.TYPE!r} report lacks field {exc}") from None


def decode_report(log_string: str) -> Report:
    """Decode and parse one log string.

    Returns -- or raises -- exactly what
    ``parse_report(decode_log_string(log_string))`` does; that pair is
    the general path and the oracle the tests hold this function to.  A
    string in the canonical form ``to_log_string`` emits (the class's
    keys once each, in order, no escapes) skips the parameter dict: its
    captured values go through the conversions ``from_params`` applies.
    Anything else -- reordered, repeated, missing or extra keys,
    ``%``/``+`` escapes, a partner report's ``pev`` list, a flag that is
    neither ``0`` nor ``1``, another path -- does not match and takes the
    general path.
    """
    cls = _REGISTRY.get(log_string[_TYPE_AT:log_string.find("&")])
    if cls is not None:
        match = cls._WIRE.fullmatch(log_string)
        if match is not None:
            return cls._from_wire(*match.groups())
    return parse_report(decode_log_string(log_string))
