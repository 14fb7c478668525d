"""The log-string codec.

"Each log entry in the log file is a normal HTTP request URL string
referred as a *log string*.  The information from a peer is compacted into
several parameter parts of the URL string ... formed in 'name=value' pairs
and separated by '&'." (Section V.A)

We reproduce that format: a log string is ``/log?k1=v1&k2=v2&...`` with
percent-encoding of reserved characters, so arbitrary values round-trip.
"""

from __future__ import annotations

from typing import Dict
from urllib.parse import quote, unquote

__all__ = ["encode_log_string", "decode_log_string", "LOG_PATH"]

LOG_PATH = "/log"


def encode_log_string(params: Dict[str, str]) -> str:
    """Encode a parameter dict as an HTTP request URL string.

    Keys are emitted in insertion order (clients build them
    deterministically), values are percent-encoded.  Output is identical
    to ``urlencode(params, quote_via=quote)``.  The reports' generated
    ``to_log_string`` is held to this encoder by the tests.
    """
    if not params:
        raise ValueError("a log string needs at least one parameter")
    parts = []
    for key, value in params.items():
        if not key or "=" in key or "&" in key:
            raise ValueError(f"invalid parameter name {key!r}")
        parts.append(quote(key, safe="") + "=" + quote(str(value), safe=""))
    return LOG_PATH + "?" + "&".join(parts)


def decode_log_string(log_string: str) -> Dict[str, str]:
    """Parse a log string back to its parameter dict.

    Returns exactly ``dict(parse_qsl(query, keep_blank_values=True))``
    -- ``urllib``'s parser is the oracle the tests hold this loop to,
    not the implementation: every stored line is decoded once per
    analysis pass, and almost no report field carries an escape, so only
    a ``name=value`` piece containing ``%`` or ``+`` pays for the
    unquoter.

    Raises ``ValueError`` for strings that are not ``/log?...`` requests --
    the log server discards malformed lines the same way an HTTP server
    404s unknown paths.
    """
    path, sep, query = log_string.partition("?")
    if path != LOG_PATH or not sep:
        raise ValueError(f"not a log request: {log_string[:40]!r}")
    params: Dict[str, str] = {}
    for piece in query.split("&"):
        if not piece:
            continue
        name, _, value = piece.partition("=")
        if "%" in piece or "+" in piece:
            name = unquote(name.replace("+", " "))
            value = unquote(value.replace("+", " "))
        params[name] = value
    if not params:
        raise ValueError("empty log string")
    return params
