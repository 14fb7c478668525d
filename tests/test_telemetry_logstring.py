"""Unit and property tests for the log-string codec."""

from urllib.parse import parse_qsl

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry.logstring import LOG_PATH, decode_log_string, encode_log_string


class TestEncode:
    def test_basic_format(self):
        s = encode_log_string({"type": "act", "t": "1.5", "node": "7"})
        assert s == "/log?type=act&t=1.5&node=7"

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            encode_log_string({})

    def test_reserved_chars_in_values_escaped(self):
        s = encode_log_string({"a": "x&y=z"})
        assert "&y" not in s.split("?")[1].replace("%26", "")
        assert decode_log_string(s) == {"a": "x&y=z"}

    @pytest.mark.parametrize("bad", ["", "a=b", "a&b"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(ValueError):
            encode_log_string({bad: "v"})

    def test_insertion_order_preserved(self):
        s = encode_log_string({"b": "1", "a": "2"})
        assert s.index("b=1") < s.index("a=2")


class TestDecode:
    def test_roundtrip_simple(self):
        params = {"type": "qos", "ci": "0.98", "node": "42"}
        assert decode_log_string(encode_log_string(params)) == params

    def test_wrong_path_rejected(self):
        with pytest.raises(ValueError):
            decode_log_string("/stats?a=b")

    def test_missing_query_rejected(self):
        with pytest.raises(ValueError):
            decode_log_string("/log")

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            decode_log_string("/log?")

    def test_blank_values_kept(self):
        assert decode_log_string("/log?a=") == {"a": ""}


# printable text without characters that urlencode would lose in keys
_value = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF),
    max_size=40,
)
_name = st.text(
    alphabet=st.sampled_from("abcdefghijklmnopqrstuvwxyz_0123456789"),
    min_size=1, max_size=12,
)


class TestProperties:
    @given(params=st.dictionaries(_name, _value, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_property_roundtrip(self, params):
        assert decode_log_string(encode_log_string(params)) == params


def _oracle_decode(log_string):
    """The decoder as it was: ``parse_qsl`` does the work.  ``urllib``'s
    parser is the contract ``decode_log_string`` is held to."""
    path, sep, query = log_string.partition("?")
    if path != LOG_PATH or not sep:
        raise ValueError(f"not a log request: {log_string[:40]!r}")
    pairs = parse_qsl(query, keep_blank_values=True, strict_parsing=False)
    if not pairs:
        raise ValueError("empty log string")
    return dict(pairs)


def _outcome(decode, log_string):
    """What a decoder does with a string: its items in order, or its error."""
    try:
        return list(decode(log_string).items())
    except ValueError as exc:
        return str(exc)


# everything the query grammar gives meaning to, whole and broken escapes
# (bad hex, cut short, invalid and multi-byte UTF-8), and raw non-ASCII
_query = st.lists(st.sampled_from(
    list("=&%+;:| ?/#aZ09_.-~") + [
        "%3A", "%7C", "%26", "%3D", "%2B", "%25", "%20", "%3a",
        "%zz", "%4", "%", "%ff", "%C3%A9", "%C3", "%E4%B8%AD", "%00",
        "\u00e9", "\u4e2d", "\U0001f600", "type", "pev",
    ]), max_size=24).map("".join)
_prefix = st.sampled_from(
    ["/log?"] * 8 + ["/log", "/log?/log?", "/stats?", "log?", "/log/?", "", " /log?"])


class TestDecodeMatchesParseQsl:
    """``decode_log_string`` no longer calls ``parse_qsl``; it must still
    return what ``parse_qsl`` would, and fail where and how it would."""

    @given(prefix=_prefix, query=_query)
    @settings(max_examples=1000, deadline=None)
    @example(prefix="/log?", query="")
    @example(prefix="/log?", query="&&&")
    @example(prefix="/log?", query="=")
    @example(prefix="/log?", query="a")
    @example(prefix="/log?", query="a=1&a=2&&b")
    @example(prefix="/log?", query="a%3Db=c%26d&x+y=1+2")
    @example(prefix="/log?", query="k=%zz%4&%=%")
    @example(prefix="/log", query="?a=b")
    @example(prefix="/log", query="a=b")
    def test_same_dict_or_same_error(self, prefix, query):
        log_string = prefix + query
        assert _outcome(decode_log_string, log_string) == \
               _outcome(_oracle_decode, log_string)

    @given(params=st.dictionaries(_name, _value, min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_encoded_strings_decode_as_parse_qsl_does(self, params):
        s = encode_log_string(params)
        assert _outcome(decode_log_string, s) == _outcome(_oracle_decode, s)


class TestEdgeCases:
    """Round-trips that have historically broken naive URL codecs."""

    def test_empty_value_roundtrip(self):
        params = {"reason": "", "node": "1"}
        assert decode_log_string(encode_log_string(params)) == params

    def test_all_values_empty(self):
        params = {"a": "", "b": ""}
        assert decode_log_string(encode_log_string(params)) == params

    @pytest.mark.parametrize("value", [
        "a&b", "a=b", "a&b=c&d", "&&", "==", "&=&=",
        "k1=v1&k2=v2",          # a value that *looks like* a query string
        "100%", "%26", "a+b",   # percent/plus must not double-decode
        " leading and trailing ",
    ])
    def test_reserved_chars_roundtrip(self, value):
        params = {"v": value}
        assert decode_log_string(encode_log_string(params)) == params

    @pytest.mark.parametrize("value", [
        "中文",             # CJK
        "café",                # latin-1 supplement
        "Ж",                   # cyrillic
        "emoji \U0001f600 ok",      # astral plane
        "mixed&中=文",      # unicode plus reserved chars
    ])
    def test_unicode_roundtrip(self, value):
        params = {"v": value}
        assert decode_log_string(encode_log_string(params)) == params

    @pytest.mark.parametrize("x", [
        0.1, 1 / 3, 2 ** -52, 1e-300, 1e300, 123456789.123456789,
        float("inf"), -0.0,
    ])
    def test_float_precision_survives(self, x):
        # clients stringify floats with repr(); the codec must hand back
        # the exact same string so the parse recovers the exact float
        s = encode_log_string({"ci": repr(x)})
        decoded = decode_log_string(s)["ci"]
        assert decoded == repr(x)
        assert float(decoded) == x or (x != x and decoded != decoded)

    def test_long_multiparam_roundtrip(self):
        params = {f"k{i}": f"v&{i}=x é" for i in range(50)}
        assert decode_log_string(encode_log_string(params)) == params
