"""Tests for repro.serve.http11: byte-level framing."""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.http.headers import Headers
from repro.http.message import Method, Response, error_response, html_response
from repro.serve.http11 import (
    Http11Limits,
    HttpParseError,
    ParsedRequest,
    read_request,
    read_response,
    render_response,
)


def parse(data: bytes, **kwargs):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_request(reader, **kwargs)

    return asyncio.run(go())


def refuse(data: bytes, **kwargs) -> HttpParseError:
    with pytest.raises(HttpParseError) as excinfo:
        parse(data, **kwargs)
    return excinfo.value


class TestRequestLine:
    def test_origin_form_with_host(self):
        parsed = parse(
            b"GET /a.html HTTP/1.1\r\nHost: www.example.com\r\n\r\n"
        )
        assert parsed.method is Method.GET
        assert parsed.url.host == "www.example.com"
        assert parsed.url.path == "/a.html"
        assert parsed.keep_alive

    def test_absolute_form(self):
        parsed = parse(
            b"GET http://www.example.com/x?a=1 HTTP/1.1\r\n\r\n"
        )
        assert parsed.url.host == "www.example.com"
        assert parsed.url.path == "/x"
        assert parsed.url.query == "a=1"

    def test_origin_form_with_default_host(self):
        parsed = parse(
            b"GET / HTTP/1.1\r\n\r\n", default_host="fallback.example"
        )
        assert parsed.url.host == "fallback.example"

    def test_origin_form_without_any_host_is_400(self):
        exc = refuse(b"GET / HTTP/1.1\r\n\r\n")
        assert exc.status == 400

    def test_query_embedded_absolute_url_routes_by_host_header(self):
        # The wire-level face of the resolve_url substring bug: an
        # origin-form target whose query embeds an absolute URL must
        # stay on the request's own host.
        parsed = parse(
            b"GET /redirect?to=http://evil.example/ HTTP/1.1\r\n"
            b"Host: www.example.com\r\n\r\n"
        )
        assert parsed.url.host == "www.example.com"
        assert parsed.url.path == "/redirect"
        assert parsed.url.query == "to=http://evil.example/"

    def test_clean_eof_returns_none(self):
        assert parse(b"") is None

    def test_stray_blank_line_between_requests_tolerated(self):
        parsed = parse(
            b"\r\nGET /a HTTP/1.1\r\nHost: h.example\r\n\r\n"
        )
        assert parsed.url.path == "/a"

    def test_malformed_request_line_is_400(self):
        assert refuse(b"garbage\r\n\r\n").status == 400

    def test_two_part_request_line_is_400(self):
        assert refuse(b"GET /a\r\n\r\n").status == 400

    def test_unknown_method_is_501(self):
        exc = refuse(b"DELETE /a HTTP/1.1\r\nHost: h\r\n\r\n")
        assert exc.status == 501

    def test_unsupported_version_is_505(self):
        exc = refuse(b"GET /a HTTP/9.9\r\nHost: h\r\n\r\n")
        assert exc.status == 505

    def test_oversized_request_line_is_431(self):
        line = b"GET /" + b"a" * 9000 + b" HTTP/1.1\r\n\r\n"
        assert refuse(line).status == 431

    def test_bad_target_is_400(self):
        exc = refuse(b"GET <script>x</script> HTTP/1.1\r\nHost: h\r\n\r\n")
        assert exc.status == 400

    def test_partial_request_line_at_eof_is_400(self):
        assert refuse(b"GET /a HT").status == 400


class TestHeaders:
    def test_header_values_parsed(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h.example\r\n"
            b"User-Agent: UA/1.0\r\nReferer: http://h.example/\r\n\r\n"
        )
        assert parsed.headers.get("User-Agent") == "UA/1.0"
        assert parsed.headers.get("Referer") == "http://h.example/"

    def test_framing_headers_stripped_from_pipeline_view(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h.example\r\n"
            b"Connection: keep-alive\r\nUser-Agent: UA\r\n\r\n"
        )
        assert "Host" not in parsed.headers
        assert "Connection" not in parsed.headers
        assert parsed.raw_headers.get("Host") == "h.example"
        assert parsed.raw_headers.get("Connection") == "keep-alive"

    def test_too_many_headers_is_431(self):
        fields = b"".join(
            b"X-F%d: v\r\n" % index for index in range(200)
        )
        exc = refuse(b"GET /a HTTP/1.1\r\nHost: h\r\n" + fields + b"\r\n")
        assert exc.status == 431

    def test_oversized_header_block_is_431(self):
        fields = b"".join(
            b"X-F%d: %s\r\n" % (index, b"v" * 1000)
            for index in range(40)
        )
        exc = refuse(b"GET /a HTTP/1.1\r\nHost: h\r\n" + fields + b"\r\n")
        assert exc.status == 431

    def test_folded_header_is_400(self):
        exc = refuse(
            b"GET /a HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n folded\r\n\r\n"
        )
        assert exc.status == 400

    def test_header_without_colon_is_400(self):
        exc = refuse(b"GET /a HTTP/1.1\r\nHost: h\r\nnocolon\r\n\r\n")
        assert exc.status == 400

    def test_eof_inside_headers_is_400(self):
        assert refuse(b"GET /a HTTP/1.1\r\nHost: h\r\n").status == 400


class TestKeepAlive:
    def test_http11_default_on(self):
        assert parse(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\n").keep_alive

    def test_http11_connection_close(self):
        parsed = parse(
            b"GET /a HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"
        )
        assert not parsed.keep_alive

    def test_http10_default_off(self):
        assert not parse(b"GET /a HTTP/1.0\r\nHost: h\r\n\r\n").keep_alive

    def test_http10_opt_in(self):
        parsed = parse(
            b"GET /a HTTP/1.0\r\nHost: h\r\nConnection: Keep-Alive\r\n\r\n"
        )
        assert parsed.keep_alive


class TestBody:
    def test_content_length_body(self):
        parsed = parse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd"
        )
        assert parsed.body == b"abcd"
        assert "Content-Length" not in parsed.headers

    def test_truncated_body_is_400(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 10\r\n\r\nab"
        )
        assert exc.status == 400

    def test_bad_content_length_is_400(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: nan\r\n\r\n"
        )
        assert exc.status == 400

    def test_negative_content_length_is_400(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: -5\r\n\r\n"
        )
        assert exc.status == 400

    def test_oversized_body_is_413(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 99\r\n\r\n",
            limits=Http11Limits(max_body_bytes=10),
        )
        assert exc.status == 413

    def test_transfer_encoding_is_501(self):
        exc = refuse(
            b"POST /a HTTP/1.1\r\nHost: h\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
        )
        assert exc.status == 501


class TestLimitsValidation:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Http11Limits(max_headers=0)


class TestRenderResponse:
    def test_status_line_and_framing(self):
        wire = render_response(error_response(404), keep_alive=True)
        head, _, body = wire.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 Not Found\r\n")
        assert b"Connection: keep-alive" in head
        assert b"Content-Length: %d" % len(body) in head

    def test_close_marker(self):
        wire = render_response(error_response(400), keep_alive=False)
        assert b"Connection: close" in wire

    def test_head_omits_body_keeps_length(self):
        response = html_response("<p>hello</p>")
        wire = render_response(response, head=True)
        header, _, body = wire.partition(b"\r\n\r\n")
        assert body == b""
        assert b"Content-Length: %d" % len(response.body) in header

    def test_hop_by_hop_response_headers_dropped(self):
        response = Response(
            status=200,
            headers=Headers(
                [("Connection", "weird"), ("X-Kept", "yes")]
            ),
            body=b"x",
        )
        wire = render_response(response)
        assert b"weird" not in wire
        assert b"X-Kept: yes" in wire


class TestReadResponse:
    def round_trip(self, response, head=False, keep_alive=True):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(
                render_response(response, head=head, keep_alive=keep_alive)
            )
            reader.feed_eof()
            return await read_response(reader, head=head)

        return asyncio.run(go())

    def test_round_trip(self):
        status, headers, body, keep_alive = self.round_trip(
            html_response("<p>x</p>")
        )
        assert status == 200
        assert body == b"<p>x</p>"
        assert keep_alive

    def test_close_round_trip(self):
        status, _, _, keep_alive = self.round_trip(
            error_response(403), keep_alive=False
        )
        assert status == 403
        assert not keep_alive

    def test_head_round_trip(self):
        status, headers, body, _ = self.round_trip(
            html_response("<p>body</p>"), head=True
        )
        assert status == 200
        assert body == b""
        assert int(headers.get("Content-Length")) > 0

    def test_malformed_status_line(self):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(b"NOT HTTP\r\n\r\n")
            reader.feed_eof()
            return await read_response(reader)

        with pytest.raises(HttpParseError):
            asyncio.run(go())


# -- properties ---------------------------------------------------------------

_TOKEN = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-",
    min_size=1,
    max_size=12,
)
_FIELD_TEXT = st.text(
    alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF),
    max_size=40,
)


@st.composite
def _request_bytes(draw) -> bytes:
    """Byte strings near the request grammar: each piece is usually
    valid and sometimes arbitrary, so every parser branch sees both."""
    method = draw(
        st.sampled_from(["GET", "GET", "POST", "HEAD", "PUT", "get", ""])
    )
    targets = st.sampled_from(["/", "/a/b.html?x=1", "http://h.test/p", "*"])
    target = draw(st.one_of(targets, targets, targets, _FIELD_TEXT))
    version = draw(
        st.sampled_from(["HTTP/1.1"] * 4 + ["HTTP/1.0", "HTTP/2", ""])
    )
    lines = [f"{method} {target} {version}"]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(
            st.one_of(
                st.sampled_from(
                    ["Host", "Content-Length", "Connection",
                     "Transfer-Encoding", "User-Agent"]
                ),
                _TOKEN,
                _FIELD_TEXT,
            )
        )
        value = draw(
            st.one_of(_FIELD_TEXT, st.integers(-2, 40).map(str))
        )
        separator = draw(st.sampled_from([": ", ": ", ":", " ", ""]))
        lines.append(f"{name}{separator}{value}")
    end = draw(st.sampled_from(["\r\n\r\n"] * 3 + ["\r\n", "\n\n", ""]))
    wire = "\r\n".join(lines).encode("latin-1") + end.encode()
    return wire + draw(st.binary(max_size=32))


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), _request_bytes()))
def test_read_request_frames_or_refuses_any_bytes(data):
    for limits in (None, Http11Limits(max_request_line=16,
                                      max_header_bytes=32,
                                      max_headers=2, max_body_bytes=4)):
        try:
            parsed = parse(data, default_host="site.test", limits=limits)
        except HttpParseError as exc:
            assert exc.status in (400, 413, 431, 501, 505)
            continue
        assert parsed is None or isinstance(parsed, ParsedRequest)


_STATUSES = st.sampled_from(
    [100, 200, 201, 204, 206, 301, 302, 304, 400, 403, 404, 413, 431,
     500, 501, 502, 503, 505, 299, 599]
)
_HEADER_VALUE = st.text(
    alphabet=st.characters(min_codepoint=0x21, max_codepoint=0xFF),
    max_size=30,
).flatmap(
    lambda head: st.text(
        alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF),
        max_size=10,
    ).map(lambda tail: (head + tail).strip())
)
_HEADER_NAME = _TOKEN.filter(
    lambda name: name.lower() not in (
        "connection", "keep-alive", "proxy-connection", "te",
        "transfer-encoding", "upgrade", "content-length",
    )
)


@settings(max_examples=200, deadline=None)
@given(
    status=_STATUSES,
    headers=st.lists(st.tuples(_HEADER_NAME, _HEADER_VALUE), max_size=6),
    body=st.binary(max_size=300),
    keep_alive=st.booleans(),
    head=st.booleans(),
)
def test_render_then_read_response_round_trips(
    status, headers, body, keep_alive, head
):
    response = Response(status=status, headers=Headers(headers), body=body)

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(
            render_response(response, head=head, keep_alive=keep_alive)
        )
        reader.feed_eof()
        return await read_response(reader, head=head)

    got_status, got_headers, got_body, got_keep_alive = asyncio.run(go())
    assert got_status == status
    assert got_body == (b"" if head else body)
    assert got_keep_alive == keep_alive
    assert list(got_headers) == [
        *headers,
        ("Content-Length", str(len(body))),
        ("Connection", "keep-alive" if keep_alive else "close"),
    ]
