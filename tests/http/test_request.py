"""Tests for the HttpRequest model and raw parsing."""

import pytest

from repro.http import HttpRequest, RequestParseError


class TestPayloadExtraction:
    def test_query_only(self):
        request = HttpRequest(query="id=1")
        assert request.flat_payload() == "id=1"

    def test_no_query(self):
        assert HttpRequest().flat_payload() == ""

    def test_form_body_appended(self):
        request = HttpRequest(
            method="POST",
            query="a=1",
            headers={"content-type": "application/x-www-form-urlencoded"},
            body="b=2",
        )
        assert request.flat_payload() == "a=1&b=2"

    def test_form_body_alone(self):
        request = HttpRequest(
            method="POST",
            headers={"content-type": "application/x-www-form-urlencoded"},
            body="user=admin%27--",
        )
        assert request.flat_payload() == "user=admin%27--"

    def test_json_body_not_in_payload(self):
        request = HttpRequest(
            method="POST",
            query="q=1",
            headers={"content-type": "application/json"},
            body='{"a": 1}',
        )
        assert request.flat_payload() == "q=1"

    def test_bare_post_body_counts_as_form(self):
        request = HttpRequest(method="POST", body="x=1")
        assert request.flat_payload() == "x=1"

    def test_paper_extraction_rule_drops_host_and_path(self):
        # "leaving out the HTTP address, the port, and the path"
        request = HttpRequest.from_url(
            "http://victim.example:8080/products.php?id=1%27"
        )
        assert request.flat_payload() == "id=1%27"
        assert request.host == "victim.example"
        assert request.path == "/products.php"


class TestParameters:
    def test_ordered_pairs(self):
        request = HttpRequest(query="b=2&a=1")
        assert request.parameters() == [("b", "2"), ("a", "1")]

    def test_encoded_values_kept_raw(self):
        request = HttpRequest(query="id=1%27")
        assert request.parameters() == [("id", "1%27")]


class TestFromUrl:
    def test_label_attached(self):
        request = HttpRequest.from_url("http://h/p?x=1", label="attack")
        assert request.label == "attack"

    def test_method_uppercased(self):
        request = HttpRequest.from_url("http://h/p", method="post")
        assert request.method == "POST"


class TestRawParsing:
    RAW = (
        "GET /view.php?id=1%27+OR+1%3D1 HTTP/1.1\r\n"
        "Host: victim.example\r\n"
        "User-Agent: test\r\n"
        "\r\n"
    )

    def test_parse_request_line(self):
        request = HttpRequest.parse(self.RAW)
        assert request.method == "GET"
        assert request.path == "/view.php"
        assert request.query == "id=1%27+OR+1%3D1"

    def test_host_from_header(self):
        request = HttpRequest.parse(self.RAW)
        assert request.host == "victim.example"

    def test_headers_lowercased(self):
        request = HttpRequest.parse(self.RAW)
        assert request.headers["user-agent"] == "test"

    def test_post_with_body(self):
        raw = (
            "POST /login HTTP/1.1\n"
            "Host: h\n"
            "Content-Type: application/x-www-form-urlencoded\n"
            "\n"
            "user=admin&pass=x%27--"
        )
        request = HttpRequest.parse(raw)
        assert request.body == "user=admin&pass=x%27--"
        assert "pass=x%27--" in request.flat_payload()

    def test_malformed_request_line_raises(self):
        with pytest.raises(RequestParseError):
            HttpRequest.parse("GARBAGE\r\n\r\n")

    def test_malformed_header_raises(self):
        with pytest.raises(RequestParseError):
            HttpRequest.parse("GET / HTTP/1.1\nBadHeaderNoColon\n\n")

    def test_roundtrip_through_to_raw(self):
        request = HttpRequest.parse(self.RAW)
        reparsed = HttpRequest.parse(request.to_raw())
        assert reparsed.method == request.method
        assert reparsed.query == request.query
        assert reparsed.host == request.host


class TestUrlAssembly:
    def test_url_with_query(self):
        request = HttpRequest(host="h", path="/p", query="a=1")
        assert request.url() == "h/p?a=1"

    def test_url_without_query(self):
        request = HttpRequest(host="h", path="/p")
        assert request.url() == "h/p"

    def test_frozen(self):
        request = HttpRequest()
        with pytest.raises(AttributeError):
            request.method = "POST"
