"""The unified parse facade and the last deprecated alias.

The redesign collapses entry points to ``repro.xmlcore.parse`` and
``Envelope.parse``; ``repro.xmlcore.parser.parse`` stays as a thin alias
that behaves identically but announces itself with a DeprecationWarning
exactly once per call site (Python's default warning filter dedups on
location, so a loop over a deprecated alias warns once, not N times).
"""

import warnings

import pytest

from repro import xmlcore
from repro.soap.envelope import Envelope
from repro.xmlcore import parser
from repro.xmlcore.cursor import XmlCursor
from repro.xmlcore.tree import Element

DOC = b'<root a="1"><child>text</child></root>'

ENVELOPE = (
    b'<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">'
    b"<soap:Header><h:Hint xmlns:h=\"urn:h\">x</h:Hint></soap:Header>"
    b'<soap:Body><m:Echo xmlns:m="urn:m"><payload>hi</payload></m:Echo></soap:Body>'
    b"</soap:Envelope>"
)


class TestParseFacade:
    def test_tree_mode_is_default(self):
        tree = xmlcore.parse(DOC)
        assert isinstance(tree, Element)
        assert tree.tag == "root"
        assert tree.get("a") == "1"

    def test_cursor_mode_returns_cursor(self):
        cursor = xmlcore.parse(DOC, mode="cursor")
        assert isinstance(cursor, XmlCursor)
        start = cursor.root()
        assert start.name == "root"
        cursor.skip(start)
        cursor.finish()

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError, match="unknown parse mode 'sax'"):
            xmlcore.parse(DOC, mode="sax")

    def test_envelope_parse_skips_headers_by_default(self):
        envelope = Envelope.parse(ENVELOPE)
        assert envelope.header_entries == []
        assert envelope.first_body_entry().qname.local == "Echo"

    def test_envelope_parse_server_materializes_headers(self):
        envelope = Envelope.parse(ENVELOPE, server=True)
        assert [h.qname.local for h in envelope.header_entries] == ["Hint"]


class TestDeprecatedAliases:
    def test_parser_parse_still_works_and_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tree = parser.parse(DOC)  # repro: disable=no-deprecated-api — the alias under test
        assert tree.structurally_equal(xmlcore.parse(DOC))
        assert len(caught) == 1
        assert caught[0].category is DeprecationWarning
        assert "repro.xmlcore.parse" in str(caught[0].message)

    def test_warning_dedup_is_once_per_call_site(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            for _ in range(5):
                parser.parse(DOC)  # one call site, five calls  # repro: disable=no-deprecated-api
        assert len(caught) == 1
