"""Positive fixture: every no-deprecated-api trigger form.

Never imported — the analyzer reads it as text, so the imports need
not resolve.
"""

from repro.xmlcore.parser import parse  # deprecated import


def use_everything(xmlcore, document):
    tree = parse(document)
    chained = xmlcore.parser.parse(document)  # deprecated attribute chain
    return tree, chained
