"""Negative fixture: the blessed replacement for every deprecated form."""

from repro.xmlcore import parse


def use_everything(envelope_cls, document):
    tree = parse(document)
    envelope = envelope_cls.parse(document, server=True)
    return tree, envelope
