"""In-memory XML element tree (the library's DOM-like substrate).

The model is deliberately small: an :class:`Element` has a tag (Clark
notation or plain local name), an ordered attribute list, and a list of
children where each child is either another ``Element`` or a ``str``
text node.  Mixed content therefore round-trips exactly, which matters
for differential serialization and WS-Security digests.

Attribute storage is a tuple of ``(name, value)`` pairs behind accessor
methods (:meth:`Element.get` / :meth:`Element.set` /
:meth:`Element.items`), not a dict: SOAP elements carry zero to three
attributes, so a pair tuple is cheaper to build than a dict on the
parse hot path and a linear scan beats hashing on lookup.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

from repro.errors import XmlError
from repro.xmlcore.qname import QName

Child = Union["Element", str]

AttrItems = tuple[tuple[str, str], ...]


class Element:
    """A single XML element node.

    Parameters
    ----------
    tag:
        Element name, either ``local``, ``{uri}local`` Clark notation,
        or a :class:`QName`.
    attributes:
        Attribute names (same conventions as ``tag``) with values:
        a mapping, or an iterable of ``(name, value)`` pairs.
    nsmap:
        Preferred prefix→URI declarations to emit on this element when
        serialized.  Purely cosmetic; resolution uses Clark names.
    """

    __slots__ = ("tag", "_attrs", "children", "nsmap")

    def __init__(
        self,
        tag: str | QName,
        attributes: "dict[str, str] | Iterable[tuple[str, str]] | None" = None,
        *,
        nsmap: dict[str, str] | None = None,
    ) -> None:
        self.tag = tag if type(tag) is str else str(tag)
        if attributes:
            if type(attributes) is tuple:
                self._attrs = attributes
            elif hasattr(attributes, "items"):
                self._attrs = tuple(attributes.items())
            else:
                self._attrs = tuple(attributes)
        else:
            self._attrs = ()
        self.children: list[Child] = []
        self.nsmap: dict[str, str] = dict(nsmap) if nsmap else {}

    # -- construction -------------------------------------------------

    def append(self, child: Child) -> Child:
        """Append an element or text node and return it."""
        if not isinstance(child, (Element, str)):
            raise XmlError(f"cannot append {type(child).__name__} to an Element")
        self.children.append(child)
        return child

    def extend(self, children: Iterable[Child]) -> None:
        """Append several children."""
        for child in children:
            self.append(child)

    def subelement(
        self,
        tag: str | QName,
        attributes: "dict[str, str] | Iterable[tuple[str, str]] | None" = None,
        *,
        text: str | None = None,
        nsmap: dict[str, str] | None = None,
    ) -> "Element":
        """Create, append and return a child element (optionally with text)."""
        child = Element(tag, attributes, nsmap=nsmap)
        if text is not None:
            child.append(text)
        self.children.append(child)
        return child

    # -- attributes ----------------------------------------------------

    def set(self, name: str | QName, value: str) -> None:
        """Set an attribute (name in Clark or local form)."""
        name = name if type(name) is str else str(name)
        attrs = self._attrs
        for index, (key, _) in enumerate(attrs):
            if key == name:
                self._attrs = attrs[:index] + ((name, value),) + attrs[index + 1 :]
                return
        self._attrs = attrs + ((name, value),)

    def get(self, name: str | QName, default: str | None = None) -> str | None:
        """Attribute value, or ``default`` when absent."""
        name = name if type(name) is str else str(name)
        for key, value in self._attrs:
            if key == name:
                return value
        return default

    def items(self) -> AttrItems:
        """The attributes as an ordered tuple of ``(name, value)`` pairs."""
        return self._attrs

    def pop_attribute(
        self, name: str | QName, default: str | None = None
    ) -> str | None:
        """Remove an attribute, returning its value (or ``default``)."""
        name = name if type(name) is str else str(name)
        attrs = self._attrs
        for index, (key, value) in enumerate(attrs):
            if key == name:
                self._attrs = attrs[:index] + attrs[index + 1 :]
                return value
        return default

    def replace_attributes(
        self, attributes: "dict[str, str] | Iterable[tuple[str, str]]"
    ) -> None:
        """Replace the whole attribute list in one step."""
        if hasattr(attributes, "items"):
            self._attrs = tuple(attributes.items())
        else:
            self._attrs = tuple(attributes)

    # -- inspection ----------------------------------------------------

    @property
    def qname(self) -> QName:
        return QName.parse(self.tag)

    @property
    def local_name(self) -> str:
        return self.qname.local

    @property
    def namespace(self) -> str:
        return self.qname.uri

    @property
    def text(self) -> str:
        """Concatenation of all *direct* text children."""
        return "".join(c for c in self.children if isinstance(c, str))

    def full_text(self) -> str:
        """Concatenation of all text in the subtree, document order."""
        parts: list[str] = []
        for child in self.children:
            if isinstance(child, str):
                parts.append(child)
            else:
                parts.append(child.full_text())
        return "".join(parts)

    def element_children(self) -> list["Element"]:
        """Direct child elements (text nodes skipped)."""
        return [c for c in self.children if isinstance(c, Element)]

    def iter(self) -> Iterator["Element"]:
        """Depth-first pre-order iteration over the element subtree."""
        yield self
        for child in self.children:
            if isinstance(child, Element):
                yield from child.iter()

    def find(self, tag: str | QName) -> "Element | None":
        """First direct child element whose tag matches.

        A plain local name matches regardless of namespace; Clark
        notation matches exactly.
        """
        for child in self.element_children():
            if _tag_matches(child, str(tag)):
                return child
        return None

    def findall(self, tag: str | QName) -> list["Element"]:
        """Every direct child element whose tag matches."""
        return [c for c in self.element_children() if _tag_matches(c, str(tag))]

    def findtext(self, tag: str | QName, default: str | None = None) -> str | None:
        """Text of the first matching child, or ``default``."""
        found = self.find(tag)
        return found.text if found is not None else default

    def require(self, tag: str | QName) -> "Element":
        """Like :meth:`find` but raises when the child is absent."""
        found = self.find(tag)
        if found is None:
            raise XmlError(f"element <{self.tag}> has no <{tag}> child")
        return found

    # -- comparison ----------------------------------------------------

    def structurally_equal(self, other: "Element") -> bool:
        """Deep equality on tag, attributes and (normalized) children.

        Attribute order is ignored (as dict equality did before the
        tuple storage) and adjacent text nodes are merged before
        comparison, so two trees that serialize identically compare
        equal.
        """
        if self.tag != other.tag:
            return False
        if self._attrs != other._attrs and dict(self._attrs) != dict(other._attrs):
            return False
        mine = _normalized_children(self)
        theirs = _normalized_children(other)
        if len(mine) != len(theirs):
            return False
        for a, b in zip(mine, theirs):
            if isinstance(a, str) or isinstance(b, str):
                if a != b:
                    return False
            elif not a.structurally_equal(b):
                return False
        return True

    def copy(self) -> "Element":
        """Deep copy of the subtree."""
        clone = Element(self.tag, self._attrs, nsmap=self.nsmap)
        for child in self.children:
            clone.children.append(child if isinstance(child, str) else child.copy())
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Element {self.tag} attrs={len(self._attrs)} children={len(self.children)}>"


def _tag_matches(element: Element, pattern: str) -> bool:
    if pattern.startswith("{"):
        return element.tag == pattern
    return element.local_name == pattern


def _normalized_children(element: Element) -> list[Child]:
    merged: list[Child] = []
    for child in element.children:
        if isinstance(child, str):
            if not child:
                continue
            if merged and isinstance(merged[-1], str):
                merged[-1] = merged[-1] + child
            else:
                merged.append(child)
        else:
            merged.append(child)
    return merged
