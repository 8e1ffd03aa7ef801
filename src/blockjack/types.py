"""Shared identifier types: IPv4 prefixes, AS numbers, router ids.

``Prefix`` and ``RouterId`` are validated named tuples, so hashing,
equality and ordering run in C; each compares and hashes as the plain
tuple of its fields.

A field of a topology or script document or of an HTTP request is read
through ``integer``, ``number``, ``flag``, ``check_asn``, ``check_u32``
or a ``parse``, never a bare ``int()``, ``float()`` or ``bool()``; each
refuses a value with ``TypeError`` or ``ValueError``, never converting it
by force.
"""

from __future__ import annotations

import ipaddress
import math
from collections import namedtuple

MAX_U32 = 4_294_967_295
MAX_ASN = MAX_U32


def check_asn(value: int) -> int:
    """Validate an autonomous system number (16- or 32-bit, nonzero)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"ASN must be an integer, got {value!r}")
    if not 1 <= value <= MAX_ASN:
        raise ValueError(f"ASN out of range 1..{MAX_ASN}: {value}")
    return value


def check_u32(value: int, name: str) -> int:
    """Validate a four-octet unsigned field: an int in 0..2**32-1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if not 0 <= value <= MAX_U32:
        raise ValueError(f"{name} out of range 0..{MAX_U32}: {value}")
    return value


def integer(value, name: str) -> int:
    """An int, or its text in plain ASCII digits, refusing rather than
    truncating a bool or a JSON number written with a fraction or an
    exponent."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if isinstance(value, str):
        return _digits(value, name)
    return int(value)


def _digits(text: str, name: str) -> int:
    """Plain ASCII digits only: ``int()`` would also take spaces,
    underscores, a sign and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"invalid literal for {name}: {text!r}; "
                         f"expected plain digits")
    return int(text)


def number(value, name: str) -> float:
    """A finite int or float as a float; a bool or text is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def flag(value, name: str) -> bool:
    """A JSON bool; ``0``, ``1`` and ``"false"`` are refused."""
    if not isinstance(value, bool):
        raise TypeError(f"{name} must be true or false, got {value!r}")
    return value


def _text(value, form: str) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected {form} text, got {value!r}")
    return value


class Prefix(namedtuple("Prefix", "base length")):
    """A CIDR block, normalized so host bits below the mask are zero.

    Canonical text form is ``a.b.c.d/len``.  ``_make`` and ``_replace``
    skip the checks in ``__new__``: give them only valid fields.
    """

    __slots__ = ()

    def __new__(cls, base: int, length: int) -> "Prefix":
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range 0..32: {length}")
        if not 0 <= base <= 0xFFFFFFFF:
            raise ValueError(f"prefix base out of 32-bit range: {base}")
        mask = (0xFFFFFFFF << (32 - length)) & 0xFFFFFFFF if length else 0
        if base & ~mask:
            raise ValueError(f"host bits set below /{length}: "
                             f"{ipaddress.IPv4Address(base)}")
        return tuple.__new__(cls, (base, length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` text, zeroing any host bits."""
        net = ipaddress.IPv4Network(_text(text, "a.b.c.d/len").strip(), strict=False)
        return cls(int(net.network_address), net.prefixlen)

    def __str__(self) -> str:
        base, length = self
        return f"{base >> 24}.{base >> 16 & 255}.{base >> 8 & 255}.{base & 255}/{length}"


class RouterId(namedtuple("RouterId", "asn index")):
    """Globally unique router identity: owning ASN plus a local index.

    ``_make`` and ``_replace`` skip the checks in ``__new__``: give them
    only valid fields.
    """

    __slots__ = ()

    def __new__(cls, asn: int, index: int = 0) -> "RouterId":
        check_asn(asn)
        check_u32(index, "router index")
        return tuple.__new__(cls, (asn, index))

    @classmethod
    def parse(cls, text: str) -> "RouterId":
        """Parse the ``asn.index`` wire form; a bare ``asn`` is index 0."""
        asn, dot, index = _text(text, "asn.index").partition(".")
        return cls(_digits(asn, "asn"), _digits(index, "router index") if dot else 0)

    def __str__(self) -> str:
        return f"{self.asn}.{self.index}"
