"""Shared identifier types: IPv4 prefixes, AS numbers, router ids.

``Prefix`` and ``RouterId`` are validated named tuples, so hashing,
equality and ordering run in C; each compares and hashes as the plain
tuple of its fields.
"""

from __future__ import annotations

import ipaddress
from collections import namedtuple

MAX_ASN = 4_294_967_295


def check_asn(value: int) -> int:
    """Validate an autonomous system number (16- or 32-bit, nonzero)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"ASN must be an integer, got {value!r}")
    if not 1 <= value <= MAX_ASN:
        raise ValueError(f"ASN out of range 1..{MAX_ASN}: {value}")
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
        net = ipaddress.IPv4Network(str(text).strip(), strict=False)
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
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"router index must be an integer, got {index!r}")
        if index < 0:
            raise ValueError(f"router index must be >= 0: {index}")
        return tuple.__new__(cls, (asn, index))

    @classmethod
    def parse(cls, text: str) -> "RouterId":
        """Parse the ``asn.index`` wire form."""
        asn, _, index = str(text).partition(".")
        return cls(int(asn), int(index or 0))

    def __str__(self) -> str:
        return f"{self.asn}.{self.index}"
