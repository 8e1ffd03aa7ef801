import pytest

from blockjack.types import Prefix, RouterId, check_asn


def test_prefix_normalizes_host_bits():
    assert str(Prefix.parse("10.0.0.7/24")) == "10.0.0.0/24"
    assert str(Prefix.parse("192.168.5.129/25")) == "192.168.5.128/25"


def test_prefix_roundtrip_and_order():
    p = Prefix.parse("10.1.2.0/24")
    assert Prefix.parse(str(p)) == p
    assert Prefix.parse("10.0.0.0/8") < Prefix.parse("10.0.0.0/24")
    assert Prefix.parse("10.0.0.0/24") < Prefix.parse("11.0.0.0/24")


def test_prefix_rejects_bad_input():
    with pytest.raises(ValueError):
        Prefix.parse("10.0.0.0/33")
    with pytest.raises(ValueError):
        Prefix(base=1, length=24)  # host bit set


def test_asn_bounds():
    assert check_asn(1) == 1
    assert check_asn(4_294_967_295)
    for bad in (0, -5, 4_294_967_296):
        with pytest.raises(ValueError):
            check_asn(bad)


def test_router_id_parse_and_order():
    rid = RouterId.parse("64512.3")
    assert rid == RouterId(64512, 3)
    assert str(rid) == "64512.3"
    assert RouterId(10, 0) < RouterId(10, 1) < RouterId(11, 0)
    with pytest.raises(ValueError):
        RouterId(0, 0)


def test_identifier_text_forms():
    p = Prefix.parse("192.0.2.0/24")
    assert str(p) == "192.0.2.0/24"
    assert repr(p) == "Prefix(base=3221225984, length=24)"
    assert str(Prefix(0, 0)) == "0.0.0.0/0"
    assert str(Prefix(0xFFFFFFFF, 32)) == "255.255.255.255/32"
    assert str(RouterId(64512)) == "64512.0"
    assert repr(RouterId(64512, 3)) == "RouterId(asn=64512, index=3)"


def test_identifiers_sort_field_by_field():
    prefixes = [Prefix.parse(t) for t in
                ("11.0.0.0/8", "10.0.0.0/24", "10.0.0.0/8", "9.255.0.0/16")]
    assert [str(p) for p in sorted(prefixes)] == [
        "9.255.0.0/16", "10.0.0.0/8", "10.0.0.0/24", "11.0.0.0/8"]
    rids = [RouterId(11, 0), RouterId(10, 5), RouterId(10, 0)]
    assert sorted(rids) == [RouterId(10, 0), RouterId(10, 5), RouterId(11, 0)]


def test_identifiers_hash_as_their_field_tuples():
    for base, length in ((0, 0), (0x0A000000, 8), (0xC0000200, 24)):
        assert hash(Prefix(base, length)) == hash((base, length))
    assert hash(RouterId(64512, 3)) == hash((64512, 3))
    assert Prefix(0x0A000000, 8) == (0x0A000000, 8)


@pytest.mark.parametrize("make", [
    lambda: Prefix(1, 24), lambda: Prefix(base=1, length=24),
    lambda: Prefix(0, 33), lambda: Prefix(length=-1, base=0),
    lambda: Prefix(1 << 32, 32), lambda: Prefix(base=-1, length=0),
    lambda: RouterId(0), lambda: RouterId(asn=0, index=1),
    lambda: RouterId(10, -1), lambda: RouterId(index=-1, asn=10),
    lambda: RouterId(asn=1 << 32),
], ids=["prefix-host-bits", "prefix-host-bits-kw", "prefix-length",
        "prefix-length-kw", "prefix-base", "prefix-base-kw", "rid-asn",
        "rid-asn-kw", "rid-index", "rid-index-kw", "rid-asn-large-kw"])
def test_identifier_checks_hold_for_positional_and_keyword_fields(make):
    with pytest.raises(ValueError):
        make()


def test_identifier_keyword_construction_matches_positional():
    assert Prefix(base=0x0A000000, length=8) == Prefix(0x0A000000, 8)
    assert RouterId(asn=10) == RouterId(10, 0) == RouterId(index=0, asn=10)
    with pytest.raises(TypeError):
        RouterId(asn=True)


@pytest.mark.parametrize("make", [
    lambda: RouterId(10, 1.5), lambda: RouterId(asn=10, index=1.5),
    lambda: RouterId(10, True), lambda: RouterId(index=False, asn=10),
    lambda: RouterId(10, "1"),
], ids=["float", "float-kw", "bool", "bool-kw", "str"])
def test_router_id_index_must_be_an_integer(make):
    # a float index would print as "10.1.5", which RouterId.parse refuses
    with pytest.raises(TypeError):
        make()


def test_identifiers_are_immutable():
    p, rid = Prefix(0x0A000000, 8), RouterId(10, 1)
    for obj, field in ((p, "base"), (p, "length"), (rid, "asn"), (rid, "index")):
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    with pytest.raises(AttributeError):
        p.extra = 1
