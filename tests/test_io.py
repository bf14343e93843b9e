"""Serialization: text and binary round trips, format sniffing, the LaTeX
point-list importer, and parse errors that carry line numbers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossnum.doubling import double_points
from crossnum.geometry import PointSet
from crossnum.halving import halving_matching, halving_matching_sig, slot_partner
from crossnum.io import (
    ParseError,
    format_matching,
    format_points,
    format_signature_text,
    load_drawing,
    load_points,
    parse_drawing,
    parse_matching,
    parse_points,
    parse_signature,
    parse_signature_text,
    save_drawing,
    save_points,
    save_signature,
    signature_from_binary,
    signature_to_binary,
)
from crossnum.signatures import Signature, convex_signature, signature_of

from conftest import rand_general


def test_round_trips_random():
    rng = random.Random(5)
    for _ in range(25):
        S = rand_general(rng, rng.randint(3, 12))
        assert tuple(parse_points(format_points(S))) == tuple(S)
        assert tuple(parse_drawing(format_points(S))) == tuple(S)
        D = signature_of(S)
        assert parse_signature_text(format_signature_text(D)) == D
        assert signature_from_binary(signature_to_binary(D)) == D
        assert parse_signature(signature_to_binary(D)) == D
        assert parse_signature(format_signature_text(D)) == D
        got = parse_drawing(format_signature_text(D).encode())
        assert isinstance(got, Signature) and got == D


@st.composite
def _random_signatures(draw):
    n = draw(st.integers(min_value=3, max_value=12))
    nbits = n * (n - 1) * (n - 2) // 6
    raw = bytearray(draw(st.binary(min_size=(nbits + 7) // 8, max_size=(nbits + 7) // 8)))
    if nbits % 8:
        raw[-1] &= (1 << (nbits % 8)) - 1  # clear padding bits
    return Signature(n, bytes(raw))


@given(_random_signatures())
@settings(max_examples=60)
def test_binary_round_trip_property(D):
    assert signature_from_binary(signature_to_binary(D)) == D
    assert parse_signature_text(format_signature_text(D)) == D


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-10**6, max_value=10**6),
            st.integers(min_value=-10**6, max_value=10**6),
        ),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
@settings(max_examples=60)
def test_points_text_round_trip_property(pts):
    S = PointSet(tuple(pts))
    assert tuple(parse_points(format_points(S))) == tuple(S)


def test_file_round_trips_and_sniffing(tmp_path):
    rng = random.Random(6)
    S = rand_general(rng, 7)
    D = signature_of(S)
    save_points(S, tmp_path / "a.pts")
    assert tuple(load_points(tmp_path / "a.pts")) == tuple(S)
    assert tuple(load_drawing(tmp_path / "a.pts")) == tuple(S)
    save_signature(D, tmp_path / "a.sig")
    assert load_drawing(tmp_path / "a.sig") == D
    save_signature(D, tmp_path / "a.bsig", binary=True)
    assert load_drawing(tmp_path / "a.bsig") == D
    save_drawing(S, tmp_path / "b")
    save_drawing(D, tmp_path / "c")
    assert tuple(load_drawing(tmp_path / "b")) == tuple(S)
    assert load_drawing(tmp_path / "c") == D


def test_signature_padding_bits_cleared(tmp_path):
    # C(7,3) = 35 signs in 5 bytes leave 5 padding bits in the last byte
    rng = random.Random(0)
    raw = bytes(rng.getrandbits(8) for _ in range(5))
    assert raw[-1] >> 3  # some padding bit is set
    D = Signature(7, raw)
    E = Signature(7, raw[:-1] + bytes([raw[-1] & 0x07]))
    assert D == E and hash(D) == hash(E)
    assert D.to_bytes()[-1] >> 3 == 0
    save_signature(D, tmp_path / "d.sig")
    assert load_drawing(tmp_path / "d.sig") == D
    save_signature(D, tmp_path / "d.bsig", binary=True)
    assert load_drawing(tmp_path / "d.bsig") == D


def test_latex_itemize_import():
    tex = r"""
    \begin{itemize}
    \item $p_{1}:=(-365, -423)$,
    \item $p_{2}:=(512, 7)$,
    \item $p_{3}:=(0, 99)$, \item $p_{4}:=(17, -38)$
    \end{itemize}
    """
    S = parse_points(tex)
    assert tuple(S) == ((-365, -423), (512, 7), (0, 99), (17, -38))


def test_bundled_large_set_loads():
    from importlib import resources

    path = resources.files("crossnum.data") / "k2643.txt"
    S = load_points(str(path))
    assert S.n == 2643


def test_comments_and_blank_lines():
    S = parse_points("# hi\n\n3\n0 0\n# mid\n5 1\n2 9\n")
    assert S.n == 3
    D = parse_signature("# c\n4\n++\n--\n")
    assert D.n == 4 and D.sign(0, 1, 2) == 1 and D.sign(1, 2, 3) == -1


@pytest.mark.parametrize(
    "bad,sub",
    [
        ("3\n0 0\n1 1\n", "expected 3 points"),
        ("3\n0 0\n1 1\nx y\n", "line 4"),
        ("2\n0 0\n1 1\n5 5\n", "line 4"),
        ("", "empty"),
        ("\\item $p_{1}:=(1,2,3)$", "odd number"),
    ],
)
def test_point_parse_errors(bad, sub):
    with pytest.raises(ParseError) as ei:
        parse_points(bad)
    assert sub in str(ei.value)


@pytest.mark.parametrize(
    "bad,sub",
    [
        ("4\n+++\n", "found 3"),
        ("4\n+++++\n", "line 2"),
        ("4\n++x+\n", "line 2"),
        ("2\n+\n", "at least 3"),
    ],
)
def test_signature_parse_errors(bad, sub):
    with pytest.raises(ParseError) as ei:
        parse_signature_text(bad)
    assert sub in str(ei.value)


@pytest.mark.parametrize(
    "bad,message",
    [
        ("4\n++x+\n", "line 2: expected '+' or '-', got 'x'"),
        ("4\n++++x\n", "line 2: expected '+' or '-', got 'x'"),
        ("4\n++\n+ +x\n", "line 3: expected '+' or '-', got 'x'"),
        ("4\n+++\n++x\n", "line 3: more than C(4,3) = 4 signs"),
        ("4\n++\n# c\n\n+++\n", "line 5: more than C(4,3) = 4 signs"),
        ("5\n+-+-+\n-+\n", "expected C(5,3) = 10 signs, found 7"),
    ],
)
def test_signature_parse_error_messages(bad, message):
    with pytest.raises(ParseError) as ei:
        parse_signature_text(bad)
    assert str(ei.value) == message


def test_binary_errors():
    with pytest.raises(ParseError) as ei:
        signature_from_binary(b"PSLSIG01" + (4).to_bytes(8, "little") + b"\xff")
    assert "padding" in str(ei.value)
    with pytest.raises(ParseError):
        signature_from_binary(b"NOTMAGIC" + bytes(9))
    with pytest.raises(ParseError):
        signature_from_binary(b"PSLSIG01" + (4).to_bytes(8, "little"))


def test_matching_round_trip_geometric():
    rng = random.Random(7)
    for n in (5, 7, 6, 10):
        while True:
            S = rand_general(rng, n)
            M = halving_matching(S)
            if M:
                break
        M2 = parse_matching(format_matching(M))
        assert set(M2.assignments) == set(M.assignments)
        for v in M.assignments:
            a, b = M.assignments[v], M2.assignments[v]
            assert (a.anchor, a.partner, tuple(a.direction)) == (
                b.anchor,
                b.partner,
                tuple(b.direction),
            )


def test_matching_round_trip_signature():
    rng = random.Random(8)
    for n in (5, 7):
        S = rand_general(rng, n)
        D = signature_of(S)
        M = halving_matching_sig(D)
        M2 = parse_matching(format_matching(M), D)
        for v in M.assignments:
            assert slot_partner(D, M2.assignments[v]) == slot_partner(
                D, M.assignments[v]
            )
            assert M2.assignments[v].direction == M.assignments[v].direction
    # even signature: the partner is recovered from the slots alone
    S = rand_general(rng, 5)
    S2, _rep = double_points(S, halving_matching(S))
    D = signature_of(S2)
    M = halving_matching_sig(D)
    assert M
    M2 = parse_matching(format_matching(M), D)
    for v in M.assignments:
        assert M2.assignments[v].partner == M.assignments[v].partner


def test_parse_drawing_sniffs_all_forms():
    D = convex_signature(5)
    assert parse_drawing(signature_to_binary(D)) == D
    assert parse_drawing(format_signature_text(D)) == D
    S = PointSet(((0, 0), (4, 1), (2, 5)))
    assert tuple(parse_drawing(format_points(S))) == tuple(S)
