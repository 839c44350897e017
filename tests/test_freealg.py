"""Exact noncommutative polynomial arithmetic and the text grammar."""

from fractions import Fraction

import pytest

from qsym.freealg import NcPoly, deglex_key, parse_poly


def u(i, j):
    return NcPoly.generator(i, j)


def test_arithmetic_is_noncommutative_and_exact():
    a, b = u(1, 1), u(1, 2)
    assert a * b != b * a
    assert (a * b).terms == {((1, 1), (1, 2)): Fraction(1)}
    third = NcPoly.constant(Fraction(1, 3))
    assert (third + third + third) == NcPoly.one()
    assert (a - a).is_zero
    assert a.scale(Fraction(2, 5)).lc() == Fraction(2, 5)


def test_deglex_order():
    w_short = ((3, 3),)
    w_long = ((1, 1), (1, 1))
    assert deglex_key(w_short) < deglex_key(w_long)  # degree first
    assert deglex_key(((1, 2), (1, 1))) > deglex_key(((1, 1), (9, 9)))
    p = u(1, 1) * u(1, 1) + u(3, 3)
    assert p.lm() == ((1, 1), (1, 1))
    # multiplicative: x < y implies axb < ayb
    a, x, y, b = (2, 2), (1, 1), (1, 2), (3, 3)
    assert deglex_key((a, x, b)) < deglex_key((a, y, b))


def test_monic_and_degree():
    p = (u(1, 2) * u(1, 2)).scale(3) - u(2, 1)
    assert p.degree() == 2
    assert p.monic().lc() == 1
    assert p.monic().terms[((2, 1),)] == Fraction(-1, 3)
    assert NcPoly.zero().degree() == 0
    with pytest.raises(ValueError):
        NcPoly.zero().lm()


def test_parse_and_print():
    p = parse_poly("3/2*u[1,2]*u[3,4] - u[2,2] + 1")
    assert p.terms == {
        ((1, 2), (3, 4)): Fraction(3, 2),
        ((2, 2),): Fraction(-1),
        (): Fraction(1),
    }
    assert parse_poly(str(p)) == p
    assert parse_poly("-u[1,1]") == -u(1, 1)
    assert parse_poly("2*3*u[1,1]") == u(1, 1).scale(6)
    for bad in ("", "u[1]", "u[1,2]**2", "1.5*u[1,1]", "+", "3/0*u[1,1]",
                "u[1,1] - 0/0"):
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_float_coefficients_are_rejected():
    for terms in ({(): 0.1}, {((1, 1),): 1.0}, {((1, 2),): -0.0}):
        with pytest.raises(TypeError):
            NcPoly(terms)
    with pytest.raises(TypeError):
        NcPoly.monomial(((1, 1),), 2.5)
    with pytest.raises(TypeError):
        u(1, 1).scale(0.5)
    assert NcPoly({(): 1, ((1, 1),): Fraction(1, 2)}).terms == {
        (): Fraction(1), ((1, 1),): Fraction(1, 2)}


def test_int_form_is_cached_and_clears_denominators():
    p = parse_poly("1/2*u[1,1]*u[1,2] - 2/3*u[2,2] + 3")
    den, ints = p.int_form()
    assert den == 6
    assert ints == {((1, 1), (1, 2)): 3, ((2, 2),): -4, (): 18}
    assert all(type(c) is int for c in ints.values())
    assert p.int_form() is p.int_form()
    assert u(1, 1).int_form() == (1, {((1, 1),): 1})
    assert NcPoly.zero().int_form() == (1, {})


def test_from_int_form_keeps_the_given_forms():
    ints = {((1, 1), (1, 2)): 3, ((2, 2),): -4, (): 18}
    p = NcPoly.from_int_form(((1, 1), (1, 2)), 6, ints)
    assert p == parse_poly("1/2*u[1,1]*u[1,2] - 2/3*u[2,2] + 3")
    assert all(type(c) is Fraction for c in p.terms.values())
    assert p.int_form() == (6, ints) and p.int_form()[1] is ints
    assert p.lm() == ((1, 1), (1, 2))


def test_str_sign_handling():
    p = -u(1, 1) + NcPoly.one()
    text = str(p)
    assert text in ("-u[1,1] + 1", "1 - u[1,1]")
    assert parse_poly(text) == p
