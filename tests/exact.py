"""Exact arithmetic for the forward-error oracles of the tests.

A double is a dyadic rational, so `Fraction(x)` holds it exactly and sums
and products of Fractions are exact.  An oracle bounds the library's
rounding error by Higham's gamma_k (N. J. Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., Lemma 3.1: k roundings are within gamma_k =
k u / (1 - k u) relative, u = 2^-53) and `report`s its largest error in
units of that bound, which must be at most 1.  mpmath gives what Fractions
cannot, cos and sin at a stated precision, and `fraction` reads them exactly.
"""

import math
from fractions import Fraction

import numpy as np

U = Fraction(1, 2 ** 53)


def gamma(k):
    return k * U / (1 - k * U)


def fraction(x):
    """An mpmath float as the Fraction it is (`man_exp` drops the sign)."""
    man, exp = x.man_exp
    return Fraction(-man if x < 0 else man) * Fraction(2) ** exp


def dyadic(x, bits):
    """x rounded to multiples of 2^-bits."""
    return np.round(np.asarray(x) * 2.0 ** bits) / 2.0 ** bits


def sqrt_enclosure(square, bits=120):
    """(lo, lo + 2^-bits) around the root of a Fraction square >= 0."""
    root = math.isqrt(square.numerator * 4 ** bits // square.denominator)
    return Fraction(root, 2 ** bits), Fraction(root + 1, 2 ** bits)


def report(label, **ratios):
    """Print each largest error in units of its bound (`pytest -s`)."""
    named = ", ".join(f"{name.replace('_', ' ')} {float(r):.3g}" for name, r in ratios.items())
    print(f"{label}: {named} of the bound")
