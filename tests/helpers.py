"""Shared presentation builders for the test suite."""

from hhkt.algebra import AlgebraPresentation, GradedGenerator
from hhkt.fields import PrimeField


def exterior(p, degs):
    return AlgebraPresentation(
        PrimeField(p),
        [GradedGenerator(f"y{i+1}", d, "exterior")
         for i, d in enumerate(degs)])


def polynomial(p, degs, rels=()):
    return AlgebraPresentation(
        PrimeField(p),
        [GradedGenerator(f"x{i+1}", d, "polynomial")
         for i, d in enumerate(degs)], rels)


def two_spheres_deg5():
    """Exterior algebra on two degree-5 generators over F_2."""
    return exterior(2, [5, 5])


def two_spheres_deg3():
    return exterior(2, [3, 3])


def truncated_poly_char2():
    """F_2[x]/(x^2) with deg x = 4."""
    return polynomial(2, [4], ["x1^2"])


def exterior_times_truncated_f3():
    """/\\(y1) (x) F_3[x1]/(x1^3) with deg y1 = 3, deg x1 = 2."""
    return AlgebraPresentation(
        PrimeField(3),
        [GradedGenerator("y1", 3, "exterior"),
         GradedGenerator("x1", 2, "polynomial")], ["x1^3"])


def column(M, j):
    """Column j of a SparseMatrix, as a {row: coeff} vector."""
    return {r: v for (r, c), v in sorted(M.entries.items()) if c == j}
