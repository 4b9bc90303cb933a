"""Walk through the two factorizations of the super Catalan array.

Both express S in terms of simpler pieces: central-binomial scalings of the
reciprocal Pascal matrix on one side, a binomial triangle against an
alternating diagonal on the other.  Everything below is exact arithmetic;
the asserts are real checks, not decoration.
"""
from math import comb

from recpascal import (
    check_grg,
    check_ldl,
    check_von_szily_upto,
    d_matrix,
    from_rows,
    g_matrix,
    l_matrix,
    matmul,
    reciprocal_pascal,
    super_catalan_matrix,
)

N = 6


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


def show(matrix, label):
    print(f"\n{label}:")
    for row in matrix:
        print("   ", "  ".join(f"{str(x):>8}" for x in row))


banner(f"The super Catalan array, size {N}")
s = super_catalan_matrix(N)
show(s, "S")
print("\nEvery entry is an integer even though the defining quotient")
print("(2m)!(2n)! / (m! n! (m+n)!) does not make that obvious.")

banner("Factorization 1: diagonal scalings of the reciprocal Pascal matrix")
g = g_matrix(N)
r = reciprocal_pascal(N)
print("\nG = diag of central binomials:", g)
show(r, "R (entrywise reciprocals of C(i+j, i))")
product = [[g[i] * x * g[j] for j, x in enumerate(row)] for i, row in enumerate(r)]
show(product, "G R G")
assert check_grg(N).passed
print("\nG R G equals S exactly, so R = G^-1 S G^-1: the reciprocal Pascal")
print("matrix is the super Catalan array with both indices unscaled.")

banner("Factorization 2: triangle times alternating diagonal")
l = l_matrix(N)
d = d_matrix(N)
show(l, "L (row m holds C(2m, m+k))")
print("\nD =", d)
product = matmul(from_rows([x * dk for x, dk in zip(row, d)] for row in l), l.T)
show(product, "L D L^T")
assert check_ldl(N).passed
print("\nL D L^T equals S as well.  L is unit lower triangular, which is")
print("what later makes the inverse of R integer-valued.")

banner("The scalar identity behind factorization 2")
m, n = 3, 2
print(f"\nTake (m, n) = ({m}, {n}).  The alternating convolution")
print("sum_k (-1)^k C(2m, m+k) C(2n, n-k) telescopes to S(m, n):")
total = 0
for k in range(-min(m, n), min(m, n) + 1):  # every other term is zero
    term = (-1 if k & 1 else 1) * comb(2 * m, m + k) * comb(2 * n, n - k)
    print(f"    k={k:+d}: {term:+d}")
    total += term
print(f"    sum = {total}, S({m}, {n}) = {s[m][n]}")
assert check_von_szily_upto(max(m, n) + 1).passed
print("\nThe folded one-sided form is entrywise L D L^T, which check_ldl checks.")

print("\nAll factorization demos passed.")
