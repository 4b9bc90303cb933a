"""The headline fact: the reciprocal Pascal matrix has an all-integer inverse.

R is built from nothing but reciprocals 1/C(i+j, i), yet its inverse has
plain integer entries.  The factorization route makes that visible: invert
the unit triangle by its closed form (stays integer), and apply
G L^-T D^-1 L^-1 G to e_0 and k = (0, 1, ..., n-1) in plain integers.  The
only fractional factor, D^-1 = diag(1, -1/2, 1/2, ...), divides exactly
there, with a check: L^-1 G e_0 is D's diagonal, and every entry of
L^-1 G k is even.  That gives c = R^-1 e_0 and v = R^-1 k.  Because R
is a Hankel matrix scaled by diag(i!) on both sides, every other entry
follows from c and v by the displacement recurrence
(j+1) R^-1[i][j+1] - (i+1) R^-1[i+1][j] = v_i c_j - c_i v_j,
one checked division per entry, run upward from the zero row R^-1[n][.].
Each division is the integrality claim for its entry: a remainder would
raise instead of rounding.  A division cannot tell a wrong integer from a
right one, so the route also checks that row i sums to [i == 0], as row 0
of R is all ones.
"""
from recpascal import (
    identity,
    invert_rational,
    l_inverse_matrix,
    matmul,
    r_inverse_00,
    r_inverse_via_factorization,
    reciprocal_pascal,
)

N = 5


def show(matrix, label):
    print(f"\n{label}:")
    for row in matrix:
        print("   ", "  ".join(f"{str(x):>7}" for x in row))


print(f"Size n = {N}")
r = reciprocal_pascal(N)
show(r, "R")

rinv = r_inverse_via_factorization(N)
show(rinv, "R^-1 via the factorization (all integers)")
assert all(isinstance(x, int) for row in rinv for x in row)

oracle = invert_rational(r)
assert rinv == oracle
print("\nIndependent Gauss-Jordan inversion produces the same matrix.")

assert matmul(r, rinv) == identity(N)
assert matmul(rinv, r) == identity(N)
print("R * R^-1 and R^-1 * R are exactly the identity.")

print("\nThe inverted triangle that does the work:")
linv = l_inverse_matrix(N)
show(linv, "L^-1")
col = [row[0] for row in linv]
print("\nIts first column", col, "is 1 followed by even entries;")
print("in fact it reproduces the alternating diagonal D exactly.")

print("\nThe top-left entry has a closed expression that alternates:")
for n in range(1, 9):
    value = r_inverse_00(n)
    assert value == r_inverse_via_factorization(n)[0][0]
    print(f"    n={n}: (R^-1)[0,0] = {value:+d}")
print("\nInteger inverse demo passed.")
