"""Race the two inversion routes and watch coefficient growth.

The factorization route works in plain integers: two columns of the
inverse from the factors, D^-1 dividing with a check, and the rest by
the Hankel displacement recurrence, one checked division per entry.
Gauss-Jordan eliminates on integer rows by primitive-row steps: the two
multipliers are reduced by their gcd, and the new row is divided by the
gcd of its entries.  It forms rationals only when it reads the inverse
off the diagonal.  Both are exact, and their
outputs are asserted equal before any timing is reported.
"""
from recpascal.cli import bench

print(f"{'n':>4}  {'factorization':>16}  {'gauss-jordan':>14}  "
      f"{'bits (fact)':>12}  {'bits (gj)':>10}")
print("-" * 64)
for n in (4, 8, 16, 24, 32):
    result = bench(n)
    assert result["equal"], f"routes disagree at n={n}"
    fact = result["factorization"]
    gj = result["gauss_jordan"]
    print(f"{n:>4}  {fact['seconds']:>14.4f}s  {gj['seconds']:>12.4f}s  "
          f"{fact['max_numerator_bits']:>12}  {gj['max_numerator_bits']:>10}")

print("\nBit counts are the largest numerator in each route's result.")
print("Timings are informational, never asserted.")
print("\nBenchmark demo passed.")
