"""The closed-form determinant, next to the exact oracle that audits it.

The closed form predicts det(R^-1) as a signed product of squared central
binomials over a power of two.  Its magnitude is right at every size we
test.  Its sign factor (-1)^(n(n+1)/2) is not: the exact elimination
oracle disagrees at every odd n, and the observed sign follows
(-1)^(n(n-1)/2) instead.  This package reports the discrepancy rather than
quietly repairing the formula: the oracle is ground truth, the closed form
is evaluated verbatim, and both values are kept side by side.
"""
from recpascal import det_comparison, sign_pattern, det_inverse_sequence

print(f"{'n':>3}  {'magnitude ok':>12}  {'sign ok':>8}   closed form / oracle")
print("-" * 76)
mismatch_at = []
oracles = []
for n in range(1, 13):
    cmp = det_comparison(n)
    assert cmp["magnitude_match"]
    oracles.append(cmp["oracle"])
    if not cmp["sign_match"]:
        mismatch_at.append(n)
    formula = str(cmp["formula"])
    oracle = str(cmp["oracle"])
    if len(formula) > 24:
        formula = formula[:10] + "..." + formula[-6:]
        oracle = oracle[:10] + "..." + oracle[-6:]
    print(f"{n:>3}  {'yes':>12}  {str(cmp['sign_match']):>8}   {formula} / {oracle}")

print(f"\nSign disagreements at n = {mismatch_at}: exactly the odd sizes.")

terms = det_inverse_sequence(12).terms
assert sign_pattern(terms) == sign_pattern(oracles)
print("\nFactor-route determinant signs by size:", sign_pattern(terms))
print("The elimination oracle gives the same signs.")
print("That is the period-four pattern + - - + + - - + ... of (-1)^(n(n-1)/2),")
print("whereas (-1)^(n(n+1)/2) would start - - + + - - + +.")
print("\nDeterminant demo passed.")
