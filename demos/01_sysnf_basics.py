"""Systematic normal form basics.

Builds a few SysNF bases, shows what validation accepts and rejects, lists
the finite lattice L_N and the scaled dual, and demonstrates the coset
bijection that pairs every residue vector with its dual tag.
"""

from latdft import ExactMatrix, enumerate_scaled_dual, phi3, validate
from latdft.errors import ConditionError
from latdft.sysnf import SysNFBasis, ln_membership, ln_points

# A SysNF basis is determined by the modulus N and the first-row tail b.
# Columns of the matrix span the lattice {x : x_1 = sum_j b_j x_j (mod N)}.
# Points are int64 rows with coordinates in [0, N).
s = validate(ExactMatrix([[5, 1], [0, 1]]))
print(f"validated: N = {s.N}, b = {s.b}, gcd(sum(b^2)+1, N) = {s.condition_gcd}")

# Validation demands more than the matrix shape: sum(b^2) + 1 must be
# coprime to N, otherwise the transform built later cannot be unitary.
try:
    validate(SysNFBasis(4, (1,)).to_matrix())
except ConditionError as exc:
    print(f"N=4, b=(1) rejected: {exc}")

print()
lattice = ln_points(s)
print(f"L_N has N^(n-1) = {len(lattice)} points:")
for p in lattice.tolist():
    print("  ", tuple(p))

print()
duals = enumerate_scaled_dual(s)
print(f"(N L*)_N has N = {len(duals)} points:")
for p in duals.tolist():
    print("  ", tuple(p))

# Every residue vector x decomposes as (x + y) - y with x + y on the lattice
# and y on the scaled dual; y depends only on the coset of x.
print()
print("coset alignment x -> (x + phi3(x), phi3(x)):")
x = [(1, 0), (2, 0), (1, 3), (4, 4)]
y = phi3(s, x)
aligned = (x + y) % s.N
assert ln_membership(s, aligned).all()
for xi, yi, ai in zip(x, y.tolist(), aligned.tolist()):
    print(f"  x = {xi}  tag = {tuple(yi)}  aligned = {tuple(ai)}")
