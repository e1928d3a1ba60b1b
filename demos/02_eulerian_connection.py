"""The bivariate numerator family F_d and its Eulerian shadow.

The one-cell transfer generating function of a d-fold diamond has a
polynomial numerator F_d(q0, w), Carlitz's q-Eulerian polynomial: the sum
over permutations of d letters of q0^des w^maj.  It is built one q0 power
at a time by Carlitz's row recurrence, the Eulerian recurrence with
q-integer weights, so no division is needed.  Setting w = 1 collapses F_d to
the Eulerian polynomial A_d, which is why the Schmidt-type product can be
written with Eulerian numerators.
"""

from partition_diamonds import (
    TruncatedSeries, eulerian_poly, fd_at_w1, fd_poly, fd_specialize,
)


def show_bivariate(d):
    parts = []
    for (i, j), c in sorted(fd_poly(d).items()):
        mono = "" if (i, j) == (0, 0) else \
            f"q0^{i}" * (i > 0) + f" w^{j}" * (j > 0)
        parts.append(f"{c} {mono}".strip())
    print(f"F_{d}(q0, w) = " + "  +  ".join(parts))


for d in (1, 2, 3, 4):
    show_bivariate(d)

print()
print("w = 1 collapse onto Eulerian polynomials:")
for d in range(1, 9):
    collapsed = fd_at_w1(d)
    assert collapsed == eulerian_poly(d)
    print(f"  F_{d}(q,1) = {list(collapsed)}  "
          f"(coefficients sum to {sum(collapsed)} = {d}!)")

print()
print("specialized numerators of the r_d products (n-th factor):")
for n in (1, 2, 3):
    f2 = fd_specialize(2, 3 * n - 2, 1, 30)
    print(f"  d=2, n={n}:  {f2}")
for n in (1, 2):
    f3 = fd_specialize(3, 4 * n - 3, 1, 30)
    print(f"  d=3, n={n}:  {f3}")

print()
print("Euler's power-sum identity behind the s_d product:")
d, order = 3, 12
power_sum = TruncatedSeries.from_terms(
    {j: (j + 1) ** d for j in range(order)}, order)
closed = TruncatedSeries.from_coeffs(eulerian_poly(d), order) * \
    TruncatedSeries.from_terms({0: 1, 1: -1}, order) ** (-(d + 1))
assert power_sum == closed
print(f"  sum (j+1)^{d} q^j  ==  A_{d}(q)/(1-q)^{d + 1}   "
      f"(checked to order {order})")
