#!/usr/bin/env python3
"""Exact density search versus the closed-form bounds at desk scale.

The branch and bound proves, for each n, the exact maximum edge count of
a two-layer drawing under a crossing cap.  On every row but two the
maximum matches the tight bound.  At n=8 with cap 4 it stays below the
bound, 12 against 13.  At n=8 with cap 5 it exceeds the bound, 14 against
floor(9/4*8 - 9/2) = 13: the search discovers the exceptional graph, the
special S, on its own.  An excess is called an exceptional graph only
when the witness is the special S.

Run: python3 demos/03_density_search.py
"""

from layerlens import KPlanar, Quasiplanar, max_density, small_k_density_bound, special_s

print(f"{'n':>3} {'constraint':>12} {'best':>5} {'bound':>8}  verdict")
for k in (1, 2, 3, 4, 5):
    for n in (6, 8, 10):
        result = max_density(n, KPlanar(k))
        bound = small_k_density_bound(k, n)
        floor = bound.numerator // bound.denominator
        if result.best_m == floor:
            verdict = "matches the bound"
        elif result.best_m < floor:
            verdict = "below the bound (not attained at this n)"
        else:
            why = "exceptional graph" if result.witness == special_s() else "the table row does not hold at this n"
            verdict = f"EXCEEDS the bound ({why})"
        print(f"{n:>3} {'k=' + str(k):>12} {result.best_m:>5} {str(bound):>8}  {verdict}")

print()
for n in (4, 6, 8, 10):
    result = max_density(n, Quasiplanar(3))
    print(f"{n:>3} {'quasi h=3':>12} {result.best_m:>5} {2 * n - 4:>8}  "
          + ("matches 2n-4" if result.best_m == 2 * n - 4 else "below 2n-4"))

print()
witness = max_density(8, KPlanar(5)).witness
print("witness at n=8, k=5:", f"p={witness.p} q={witness.q} m={witness.m}")
print("edges:", sorted(witness.edges))
