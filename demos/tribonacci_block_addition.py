"""The flagship instance: 14-block 3-local addition in the Tribonacci base.

Certifies the fractional-digit bound s exactly, compares it with the
empirical sweep over short beta-integers, derives the block parameters, peeks inside a block decomposition, and runs parallel
additions on the 3-letter alphabet {0,1,2} that no 1-block scheme can use
(1-block addition in the Tribonacci base needs at least 4 digits).

Run:  python demos/tribonacci_block_addition.py
"""

import random

from betapar import (
    certify_s,
    check_sum,
    dbonacci_block_adder,
    eval_digit_string,
    estimate_s_report,
    lower_bound_1block,
    parse_digits,
    qv_add,
    tribonacci_base,
)
from betapar.digits import DigitString
from betapar.numeration import greedy_fractional_depth


def section(title):
    print()
    print(title)
    print("-" * len(title))


tri = tribonacci_base()

section("How many fractional digits can a sum of beta-integers need?")
cert = certify_s(tri)
total = qv_add(eval_digit_string(cert.witness_x, tri), eval_digit_string(cert.witness_y, tri))
assert greedy_fractional_depth(tri, total.coeffs) == cert.s
print("  certified: s = %d, from %d search states" % (cert.s, cert.states))
print("  attained by %s + %s" % (cert.witness_x, cert.witness_y))
print("  the empirical sweep over short words only bounds it from below:")
for test_len in (1, 4, 6):
    rep = estimate_s_report(tri, test_len)
    print("  words up to %d digits: max depth %d  (exhaustive through %d, %d pairs)"
          % (test_len, rep.s, rep.exhaustive_len, rep.pairs_checked))

section("Block parameters from the certified s")
adder = dbonacci_block_adder(3)
p = adder.params
print("  k = %d, ell = %d, s = %d; base alphabet %s, working alphabet %s"
      % (p.k, p.ell, p.s, p.B, p.A))
print("  (1-block addition here would need an alphabet of >= %d digits)"
      % lower_bound_1block(tri.poly))

section("Inside one block decomposition")
u = (2, 1, 2, 0, 0, 1, 2, 2, 0, 1, 1, 2, 0, 2)
dec = adder.decompose(u)
print("  block u =", u)
print("  L =", dec.L)
print("  C =", dec.C)
print("  S =", dec.S)
print("  u = L*beta^%d + C + S*beta^-%d exactly (checked on construction)"
      % (p.k, 2 * p.s))

section("Additions on {0,1,2}")
for x_text, y_text in [("1", "1"), ("2,2,2,2", "2,2,2,2"),
                       ("1,0,2,1,0,0,2.1", "2,1,0,2.2,2")]:
    x, y = parse_digits(x_text), parse_digits(y_text)
    out = adder.add(x, y)
    assert check_sum(adder, x, y, out)  # in {0,1,2}, and value-exact
    print("  %s + %s = %s" % (x_text, y_text, out))

section("A seeded random sweep, verified against the exact oracle")
rng = random.Random(1)
worst = 0
for i in range(200):
    n = rng.randint(0, 40)
    x = DigitString(tuple(rng.randint(0, 2) for _ in range(n)), n - 1)
    m = rng.randint(0, 40)
    y = DigitString(tuple(rng.randint(0, 2) for _ in range(m)), m - 1)
    out = adder.add(x, y)
    assert check_sum(adder, x, y, out)
    worst = max(worst, out.fractional_depth)
print("  200 random additions of length <= 40: all exact;"
      " deepest fractional tail %d digits" % worst)

section("The signed variant on {-1, 0, 1}")
signed = dbonacci_block_adder(3, signed=True, s=p.s)
x, y = parse_digits("1,-1,0,1"), parse_digits("-1,1.1")
out = signed.add(x, y)
assert check_sum(signed, x, y, out)
print("  1,-1,0,1 + -1,1.1 =", out)
print("  the unsigned block map, conjugated by the plateau letter 1, folds the")
print("  indicator layers of y as the GDE chains do")
print("  (verified itself on 200 seeded pairs at construction)")
