"""The quadratic greatest-digit-elimination algorithms, end to end.

Shows a single elimination step digit by digit, runs the exhaustive
verification harness against the exact value oracle, inspects fixed
letters, and assembles full adders on the attained alphabets, including
the shifted variants with negative digits.

Run:  python demos/quadratic_gde_tour.py
"""

from betapar import (
    apply_local,
    check_sum,
    eval_digit_string,
    exhaustive,
    fixed_letters,
    parse_digits,
    quadratic_adder,
    shifted_adder,
    values_equal,
    verify_conversion,
)
from betapar.quadratic import gde_minus, gde_plus, gde_plus_special


def section(title):
    print()
    print(title)
    print("-" * len(title))


section("One elimination step, beta^2 = 4 beta + 2")
rule = gde_plus(4, 2)
print("  rule: %s-local window, %s -> %s" % (rule.p, rule.input_alphabet,
                                             rule.output_alphabet))
for text in ["0,7,0", "7,7", "3", "6,6,6"]:
    u = parse_digits(text)
    v = apply_local(rule, u)
    print("  %-8s -> %-12s (same value: %s)"
          % (text, v, values_equal(eval_digit_string(v, rule.base),
                                   eval_digit_string(u, rule.base))))

section("Exhaustive verification against the exact oracle")
for r in [gde_plus(4, 2), gde_plus_special(3), gde_minus(4, 1)]:
    rep = verify_conversion(r, exhaustive(4))
    print("  %-22s %s over %s (%d strings)"
          % (r.name, rep.verdict, rep.strategy, rep.checked_count))

section("Fixed letters enable alphabet shifting")
for r in [gde_plus(4, 2), gde_minus(4, 1)]:
    print("  %-22s fixed letters %s" % (r.name, sorted(fixed_letters(r))))

section("Full adders on the attained alphabets")
adder = quadratic_adder("plus", 4, 2)
print("  alphabet %s, effective window %d digits"
      % (adder.alphabet, adder.effective_window))
for x_text, y_text in [("6", "6"), ("5,3,1", "2,6,4"), ("3.5", "0.6,6")]:
    x, y = parse_digits(x_text), parse_digits(y_text)
    out = adder.add(x, y)
    assert check_sum(adder, x, y, out)  # in the alphabet, and value-exact
    print("  %s + %s = %s" % (x_text, y_text, out))

section("Shifted alphabets: {-3..3} for beta^2 = 4 beta + 2")
sh = shifted_adder("plus", 4, 2, d=3)
print("  the same gde rule, conjugated by the plateau letter 3:")
u = parse_digits("4,-3,1")
print("  %s -> %s (reads u + 3, subtracts 3)" % (u, apply_local(rule, u, 3)))
for x_text, y_text in [("3", "-3,1.2"), ("-1,-2,-3", "-3,0,2")]:
    x, y = parse_digits(x_text), parse_digits(y_text)
    out = sh.add(x, y)
    assert check_sum(sh, x, y, out)
    print("  %s + %s = %s" % (x_text, y_text, out))

section("Shifted alphabets for the minus family, b <= d <= a-2")
shm = shifted_adder("minus", 4, 1, d=1)
print("  alphabet %s" % shm.alphabet)
x, y = parse_digits("-1,2"), parse_digits("2,-1.1")
out = shm.add(x, y)
assert check_sum(shm, x, y, out)
print("  -1,2 + 2,-1.1 =", out)
