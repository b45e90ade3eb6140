"""
Evaluating the series inside its convergence domain
====================================================

"""

import math
import random

# a parameter set bundles the numerator row a and the exponent matrix B;
# the last row of B is always ones
from fcpm.params import parameter_set, random_generic_parameters
from fcpm import series

# the classical one-variable check: with a = (1, 1) and b = 2 the series
# telescopes to -log(1 - x)/x, so the value at 1/2 must be 2 log 2
ps = parameter_set([1, 1], [[2], [1]])
res = series.evaluate(ps, (0.5,), tol=1e-12)
print("value at 1/2      :", res.value)
print("2*log(2)          :", 2 * math.log(2))
print("shells used       :", res.N_used, " tail bound:", res.tail_bound)

# a random generic two-variable set; membership in the domain is decided
# by sum |x_k|^(1/p) < 1
ps2 = random_generic_parameters(2, 2, random.Random(5))
x = (0.08, 0.03)
print("\ntwo variables, p = 2")
print("in domain         :", series.in_domain(x, ps2.p))
res2 = series.evaluate(ps2, x)
print("value             :", res2.value)

# exact coefficients are rationals; the table holds every A_n up to a total
# degree, computed shell by shell
table = series.series_table(ps2, 3)
for n in sorted(table.coeffs):
    print("A", tuple(n), "=", table[n])

# outside the domain the terms eventually grow; the probe reports the
# largest scaled term it saw
probe = series.divergence_probe(ps2, (0.6, 0.5), shells=40)
print("\noutside, growing  :", probe.growing, " max term:", probe.max_term)
