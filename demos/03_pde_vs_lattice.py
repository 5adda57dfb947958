"""Two independent nonlinear solvers agree on a payoff no closed form covers.

A capped call spread on a forward bond price is convex near the lower
strike and concave near the cap, so no single constant volatility prices
it: the worst case switches between the band extremes with the sign of the
value function's curvature.  The finite-difference solve and the trinomial
lattice are entirely different discretizations of that switching rule, and
both must strictly dominate every constant-volatility classical price.
"""

import math

import numpy as np

import robust_rates as rr
from robust_rates.lognormal import lognormal_call

curve = rr.flat_curve(0.02)
vol = rr.ho_lee(0.02)
band = rr.UncertaintyBand((0.5,), (1.5,))
T, Ti = 1.0, 2.0           # expiry and underlying bond maturity
lo, width = 0.97, 0.02     # spread strikes around the forward price

payoff = lambda x: np.minimum(np.maximum(x - lo, 0.0), width)
x0 = curve.forward_price(T, Ti)
print(f"underlying forward bond price today: {x0:.6f}, payoff kinks at {lo} and {lo + width}")

v_up = math.sqrt(vol.integrated_variance(band.upper, 0.0, T, T, Ti))
grid = rr.default_grid(x0, v_up, nx=700, nt=700)

pde_up = rr.solve_single_option(curve, vol, band, T, T, Ti, payoff, grid).value
pde_lo = rr.solve_lower(curve, vol, band, T, T, Ti, payoff, grid).value
lat_up = rr.lattice_price(curve, vol, band, T, T, Ti, payoff, 2000)
lat_lo = -rr.lattice_price(curve, vol, band, T, T, Ti, lambda x: -payoff(x), 2000)

print()
print(f"PDE bounds     [{pde_lo:.8f}, {pde_up:.8f}]")
print(f"lattice bounds [{lat_lo:.8f}, {lat_up:.8f}]")
print(f"upper agreement: {abs(pde_up / lat_up - 1):.2e} relative")

print()
print("classical prices at constant volatility scalings:")
best = -np.inf
for s in np.linspace(band.lower[0], band.upper[0], 5):
    v = math.sqrt(vol.integrated_variance((s,), 0.0, T, T, Ti))
    classical = lognormal_call(x0, lo, v) - lognormal_call(x0, lo + width, v)
    best = max(best, classical)
    print(f"  sigma = {s:4.2f}: {classical:.8f}")
print()
print(f"best constant sits {pde_up - best:.2e} BELOW the robust upper bound:")
print("switching volatility with the curvature sign beats any fixed scenario.")
