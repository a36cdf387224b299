#!/usr/bin/env python3
"""Regenerate the frozen oracle constants used by the test suite.

All single-step expected values are produced here by evaluating the scheme
formulas directly at 40 decimal digits (mpmath), independently of the
package implementation; kernel vectors come from exact rational elimination.
The stiff crossing times iterate the discrete geco1 map at the same precision.
Run and compare against the constants embedded in tests/.  The test suite
also imports ``product_term_root`` from here as the oracle of ``solve_tau``.

Usage: python scripts/gen_oracle_values.py
"""

from fractions import Fraction

import mpmath as mp

FIVE = [
    [-4, 2, 1, 2, 2],
    [1, -4, 1, 0, 2],
    [0, 0, -4, 2, 0],
    [2, 2, 2, -4, 0],
    [1, 0, 0, 0, -4],
]


def phi(x):
    if x == 0:
        return mp.mpf(1)
    return (1 - mp.e**-x) / x


def rational_kernel(matrix):
    a = [[Fraction(v) for v in row] for row in matrix]
    n = len(a)
    piv = []
    row = 0
    for col in range(n):
        p = next((i for i in range(row, n) if a[i][col] != 0), None)
        if p is None:
            continue
        a[row], a[p] = a[p], a[row]
        inv = a[row][col]
        a[row] = [x / inv for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[row])]
        piv.append(col)
        row += 1
    free = [c for c in range(n) if c not in piv][0]
    v = [Fraction(0)] * n
    v[free] = Fraction(1)
    for i, c in enumerate(piv):
        v[c] = -a[i][free]
    return v


def stiff_solution(K, t):
    """Exact flow of paper-stiff?K from y0 = (0.98, 0.01, 0.01)."""
    y1 = 49 * mp.e ** (-K * t) / 50
    y2 = (99 * K - 1) * mp.e**-t / (100 * (K - 1)) - 49 * K * mp.e ** (-K * t) / (50 * (K - 1))
    return y1, y2, 1 - y1 - y2


def geco1_stiff_crossing(K, dt):
    """First y2/y3 crossing after t = dt of geco1 on paper-stiff?K.

    geco1 on a linear model is the map M = I + Phi*A with
    Phi = -expm1(-dt*(K+1))/(K+1); it is iterated here at working precision
    and the crossing interpolated linearly, as experiments.crossing_time does.
    """
    K, dt = mp.mpf(K), mp.mpf(dt)
    damping = -mp.expm1(-dt * (K + 1)) / (K + 1)
    a = [[-K, 0, 0], [K, -1, 0], [0, 1, 0]]
    y = [mp.mpf("0.98"), mp.mpf("0.01"), mp.mpf("0.01")]
    n = 0
    while True:
        nxt = [y[i] + damping * sum(a[i][j] * y[j] for j in range(3)) for i in range(3)]
        n += 1
        before, after = y[1] - y[2], nxt[1] - nxt[2]
        if n >= 2:  # the sampled window starts at t = dt (state 1)
            if before == 0:
                return (n - 1) * dt
            if before * after < 0:
                return (n - 1 + before / (before - after)) * dt
        y = nxt


def product_term_root(c, d, sigma, r, dps=50):
    """Root of (prod_m (c_m + d_m*tau) / sigma_m)^r - tau in (0, tau_max), at ``dps`` digits.

    The inputs are taken exactly as the binary floats they are.  The root is
    found inside [0, tau_max], tau_max = min_m c_m / (-d_m), where the
    residual changes sign, and certified by a sign change across
    root * (1 -+ 10^(10 - dps)).
    """
    with mp.workdps(dps):
        c, d, sigma = ([mp.mpf(float(v)) for v in vals] for vals in (c, d, sigma))
        r = mp.mpf(float(r))

        def residual(tau):
            # continued by -tau past tau_max, where a factor turns negative
            prod = mp.mpf(1)
            for cm, dm, sm in zip(c, d, sigma):
                prod *= max(cm + dm * tau, 0) / sm
            return prod**r - tau

        tau_max = min(cm / -dm for cm, dm in zip(c, d))
        # findroot's own residual test is off: it misjudges a root where the
        # residual is steep; the sign change below certifies it instead
        root = mp.findroot(residual, (mp.mpf(0), tau_max), solver="illinois",
                           maxsteps=200, verify=False)
        width = mp.mpf(10) ** (10 - dps)
        if not residual(root * (1 - width)) > 0 > residual(root * (1 + width)):
            # illinois stalls where G is far from linear (a G(0) beyond the
            # float range, a root within 1e-100 of tau_max); bisect instead
            lo, hi = mp.mpf(0), tau_max
            while hi - lo > width * hi / 4:
                mid = (lo + hi) / 2
                lo, hi = (mid, hi) if residual(mid) > 0 else (lo, mid)
            root = (lo + hi) / 2
        if not residual(root * (1 - width)) > 0 > residual(root * (1 + width)):
            raise ValueError(f"product-term root not bracketed to {width} relative")
        return root


def show(name, value, digits=22):
    if isinstance(value, (list, tuple)):
        body = ", ".join(mp.nstr(x, digits) for x in value)
        print(f"{name:34s} = ({body})")
    else:
        print(f"{name:34s} = {mp.nstr(value, digits)}")


def main() -> int:
    mp.mp.dps = 40
    # unit-parameter 2x2: A = [[-1, 1], [1, -1]], y = (2, 1), dt = 1
    y = [mp.mpf(2), mp.mpf(1)]
    ay = [-y[0] + y[1], y[0] - y[1]]
    p2 = phi(2)
    show("phi(2)", p2)
    show("phi(ln 2)", phi(mp.log(2)))

    g1 = [y[i] + p2 * ay[i] for i in range(2)]
    show("first-order damped step", g1)

    ag1 = [-g1[0] + g1[1], g1[0] - g1[1]]
    w = [2 * p2 * ay[i] - ay[i] - ag1[i] for i in range(2)]
    show("second-order w", w)
    arg = sum(max(mp.mpf(0), wi) / yi for wi, yi in zip(w, y))
    show("second-order damping argument", arg)
    g2 = [y[i] + mp.mpf(1) / 2 * phi(arg) * (ay[i] + ag1[i]) for i in range(2)]
    show("second-order damped step", g2)

    # product-term steps solve scalar fixed-point equations with rational data
    show("gbbks1 tau (= 2/3), state", (mp.mpf(2) / 3, mp.mpf(4) / 3, mp.mpf(5) / 3))
    show("gbbks2(1) tau (= 6/5), state", (mp.mpf(6) / 5, mp.mpf(8) / 5, mp.mpf(7) / 5))

    # 5x5 kernel by exact rational elimination, scaled to total mass 13
    v = rational_kernel(FIVE)
    mass = sum(v, Fraction(0))
    scaled = [13 * x / mass for x in v]
    print(f"{'5x5 steady state (mass 13)':34s} = {scaled}")

    # critical step sizes on the 5x5 spectrum {0, -5 +- sqrt(3), -5 +- i}
    lams = [-5 - mp.sqrt(3), -5 + mp.sqrt(3), mp.mpc(-5, -1), mp.mpc(-5, 1)]
    show("(5 - sqrt(3))/11", (5 - mp.sqrt(3)) / 11)

    def max_r_geco2(dt):
        pval = phi(20 * dt)
        return max(abs(1 + dt * lam + (dt * lam) ** 2 / 2 * pval) for lam in lams)

    dt2 = mp.findroot(lambda dt: max_r_geco2(dt) - 1, mp.mpf("0.357"))
    show("critical dt, second-order damped", dt2)

    cert = min(2 * abs(mp.re(lam)) / abs(lam) ** 2 for lam in lams)
    show("certificate m-value on the 5x5", cert)
    show("certificate product", cert * 20)

    # region endpoint of the second-order damped scheme: z (1 + e^z) = -4
    z_star = mp.findroot(lambda z: z * (1 + mp.e**z) + 4, mp.mpf("-3.9"))
    show("region endpoint z*", z_star)
    show("value at (-2.404688, 7.144)",
         1 + mp.mpf("-2.404688") + mp.mpf("-2.404688") ** 2 / 2 * phi(mp.mpf("7.144")))

    # stiff reference solution at K = 10, t = 1, y0 = (0.98, 0.01, 0.01)
    show("stiff solution K=10, t=1", stiff_solution(mp.mpf(10), mp.mpf(1)))
    show("ln(1.98)", mp.log(mp.mpf("1.98")))

    # y2/y3 crossings: exact flow, then the discrete geco1 map
    for K in (10, 100):
        def gap(t, K=mp.mpf(K)):
            _, y2, y3 = stiff_solution(K, t)
            return y2 - y3
        show(f"exact-flow crossing K={K}", mp.findroot(gap, mp.mpf("0.7")))
    for K, dt in ((10, "0.1"), (100, "0.1"), (1000, "0.1"), (10, "1"), (100, "1")):
        show(f"geco1 crossing K={K}, dt={dt}", geco1_stiff_crossing(K, dt))

    # series-region spot checks for the damping kernel
    for x in ("1e-6", "9e-6", "2e-5"):
        show(f"phi({x})", phi(mp.mpf(x)))
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
