"""A tour of the scalar capacity operators and their resolvents.

Each capacity family c maps a total arc flux to a congestion cost, and
the solver only ever touches it through the resolvent J_{gamma*c}: the
unique s with s + gamma*c(s) = xi.  This script evaluates each family's
resolvent on a grid, verifies the defining identity pointwise, and (if
matplotlib is importable) draws the gallery.
"""

import numpy as np

import netequil as nq

FAMILIES = {
    "BPR (polynomial)": nq.BPR(alpha=0.15, rho=1.0, theta=1.0, p=4.0),
    "logarithmic (hard capacity 2)": nq.Logarithmic(omega=2.0, theta=0.1),
    "TRC (smoothed kink)": nq.TRC(alpha=1.0, beta=0.5, delta=0.2, omega=1.5),
    "power-exponential": nq.PowerExp(alpha=2.0, theta=0.5, p=1.0),
    "interval prox (quadratic on [0, 2])": nq.IntervalProx(
        nq.QuadraticPhi(a=1.0), lo=0.0, hi=2.0
    ),
}

gamma = 0.8
grid = np.linspace(-3.0, 6.0, 19)

for name, spec in FAMILIES.items():
    values = np.array([spec.resolvent(gamma, xi) for xi in grid])
    # the resolvent identity s + gamma*c(s) = xi, where c is single-valued
    worst = 0.0
    for xi, s in zip(grid, values):
        c = spec.value(s)
        if c is not None:
            worst = max(worst, abs(s + gamma * c - xi))
    print(f"{name}")
    print(f"  J_[gamma c] on [{grid[0]}, {grid[-1]}]: "
          f"min {values.min():.3f}, max {values.max():.3f}")
    print(f"  identity |s + gamma*c(s) - xi| <= {worst:.1e}")
    # resolvents of monotone operators are nondecreasing and 1-Lipschitz
    steps = np.diff(values)
    print(f"  monotone: {bool((steps >= -1e-12).all())}, "
          f"1-Lipschitz: {bool((steps <= np.diff(grid) + 1e-12).all())}\n")

# the Lambert W function powers the logarithmic and exponential families
print("Lambert W spot checks: W(0) =", nq.lambert_w_exp(-np.inf), " W(e) =", nq.lambert_w_exp(1.0))
print("overflow-free form: W(exp(1000)) =", nq.lambert_w_exp(1000.0))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("\nmatplotlib not available; skipping the plot")
else:
    fine = np.linspace(-3.0, 6.0, 400)
    fig, ax = plt.subplots(figsize=(7, 5))
    for name, spec in FAMILIES.items():
        ax.plot(fine, [spec.resolvent(gamma, xi) for xi in fine], label=name)
    ax.plot(fine, fine, "k:", lw=0.8, label="identity (zero operator)")
    ax.set_xlabel("input xi")
    ax.set_ylabel(f"J_[{gamma}c](xi)")
    ax.legend(fontsize=8)
    ax.set_title("capacity resolvents")
    fig.tight_layout()
    fig.savefig("resolvent_gallery.png", dpi=120)
    print("\nwrote resolvent_gallery.png")
