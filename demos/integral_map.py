"""The integral map and why it encodes integers.

The total area under the bump train is the scaled partial sum of an
alternating series that converges to zero, so deeper N means deeper
cancellation.  This script tabulates the map, checks it against brute-force
quadrature, and shows the certified envelope that makes |I(N)| < epsilon a
meaningful decoding rule.
"""

import numpy as np

from smoothint import (
    Canonical,
    EncoderConfig,
    build_table,
    integral_closed,
    integral_quadrature,
    tail_bound,
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main() -> None:
    config = EncoderConfig(family=Canonical(), delta=0.2)
    table = build_table(config, 30)

    print("integral map I(N), first rows:")
    for n, value in enumerate(table.values[:8].tolist(), start=1):
        print(f"  I({n:2d}) = {value:+.6f}")
    print("  ... magnitudes decay roughly like 1/N while signs alternate")

    print()
    print("closed form vs trapezoid quadrature (independent route):")
    for n in (1, 5, 20):
        closed = integral_closed(config, n)
        quad = integral_quadrature(config, n, 0.0, n + 3.0, 4000)
        print(f"  N = {n:2d}:  closed {closed:+.9f}   quadrature {quad:+.9f}   gap {abs(closed - quad):.2e}")

    print()
    print("certified envelope |I(N)| <= scale * tail_bound(N):")
    scale = 0.2 * np.sqrt(2.0 * np.pi)
    for n in (1, 5, 10, 20, 30):
        bound = scale * tail_bound(Canonical(), n)
        print(f"  N = {n:2d}:  |I| = {abs(table.value_at(n)):.6f}  <=  {bound:.6f}")

    if plt is not None:
        ns = np.arange(1, table.n_max + 1)
        fig, ax = plt.subplots(figsize=(7, 4))
        ax.stem(ns, table.values, basefmt="gray")
        envelope = scale * np.array([tail_bound(Canonical(), int(n)) for n in ns])
        ax.plot(ns, envelope, "r--", lw=1, label="certified bound")
        ax.plot(ns, -envelope, "r--", lw=1)
        ax.set_xlabel("N")
        ax.set_ylabel("I(N)")
        ax.legend()
        ax.set_title("integral map with its decay envelope")
        fig.tight_layout()
        fig.savefig("integral_map.png", dpi=120)
        print("wrote integral_map.png")
    else:
        print("matplotlib not installed; skipping the picture")


if __name__ == "__main__":
    main()
