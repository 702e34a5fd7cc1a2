"""How much noise can a table match absorb?

Recovery matches an observed integral against tabulated rows within a
tolerance epsilon.  The gap between neighbouring rows shrinks as N grows,
so there is a quantifiable noise level beyond which exact recovery
collapses.  This script sweeps that boundary and shows the helpers that
reason about it.
"""

from smoothint import (
    Canonical,
    EncoderConfig,
    build_table,
    noise_sweep,
    partial_sum,
    tail_bound,
)

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main() -> None:
    family = Canonical()
    config = EncoderConfig(family=family, delta=0.2)
    table = build_table(config, 30)
    true_n = 8
    epsilon = 0.005

    amplitudes = [0.0, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05]
    results = noise_sweep(table, true_n, epsilon, amplitudes, trials=2000, seed=0)

    print(f"exact recovery rate for N = {true_n}, epsilon = {epsilon}:")
    for amplitude, accuracy in results:
        bar = "#" * round(40 * accuracy)
        print(f"  noise {amplitude:6.3f}:  {accuracy:6.1%}  {bar}")
    print("  (the cliff sits where noise reaches the gap to the nearest row)")

    print()
    print("perturbation margin: is the row deep enough that eps/2 noise is safe?")
    margin_epsilon = 0.02
    for n in (8, 20, 25, 30):
        depth = abs(table.value_at(n))
        print(f"  N = {n:2d}, |I| = {depth:.6f}: {'safe' if depth < margin_epsilon / 2.0 else 'exposed'}")

    print()
    print("certified tail bound: |S(N)| never exceeds tail_bound(family, N)")
    for n in (8, 30):
        print(f"  N = {n:2d}, |S| = {abs(partial_sum(family, n)):.6f} <= {tail_bound(family, n):.6f}")

    if plt is not None:
        fig, ax = plt.subplots(figsize=(6, 3.5))
        ax.plot([a for a, _ in results], [acc for _, acc in results], "o-")
        ax.set_xlabel("noise amplitude")
        ax.set_ylabel("exact recovery rate")
        ax.set_title(f"recovery robustness, N = {true_n}")
        fig.tight_layout()
        fig.savefig("noise_robustness.png", dpi=120)
        print("wrote noise_robustness.png")
    else:
        print("matplotlib not installed; skipping the picture")


if __name__ == "__main__":
    main()
