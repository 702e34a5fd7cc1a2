"""A walk through the bump train itself.

An integer N is laid onto the real line as N Gaussian bumps, one per integer
center, with alternating decaying amplitudes.  This script samples the train
at whole and fractional N, with and without a smooth transition, and shows
that both really do interpolate between the whole-N configurations.
"""

from smoothint import Canonical, EncoderConfig, Sigmoid, counter_eval, counter_grid

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None


def main() -> None:
    config = EncoderConfig(family=Canonical(), delta=0.2)
    smooth = EncoderConfig(family=Canonical(), delta=0.2, transition=Sigmoid())

    print("bump train f(N, t) at the integer centers, N = 5:")
    for t in range(1, 6):
        print(f"  t = {t}:  f = {counter_eval(config, 5, float(t)):+.6f}")
    print("  (alternating signs, shrinking magnitudes: the coefficient pattern)")

    print()
    print("a fractional N glides between integer configurations:")
    for n_value in (4.0, 4.25, 4.5, 4.75, 5.0):
        peak = counter_eval(config, n_value, 5.0)
        print(f"  N = {n_value:4.2f}:  bump at t=5 has height {peak:+.6f}")

    print()
    print("a smooth transition does the same with a logistic gate per bump:")
    for n_value in (4.0, 4.5, 5.0):
        peak = counter_eval(smooth, n_value, 5.0)
        print(f"  N = {n_value:4.2f}:  bump at t=5 has height {peak:+.6f}")

    far = counter_eval(config, 5, 40.0)
    print()
    print(f"far from every center the train is exactly zero: f(5, 40) = {far}")

    if plt is not None:
        ts, values = counter_grid(config, 5.5, 0.0, 9.0, 1200)
        fig, ax = plt.subplots(figsize=(8, 3))
        ax.plot(ts, values, lw=1.2)
        ax.axhline(0.0, color="gray", lw=0.5)
        ax.set_xlabel("t")
        ax.set_ylabel("f(5.5, t)")
        ax.set_title("bump train, N = 5.5")
        fig.tight_layout()
        fig.savefig("bump_train.png", dpi=120)
        print("wrote bump_train.png")
    else:
        print("matplotlib not installed; skipping the picture")


if __name__ == "__main__":
    main()
