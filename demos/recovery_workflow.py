"""Encode an integer, observe its integral, get the integer back.

Four inversion strategies live in this package.  They answer slightly
different questions, so this script runs all of them against the same
observation and explains what each result means.
"""

import math

from smoothint import (
    Canonical,
    EncoderConfig,
    build_table,
    integral_closed,
    recover_analytic_fractional,
    recover_binary,
    recover_match,
    recover_spline,
    recover_threshold,
)


def main() -> None:
    config = EncoderConfig(family=Canonical(), delta=0.2)
    table = build_table(config, 30)

    # pretend a measurement produced this slightly-off integral value
    true_n = 8
    observed = 0.028
    print(f"true N = {true_n}, observed integral = {observed}")
    print(f"(exact I({true_n}) = {table.value_at(true_n):+.9f})")

    print()
    match = recover_match(table, observed, epsilon=0.005)
    print(f"table scan:    N = {match.n}, residual {match.residual:.2e}, stable={match.stable}")

    binary = recover_binary(table, observed, epsilon=0.005)
    print(f"binary search: N = {binary.n}, residual {binary.residual:.2e} (same answer, O(log n))")

    threshold = recover_threshold(table, epsilon=0.03)
    print(
        f"threshold:     N = {threshold.n} is the first row with |I| < 0.03 "
        "(no observation needed, reads cancellation depth)"
    )

    spline = recover_spline(table, observed, tol=1e-9)
    print(
        f"spline:        N* = {spline.n:.6f}, rounds to {spline.nearest_integer}, "
        f"stable={spline.stable}"
    )

    print()
    print("continuous encodings invert exactly on one linear segment:")
    for true_value in (2.4, 8.75, 19.1):
        target = integral_closed(config, true_value)
        result = recover_analytic_fractional(config, target, math.floor(true_value))
        print(
            f"  N = {true_value:6.3f} -> I = {target:+.9f} -> "
            f"recovered {result.n:.12f} (error {abs(result.n - true_value):.2e})"
        )

    print()
    missing = recover_match(table, 0.5, epsilon=1e-3)
    print(f"a target nothing matches returns None, not an exception: {missing}")


if __name__ == "__main__":
    main()
