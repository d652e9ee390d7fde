#!/usr/bin/env python
"""Capacity survey: every bound in the library on one grid.

For a grid of (P_d, P_i) and symbol widths N, prints:

* the synchronous (traditional) capacity ``N``;
* the Theorem 1/4 erasure upper bound ``N (1 - P_d)``;
* the Theorem 5 feedback lower bound (paper form and exact form);
* for the binary no-feedback case, the Gallager and finite-block lower
  bounds;

plus the convergence series of eqs. (6)-(7). This regenerates, as text
series, every quantitative curve implied by the paper's analysis.

Run:  python examples/capacity_survey.py
"""

from repro.bounds import capacity_bracket_sweep
from repro.core.capacity import (
    converted_capacity,
    convergence_ratio,
    erasure_upper_bound,
    feedback_lower_bound,
    feedback_lower_bound_exact,
)
from repro.experiments.tables import format_table


def main() -> None:
    print("=== Feedback-synchronized bounds (Theorems 1-5) ===")
    rows = []
    for n in (1, 2, 4, 8):
        for pd, pi in [(0.05, 0.05), (0.1, 0.05), (0.2, 0.1), (0.3, 0.3)]:
            rows.append(
                {
                    "N": n,
                    "P_d": pd,
                    "P_i": pi,
                    "sync C": float(n),
                    "UB N(1-Pd)": erasure_upper_bound(n, pd),
                    "LB paper": feedback_lower_bound(n, pd, pi),
                    "LB exact": feedback_lower_bound_exact(n, pd, pi),
                    "C_conv": converted_capacity(n, pi),
                }
            )
    print(
        format_table(
            ["N", "P_d", "P_i", "sync C", "UB N(1-Pd)", "LB paper", "LB exact", "C_conv"],
            rows,
        )
    )

    print("\n=== No-feedback deletion channel bracket (binary) ===")
    columns = ["gallager_lower", "block_lower", "best_lower", "erasure_upper"]
    rows = [
        {"p_d": row.deletion_prob, **{c: getattr(row, c) for c in columns}}
        for row in capacity_bracket_sweep((0.05, 0.1, 0.2, 0.3, 0.5), block_length=8)
    ]
    print(format_table(["p_d"] + columns, rows))

    print("\n=== Convergence of C_lower/C_upper at P_i = P_d (eqs. 6-7) ===")
    rows = []
    for p in (0.05, 0.1, 0.2):
        row = {"p": p}
        for n in (1, 2, 4, 8, 16, 32):
            row[f"N={n}"] = convergence_ratio(n, p)
        rows.append(row)
    print(format_table(["p"] + [f"N={n}" for n in (1, 2, 4, 8, 16, 32)], rows))


if __name__ == "__main__":
    main()
