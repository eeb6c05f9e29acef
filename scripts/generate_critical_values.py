#!/usr/bin/env python3
"""Generate the critical-value table used by the Nemenyi post-hoc test.

For k methods the test needs the 1-alpha quantile of the studentized range
distribution at infinite degrees of freedom, divided by sqrt(2) (Demšar 2006,
JMLR 7). ``scipy.stats.studentized_range`` gives that quantile; the table is
written as a Python module, so no constant in the package is hand-typed.

Usage: python scripts/generate_critical_values.py [output_path]
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from scipy.stats import studentized_range

ALPHAS = (0.05, 0.10)
K_RANGE = range(2, 21)


def module_text() -> str:
    """The source of ``core._critical_values``."""
    lines = [
        '"""Nemenyi critical values q_alpha, generated by scripts/generate_critical_values.py.',
        "",
        "Studentized-range quantiles at infinite degrees of freedom divided by",
        'sqrt(2), for k = 2..20 methods. Do not edit by hand."""',
        "",
        "Q_ALPHA = {",
    ]
    for alpha in ALPHAS:
        lines.append(f"    {alpha}: {{")
        for k in K_RANGE:
            q = studentized_range.ppf(1.0 - alpha, k, np.inf) / 2**0.5
            lines.append(f"        {k}: {q:.6f},")
        lines.append("    },")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> None:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("src/core/_critical_values.py")
    out.write_text(module_text())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
