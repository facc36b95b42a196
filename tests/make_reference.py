"""Write the 40-digit reference table of L_k = log ||z^k||^2 = log k! - log (xi+2)_k.

    python tests/make_reference.py

rewrites tests/log_norms_reference.json.  The precision tests of the weight
sequence and of everything built on it (norms, basis scales, kernel
coefficients, Gram entries) compare against this file, so they need neither
mpmath nor a log-Gamma routine at test time.  Each value is written with 25
significant digits; L_k is computed as loggamma(k+1) + loggamma(xi+2) -
loggamma(k+xi+2) at 40 digits.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath
import numpy as np

OUT = Path(__file__).with_name("log_norms_reference.json")
XIS = (-0.999, -0.99, -0.5, 0.0, 1.0, 2.35, 2.5, 10.0, 40.0, 98.0, 100.0)
K_MAX = 10**5
# every k up to this bound at xi = 98 (the kernel-coefficient test reads them)
DENSE_XI, DENSE_K = 98.0, 300


def degrees(xi: float) -> list:
    ks = set(range(31)) | set(int(k) for k in np.unique(np.round(np.logspace(1.5, 5, 120))))
    ks |= {600, 2 * 10**4, 4 * 10**4, K_MAX}
    if xi == DENSE_XI:
        ks |= set(range(DENSE_K))
    return sorted(ks)


def log_norm(xi, k) -> str:
    x = mpmath.mpf(xi)
    value = mpmath.loggamma(k + 1) + mpmath.loggamma(x + 2) - mpmath.loggamma(k + x + 2)
    return mpmath.nstr(value, 25, strip_zeros=False)


def main() -> None:
    with mpmath.workdps(40):
        rows = [
            f"{json.dumps(repr(xi))}: " + json.dumps({"k": ks, "L": [log_norm(xi, k) for k in ks]})
            for xi in XIS
            for ks in [degrees(xi)]
        ]
    # one line per xi
    OUT.write_text('{"dps": 40, "log_norms": {\n' + ",\n".join(rows) + "\n}}\n")


if __name__ == "__main__":
    main()
