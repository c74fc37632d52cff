"""Regenerate perfbench/reference.json from the program as it stands.

Usage (from the repository root):  python3 perfbench/make_reference.py

For each N = 512 workload, runs its driver.run call at Chebyshev nodes of
eps_init across the seed band and stores the final record row and the GMRES
iteration total.  It then runs two eps_init values off the nodes and prints
how far the interpolant is from them, which must stay well below
workloads.REFERENCE_RTOL.  Regenerate only when a change to the program
is meant to change its results, and say so in the change.
"""

import json
import sys

import numpy as np

from run import ROOT, import_program
from workloads import (EPS_BAND, REFERENCE_COLUMNS, REFERENCE_FILE, WORKLOADS,
                       check_reference, final_values, make_config)

NODES = 5


def tabulate(tb, workload):
    lo = workload.eps_init * (1 - EPS_BAND)
    hi = workload.eps_init * (1 + EPS_BAND)
    k = np.arange(NODES)
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos((2 * k + 1) * np.pi
                                                         / (2 * NODES))
    rows = []
    for eps in nodes:
        cfg = make_config(tb["config"], ROOT, workload, float(eps))
        rows.append(final_values(tb["driver"].run(cfg).record))
    table = {"eps_init": nodes.tolist()}
    for key in rows[0]:
        table[key] = [r[key] for r in rows]
    for eps in (lo + 0.3 * (hi - lo), lo + 0.85 * (hi - lo)):
        cfg = make_config(tb["config"], ROOT, workload, eps)
        record = tb["driver"].run(cfg).record
        got = final_values(record)
        worst = 0.0
        for col in REFERENCE_COLUMNS:
            poly = np.polynomial.Chebyshev.fit(nodes, table[col], NODES - 1)
            worst = max(worst, abs(got[col] - poly(eps)) / abs(poly(eps)))
        print(f"{workload.name}: eps_init {eps:.6f}: worst relative "
              f"interpolation error {worst:.2e}; check "
              f"{check_reference(table, eps, record) or 'ok'}")
    return table


def main():
    sys.path.insert(0, str(ROOT / "perfbench"))
    tb = import_program()
    tables = {name: tabulate(tb, w) for name, w in WORKLOADS.items()
              if w.n == 512}
    REFERENCE_FILE.write_text(json.dumps(tables, indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
