import tracemalloc

import numpy as np
import pytest

from tumorbim import bessel

# pass/fail lines registered by the acceptance suite, echoed after the run
_ACCEPTANCE_LINES = []


def record_acceptance(line):
    _ACCEPTANCE_LINES.append(line)


def assert_same_floats(got, want):
    """`got` equals `want` bit for bit, signed zeros included, and is NaN
    where `want` is (NaN payloads may differ)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes(), (got, want)


def check_memory_gate(gate, reading, bound):
    """Assert a memory gate's reading, in pair arrays, against its bound,
    and show the reading in the acceptance summary."""
    ok = reading <= bound
    record_acceptance(f"memory {gate}: {'PASS' if ok else 'FAIL'} "
                      f"{reading:.2f} <= {bound} pair arrays")
    assert ok, f"{gate} holds {reading:.2f} pair arrays"


def i0_i1_k0_arrays(r):
    """[I0, I1, K0] of `bessel.i0_i1_k0(r)` as arrays of r's size, each
    tile's values copied out before the pass moves on."""
    out = [np.empty(np.size(r)) for _ in range(3)]
    for tile, *values in bessel.i0_i1_k0(r):
        for column, value in zip(out, values):
            column[tile] = value
    return out


def pair_array_peak(n, build, call):
    """Run `build()`, then `call` on what it returns, both under tracemalloc;
    returns (call's result, its peak above the memory held before it) with
    the peak in arrays of the n(n + 1)/2 node pairs of n nodes.  What
    `build` makes is traced, so that the frees of it during `call` count."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        built = build()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = call(built)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    return out, peak / (4 * n * (n + 1))


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
