"""Operation-count audit: measured costs must match the declared budgets."""

import numpy as np
import pytest

from mindht import (
    EXPECTED_COUNTS,
    SUPPORTED_SIZES,
    CountingScalar,
    count_ops,
    mu_lower_bound,
)
from mindht.counting import (
    OpTally,
    audit_dict,
    audit_passes,
    audit_report,
    audit_table,
    run_counted,
)
from mindht.kernels import kernel_flow


@pytest.mark.parametrize("n,expected", sorted(EXPECTED_COUNTS.items()))
def test_counts_match_declared(n, expected):
    ops = count_ops(n)
    assert (ops.additions, ops.multiplications) == expected


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_counts_input_independent(n):
    # the traced count holds for every input the kernel actually runs on
    for seed in range(10):
        v = np.random.default_rng([seed, n]).uniform(-1.0, 1.0, n)
        assert run_counted(n, v)[1] == count_ops(n)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_multiplications_meet_lower_bound(n):
    assert count_ops(n).multiplications == mu_lower_bound(n)


def test_mu_table():
    assert mu_lower_bound(4) == 0
    assert mu_lower_bound(8) == 2
    assert mu_lower_bound(12) == 4
    assert mu_lower_bound(24) == 12
    with pytest.raises(ValueError):
        mu_lower_bound(16)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_counting_transparency(n):
    # the counted run must reproduce the plain-double spectrum bit for bit
    rng = np.random.default_rng(n + 41)
    v = rng.uniform(-1.0, 1.0, n)
    plain = np.array(kernel_flow(n)(v.tolist()))
    counted, _ = run_counted(n, v)
    assert np.array_equal(plain, counted)


def test_counting_scalar_rules():
    tally = OpTally()
    a = CountingScalar(2.0, tally)
    b = CountingScalar(3.0, tally)
    _ = a + b
    _ = a - b
    assert tally.additions == 2 and tally.multiplications == 0
    _ = 0.5 * a
    _ = a * 0.5
    assert tally.multiplications == 2
    _ = 1.0 * a
    _ = -1.0 * a
    _ = 0.0 * a
    _ = -a
    assert tally.multiplications == 2  # trivial constants and negation are free
    assert tally.additions == 2
    with pytest.raises(TypeError):
        _ = a * b


def test_counting_scalar_value_semantics():
    tally = OpTally()
    a = CountingScalar(1.25, tally)
    b = CountingScalar(-0.5, tally)
    assert (a + b).value == 1.25 + -0.5
    assert (a - b).value == 1.25 - -0.5
    assert (0.3 * a).value == 0.3 * 1.25


def test_tallies_are_per_invocation():
    # two concurrent tallies never interfere
    t1, t2 = OpTally(), OpTally()
    a1 = CountingScalar(1.0, t1)
    a2 = CountingScalar(1.0, t2)
    _ = a1 + a1
    assert (t1.additions, t2.additions) == (1, 0)
    _ = a2 + a2
    assert (t1.additions, t2.additions) == (1, 1)


def test_audit_report_rows():
    rows = audit_report()
    assert [(r.n, r.additions, r.multiplications, r.mu, r.meets_bound) for r in rows] == [
        (4, 8, 0, 0, True),
        (8, 22, 2, 2, True),
        (12, 52, 4, 4, True),
        (24, 138, 12, 12, True),
    ]
    assert audit_passes(rows)
    # perfbench/layer_probes.py still passes a former seed positionally
    assert audit_report(0) == rows


def test_audit_renderings():
    rows = audit_report()
    table = audit_table(rows)
    assert "meets bound" in table and " 138 " in table
    doc = audit_dict(rows)
    assert doc["all_meet_bound"] is True
    assert doc["kernels"][3] == {
        "n": 24,
        "additions": 138,
        "multiplications": 12,
        "mu_lower_bound": 12,
        "meets_bound": True,
    }


def test_one_replaced_flow_reaches_counts_plan_and_array_path(monkeypatch):
    # count_ops, kernel_plan and the array path all read the kernel's one
    # trace: one setitem reaches all three, and restoring the flow restores them
    from mindht import kernels
    from mindht.counting import trace
    from mindht.derivation import kernel_plan

    real = kernels._FLOWS[8]

    def bad(v):
        out = real(v)
        out[0] = 0.9999999 * out[0]  # one spurious multiplication
        return out

    x = np.random.default_rng(83).uniform(-1.0, 1.0, (8, 50))
    kernel = kernel_flow(8)  # made before the replacement, called after it
    good = kernel(x)
    assert trace(8) is trace(8)

    def observed():
        out = kernel(x)
        # the same kernel object runs the same flow on its scalar path
        assert np.array_equal(out[:, 7], kernel(x[:, 7].tolist()))
        return count_ops(8).multiplications, len(kernel_plan(8).mult_sites), out

    monkeypatch.setitem(kernels._FLOWS, 8, bad)
    mults, sites, out = observed()
    assert (mults, sites) == (3, 3)
    assert np.array_equal(out[0], 0.9999999 * good[0])
    assert np.array_equal(out[1:], good[1:])

    monkeypatch.setitem(kernels._FLOWS, 8, real)
    mults, sites, out = observed()
    assert (mults, sites) == (2, 2)
    assert out.tobytes() == good.tobytes()
