"""Derivation machinery: residual matrices, balancing, plan verification."""

import math
from fractions import Fraction

import numpy as np
import pytest

from mindht import (
    SUPPORTED_SIZES,
    OpCount,
    balance_split,
    balance_stages,
    count_ops,
    dht_matrix,
    entry_alphabet,
    fast_dht,
    kernel_plan,
    pre_addition_matrix,
    pre_addition_state,
    residual_matrix,
    verify_decomposition,
)
from mindht.counting import trace
from mindht.derivation import (
    DerivationError,
    ResidualMatrix,
    _exact_inverse,
    layer_matrix,
    merge_pairs,
)
from mindht.kernels import kernel_flow
from mindht.layers import LAYER_SPECS, max_order

SQRT2_HALF = math.sqrt(2.0) / 2.0
SQRT3_M1_HALF = (math.sqrt(3.0) - 1.0) / 2.0
SQRT6_HALF = math.sqrt(6.0) / 2.0


# --- pre-addition matrices ---


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_matrix_matches_state(n):
    rng = np.random.default_rng(n)
    v = rng.uniform(-1, 1, n)
    for order in range(max_order(n) + 1):
        p = pre_addition_matrix(n, order)
        assert p @ v == pytest.approx(pre_addition_state(v, n, order).values)
        assert p.dtype == np.int64
        assert np.max(np.abs(p)) <= 2


def test_matrix_order_zero_is_identity():
    for n in SUPPORTED_SIZES:
        assert np.array_equal(pre_addition_matrix(n, 0), np.eye(n, dtype=np.int64))


def test_matrix_8_layer1_blocks():
    p = pre_addition_matrix(8, 1)
    for row, (i, j, sign) in enumerate(
        [(0, 4, 1), (0, 4, -1), (2, 6, 1), (2, 6, -1),
         (1, 5, 1), (1, 5, -1), (3, 7, 1), (3, 7, -1)]
    ):
        expected = np.zeros(8, dtype=np.int64)
        expected[i] = 1
        expected[j] = sign
        assert np.array_equal(p[row], expected)


def test_matrix_12_layer1_row4():
    row = pre_addition_matrix(12, 1)[4]
    expected = np.zeros(12, dtype=np.int64)
    expected[1] = expected[7] = 1
    assert np.array_equal(row, expected)


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_determinants_are_powers_of_two(n):
    for order in range(max_order(n) + 1):
        det = round(np.linalg.det(pre_addition_matrix(n, order).astype(float)))
        mag = abs(det)
        assert mag > 0 and (mag & (mag - 1)) == 0


# --- residual matrices ---


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_residual_reconstruction(n):
    h = dht_matrix(n)
    for order in range(max_order(n) + 1):
        t = residual_matrix(n, order)
        p = pre_addition_matrix(n, order)
        assert np.max(np.abs(h - t.entries @ p)) <= 1e-10


def test_residual_order_zero_is_dht_matrix():
    t = residual_matrix(4, 0)
    assert t.entries == pytest.approx(dht_matrix(4), abs=1e-15)


def test_residual_8_terminal_alphabet():
    t = residual_matrix(8, 2)
    assert entry_alphabet(t) == pytest.approx([0.0, SQRT2_HALF, 1.0], abs=1e-12)


def test_residual_12_has_oversized_entries_before_balancing():
    # entries of magnitude greater than one appear at order 2 and are what
    # the special additions peel off
    alpha = entry_alphabet(residual_matrix(12, 2))
    assert max(alpha) > 1.0 + 1e-9
    assert max(alpha) == pytest.approx(1.0 + SQRT3_M1_HALF, abs=1e-12)


def test_residual_singular_layer_is_reported():
    # a deliberately broken (rank-deficient) layer must fail loudly
    from mindht.derivation import _exact_inverse

    with pytest.raises(DerivationError):
        _exact_inverse(np.array([[1, 1], [1, 1]], dtype=np.int64))


def _fraction_inverse(m):
    """Oracle: Gauss-Jordan over Fractions, each entry rounded once to float."""
    n = m.shape[0]
    a = [[Fraction(int(m[i, j])) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return np.array([[float(x) for x in row] for row in inv])


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_exact_inverse_matches_fraction_oracle(n):
    mats = [pre_addition_matrix(n, k) for k in range(max_order(n) + 1)]
    mats += [layer_matrix(n, k) for k in range(1, max_order(n) + 1)]
    for m in mats:
        _assert_same_bits(_exact_inverse(m), _fraction_inverse(m))


def test_exact_inverse_non_dyadic():
    # determinants 3, 4 and 35: thirds and 35ths have no exact float, so
    # each entry must be the correctly rounded quotient, as in the oracle
    for rows in ([[3, 1], [0, 1]], [[2, 1, 0], [1, 2, 1], [0, 1, 2]], [[0, 5], [-7, 3]]):
        m = np.array(rows, dtype=np.int64)
        _assert_same_bits(_exact_inverse(m), _fraction_inverse(m))
    assert _exact_inverse(np.array([[3, 1], [0, 1]]))[0, 0] == 1 / 3


def test_exact_inverse_rejects_a_wrong_float_inverse(monkeypatch):
    # the integer check, not the float inverse, is what makes the result exact
    real_inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda m: real_inv(m) + 0.3)
    with pytest.raises(DerivationError, match="integer check"):
        _exact_inverse(pre_addition_matrix(24, 3))


def test_exact_inverse_rejects_entries_beyond_int64():
    m = np.array([[2**40, 0], [0, 2**40 + 1]], dtype=np.int64)
    with pytest.raises(DerivationError, match="too large"):
        _exact_inverse(m)


# --- alphabet clustering ---


def test_entry_alphabet_of_kernel_matrices():
    assert entry_alphabet(dht_matrix(4)) == (1.0,)
    assert entry_alphabet(dht_matrix(8)) == pytest.approx(
        [0.0, 1.0, math.sqrt(2.0)], abs=1e-12
    )


def test_entry_alphabet_snaps_zero_and_one():
    m = np.array([[0.0, 1.0 + 4e-10], [1.0 - 4e-10, 5e-10]])
    assert entry_alphabet(m, tol=1e-9) == (0.0, 1.0)


def test_entry_alphabet_orders_clusters():
    m = np.array([[0.5, -0.25], [0.25, 0.0]])
    assert entry_alphabet(m) == (0.0, 0.25, 0.5)


def test_entry_alphabet_ambiguity_raises():
    m = np.array([[0.5, 0.5 + 1.5e-9]])
    with pytest.raises(DerivationError):
        entry_alphabet(m, tol=1e-9)


def test_entry_alphabet_rejects_bad_tol():
    with pytest.raises(ValueError):
        entry_alphabet(np.eye(2), tol=0.0)


def _loop_alphabet(t, tol=1e-9):
    """entry_alphabet before the vectorized split: a Python loop over every magnitude."""
    entries = t.entries if isinstance(t, ResidualMatrix) else np.asarray(t)
    mags = np.sort(np.abs(np.asarray(entries, dtype=float)).ravel())
    reps = []
    start = 0
    for i in range(1, mags.size + 1):
        if i == mags.size or mags[i] - mags[i - 1] > tol:
            rep = float(np.mean(mags[start:i]))
            if abs(rep) <= tol:
                rep = 0.0
            elif abs(rep - 1.0) <= tol:
                rep = 1.0
            reps.append(rep)
            start = i
    return tuple(reps)


def _same_floats(a, b):
    return [x.hex() for x in a] == [x.hex() for x in b]


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_entry_alphabet_matches_loop_on_residuals(n):
    for order in range(max_order(n) + 1):
        t = residual_matrix(n, order)
        assert _same_floats(entry_alphabet(t), _loop_alphabet(t))


@pytest.mark.parametrize("seed", range(20))
def test_entry_alphabet_matches_loop_on_clustered_inputs(seed):
    rng = np.random.default_rng([seed, 71])
    tol = 1e-9
    centres = np.sort(rng.choice([0.0, 1.0, *rng.uniform(0.0, 3.0, 6)], 5, replace=False))
    centres = centres[np.concatenate([[True], np.diff(centres) > 1e-6])]
    size = rng.integers(1, 60)
    m = rng.choice(centres, size) + rng.uniform(-tol / 3, tol / 3, size)
    m = (m * rng.choice([-1.0, 1.0], size)).reshape(-1, 1)
    assert _same_floats(entry_alphabet(m, tol), _loop_alphabet(m, tol))


def test_entry_alphabet_of_empty_matrix():
    assert entry_alphabet(np.zeros((0, 3))) == _loop_alphabet(np.zeros((0, 3))) == ()


# --- balancing ---


def test_balance_split_reproduces_substitution_table_n12():
    # spectral row -> signed layer-2 slot; rows 0, 3, 6, 9 need no correction
    z, balanced = balance_split(residual_matrix(12, 2))
    assert z.source_order == 2
    assert dict(sorted(z.entries.items())) == {
        1: (1, 6),
        2: (1, 5),
        4: (-1, 8),
        5: (-1, 11),
        7: (-1, 7),
        8: (-1, 4),
        10: (-1, 9),
        11: (-1, 10),
    }
    # reassembly is exact: Z + T' == T bit for bit on the peeled rows
    t = residual_matrix(12, 2)
    assert np.array_equal(z.as_matrix() + balanced.entries, t.entries)
    assert max(entry_alphabet(balanced)) <= 1.0 + 1e-12


def test_balance_split_in_alphabet_is_identity():
    t = residual_matrix(8, 2)
    z, balanced = balance_split(t)
    assert z.entries == {}
    assert np.array_equal(balanced.entries, t.entries)


def test_balance_split_24_first_stage():
    z, _ = balance_split(residual_matrix(24, 2))
    assert dict(sorted(z.entries.items())) == dict(
        sorted(kernel_plan(24).special_stages[0].entries.items())
    )


def test_balance_stages_24_match_plan():
    stages, terminal = balance_stages(24)
    plan = kernel_plan(24)
    assert len(stages) == 2
    for got, frozen in zip(stages, plan.special_stages):
        assert got.source_order == frozen.source_order
        assert dict(got.entries) == dict(frozen.entries)
    assert terminal.order == 4


def test_balanced_terminal_12():
    stages, terminal = balance_stages(12)
    assert len(stages) == 1
    alpha = entry_alphabet(terminal)
    assert alpha == pytest.approx([0.0, SQRT3_M1_HALF, 1.0], abs=1e-12)
    # the non-unit constant sits in exactly the four multiplied columns
    cols = {
        j
        for j in range(12)
        if np.any(np.abs(np.abs(terminal.entries[:, j]) - SQRT3_M1_HALF) < 1e-9)
    }
    assert cols == {5, 6, 9, 10}


def test_balance_split_diagnostic_on_garbage():
    bad = ResidualMatrix(n=12, order=2, entries=dht_matrix(12) * 0.37)
    with pytest.raises(DerivationError):
        balance_split(bad)


def test_merge_pairs_listing():
    assert merge_pairs(12, 3) == [(4, 8), (5, 9), (7, 10), (6, 11)]
    assert merge_pairs(4, 1) == []


def test_layer_matrix_times_previous_equals_composition():
    for n in SUPPORTED_SIZES:
        for order in range(1, max_order(n) + 1):
            lhs = layer_matrix(n, order) @ pre_addition_matrix(n, order - 1)
            assert np.array_equal(lhs, pre_addition_matrix(n, order))


# --- plans and full verification ---


@pytest.mark.parametrize("n", SUPPORTED_SIZES)
def test_verify_decomposition(n):
    report = verify_decomposition(n)
    assert report.ok
    assert report.max_error <= 1e-10


def test_mult_site_counts():
    assert len(kernel_plan(4).mult_sites) == 0
    assert len(kernel_plan(8).mult_sites) == 2
    assert len(kernel_plan(12).mult_sites) == 4
    assert len(kernel_plan(24).mult_sites) == 12


def test_derived_constants_closed_forms():
    # N=8: the terminal residual alphabet carries sqrt(2)/2
    alpha8 = entry_alphabet(residual_matrix(8, 2))
    assert any(abs(a - SQRT2_HALF) <= 1e-12 for a in alpha8)
    # N=12: after balancing the only non-unit constant is (sqrt(3)-1)/2
    _, term12 = balance_stages(12)
    alpha12 = entry_alphabet(term12)
    assert any(abs(a - SQRT3_M1_HALF) <= 1e-12 for a in alpha12)
    # N=24: twelve sites drawn from {(sqrt(3)-1)/2, sqrt(2)/2, sqrt(6)/2}
    sites = kernel_plan(24).mult_sites
    values = sorted(s.value for s in sites)
    expected = sorted([SQRT3_M1_HALF] * 6 + [SQRT2_HALF] * 4 + [SQRT6_HALF] * 2)
    assert values == pytest.approx(expected, abs=1e-15)


def test_plan_matches_kernel_matrix():
    # golden link: the extracted plans rebuild exactly the transform the kernels
    # compute, column by column
    from mindht import fast_dht
    from mindht.derivation import plan_matrix

    for n in SUPPORTED_SIZES:
        kernel_matrix = np.column_stack([fast_dht(basis) for basis in np.eye(n)])
        assert kernel_matrix == pytest.approx(plan_matrix(n), abs=1e-12 * n)


def test_scheduled_counts_in_report():
    for n, (adds, mults) in ((4, (8, 0)), (8, (22, 2)), (12, (52, 4)), (24, (138, 12))):
        report = verify_decomposition(n)
        assert (report.additions_scheduled, report.multiplications_scheduled) == (adds, mults)


def test_aux_sites_span_two_layers():
    # two of the sqrt(2)/2 sites at N=24 combine a layer-4 slot with a
    # layer-3 slot; their operands carry two terms
    sites = kernel_plan(24).mult_sites
    aux = [s for s in sites if len(s.operand) == 2]
    assert len(aux) == 2
    for s in aux:
        orders = {ref[1] for _, ref in s.operand}
        assert orders == {3, 4}
        assert s.value == pytest.approx(SQRT2_HALF)


# --- plans extracted from the traced flows ---


def test_dead_slots_are_exactly_the_documented_pair():
    # N=8 multiplies S1[5], S1[7] directly: its flow forms S2[6], S2[7]
    # through the listing, no output needs them, and the trace prunes them
    # (docs/derivation-notes.md); every other layer slot is a program node
    dead = {n: kernel_plan(n).dead_slots for n in SUPPORTED_SIZES}
    assert dead == {4: (), 8: (("S", 2, 6), ("S", 2, 7)), 12: (), 24: ()}


def test_balance_transitions_follow_from_the_plans():
    # the layers balance_stages peels at are the plans' special-stage sources
    transitions = {
        n: tuple(z.source_order for z in kernel_plan(n).special_stages)
        for n in SUPPORTED_SIZES
    }
    assert transitions == {4: (), 8: (), 12: (2,), 24: (2, 3)}


def _swapped(listing, order, idx):
    """A copy of listing whose row idx of layer `order`, a sub, has its operands swapped."""
    spec = [list(layer) for layer in listing]
    op, i, j = spec[order - 1][idx]
    assert op == "sub"
    spec[order - 1][idx] = (op, j, i)
    return spec


def test_every_swapped_sub_row_builds_a_kernel_verify_rejects(monkeypatch):
    # the flows run LAYER_SPECS, so swapping a sub row's operands negates a
    # slot of the kernel itself: the counts stay, the kernel is no longer
    # H_24, and verify_decomposition says so, whichever row is swapped
    listing = LAYER_SPECS[24]
    rows = [
        (order, idx)
        for order, spec in enumerate(listing, start=1)
        for idx, op in enumerate(spec)
        if op[0] == "sub"
    ]
    assert len(rows) == 35
    h = dht_matrix(24)
    unbalanced = 0
    for order, idx in rows:
        monkeypatch.setitem(LAYER_SPECS, 24, _swapped(listing, order, idx))
        kernel = np.array([fast_dht(e) for e in np.eye(24)]).T
        assert np.max(np.abs(kernel - h)) > 0.5
        assert count_ops(24) == OpCount(138, 12)
        report = verify_decomposition(24)
        assert report.ok is False and report.max_error > 0.5
        try:
            balance_stages(24)
        except DerivationError as e:
            assert str(e).startswith("no valid balance split for N=24")
            unbalanced += 1
    # 13 swaps (all in layers 1 and 2) also leave no valid balance split
    assert unbalanced == 13
    monkeypatch.setitem(LAYER_SPECS, 24, listing)
    assert verify_decomposition(24).ok


def _derived(n):
    """The cached derivation reads: P_k and T(k) per layer, balancing, report."""
    orders = range(max_order(n) + 1)
    return (
        [pre_addition_matrix(n, k) for k in orders],
        [residual_matrix(n, k) for k in orders],
        balance_stages(n),
        verify_decomposition(n),
    )


def _assert_same_values(got, want):
    """P_k, T(k) and the balancing of two _derived reads agree bit for bit."""
    for g, w in zip(got[0], want[0]):
        assert np.array_equal(g, w)
    for g, w in zip(got[1], want[1]):
        assert g.entries.tobytes() == w.entries.tobytes()
    assert [z.entries for z in got[2][0]] == [z.entries for z in want[2][0]]
    assert got[2][1].entries.tobytes() == want[2][1].entries.tobytes()


def test_replaced_flow_is_planned_again(monkeypatch):
    # the cached derivation belongs to the flow it was traced from: a
    # corrupted flow installed after a first call must fail, and the real
    # one pass again; every derived read is made afresh both times
    from mindht import kernels

    real = kernels._FLOWS[24]

    def bad(v):
        out = real(v)
        out[0] = 0.9999999 * out[0]  # one spurious multiplication
        return out

    before = _derived(24)
    assert before[3].ok
    monkeypatch.setitem(kernels._FLOWS, 24, bad)
    swapped = _derived(24)
    report = swapped[3]
    assert not report.ok
    assert report.multiplications_scheduled == 13
    assert len(report.mult_sites) == 13
    # the listing is unchanged, so P_k, T(k) and the balancing keep their
    # values, but they come from a new record
    assert swapped[0][1] is not before[0][1]
    assert swapped[1][1] is not before[1][1]
    assert swapped[2][1] is not before[2][1]
    _assert_same_values(swapped, before)
    monkeypatch.setitem(kernels._FLOWS, 24, real)
    after = _derived(24)
    assert after[3].ok
    assert len(after[3].mult_sites) == 12
    assert after[3] is not before[3]
    assert after[3] == before[3]
    _assert_same_values(after, before)


def test_replaced_layer_listing_is_planned_again(monkeypatch):
    # the trace, the scalar and array kernels and the derivation all belong
    # to the listing they were made from: a swapped sub row changes each of
    # them, and restoring the listing restores every bit
    listing = LAYER_SPECS[24]
    x = np.random.default_rng(101).uniform(-1.0, 1.0, (24, 40))
    v = x[:, 0]
    before = _derived(24)
    spectrum, batch, program = fast_dht(v), kernel_flow(24)(x), trace(24)
    monkeypatch.setitem(LAYER_SPECS, 24, _swapped(listing, 1, 1))
    assert trace(24) is not program
    assert count_ops(24) == OpCount(138, 12)
    swapped = fast_dht(v)
    assert not np.allclose(swapped, spectrum)
    assert kernel_flow(24)(v.tolist()) == swapped.tolist()
    assert kernel_flow(24)(x)[:, 0].tobytes() == swapped.tobytes()
    # the swap negates slot 1 of S(1): row 1 of P_1 and column 1 of T(1)
    flip = np.ones(24)
    flip[1] = -1
    assert np.array_equal(pre_addition_matrix(24, 1), flip[:, None] * before[0][1])
    assert np.array_equal(residual_matrix(24, 1).entries, before[1][1].entries * flip)
    assert verify_decomposition(24).ok is False
    monkeypatch.setitem(LAYER_SPECS, 24, listing)
    assert fast_dht(v).tobytes() == spectrum.tobytes()
    assert kernel_flow(24)(x).tobytes() == batch.tobytes()
    after = _derived(24)
    assert after[3] == before[3]
    _assert_same_values(after, before)


@pytest.mark.parametrize("n", (8, 24))
def test_arrays_handed_out_are_read_only(n):
    # a caller writing into a returned array must not reach the cache
    top = max_order(n)
    _, terminal = balance_stages(n)
    arrays = [pre_addition_matrix(n, top), residual_matrix(n, top).entries, terminal.entries]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0] = 7
        with pytest.raises(ValueError):
            a.flags.writeable = True
    with pytest.raises(TypeError):
        verify_decomposition(n).alphabets[0] = (7.0,)
    stages, _ = balance_stages(n)
    stages.append("not a stage")
    assert "not a stage" not in balance_stages(n)[0]
    # copies are writable and leave the cache alone
    p = pre_addition_matrix(n, top).copy()
    p[0, 0] = 7
    assert pre_addition_matrix(n, top)[0, 0] != 7
