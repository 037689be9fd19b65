"""Reconstruction and verification of the kernel factorizations.

The fast kernels factor the Hartley matrix H_N as

    H_N = (post additions) . (constant diagonal) . (pre-addition layers)
          + special-addition corrections

Each kernel is described once: its pre-addition layers by their listing in
mindht.layers, the rest by its ``*_flow`` in mindht.kernels, which runs that
listing.  kernel_plan reads the flow's one trace (mindht.counting.trace) and
labels its nodes with the listing's slots, whose coefficient vectors are the
rows of the layer compositions P_k: the multiplication sites, the
special-addition stages and the post-addition rows are all extracted from
the trace.  Every slot is a node by construction, except the slots no output
needs, which the trace prunes (``KernelPlan.dead_slots``).  Independently,
the residual matrices T(k) - what remains of the transform after k layers,
satisfying V = T(k) . S(k) - are reconstructed here as H_N . P_k^{-1}, with
P_k^{-1} = L_1^{-1} ... L_k^{-1} read from the listing: a layer L of passes
and butterflies has orthogonal rows, so L^{-1} = L^T / (L L^T), exact in
float64, and a layer of any other shape is refused by name.  Balancing
splits oversized residual entries (magnitude above one) into an integer
part, applied as a "special addition" of an already-computed layer value,
plus a remainder that lands back in the kernel's constant alphabet; it
re-derives the extracted special stages from H_N alone.
verify_decomposition multiplies every plan stage back out to check the
factorization reproduces H_N exactly.

Each kernel is derived once per kernel record (``kernels._KERNELS``),
which a replaced flow or listing replaces: P_0..P_max, the plan, each
residual T(k), the balancing at the default tol and the DecompositionReport
are ``kernels._derived`` fills of that record, made on first use under its
lock, so racing first calls make each of them once, and read from it
afterwards.  The arrays handed out (P_k, the entries of T(k) and of the
balanced terminal) are read-only views of that record, and the report's
alphabets a read-only mapping.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from operator import add, sub
from types import MappingProxyType

import numpy as np

from .counting import count_ops, trace
from .kernels import CONSTANT_LABELS, _derived, _kernel
from .layers import LAYER_SPECS, apply_layer, cascade, check_order, check_size, max_order
from .reference import dht_matrix

__all__ = [
    "DerivationError",
    "ResidualMatrix",
    "SpecialAdditionVector",
    "MultSite",
    "KernelPlan",
    "pre_addition_matrix",
    "layer_matrix",
    "residual_matrix",
    "entry_alphabet",
    "merge_pairs",
    "balance_split",
    "balance_stages",
    "kernel_plan",
    "plan_matrix",
    "DecompositionReport",
    "verify_decomposition",
]

RECONSTRUCTION_TOL = 1e-10
ALPHABET_TOL = 1e-9  # default tol of entry_alphabet and balance_split


class DerivationError(ValueError):
    """A layer listing failed to produce a usable factorization stage."""


# ---------------------------------------------------------------------------
# pre-addition matrices and residuals


def layer_matrix(n: int, order: int) -> np.ndarray:
    """Integer matrix of a single layer, mapping S(order-1) to S(order)."""
    order = check_order(n, order, 1)  # checks n first
    return np.array(apply_layer(LAYER_SPECS[n][order - 1], np.eye(n, dtype=np.int64)))


def pre_addition_matrix(n: int, order: int) -> np.ndarray:
    """Integer matrix P with P @ v = pre_addition_state(v, n, order).values.

    Order 0 is the identity; higher orders apply the layer listings to its
    rows, so row i of P is the coefficient vector of slot i of S(order).
    The matrix is read from the kernel's cached derivation and is read-only.
    """
    return _mats(n)[check_order(n, order)]


@_derived
def _mats(n: int) -> tuple[np.ndarray, ...]:
    """P_0..P_max of the kernel record's listing, composed together, read-only."""
    eye = np.eye(n, dtype=np.int64)
    return tuple(_frozen(np.array(m)) for m in cascade(_kernel(n).spec, eye))


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a, which nobody can make writable again."""
    a.flags.writeable = False
    return a.view()


def _layer_inverse(n: int, order: int) -> np.ndarray:
    """Inverse of layer `order`, read from its listing as L.T / (L @ L.T).

    A layer of passes and butterflies has orthogonal rows, so D = L @ L.T is
    diagonal, ones for passes and twos for butterflies, and L.T / D is the
    inverse: its entries are 0, +-1 and +-1/2, exact in float64.  Any other
    layer raises DerivationError naming it and its offending rows.
    """
    m = layer_matrix(n, order)
    g = m @ m.T
    bad = [f"rows {r} and {s} read the same slot" for r, s in np.argwhere(np.triu(g, 1))]
    bad += [f"row {r} cancels to zero" for r in np.flatnonzero(g.diagonal() == 0)]
    if bad:
        raise DerivationError(
            f"N={n} layer {order} is not passes and butterflies: {'; '.join(bad)}"
        )
    return m.T / g.diagonal()


@dataclass(frozen=True)
class ResidualMatrix:
    """T(order) for one kernel: the matrix with V = T(order) @ S(order)."""

    n: int
    order: int
    entries: np.ndarray


def residual_matrix(n: int, order: int) -> ResidualMatrix:
    """Compute T(order) = H_n @ P_order^{-1} and gate the reconstruction.

    P_order^{-1} is the product of the layers' inverses, each read from its
    listing (see _layer_inverse), so it is exact in float64.  Raises
    DerivationError naming the layer and rows if a layer is not passes and
    butterflies, or if the product T @ P fails to reproduce H_n to within
    1e-10 entrywise.  The result is cached with the kernel's derivation; its
    entries are read-only.
    """
    # the order is checked before the lookup, where 1.0 would find order 1
    return _residual(n, check_order(n, order))


@_derived
def _residual(n: int, order: int) -> ResidualMatrix:
    p, inv = pre_addition_matrix(n, order), np.eye(n)
    for k in range(1, order + 1):
        inv = inv @ _layer_inverse(n, k)  # P^{-1} = L_1^{-1} ... L_order^{-1}
    h = dht_matrix(n)
    entries = h @ inv
    err = float(np.max(np.abs(h - entries @ p)))
    if err > RECONSTRUCTION_TOL:
        raise DerivationError(
            f"residual reconstruction failed for N={n} order {order}: max deviation {err:.3e}"
        )
    return ResidualMatrix(n=n, order=order, entries=_frozen(entries))


def entry_alphabet(t, tol: float = ALPHABET_TOL) -> tuple[float, ...]:
    """Cluster the absolute entry values of a matrix and return representatives.

    Clusters are formed by gaps larger than tol in the sorted magnitudes;
    each is reported by its mean, snapped exactly to 0 or 1 when within tol.
    Two representatives closer than 2*tol indicate the tolerance cannot
    separate genuine constants and raise DerivationError.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    entries = t.entries if isinstance(t, ResidualMatrix) else t
    mags = np.sort(np.abs(np.asarray(entries, dtype=float)).ravel())
    reps: list[float] = []
    clusters = np.split(mags, np.flatnonzero(np.diff(mags) > tol) + 1) if mags.size else []
    for cluster in clusters:
        rep = float(np.mean(cluster))
        if abs(rep) <= tol:
            rep = 0.0
        elif abs(rep - 1.0) <= tol:
            rep = 1.0
        reps.append(rep)
    for a, b in zip(reps, reps[1:]):
        if b - a < 2 * tol:
            raise DerivationError(
                f"alphabet clusters {a!r} and {b!r} are closer than 2*tol={2 * tol}"
            )
    return tuple(reps)


# ---------------------------------------------------------------------------
# balancing


@dataclass(frozen=True)
class SpecialAdditionVector:
    """Integer corrections peeled off a residual: row k gains sign * S(order)[idx].

    entries maps spectral row -> (sign, layer slot).  Rows absent from the
    mapping need no correction.
    """

    n: int
    source_order: int
    entries: dict[int, tuple[int, int]]

    def as_matrix(self) -> np.ndarray:
        z = np.zeros((self.n, self.n), dtype=np.int64)
        for row, (sign, idx) in self.entries.items():
            z[row, idx] = sign
        return z


def merge_pairs(n: int, order: int) -> list[tuple[int, int]]:
    """Slot pairs of S(order-1) that layer `order` combines with butterflies."""
    check_size(n)
    specs = LAYER_SPECS[n]
    if not 1 <= order <= len(specs):
        return []
    pairs = []
    for op in specs[order - 1]:
        if op[0] == "add":
            pairs.append((op[1], op[2]))
    return pairs


def balance_split(t: ResidualMatrix, tol: float = ALPHABET_TOL):
    """Split T into a special-addition vector Z plus a balanced remainder.

    Wherever the next layer merges two residual columns whose entries disagree
    in magnitude, the oversized entry (magnitude > 1) sheds an integer +-1
    into Z so the remainder matches its partner.  Column pairs whose entries
    differ by an exact factor of two are left untouched: they are resolved at
    the terminal stage by a multiplication site on a cross-layer sum rather
    than by an integer correction.  Any other mismatch is a transcription
    error in the layer listings and raises a diagnostic.

    Returns (Z, T') with T = Z.as_matrix() + T'.entries on the peeled rows.
    """
    pairs = merge_pairs(t.n, t.order + 1)
    e = t.entries.copy()
    z: dict[int, tuple[int, int]] = {}
    offenders = []
    for i, j in pairs:
        for r in range(t.n):
            x, y = e[r, i], e[r, j]
            if abs(abs(x) - abs(y)) <= tol:
                continue
            if abs(x) >= abs(y):
                col, big, small = i, x, y
            else:
                col, big, small = j, y, x
            peeled = big - (1.0 if big > 0 else -1.0)
            if abs(big) > 1 + tol and abs(abs(peeled) - abs(small)) <= tol:
                if r in z:
                    offenders.append((r, i, j, x, y))
                    continue
                z[r] = (1 if big > 0 else -1, col)
                e[r, col] = peeled
            elif abs(abs(big) - 2 * abs(small)) <= tol:
                continue  # factor-of-two pair, handled by a cross-layer site
            else:
                offenders.append((r, i, j, x, y))
    if offenders:
        detail = "; ".join(
            f"row {r}, cols ({i},{j}): {x:.6f} vs {y:.6f}" for r, i, j, x, y in offenders
        )
        raise DerivationError(f"no valid balance split for N={t.n}: {detail}")
    return (
        SpecialAdditionVector(n=t.n, source_order=t.order, entries=z),
        ResidualMatrix(n=t.n, order=t.order, entries=e),
    )


def balance_stages(n: int):
    """Run the full balancing pipeline for one kernel.

    Balancing peels one special-addition vector at each source layer of the
    plan's special stages, splitting at ``balance_split``'s default tol.
    Returns (stages, terminal) where stages is the list of special-addition
    vectors in the order they are peeled and terminal is the balanced
    residual at the deepest layer.  The result is cached with the kernel's
    derivation: each call gets its own list, and the terminal's entries are
    read-only.
    """
    stages, terminal = _balance(n)
    return list(stages), terminal


@_derived
def _balance(n: int):
    transitions = tuple(z.source_order for z in kernel_plan(n).special_stages)
    order = min(transitions) if transitions else max_order(n)
    t = residual_matrix(n, order)
    stages = []
    for k in transitions:
        if t.order != k:
            raise DerivationError(f"pipeline out of step: at order {t.order}, expected {k}")
        z, t_bal = balance_split(t)
        stages.append(z)
        entries = t_bal.entries @ _layer_inverse(n, k + 1)
        t = ResidualMatrix(n=n, order=k + 1, entries=_frozen(entries))
    return stages, t


# ---------------------------------------------------------------------------
# kernel plans, extracted from the traced flows

# Operand/term references: ("S", order, idx) is slot idx of layer `order`;
# ("m", k) is multiplication site k of the plan.


@dataclass(frozen=True)
class MultSite:
    """One constant multiplication: value * (signed sum of layer slots)."""

    value: float
    label: str
    operand: tuple  # of (sign, ("S", order, idx))

    def operand_text(self) -> str:
        parts = []
        for sign, (_, order, idx) in self.operand:
            parts.append(("+" if sign > 0 else "-") if parts or sign < 0 else "")
            parts[-1] += f"S{order}[{idx}]"
        return " ".join(parts)


@dataclass(frozen=True)
class KernelPlan:
    n: int
    mult_sites: tuple[MultSite, ...]
    special_stages: tuple[SpecialAdditionVector, ...]
    post_rows: tuple[tuple, ...]  # row k -> tuple of (sign, ref)
    dead_slots: tuple[tuple, ...]  # layer slots ("S", order, idx) the pruned trace lacks


def _coefficients(nodes: list[tuple], n: int) -> list:
    """Integer coefficient vector of each traced node over the n inputs.

    The inputs are nodes 0..n-1.  A multiplication node, and every node that
    depends on one, gets None: such nodes are never layer slots.
    """
    vecs: list = []
    for k, (op, a, b) in enumerate(nodes):
        if op == "in":
            vecs.append(tuple(int(i == k) for i in range(n)))
        elif op == "*" or vecs[a] is None or vecs[b] is None:
            vecs.append(None)
        else:
            vecs.append(tuple(map(add if op == "+" else sub, vecs[a], vecs[b])))
    return vecs


def _extract_plan(n: int, program, mats: tuple[np.ndarray, ...]) -> KernelPlan:
    """Express the kernel's trace against the LAYER_SPECS slots.

    mats[k] is P_k, whose row i is the coefficient vector of slot S(k)[i].  A
    node of the trace is labelled with the slot whose coefficient vector it
    equals; where pass-throughs repeat a slot, the deepest layer wins.  Each
    constant multiplication becomes a site and each output a post row, both
    expanded down to labelled nodes.  Post-row terms below the deepest layer
    are the special additions, one stage per source layer.
    """
    nodes = program.nodes
    vecs = _coefficients(nodes, n)
    slots = {(k, i): tuple(row) for k, m in enumerate(mats) for i, row in enumerate(m.tolist())}
    labels = {vec: ("S", k, i) for (k, i), vec in slots.items()}  # deeper layers overwrite
    sites = [i for i, (op, _, _) in enumerate(nodes) if op == "*"]
    site_index = {node: k for k, node in enumerate(sites)}

    def expand(node: int, sign: int = 1) -> list:
        ref = labels.get(vecs[node])
        if ref is None:
            op, a, b = nodes[node]
            if op != "*":
                return expand(a, sign) + expand(b, sign if op == "+" else -sign)
            ref = ("m", site_index[node])
        return [(sign, ref)]

    # an unlisted constant keeps its repr as label, so a wrong constant in a
    # flow surfaces as a reconstruction failure rather than a lookup error
    mult_sites = tuple(
        MultSite(value=c, label=CONSTANT_LABELS.get(c, repr(c)), operand=tuple(expand(a)))
        for _, a, c in (nodes[i] for i in sites)
    )
    post_rows = tuple(tuple(expand(out)) for out in program.outputs)
    computed = set(vecs)
    dead = tuple(("S", k, i) for (k, i), vec in slots.items() if vec not in computed)

    stages: dict[int, dict[int, tuple[int, int]]] = {}
    for row, terms in enumerate(post_rows):
        for sign, ref in terms:
            if ref[0] == "S" and ref[1] < len(mats) - 1:
                entries = stages.setdefault(ref[1], {})
                if row in entries:
                    raise DerivationError(
                        f"N={n}: output {row} takes two special additions from layer {ref[1]}"
                    )
                entries[row] = (sign, ref[2])
    special = tuple(SpecialAdditionVector(n, k, stages[k]) for k in sorted(stages))
    return KernelPlan(n, mult_sites, special, post_rows, dead)


@_derived
def kernel_plan(n: int) -> KernelPlan:
    """Factorization plan for one kernel (sites, specials, post rows).

    Extracted from the kernel's trace on first use and cached; a replaced
    ``kernels._FLOWS[n]`` or ``LAYER_SPECS[n]`` is extracted again.
    """
    return _extract_plan(n, trace(n), _mats(n))


# ---------------------------------------------------------------------------
# full verification


@dataclass(frozen=True)
class DecompositionReport:
    n: int
    ok: bool
    max_error: float
    alphabets: Mapping[int, tuple[float, ...]]  # read-only
    mult_sites: tuple[MultSite, ...]
    special_stages: tuple[SpecialAdditionVector, ...]
    additions_scheduled: int
    multiplications_scheduled: int


def plan_matrix(n: int) -> np.ndarray:
    """Multiply the plan's stages out into one n x n matrix.

    Each spectral row is the signed sum of its post-addition terms: layer
    slots contribute the matching row of P_order, multiplication sites their
    constant times the operand vector.
    """
    plan, mats = kernel_plan(n), _mats(n)
    sites = [
        site.value * sum(sign * mats[order][idx] for sign, (_, order, idx) in site.operand)
        for site in plan.mult_sites
    ]
    rebuilt = np.zeros((n, n))
    for k, terms in enumerate(plan.post_rows):
        for sign, ref in terms:
            rebuilt[k] += sign * (mats[ref[1]][ref[2]] if ref[0] == "S" else sites[ref[1]])
    return rebuilt


@_derived
def verify_decomposition(n: int) -> DecompositionReport:
    """Multiply out every derived stage and compare against the DHT matrix.

    Reassembles each spectral row from the plan's post-addition terms (layer
    slots carry integer weight, multiplication sites carry their constant) and
    checks the result equals dht_matrix(n) to within 1e-10 entrywise.  The
    report also carries the per-layer residual alphabets, the balancing
    stages, and the scheduled operation counts of the kernel implementing the
    plan.  It is made once per kernel record and shared by every call.
    """
    plan = kernel_plan(n)
    err = float(np.max(np.abs(plan_matrix(n) - dht_matrix(n))))
    ops = count_ops(n)
    alphabets = {k: entry_alphabet(residual_matrix(n, k)) for k in range(len(_mats(n)))}
    return DecompositionReport(
        n=n,
        ok=err <= RECONSTRUCTION_TOL,
        max_error=err,
        alphabets=MappingProxyType(alphabets),
        mult_sites=plan.mult_sites,
        special_stages=plan.special_stages,
        additions_scheduled=ops.additions,
        multiplications_scheduled=ops.multiplications,
    )

