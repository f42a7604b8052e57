"""Instance model for column-sparse packing programs.

A packing instance is the data of the program

    max { w . x : A x <= b, x in {0,1}^n }

with A stored column-wise: column j is the list of (row, coefficient)
pairs with coefficient in (0, 1], so the number of nonzero rows of a
column is its sparsity.  Capacities are normalized to b_i >= 1.  The
rounding pipelines in this package consume instances together with a
fractional LP solution and produce item sets that are feasible by
construction; `check_feasible` is the single shared notion of
feasibility (1e-9 additive tolerance) used everywhere.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError

FEAS_TOL = 1e-9


@dataclass(frozen=True)
class PackingInstance:
    """Column-wise packing program data.

    columns[j] lists the (row, coefficient) pairs of item j; rows are
    0-based.  `k` is an optional declared sparsity bound; when absent,
    algorithms fall back to the measured `column_sparsity`.
    """

    n: int
    m: int
    capacities: tuple
    weights: tuple
    columns: tuple
    k: int | None = None

    @cached_property
    def big_rows(self):
        """For each item j, the rows i on which it is big (a_ij > 1/2),
        in column order.  This is the one place the 1/2 threshold is
        applied."""
        return tuple(tuple(i for i, a in col if a > 0.5) for col in self.columns)

    @cached_property
    def conflicts(self):
        """For each item j, a bitset (a Python int, bit j' for item j')
        of the other items that are big on some row of j: the arcs a
        conflict digraph may draw out of j, and the big items that can
        block j.  A trial intersects it with the mask of its own item
        set.  The table holds at most n^2 / 8 bytes."""
        bigs_on_row = [0] * self.m
        for j, big in enumerate(self.big_rows):
            for i in big:
                bigs_on_row[i] |= 1 << j
        out = []
        for j, col in enumerate(self.columns):
            hit = 0
            for i, _ in col:
                hit |= bigs_on_row[i]
            out.append(hit & ~(1 << j))
        return tuple(out)

    @cached_property
    def row_bits(self):
        """(rows, overfull): for each item j, the bitset of the rows it
        touches, and of those where its entry alone exceeds the capacity
        by more than FEAS_TOL (none on a valid instance), as
        `check_feasible` reads them."""
        rows = tuple(sum(1 << i for i, _ in col) for col in self.columns)
        overfull = tuple(
            sum(1 << i for i, a in col
                if not (a <= self.capacities[i] + FEAS_TOL))
            for col in self.columns)
        return rows, overfull

    @cached_property
    def validation(self):
        """The structural check of `validate_instance`, made once per
        instance: it is frozen, and every rounder asks again.

        Checked: dimension consistency, row indices in range, no
        duplicate row within a column, coefficients in (0, 1], finite
        weights >= 0, finite capacities >= 1, and |C(j)| <= k when a
        sparsity k is declared.
        """
        v = []
        if self.n != len(self.columns):
            v.append(f"n={self.n} but {len(self.columns)} columns")
        if self.m != len(self.capacities):
            v.append(f"m={self.m} but {len(self.capacities)} capacities")
        if len(self.weights) != self.n:
            v.append(f"{len(self.weights)} weights for n={self.n}")
        for j, w in enumerate(self.weights):
            if not (w >= 0.0):
                v.append(f"weight[{j}]={w} negative")
            elif not math.isfinite(w):
                v.append(f"weight[{j}]={w} not finite")
        for i, b in enumerate(self.capacities):
            if not (b >= 1.0):
                v.append(f"capacity[{i}]={b} below 1")
            elif not math.isfinite(b):
                v.append(f"capacity[{i}]={b} not finite")
        for j, col in enumerate(self.columns):
            rows = [i for i, _ in col]
            if len(set(rows)) != len(rows):
                v.append(f"column {j} repeats a row")
            for i, a in col:
                if not (0 <= i < self.m):
                    v.append(f"column {j} row index {i} out of range")
                if not (0.0 < a <= 1.0):
                    v.append(f"a[{i},{j}]={a} outside (0,1]")
            if self.k is not None and len(col) > self.k:
                v.append(f"column {j} has {len(col)} rows, declared k={self.k}")
        if self.k is not None and self.k < 1:
            v.append(f"declared k={self.k} below 1")
        return ValidationReport(tuple(v))

    def coefficient(self, i, j):
        """a_ij, or 0.0 when item j does not touch row i."""
        for r, a in self.columns[j]:
            if r == i:
                return a
        return 0.0


def make_instance(capacities, weights, columns, k=None):
    """Normalize raw lists into a PackingInstance (no validation)."""
    cols = tuple(tuple((int(i), float(a)) for i, a in col) for col in columns)
    return PackingInstance(
        n=len(cols),
        m=len(capacities),
        capacities=tuple(float(b) for b in capacities),
        weights=tuple(float(w) for w in weights),
        columns=cols,
        k=k,
    )


@dataclass(frozen=True)
class FractionalSolution:
    """A point x in [0,1]^n with its objective value w . x."""

    x: tuple
    objective: float


def require_fractional(x, n):
    """x as a float array of shape (n,), clipped to [0, 1].

    Raises ValidationError for another shape, and for an entry that is
    NaN or lies outside [0, 1] by more than 1e-12 (solver dust)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValidationError(
            f"x has shape {x.shape}, expected length {n}: an array of {n} numbers")
    if not np.all((x >= -1e-12) & (x <= 1.0 + 1e-12)):
        raise ValidationError("x outside [0,1]")
    return np.clip(x, 0.0, 1.0)


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self):
        return not self.violations


def validate_instance(inst):
    """Structural checks; returns a report rather than raising.  The
    check runs once per instance (`PackingInstance.validation`)."""
    return inst.validation


def require_clean(validate, obj):
    """Return obj, or raise ValidationError listing every violation that
    `validate` reports for it."""
    rep = validate(obj)
    if not rep.ok:
        raise ValidationError("; ".join(rep.violations))
    return obj


def require_valid(inst):
    """Raise ValidationError unless the instance validates cleanly."""
    return require_clean(validate_instance, inst)


def column_sparsity(inst):
    """max_j |C(j)|; zero for an instance whose columns are all empty."""
    return max((len(col) for col in inst.columns), default=0) if inst.n else 0


def usage_vector(inst, chosen):
    """Row loads sum_{j in chosen} a_ij as a dense vector."""
    u = np.zeros(inst.m)
    for j in chosen:
        for i, a in inst.columns[j]:
            u[i] += a
    return u


def check_feasible(inst, chosen):
    """True iff every row load is within capacity (+1e-9).

    Only rows that two chosen items share, or on which one entry alone
    exceeds the capacity, are summed, in the order `usage_vector` sums
    them, so a load lands on exactly the same float.  Any other touched
    row holds one entry a, whose load 0.0 + a is a itself and fits by
    `row_bits`; an untouched row holds load 0 against a capacity of at
    least 1."""
    n = inst.n
    rows, overfull = inst.row_bits
    chosen = frozenset(chosen)
    seen = summed = 0
    for j in chosen:
        if not (0 <= j < n):
            raise ValidationError(f"item {j} out of range")
        bits = rows[j]
        summed |= seen & bits | overfull[j]
        seen |= bits
    if not summed:
        return True
    columns, capacities = inst.columns, inst.capacities
    load = {}
    for j in chosen:
        if rows[j] & summed:
            for i, a in columns[j]:
                if summed >> i & 1:
                    if i in load:
                        load[i] += a
                    else:
                        load[i] = a     # 0.0 + a, exactly
    for i, u in load.items():
        if not (u <= capacities[i] + FEAS_TOL):
            return False
    return True


def objective_value(inst, chosen):
    return float(sum(map(inst.weights.__getitem__, chosen)))


# ---------------------------------------------------------------------------
# JSON interchange

def instance_to_dict(inst):
    d = {
        "n": inst.n,
        "m": inst.m,
        "capacities": list(inst.capacities),
        "weights": list(inst.weights),
        "columns": [[[i, a] for i, a in col] for col in inst.columns],
    }
    if inst.k is not None:
        d["k"] = inst.k
    return d


def json_int(value, field):
    """value if it decoded from a JSON integer, else a ValidationError
    naming field: a bool, a float or a string is refused, not coerced."""
    if type(value) is not int:
        raise ValidationError(f"{field}={value!r} is not a JSON integer")
    return value


def json_number(value, field):
    """value if it decoded from a JSON number, else a ValidationError
    naming field: a bool or a string is refused, not coerced."""
    if type(value) not in (int, float):
        raise ValidationError(f"{field}={value!r} is not a JSON number")
    return value


def instance_from_dict(d):
    """Row indices, n, m and k must be JSON integers (k may be null),
    and capacities, weights and coefficients JSON numbers."""
    try:
        for key in ("n", "m", "k"):
            if d.get(key) is not None:
                json_int(d[key], key)
        inst = make_instance(
            [json_number(b, "capacity") for b in d["capacities"]],
            [json_number(w, "weight") for w in d["weights"]],
            [[(json_int(i, "column row"), json_number(a, "coefficient"))
              for i, a in col] for col in d["columns"]],
            k=d.get("k"),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed instance JSON: {exc}") from exc
    if inst.n != d.get("n", inst.n) or inst.m != d.get("m", inst.m):
        raise ValidationError("declared n/m disagree with column data")
    return require_valid(inst)


def write_json(obj, path):
    """The one on-disk JSON layout: indent 1, trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def save_instance(inst, path):
    write_json(instance_to_dict(inst), path)


def load_instance(path):
    return instance_from_dict(read_json(path))
