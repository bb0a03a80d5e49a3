"""Decision rules: single-step, generalized stepdown and stepup, global test.

All rules consume a CriticalValueSet and compare ordered p-values
against its padded constants. Comparisons are inclusive exactly as the
rules are written: stepup rejects on P_(i) <= c_i, the stepdown
acceptance scan triggers on P_(j) >= c_j.
"""

from dataclasses import dataclass
from typing import NamedTuple

from .critvals import CriticalValueSet
from .errors import ConfigurationError

__all__ = [
    "PValueVector",
    "DecisionRecord",
    "DecisionReport",
    "stepup_apply",
    "stepdown_apply",
    "single_step_apply",
    "global_simes_test",
]


@dataclass(frozen=True)
class PValueVector:
    """Labelled p-values; ids must be unique and every p must lie in [0, 1]."""

    entries: tuple

    def __post_init__(self):
        entries = tuple((str(i), float(p)) for i, p in self.entries)
        object.__setattr__(self, "entries", entries)
        if not entries:
            raise ConfigurationError("p-value vector must not be empty")
        ids = [i for i, _ in entries]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate ids in p-value vector")
        for ident, p in entries:
            if not (0.0 <= p <= 1.0):
                raise ConfigurationError(f"p-value for id {ident!r} outside [0, 1]: {p!r}")

    def __len__(self):
        return len(self.entries)


class DecisionRecord(NamedTuple):
    id: str
    p: float
    rank: int
    critical_value: float
    rejected: bool


@dataclass(frozen=True)
class DecisionReport:
    procedure: str
    critical_values: CriticalValueSet
    i0: int | None
    num_rejected: int
    records: tuple  # DecisionRecord ordered by rank

    def rejected_ids(self):
        return frozenset(r.id for r in self.records if r.rejected)


def _ordered(pvec: PValueVector):
    # ties broken by id so the rejected set is invariant to entry order
    return sorted(pvec.entries, key=lambda e: (e[1], e[0]))


def _check_length(pvec, cset):
    if len(pvec) != cset.n:
        raise ConfigurationError(
            f"critical values built for n={cset.n}, got {len(pvec)} p-values"
        )


def _report(procedure, cset, order, i0, critical_values):
    num = i0 if i0 is not None else 0
    records = tuple(
        DecisionRecord(ident, p, rank, critical_values[rank - 1], rank <= num)
        for rank, (ident, p) in enumerate(order, start=1)
    )
    return DecisionReport(
        procedure=procedure,
        critical_values=cset,
        i0=i0,
        num_rejected=num,
        records=records,
    )


def stepup_apply(pvec: PValueVector, cset: CriticalValueSet) -> DecisionReport:
    """Reject ranks 1..i0 where i0 = max{i : P_(i) <= c_i}, none if no i qualifies."""
    _check_length(pvec, cset)
    order = _ordered(pvec)
    i0 = None
    for rank in range(len(order), 0, -1):
        if order[rank - 1][1] <= cset.padded[rank - 1]:
            i0 = rank
            break
    return _report("stepup", cset, order, i0, cset.padded)


def stepdown_apply(pvec: PValueVector, cset: CriticalValueSet) -> DecisionReport:
    """Accept from the first rank j with P_(j) >= c_j on; reject all if none."""
    _check_length(pvec, cset)
    order = _ordered(pvec)
    stop = None
    for rank in range(1, len(order) + 1):
        if order[rank - 1][1] >= cset.padded[rank - 1]:
            stop = rank
            break
    num = len(order) if stop is None else stop - 1
    return _report("stepdown", cset, order, num if num > 0 else None, cset.padded)


def single_step_apply(pvec: PValueVector, cset: CriticalValueSet) -> DecisionReport:
    """Reject every hypothesis with p <= alpha_k."""
    _check_length(pvec, cset)
    threshold = cset.value_at(cset.k)
    order = _ordered(pvec)
    num = sum(1 for _, p in order if p <= threshold)
    return _report(
        "single_step", cset, order, num if num > 0 else None, (threshold,) * len(order)
    )


def global_simes_test(pvec: PValueVector, cset: CriticalValueSet) -> bool:
    """Reject the intersection null iff P_(i) <= c_i for at least one rank i."""
    if cset.procedure != "gen_simes":
        raise ConfigurationError(
            f"global test requires gen_simes constants, got {cset.procedure!r}"
        )
    _check_length(pvec, cset)
    order = _ordered(pvec)
    return any(p <= c for (_, p), c in zip(order, cset.padded))
