import numpy as np
import pytest

from kfwer import (
    ConfigurationError,
    PValueVector,
    classic_critvals,
    critical_value_set,
    gen_simes_critvals,
    global_simes_test,
    independent,
    lr_critvals,
    single_step_apply,
    stepdown_apply,
    stepup_apply,
)


def vec(*pairs):
    return PValueVector(tuple(pairs))


def test_pvalue_vector_validation():
    with pytest.raises(ConfigurationError):
        PValueVector(())
    with pytest.raises(ConfigurationError):
        vec(("a", 0.1), ("a", 0.2))
    with pytest.raises(ConfigurationError):
        vec(("a", -0.01))
    with pytest.raises(ConfigurationError):
        vec(("a", 1.5))
    with pytest.raises(ConfigurationError):
        vec(("a", float("nan")))
    assert len(vec(("a", 0.0), ("b", 1.0))) == 2


def test_classic_hochberg_hand_example():
    """Three p-values against alpha/(n-i+1): rejects the two smallest."""
    cs = classic_critvals("classic_hochberg", 3, 0.05)
    assert cs.padded == pytest.approx((0.05 / 3, 0.025, 0.05))
    rep = stepup_apply(vec(("a", 0.005), ("b", 0.025), ("c", 0.5)), cs)
    assert rep.num_rejected == 2
    assert rep.rejected_ids() == frozenset({"a", "b"})
    assert rep.i0 == 2
    by_id = {r.id: r for r in rep.records}
    assert by_id["b"].rank == 2
    assert by_id["b"].critical_value == pytest.approx(0.025)
    assert by_id["c"].rejected is False


def test_stepup_boundary_is_inclusive():
    # p exactly at its constant counts as a hit
    cs = critical_value_set("lr_stepup", 4, 2, 0.05)
    top = cs.value_at(4)
    rep = stepup_apply(vec(("a", top), ("b", top), ("c", top), ("d", top)), cs)
    assert rep.num_rejected == 4


def test_stepdown_boundary_is_exclusive():
    # stepdown accepts from the first p >= constant, so an exact tie stops it
    cs = lr_critvals(4, 2, 0.05)
    first = cs.padded[0]
    rep = stepdown_apply(
        vec(("a", first), ("b", 0.9), ("c", 0.95), ("d", 0.99)), cs
    )
    assert rep.num_rejected == 0
    assert rep.i0 is None


def test_stepdown_rejects_all_when_no_constant_fails():
    cs = lr_critvals(3, 2, 0.5)
    rep = stepdown_apply(vec(("a", 0.01), ("b", 0.02), ("c", 0.03)), cs)
    assert rep.num_rejected == 3


def test_stepdown_never_beats_stepup_with_same_constants():
    rng = np.random.default_rng(404)
    cs = lr_critvals(8, 2, 0.1)
    for _ in range(200):
        p = rng.uniform(size=8)
        entries = tuple((f"h{j}", float(p[j])) for j in range(8))
        up = stepup_apply(PValueVector(entries), cs)
        down = stepdown_apply(PValueVector(entries), cs)
        assert down.num_rejected <= up.num_rejected
        assert set(down.rejected_ids()) <= set(up.rejected_ids())


def test_single_step_equals_flat_threshold_count():
    cs = gen_simes_critvals(5, 2, 0.05, independent())
    thr = cs.value_at(2)
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = rng.uniform(0, 0.2, size=5)
        entries = tuple((f"h{j}", float(p[j])) for j in range(5))
        rep = single_step_apply(PValueVector(entries), cs)
        assert rep.num_rejected == int((p <= thr).sum())
        assert {r.critical_value for r in rep.records} == {thr}


def test_entry_order_invariance_under_ties():
    cs = classic_critvals("classic_simes", 4, 0.05)
    a = stepup_apply(vec(("x", 0.01), ("y", 0.01), ("z", 0.9), ("w", 0.2)), cs)
    b = stepup_apply(vec(("w", 0.2), ("z", 0.9), ("y", 0.01), ("x", 0.01)), cs)
    assert a.rejected_ids() == b.rejected_ids()
    assert a.num_rejected == b.num_rejected
    # ties sort by id so ranks are reproducible
    by_id = {r.id: r.rank for r in a.records}
    assert by_id["x"] == 1 and by_id["y"] == 2


def test_report_records_are_complete_and_ordered():
    cs = lr_critvals(5, 3, 0.05)
    rep = stepup_apply(
        vec(("a", 0.4), ("b", 0.001), ("c", 0.02), ("d", 0.9), ("e", 0.03)), cs
    )
    ranks = [r.rank for r in rep.records]
    assert ranks == [1, 2, 3, 4, 5]
    ps = [r.p for r in rep.records]
    assert ps == sorted(ps)
    for r in rep.records:
        assert r.rejected == (r.rank <= rep.num_rejected)
        assert r.critical_value == pytest.approx(cs.padded[r.rank - 1])


def test_length_mismatch_raises():
    cs = lr_critvals(4, 2, 0.05)
    with pytest.raises(ConfigurationError):
        stepup_apply(vec(("a", 0.1)), cs)
    with pytest.raises(ConfigurationError):
        stepdown_apply(vec(("a", 0.1)), cs)
    with pytest.raises(ConfigurationError):
        single_step_apply(vec(("a", 0.1)), cs)


def test_global_test_agrees_with_stepup_rejection():
    cs = gen_simes_critvals(6, 2, 0.05, independent())
    rng = np.random.default_rng(2718)
    for _ in range(300):
        p = rng.uniform(0, 0.6, size=6)
        entries = tuple((f"h{j}", float(p[j])) for j in range(6))
        pvec = PValueVector(entries)
        assert global_simes_test(pvec, cs) == (stepup_apply(pvec, cs).num_rejected >= 1)


def test_global_test_requires_simes_constants():
    cs = lr_critvals(4, 2, 0.05)
    with pytest.raises(ConfigurationError):
        global_simes_test(vec(("a", 0.1), ("b", 0.2), ("c", 0.3), ("d", 0.4)), cs)
