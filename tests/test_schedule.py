import pytest

from sqwa.schedule import (
    CyclicalSchedule,
    StepDecaySchedule,
    capture_epochs,
    derive_cycle_bounds,
    ladder,
)


def test_step_decay_values():
    sched = StepDecaySchedule(initial_lr=0.1, factor=0.1,
                              milestones=(20, 30), total_epochs=40)
    assert sched.lr_values() == pytest.approx([0.1, 0.01, 0.001])


def test_step_decay_rates_at_milestones():
    sched = StepDecaySchedule(initial_lr=0.1, factor=0.1,
                              milestones=(20, 30), total_epochs=40)
    assert len(sched.rates()) == 40
    assert sched.rates()[0] == 0.1
    assert sched.rates()[19] == 0.1
    assert sched.rates()[20] == pytest.approx(0.01)
    assert sched.rates()[29] == pytest.approx(0.01)
    assert sched.rates()[30] == pytest.approx(0.001)
    assert sched.rates()[39] == pytest.approx(0.001)


def test_step_decay_lr_values_keep_a_rate_no_epoch_reaches():
    # a milestone past the last epoch: every epoch runs at the initial rate,
    # but the cycle bounds come from every rate the schedule names
    sched = StepDecaySchedule(initial_lr=0.1, factor=0.1, milestones=(50,), total_epochs=40)
    assert sched.rates() == [0.1] * 40
    assert derive_cycle_bounds(sched.lr_values()) == (
        pytest.approx(0.01), pytest.approx(0.001))


def test_derive_cycle_bounds_tenth_rule():
    assert derive_cycle_bounds([0.1, 0.01, 0.001]) == (
        pytest.approx(0.01), pytest.approx(0.0001))
    assert derive_cycle_bounds([0.4, 0.04, 0.004, 0.0004]) == (
        pytest.approx(0.04), pytest.approx(0.00004))


def test_derive_cycle_bounds_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_cycle_bounds([])
    with pytest.raises(ValueError):
        derive_cycle_bounds([0.1, -0.01])
    with pytest.raises(ValueError):
        derive_cycle_bounds([0.01, 0.01])


def test_ladder_single_midpoint_is_geometric():
    spec = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=6,
                            mid_steps=1, total_epochs=84)
    vals = ladder(spec)
    assert vals == [pytest.approx(0.01), pytest.approx(0.001),
                    pytest.approx(0.0001)]
    assert vals[0] == 0.01 and vals[-1] == 0.0001


def test_ladder_two_midpoints():
    spec = CyclicalSchedule(max_lr=0.08, min_lr=0.00001, period=8,
                            mid_steps=2, total_epochs=48)
    vals = ladder(spec)
    assert len(vals) == 4
    ratios = [vals[i] / vals[i + 1] for i in range(3)]
    assert ratios[0] == pytest.approx(ratios[1])
    assert ratios[1] == pytest.approx(ratios[2])
    assert vals[0] == 0.08 and vals[-1] == 0.00001


def test_cyclical_dwell_pattern_period_six():
    # 3 ladder values over 6 epochs: two epochs at each value
    spec = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=6,
                            mid_steps=1, total_epochs=18)
    lrs = [spec.rates()[e] for e in range(6)]
    assert lrs[0] == lrs[1] == pytest.approx(0.01)
    assert lrs[2] == lrs[3] == pytest.approx(0.001)
    assert lrs[4] == lrs[5] == pytest.approx(0.0001)
    # the pattern repeats each period
    assert [spec.rates()[e] for e in range(6, 12)] == lrs


def test_cyclical_remainder_dwells_at_minimum():
    # 3 values over period 7: dwell 2 each, the leftover epoch sits at min
    spec = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=7,
                            mid_steps=1, total_epochs=14)
    lrs = [spec.rates()[e] for e in range(7)]
    assert lrs[6] == pytest.approx(0.0001)
    assert lrs.count(pytest.approx(0.0001)) == 3


def test_capture_epochs_spacing():
    spec = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=6,
                            mid_steps=1, total_epochs=84)
    eps = capture_epochs(spec)
    assert eps[:3] == [5, 11, 17]
    assert len(eps) == 14
    assert all(b - a == 6 for a, b in zip(eps, eps[1:]))


def test_capture_epochs_only_complete_periods():
    spec = CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=6,
                            mid_steps=1, total_epochs=15)
    assert capture_epochs(spec) == [5, 11]


def test_cyclical_validation():
    with pytest.raises(ValueError):
        CyclicalSchedule(max_lr=0.0001, min_lr=0.01, period=6,
                         mid_steps=1, total_epochs=12)
    with pytest.raises(ValueError):
        CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=2,
                         mid_steps=1, total_epochs=12)
    with pytest.raises(ValueError):
        CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=6,
                         mid_steps=3, total_epochs=12)
    # retraining runs the schedule's total_epochs, so an empty schedule is refused
    with pytest.raises(ValueError, match="total_epochs must be >= 1"):
        CyclicalSchedule(max_lr=0.01, min_lr=0.0001, period=4,
                         mid_steps=1, total_epochs=0)
