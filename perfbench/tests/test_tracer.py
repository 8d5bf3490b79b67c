import pytest

from tracer import Tracer


class FakeClock:
    """Returns the scripted ticks in order, one per call."""

    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def nested_run():
    # phase 0..100; a 10..40 holding b 15..25; c 50..70
    tracer = Tracer(clock=FakeClock([0, 10, 15, 25, 40, 50, 70, 100]))
    with tracer.phase("work"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
    return tracer


def test_self_time_is_duration_minus_direct_children():
    tracer = nested_run()
    names = [s[0] for s in tracer.spans]
    assert names == ["phase.work", "a", "b", "c"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0]
    assert tracer.self_times() == [100 - 30 - 20, 30 - 10, 10, 20]


def test_self_times_including_root_remainder_sum_to_phase_wall():
    tracer = nested_run()
    assert tracer.phase_balance() == {"phase.work": (100, 100)}
    assert tracer.nesting_errors() == 0


def test_repeated_phase_balances_over_all_its_rounds():
    # p 0..10 holding f 2..5; q 10..12; p again 12..20 holding f 13..19
    tracer = Tracer(clock=FakeClock([0, 2, 5, 10, 10, 12, 12, 13, 19, 20]))
    for name in ("p", "q", "p"):
        with tracer.phase(name):
            if name == "p":
                with tracer.span("f"):
                    pass
    assert tracer.phase_balance() == {"phase.p": (18, 18),
                                      "phase.q": (2, 2)}
    by_phase = tracer.summary(by_phase=True)
    assert by_phase["phase.p"]["f"] == {"calls": 2, "self": 9, "total": 9}
    assert by_phase["phase.p"]["phase.p"]["self"] == 18 - 9


def test_summary_aggregates_calls_self_and_total():
    tracer = Tracer(clock=FakeClock([0, 1, 4, 6, 9, 10]))
    with tracer.phase("p"):
        with tracer.span("f"):
            pass
        with tracer.span("f"):
            pass
    summary = tracer.summary()
    assert summary["f"] == {"calls": 2, "self": 6, "total": 6}
    assert summary["phase.p"] == {"calls": 1, "self": 4, "total": 10}
    assert tracer.summary(by_phase=True) == {"phase.p": summary}


def test_nesting_errors_flag_a_child_outside_its_parent():
    tracer = Tracer()
    tracer.spans = [["phase.p", 0, 10, -1], ["x", 5, 12, 0]]
    assert tracer.nesting_errors() == 1
    wall, self_sum = tracer.phase_balance()["phase.p"]
    assert wall == 10 and self_sum == 10  # balance alone cannot see it


def test_wrapped_calls_nest_and_hooks_see_bound_arguments():
    tracer = Tracer(clock=FakeClock(range(100)))
    seen = []

    def inner(x, scale=2):
        return x * scale

    traced_inner = tracer.wrap("inner", inner,
                               hook=lambda args, result: seen.append(
                                   (dict(args), result)))

    def outer(x):
        return traced_inner(x, scale=3) + 1

    traced_outer = tracer.wrap("outer", outer)
    with tracer.phase("p"):
        assert traced_outer(5) == 16
    assert seen == [({"x": 5, "scale": 3}, 15)]
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("phase.p", -1), ("outer", 0), ("inner", 1)]
    wall, self_sum = tracer.phase_balance()["phase.p"]
    assert wall == self_sum


def test_span_closes_when_the_wrapped_call_raises():
    tracer = Tracer(clock=FakeClock(range(100)))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        with tracer.phase("p"):
            tracer.wrap("boom", boom)()
    assert all(s[2] is not None for s in tracer.spans)
    assert tracer.phase_name is None


def test_phase_must_be_a_root_span():
    tracer = Tracer()
    with tracer.phase("outer"):
        with pytest.raises(RuntimeError):
            with tracer.phase("inner"):
                pass


def test_install_patches_every_module_that_binds_the_function():
    from ehrgen import decoder, evaluation, model, trainer

    original = decoder.ll_and_grads
    original_load = model.TrainedModel.__dict__["load"]
    tracer = Tracer()
    tracer.install(["decoder.ll_and_grads", "decoder.sequence_log_likelihood",
                    "model.TrainedModel.load"])
    try:
        assert decoder.ll_and_grads is not original
        # trainer imports it with ``from .decoder import ll_and_grads``
        assert trainer.ll_and_grads is decoder.ll_and_grads
        assert evaluation.sequence_log_likelihood is \
            decoder.sequence_log_likelihood
        assert isinstance(model.TrainedModel.__dict__["load"], classmethod)
    finally:
        tracer.uninstall()
    assert decoder.ll_and_grads is original
    assert trainer.ll_and_grads is original
    assert model.TrainedModel.__dict__["load"] is original_load
    assert tracer.absent == []


def test_missing_targets_are_reported_absent_not_raised():
    tracer = Tracer()
    tracer.install(["generator.no_such_function", "no_such_module.fn",
                    "model.NoSuchClass.load", "model.TrainedModel.no_such"])
    tracer.uninstall()
    assert tracer.absent == ["generator.no_such_function",
                             "no_such_module.fn", "model.NoSuchClass.load",
                             "model.TrainedModel.no_such"]
