"""Unit tests for phonebook, plugin base machinery, and telemetry records."""

import math

import pytest

from repro.core.phonebook import Phonebook, ServiceNotFound
from repro.core.plugin import (
    InvocationContext,
    IterationResult,
    OnTopic,
    OnVsync,
    Periodic,
    Plugin,
)
from repro.core.records import DropRecord, InvocationRecord, RecordLogger, mean_std


# ---------------------------------------------------------------------------
# Phonebook
# ---------------------------------------------------------------------------


def test_phonebook_register_and_lookup():
    pb = Phonebook()
    pb.register("clock", object())
    assert pb.lookup("clock") is not None
    assert "clock" in pb


def test_phonebook_duplicate_registration_rejected():
    pb = Phonebook()
    pb.register("x", 1)
    with pytest.raises(ValueError):
        pb.register("x", 2)


def test_phonebook_missing_lookup_raises_with_inventory():
    pb = Phonebook()
    pb.register("a", 1)
    with pytest.raises(ServiceNotFound, match="'a'"):
        pb.lookup("missing")


def test_phonebook_names_sorted():
    pb = Phonebook()
    pb.register("b", 1)
    pb.register("a", 2)
    assert pb.names() == ["a", "b"]


# ---------------------------------------------------------------------------
# Plugin triggers and results
# ---------------------------------------------------------------------------


def test_periodic_requires_positive_period():
    for period in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            Periodic(period)


def test_onvsync_lead_must_fit_period():
    with pytest.raises(ValueError):
        OnVsync(period=1 / 120, lead=1.0)
    with pytest.raises(ValueError):
        OnVsync(period=1 / 120, lead=0.0)


def test_plugin_deadline_from_trigger():
    """Records carry the trigger's deadline: the period for ``Periodic``,
    the lead for ``OnVsync`` (finishing later misses the vsync), none for
    ``OnTopic``."""
    from tests.test_scheduler import CountingPlugin, _scheduler

    engine, _sb, logger, scheduler = _scheduler()
    for name, plugin in {
        "periodic": CountingPlugin(Periodic(0.5), publish_to="x"),
        "topic": CountingPlugin(OnTopic("x")),
        "vsync": CountingPlugin(OnVsync(period=0.1, lead=0.05)),
    }.items():
        plugin.name = name
        scheduler.add_plugin(plugin)
    engine.run(until=1.0)
    assert {(r.plugin, r.deadline) for r in logger.records} == {
        ("periodic", 0.5), ("topic", None), ("vsync", 0.05)}


def test_iteration_result_publish_queues_outputs():
    result = IterationResult()
    result.publish("topic_a", 1)
    result.publish("topic_b", 2, data_time=0.5)
    assert [o.topic for o in result.outputs] == ["topic_a", "topic_b"]
    assert result.outputs[1].data_time == 0.5


def test_plugin_iteration_is_abstract():
    plugin = Plugin(Periodic(1.0))
    with pytest.raises(NotImplementedError):
        plugin.iteration(InvocationContext(now=0.0, index=0))


def test_plugin_describe():
    class Named(Plugin):
        name = "widget"
        pipeline = "visual"
        component = "timewarp"

        def iteration(self, ctx):
            return IterationResult()

    assert Named(Periodic(1.0)).describe() == ("widget", "visual", "timewarp")


# ---------------------------------------------------------------------------
# Records / telemetry
# ---------------------------------------------------------------------------


def _record(plugin="p", index=0, start=0.0, end=0.01, cpu=0.01, missed=False):
    return InvocationRecord(
        plugin=plugin,
        component=plugin,
        pipeline="perception",
        index=index,
        scheduled_at=start,
        start=start,
        end=end,
        cpu_time=cpu,
        gpu_time=0.0,
        deadline=0.1,
        missed_deadline=missed,
    )


def test_frame_rate():
    logger = RecordLogger()
    for i in range(30):
        logger.log(_record(index=i, start=i * 0.1, end=i * 0.1 + 0.01))
    assert logger.frame_rate("p", duration=3.0) == pytest.approx(10.0)


def test_frame_rate_requires_positive_duration():
    with pytest.raises(ValueError):
        RecordLogger().frame_rate("p", duration=0.0)


def test_mean_and_std_execution_time():
    logger = RecordLogger()
    logger.log(_record(index=0, start=0.0, end=0.02))
    logger.log(_record(index=1, start=1.0, end=1.04))
    assert logger.mean_execution_time("p") == pytest.approx(0.03)
    assert logger.std_execution_time("p") == pytest.approx(0.01)


def test_stats_nan_for_unknown_plugin():
    logger = RecordLogger()
    assert math.isnan(logger.mean_execution_time("ghost"))
    assert math.isnan(logger.std_execution_time("ghost"))


def test_cpu_share_sums_to_one():
    logger = RecordLogger()
    logger.log(_record(plugin="a", cpu=0.03))
    logger.log(_record(plugin="b", cpu=0.01))
    share = logger.cpu_share()
    assert sum(share.values()) == pytest.approx(1.0)
    assert share["a"] == pytest.approx(0.75)


def test_cpu_share_empty_logger():
    assert RecordLogger().cpu_share() == {}


def test_miss_rate():
    logger = RecordLogger()
    logger.log(_record(index=0, missed=True))
    logger.log(_record(index=1, missed=False))
    assert logger.miss_rate("p") == pytest.approx(0.5)
    assert logger.miss_rate("ghost") == 0.0


def test_drop_accounting():
    logger = RecordLogger()
    logger.log_drop("p", 1.0)
    logger.log_drop("p", 2.0)
    logger.log_drop("q", 1.0)
    assert logger.drop_count("p") == 2
    assert logger.drops[0] == DropRecord("p", 1.0)


def test_plugins_listing():
    logger = RecordLogger()
    logger.log(_record(plugin="b"))
    logger.log(_record(plugin="a"))
    assert logger.plugins() == ["a", "b"]


def test_wall_time_property():
    record = _record(start=1.0, end=1.25)
    assert record.wall_time == pytest.approx(0.25)


def test_mean_std_helper():
    mean, std = mean_std([1.0, 3.0])
    assert mean == pytest.approx(2.0)
    assert std == pytest.approx(1.0)
    nan_mean, nan_std = mean_std([])
    assert math.isnan(nan_mean) and math.isnan(nan_std)
