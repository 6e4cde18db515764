"""The fault-injection registry: specs, triggering, scopes, env arming."""

from __future__ import annotations

import json

import pytest

from repro.resilience import faults
from repro.resilience.faults import FaultInjected, FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


class TestFaultSpec:
    def test_rejects_unknown_kind_and_scope(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec(site="x", kind="explode")
        with pytest.raises(ValueError, match="scope"):
            FaultSpec(site="x", kind="raise", scope="gpu")

    @pytest.mark.parametrize("kwargs", [
        {"at_hit": 0}, {"every": 0}, {"max_triggers": 0},
        {"delay_seconds": -1.0},
    ])
    def test_rejects_invalid_counters(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(site="x", kind="raise", **kwargs)

    def test_one_shot_eligibility_is_exactly_at_hit(self):
        spec = FaultSpec(site="x", kind="raise", at_hit=3)
        assert [spec.eligible(hit) for hit in range(1, 6)] == \
            [False, False, True, False, False]

    def test_periodic_eligibility_fires_every_n_after_at_hit(self):
        spec = FaultSpec(site="x", kind="raise", at_hit=2, every=3)
        assert [hit for hit in range(1, 12) if spec.eligible(hit)] == [2, 5, 8, 11]

    def test_dict_round_trip(self):
        spec = FaultSpec(site="sharded.score", kind="delay", at_hit=2,
                         every=4, max_triggers=3, delay_seconds=0.5,
                         scope="worker", token="/tmp/t", match={"shard": 1})
        assert FaultSpec.from_dict(spec.as_dict()) == spec


class TestFaultPlan:
    def test_raise_kind_raises_fault_injected_with_site(self):
        plan = FaultPlan([FaultSpec(site="serve.score", kind="raise")])
        with pytest.raises(FaultInjected) as excinfo:
            plan.check("serve.score", {})
        assert excinfo.value.site == "serve.score"

    def test_max_triggers_bounds_a_periodic_spec(self):
        plan = FaultPlan([FaultSpec(site="s", kind="raise", every=1,
                                    max_triggers=2)])
        for _ in range(2):
            with pytest.raises(FaultInjected):
                plan.check("s", {})
        assert plan.check("s", {}) is None  # exhausted

    def test_partial_kind_returns_partial_and_marker_helpers_agree(self):
        plan = FaultPlan([FaultSpec(site="s", kind="partial")])
        assert plan.check("s", {}) == "partial"
        marked = faults.partial_result(shard=3)
        assert faults.is_partial(marked)
        assert not faults.is_partial({"shard": 3})
        assert not faults.is_partial([1, 2])

    def test_match_restricts_to_call_info(self):
        plan = FaultPlan([FaultSpec(site="s", kind="raise",
                                    match={"shard": 2})])
        assert plan.check("s", {"shard": 1}) is None
        with pytest.raises(FaultInjected):
            plan.check("s", {"shard": 2})
        # Non-matching calls do not consume hits.
        plan.reset()
        assert plan.check("s", {}) is None
        with pytest.raises(FaultInjected):
            plan.check("s", {"shard": 2})

    def test_token_file_is_a_cross_call_once_latch(self, tmp_path):
        token = tmp_path / "latch"
        plan = FaultPlan([FaultSpec(site="s", kind="raise", every=1,
                                    token=str(token))])
        with pytest.raises(FaultInjected):
            plan.check("s", {})
        assert token.exists()
        # Eligible again, but the latch is already claimed: no fire — the
        # mechanism that kills exactly one worker across re-forked pools.
        assert plan.check("s", {}) is None

    def test_reset_hits_restarts_the_counters(self):
        with faults.plan_scope([FaultSpec(site="s", kind="raise", at_hit=2)]):
            assert faults.check("s") is None
            with pytest.raises(FaultInjected):
                faults.check("s")
            faults.reset_hits()
            assert faults.check("s") is None
            with pytest.raises(FaultInjected):
                faults.check("s")


class TestModuleState:
    def test_check_is_noop_without_a_plan(self):
        assert faults.check("anything", shard=1) is None
        assert not faults.armed("anything")

    def test_plan_scope_restores_the_previous_plan(self):
        outer = faults.install_plan(
            FaultPlan([FaultSpec(site="outer", kind="raise")]))
        with faults.plan_scope([FaultSpec(site="inner", kind="raise")]):
            assert faults.armed("inner")
            assert not faults.armed("outer")
        assert faults.current_plan() is outer
        assert faults.armed("outer")

    def test_armed_filters_by_kind(self):
        with faults.plan_scope([FaultSpec(site="s", kind="delay")]):
            assert faults.armed("s")
            assert faults.armed("s", kind="delay")
            assert not faults.armed("s", kind="kill")

    def test_env_plan_json_arms_without_install(self, monkeypatch):
        specs = [FaultSpec(site="serve.score", kind="raise").as_dict()]
        monkeypatch.setenv(faults.FAULT_PLAN_ENV, json.dumps(specs))
        assert faults.armed("serve.score", kind="raise")
        with pytest.raises(FaultInjected):
            faults.check("serve.score")

    def test_sites_catalog_covers_the_storage_crash_points(self):
        # The six points the kill-at-every-point recovery harness arms.
        for point in ("before_wal_append", "mid_wal_append", "after_wal_append",
                      "after_commit", "before_snapshot_rename",
                      "after_snapshot_rename"):
            assert f"storage.{point}" in faults.SITES
