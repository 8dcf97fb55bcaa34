"""The execution surface: which executors and drivers exist, and the one
rule that picks an executor for a launch.

Three executors, two drivers, no facade; CLI flags and the service's
submit body are two spellings of the same ``(spec, options)`` and must
resolve to the same executor through ``repro.campaign.executor_for``.
"""

from __future__ import annotations

import pytest

import repro.core
from repro.campaign import (CampaignSpec, available_executors, executor_for,
                            get_campaign_preset, get_executor)
from repro.cli import _build_parser, _campaign_executor
from repro.service import jobs, parse_submission
from repro.workflow import WorkflowBuilder, available_drivers, get_driver


class TestSurface:
    def test_removed_names_are_gone_not_aliased(self):
        assert available_executors() == ("serial", "sharded", "workers")
        assert available_drivers() == ("pipelined", "serial")
        for name in ("thread", "process"):
            with pytest.raises(ValueError, match="serial, sharded, workers"):
                get_executor(name)
            with pytest.raises(ValueError, match="serial, sharded, workers"):
                get_executor("sharded", inner=name)
        with pytest.raises(ValueError, match="pipelined, serial"):
            get_driver("threaded")
        with pytest.raises(ValueError, match="pipelined, serial"):
            WorkflowBuilder().driver("threaded")
        spec = CampaignSpec.from_dict(dict(
            get_campaign_preset("campaign-smoke").to_dict(),
            driver="threaded"))
        with pytest.raises(ValueError, match="pipelined, serial"):
            spec.resolve()
        # the facade classes and the modules that held them
        assert [name for name in dir(repro.core)
                if "scientist" in name.lower() or "threaded" in name.lower()
                or name == "WorkflowReport"] == []


def shape_of(executor):
    """An executor's type and constructor arguments, comparably."""
    shape = {key: getattr(executor, key)
             for key in ("max_workers", "timeout", "retries", "shards",
                         "inner") if hasattr(executor, key)}
    router = getattr(executor, "router", None)
    if router is not None:
        shape["route"] = router.name
        shape["assignments"] = getattr(router, "assignments", None)
    return type(executor), shape


def routed_spec(**routing) -> CampaignSpec:
    document = get_campaign_preset("campaign-smoke").to_dict()
    document.update(name="surface", routing=routing)
    return CampaignSpec.from_dict(document)


#: (routing hints of the spec, options) — each spelled as flags and as a body.
CASES = {
    "default-serial": ({}, {}),
    "routing-implies-sharded": ({"shards": 3, "route": "round-robin"}, {}),
    "explicit-workers": ({}, {"executor": "workers", "max_workers": 2,
                              "timeout": 30.0, "retries": 1}),
    "explicit-beats-routing": ({"shards": 4}, {"executor": "serial",
                                               "retries": 2}),
    "sharded-over-workers": ({"shards": 2, "inner": "workers"},
                             {"executor": "sharded", "max_workers": 2}),
}


class TestOneResolutionRule:
    def test_the_service_calls_the_campaign_function(self):
        assert jobs.executor_for is executor_for

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_flags_and_submit_body_resolve_alike(self, case, tmp_path):
        routing, options = CASES[case]
        spec = routed_spec(**routing)
        spec_path = str(tmp_path / "spec.json")
        spec.to_file(spec_path)

        argv = ["campaign", "run", "--spec", spec_path]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        from_flags = _campaign_executor(_build_parser().parse_args(argv), spec)

        body_spec, body_options = parse_submission(
            dict(options, spec=spec.to_dict()))
        from_body = jobs.executor_for(body_spec, body_options)

        assert shape_of(from_flags) == shape_of(from_body) \
            == shape_of(executor_for(spec, options))

    def test_sharding_flags_are_routing_hints_by_another_name(self):
        argv = ["campaign", "run", "--preset", "campaign-smoke", "--shards",
                "3", "--route", "round-robin", "--inner-executor", "workers"]
        plain = get_campaign_preset("campaign-smoke")
        from_flags = _campaign_executor(_build_parser().parse_args(argv), plain)
        hinted = routed_spec(shards=3, route="round-robin", inner="workers")
        assert shape_of(from_flags) == shape_of(executor_for(hinted))
