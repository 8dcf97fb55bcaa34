"""The persisted benchmarks as sub-commands: ``bench-hotpath``,
``bench-campaign``, ``bench-train`` and ``bench-learning``.

Each mounts the flags its :class:`~repro.utils.benchjson.BenchCase`
declares and runs under :func:`~repro.utils.benchjson.run_case` — the same
harness as ``python -m repro.pic.hotpath`` / ``repro.campaign.hotpath`` /
``repro.workflow.train_hotpath`` / ``repro.workflow.learning``.
"""

from __future__ import annotations

from functools import partial


def register(subparsers) -> None:
    from repro.campaign.hotpath import CASE as campaign_case
    from repro.pic.hotpath import CASE as hotpath_case
    from repro.utils.benchjson import add_case_arguments, run_case
    from repro.workflow.learning import CASE as learning_case
    from repro.workflow.train_hotpath import CASE as train_case

    for name, case in (("bench-hotpath", hotpath_case),
                       ("bench-campaign", campaign_case),
                       ("bench-train", train_case),
                       ("bench-learning", learning_case)):
        parser = subparsers.add_parser(name, help=case.description,
                                       description=case.description)
        add_case_arguments(parser, case)
        parser.set_defaults(handler=partial(run_case, case))
