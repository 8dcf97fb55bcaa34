"""The persisted benchmarks as sub-commands: ``bench-train`` and
``bench-learning``.

Each mounts the flags its :class:`~repro.utils.benchjson.BenchCase`
declares and runs under :func:`~repro.utils.benchjson.run_case`; the cases
are :mod:`repro.workflow.train_hotpath` and :mod:`repro.workflow.learning`.
"""

from __future__ import annotations

from functools import partial


def register(subparsers) -> None:
    from repro.utils.benchjson import add_case_arguments, run_case
    from repro.workflow.learning import CASE as learning_case
    from repro.workflow.train_hotpath import CASE as train_case

    for name, case in (("bench-train", train_case),
                       ("bench-learning", learning_case)):
        parser = subparsers.add_parser(name, help=case.description,
                                       description=case.description)
        add_case_arguments(parser, case)
        parser.set_defaults(handler=partial(run_case, case))
