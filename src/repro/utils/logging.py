"""One-call logging setup shared by the CLI, service and worker pool.

Every module in the repo logs through ``logging.getLogger(__name__)``,
which lands under the ``repro`` logger hierarchy; :func:`setup_logging`
configures that root once — one stderr handler, one format — so the
service access log, worker-pool warnings and campaign progress all come
out uniformly.  The CLI's global ``--log-level`` flag feeds straight into
it.  Calling it again (tests, repeated ``main()`` invocations) updates
the level without stacking duplicate handlers.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional, Union

#: The shared log line format.
LOG_FORMAT = "%(asctime)s %(levelname)-7s %(name)s: %(message)s"

#: Attribute marking the handler installed by :func:`setup_logging`.
_MARKER = "_repro_logging_handler"


def resolve_level(level: Optional[Union[str, int]]) -> int:
    """A logging level from a name, number or ``None`` (default WARNING).

    Raises:
        ValueError: on an unknown level name.
    """
    if level is None:
        return logging.WARNING
    if isinstance(level, int):
        return level
    resolved = logging.getLevelName(str(level).strip().upper())
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level: {level!r}")
    return resolved


def setup_logging(level: Optional[Union[str, int]]) -> logging.Logger:
    """Configure the ``repro`` logger hierarchy (idempotent).

    Installs a single stderr handler with :data:`LOG_FORMAT` on the
    ``repro`` logger and sets its level; repeated calls only adjust the
    level.  Propagation stays on so pytest's ``caplog`` and embedding
    applications still observe the records.

    Args:
        level: a level name (``"debug"``), numeric level, or ``None``
            for the WARNING default.

    Returns:
        The configured ``repro`` logger.
    """
    logger = logging.getLogger("repro")
    logger.setLevel(resolve_level(level))
    if not any(getattr(handler, _MARKER, False)
               for handler in logger.handlers):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter(LOG_FORMAT))
        setattr(handler, _MARKER, True)
        logger.addHandler(handler)
    return logger

