"""Single-point logging configuration for the whole CLI surface.

Every ``repro`` subcommand (and every worker subprocess it spawns) gets
its log level from one place: the top-level ``--log-level`` flag, which
lands here and is mirrored into ``REPRO_LOG_LEVEL`` so spawned
``repro worker`` subprocesses inherit the exact same configuration
through the environment instead of each module configuring logging ad
hoc.
"""

from __future__ import annotations

import logging
import os

__all__ = ["configure_logging", "LOG_LEVEL_ENV", "LOG_LEVELS"]

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"
LOG_LEVELS = ("debug", "info", "warning", "error", "critical")

_FORMAT = "%(asctime)s %(levelname)-7s [%(process)d] %(name)s: %(message)s"


def configure_logging(level: "str | None" = None) -> str:
    """Configure the root logger once; safe to call repeatedly.

    ``level`` wins over ``$REPRO_LOG_LEVEL`` wins over ``warning`` (the
    stdlib's effective default, so doing nothing stays behavior-
    preserving). The resolved name is exported back into the
    environment so child processes inherit it.
    """
    name = (level or os.environ.get(LOG_LEVEL_ENV) or "warning").lower()
    if name not in LOG_LEVELS:
        raise ValueError(
            "unknown log level %r; expected one of %s" % (name, LOG_LEVELS))
    root = logging.getLogger()
    root.setLevel(getattr(logging, name.upper()))
    if not root.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter(_FORMAT))
        root.addHandler(handler)
    os.environ[LOG_LEVEL_ENV] = name
    return name
