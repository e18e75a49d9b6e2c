"""Runtime knobs of the calculus.

`class_budget` bounds every class walk: a class that reaches it may be
infinite or only large, and the operation raises `ClassBudgetError`
(undecided, exit 3 at the CLI).  Family subsumption, equality and meet
are decided exactly and take no knob.  Reports echo this value, so they
state exactly which limit was in force.
"""

from __future__ import annotations

from .record import Record


class Config(Record):
    __slots__ = ("class_budget",)

    def __init__(self, class_budget: int = 1024) -> None:
        if class_budget < 1:
            raise ValueError("class_budget must be positive")
        object.__setattr__(self, "class_budget", class_budget)


DEFAULT = Config()


def parse_config_text(text: str, base: Config = DEFAULT) -> Config:
    """Parse `key = value` lines (# comments, blank lines ignored)."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key != "class_budget":
            raise ValueError(f"unknown config key: {key}")
        base = Config(int(value))
    return base
