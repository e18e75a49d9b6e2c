"""Runtime knobs of the calculus.

`class_budget` bounds every class walk: a class that reaches it may be
infinite or only large, and the operation raises `ClassBudgetError`
(undecided, exit 3 at the CLI).  Family subsumption, equality and meet
are decided exactly and take no knob.  `nu_closure` and `nu_seed`
choose the nu semantics.  Reports echo these values, so they state
exactly which limits were in force.
"""

from __future__ import annotations

from .record import Record


class Config(Record):
    __slots__ = ("class_budget", "nu_closure", "nu_seed")

    def __init__(self, class_budget: int = 1024,
                 nu_closure: str = "literal",  # or "class-closure"
                 nu_seed: str = "fn") -> None:  # or "np"
        if class_budget < 1:
            raise ValueError("class_budget must be positive")
        if nu_closure not in ("literal", "class-closure"):
            raise ValueError(f"unknown nu_closure {nu_closure!r}")
        if nu_seed not in ("fn", "np"):
            raise ValueError(f"unknown nu_seed {nu_seed!r}")
        object.__setattr__(self, "class_budget", class_budget)
        object.__setattr__(self, "nu_closure", nu_closure)
        object.__setattr__(self, "nu_seed", nu_seed)

    def with_options(self, **kw) -> "Config":
        return Config(**{name: getattr(self, name) for name in self._fields}
                      | kw)


DEFAULT = Config()


def parse_config_text(text: str, base: Config = DEFAULT) -> Config:
    """Parse `key = value` lines (# comments, blank lines ignored)."""
    kw = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "class_budget":
            kw[key] = int(value)
        elif key in ("nu_closure", "nu_seed"):
            kw[key] = value
        else:
            raise ValueError(f"unknown config key: {key}")
    return base.with_options(**kw)
