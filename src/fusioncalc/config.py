"""Runtime knobs of the calculus.

`class_budget` bounds every class walk: a class that reaches it may be
infinite or only large, and the operation raises `ClassBudgetError`
(undecided, exit 3 at the CLI).  Family subsumption, equality and meet
are decided exactly and take no knob.  `nu_closure` and `nu_seed`
choose the nu semantics.  Reports echo these values, so they state
exactly which limits were in force.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Config:
    class_budget: int = 1024
    nu_closure: str = "literal"  # or "class-closure"
    nu_seed: str = "fn"  # or "np"

    def __post_init__(self) -> None:
        if self.class_budget < 1:
            raise ValueError("class_budget must be positive")
        if self.nu_closure not in ("literal", "class-closure"):
            raise ValueError(f"unknown nu_closure {self.nu_closure!r}")
        if self.nu_seed not in ("fn", "np"):
            raise ValueError(f"unknown nu_seed {self.nu_seed!r}")

    def with_options(self, **kw) -> "Config":
        return replace(self, **kw)


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
