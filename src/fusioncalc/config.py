"""Runtime knobs for the budgeted/sampled parts of the calculus.

Every approximate verdict in the package (class finiteness, family
subsumption, the choice of nu semantics) is controlled from here so
reports can state exactly which limits were in force.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Config:
    class_budget: int = 1024
    sample_bound: int = 256
    nu_closure: str = "literal"  # or "class-closure"
    nu_seed: str = "fn"  # or "np"

    def __post_init__(self) -> None:
        if self.class_budget < 1 or self.sample_bound < 1:
            raise ValueError("config limits must be positive")
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
        if key in ("class_budget", "sample_bound"):
            kw[key] = int(value)
        elif key in ("nu_closure", "nu_seed"):
            kw[key] = value
        else:
            raise ValueError(f"unknown config key: {key}")
    return base.with_options(**kw)
