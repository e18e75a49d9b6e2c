"""Reference searches over raw reducts, for differential tests of
`reduction.reach`.

Both expand the terms that `step` returns as they are, without first
substituting the fusion's representatives, and both compute a term's
form up to the fusion separately from its dedup key:

- `reference_listing` is a breadth-first search keyed by each raw
  reduct's printed normal form, the listing of `fusioncalc reduce`;
- `reference_reduces_within` dedups on the raw canonical process and
  compares the form up to the fusion with the target's at each level.
"""

from fusioncalc.config import DEFAULT
from fusioncalc.fusion import canonical_subst, equal
from fusioncalc.process import canonical, substitute
from fusioncalc.pwf import Pwf, pwf_str
from fusioncalc.reduction import step


def _form(p: Pwf, config):
    return canonical(substitute(p.proc, canonical_subst(p.fus, config)))


def reference_listing(p: Pwf, k: int, config=DEFAULT) -> list[str]:
    """Sorted normal forms of the classes reached in 1..k steps."""
    def key(q: Pwf) -> str:
        return pwf_str(Pwf(_form(q, config), q.fus))

    frontier = [p]
    seen = {key(p)}
    reached = []
    for _ in range(k):
        next_frontier = []
        for q in frontier:
            for r in step(q, config):
                r_key = key(r)
                if r_key not in seen:
                    seen.add(r_key)
                    next_frontier.append(r)
                    reached.append(r_key)
        frontier = next_frontier
    return sorted(reached)


def reference_reduces_within(p: Pwf, target: Pwf, k: int,
                             config=DEFAULT) -> bool:
    if not equal(p.fus, target.fus, config):
        return False
    sigma = canonical_subst(p.fus, config)
    goal = _form(target, config)
    start = canonical(p.proc)
    frontier = [p]
    seen = {start}
    for _ in range(k + 1):
        next_frontier = []
        for q in frontier:
            if canonical(substitute(q.proc, sigma)) == goal:
                return True
            for r in step(q, config):
                r_key = canonical(r.proc)
                if r_key not in seen:
                    seen.add(r_key)
                    next_frontier.append(r)
        if not next_frontier:
            return False
        frontier = next_frontier
    return False
