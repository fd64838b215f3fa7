"""Size caps for the expensive constructions, overridable via RELKIT_CAPS."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Caps:
    # largest universe allowed for product/power results
    max_universe: int = 10**6
    # largest total table size (cells) allowed when materializing an algebra
    max_table_cells: int = 10**7
    # relation pools: the only bound.  One join loop builds every pool from
    # principal relations: each relation kind by closed joins, the
    # U-admissible pools by plain unions.  It is complete unless it finds
    # more than this many; the result then holds the first max_relations + 1
    # it found and is labelled truncated.  An inclusion with more expansions
    # than this is refused before they are listed.
    max_relations: int = 100_000
    # clone generation caps by arity
    clone_cap_3: int = 50_000
    clone_cap_4: int = 200_000

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ValueError(f"cap {f.name} must be an integer >= 1, not {value!r}")

    def clone_cap(self, arity: int) -> int:
        if arity <= 3:
            return self.clone_cap_3
        return self.clone_cap_4


def caps_from_env(base: Caps | None = None, env: str | None = None) -> Caps:
    """Apply the RELKIT_CAPS override (a JSON object of field:value pairs)."""
    caps = base or Caps()
    raw = os.environ.get("RELKIT_CAPS") if env is None else env
    if not raw:
        return caps
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"RELKIT_CAPS is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("RELKIT_CAPS must be a JSON object")
    known = {f.name for f in fields(Caps)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"RELKIT_CAPS has unknown keys: {sorted(unknown)}")
    return replace(caps, **data)


DEFAULT_CAPS = Caps()
