"""Strategies as nested tables over basic move seeds.

A definite strategy of arity n maps each basic seed available at arity n
to a plain strategy for the resulting avatar; a plain strategy is a
finite formal sum of definite strategies, one per reachable state the
avatar may adopt. Empty table entries are omitted; lookups treat a
missing key as the empty plain strategy, so tables are total in effect.

Seed keys at arity n, with the arity of the avatar's table:

  ('in', a)      receive on slot a, 1 <= a <= n      avatar arity n+1
  ('out', a, b)  send slot b on slot a, both <= n    avatar arity n
  ('heart',)     tick                                 avatar arity n
  ('forkL',)     left half of a fork                  avatar arity n+1
  ('forkR',)     right half of a fork                 avatar arity n+1

``interpret`` turns a well-typed process into a definite strategy and
``readback`` inverts it up to branch reordering: interpret after
readback is the identity on strategies in the image of ``interpret``,
and readback after interpret is the identity on canonically branch
sorted terms.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

from .term import (
    Par,
    Process,
    Recv,
    Send,
    Sum,
    Tick,
    canonical,
    typecheck,
)

SeedKey = tuple

_KEY_TAGS = ("in", "out", "heart", "forkL", "forkR")


def seed_order(key: SeedKey) -> tuple:
    """Sort key giving the fixed table order: in, out, heart, forkL, forkR."""
    tag = key[0]
    if tag == "in":
        return (0, key[1])
    if tag == "out":
        return (1, key[1], key[2])
    if tag == "heart":
        return (2,)
    if tag == "forkL":
        return (3,)
    return (4,)


def key_arity(key: SeedKey, n: int) -> int:
    """Arity of the avatar's table after playing ``key`` at arity n."""
    return n + 1 if key[0] in ("in", "forkL", "forkR") else n


def check_key(key: SeedKey, n: int) -> None:
    tag = key[0]
    if tag == "in":
        if len(key) != 2 or not 1 <= key[1] <= n:
            raise ValueError(f"bad input key {key} at arity {n}")
    elif tag == "out":
        if len(key) != 3 or not 1 <= key[1] <= n or not 1 <= key[2] <= n:
            raise ValueError(f"bad output key {key} at arity {n}")
    elif tag in ("heart", "forkL", "forkR"):
        if len(key) != 1:
            raise ValueError(f"bad key {key}")
    else:
        raise ValueError(f"unknown seed key tag {tag!r}")


def seed_keys(n: int) -> list[SeedKey]:
    """All basic seed keys available at arity n, in table order."""
    keys: list[SeedKey] = [("in", a) for a in range(1, n + 1)]
    keys.extend(("out", a, b) for a in range(1, n + 1) for b in range(1, n + 1))
    keys.append(("heart",))
    keys.append(("forkL",))
    keys.append(("forkR",))
    return keys


@dataclass(frozen=True)
class Plain:
    """A formal sum of definite strategies of one arity."""

    arity: int
    summands: tuple["Definite", ...] = ()


@dataclass(frozen=True)
class Definite:
    """A strategy table: seed key to plain strategy for the avatar."""

    arity: int
    table: tuple[tuple[SeedKey, Plain], ...] = ()

    def lookup(self, key: SeedKey) -> Plain:
        for k, v in self.table:
            if k == key:
                return v
        return Plain(key_arity(key, self.arity))

    def keys(self) -> tuple[SeedKey, ...]:
        return tuple(k for k, _ in self.table)


def definite(n: int, entries: dict[SeedKey, Plain] | list[tuple[SeedKey, Plain]]) -> Definite:
    """Normalizing constructor: sorts keys, drops empty entries, validates."""
    items = entries.items() if isinstance(entries, dict) else entries
    kept = []
    seen = set()
    for key, plain in items:
        check_key(key, n)
        if key in seen:
            raise ValueError(f"duplicate seed key {key}")
        seen.add(key)
        if plain.arity != key_arity(key, n):
            raise ValueError(
                f"entry {key} at arity {n} needs a plain strategy of arity "
                f"{key_arity(key, n)}, got {plain.arity}"
            )
        if plain.summands:
            kept.append((key, plain))
    kept.sort(key=lambda kv: seed_order(kv[0]))
    return Definite(n, tuple(kept))


def validate(s: Definite | Plain) -> None:
    """Check arities and key ranges throughout a strategy tree."""
    if isinstance(s, Plain):
        for d in s.summands:
            if d.arity != s.arity:
                raise ValueError(f"summand arity {d.arity} under plain arity {s.arity}")
            validate(d)
        return
    prev = None
    for key, plain in s.table:
        check_key(key, s.arity)
        if prev is not None and seed_order(key) <= seed_order(prev):
            raise ValueError(f"table keys out of order: {prev} then {key}")
        prev = key
        if not plain.summands:
            raise ValueError(f"empty entry {key} should be omitted")
        if plain.arity != key_arity(key, s.arity):
            raise ValueError(f"entry {key}: arity {plain.arity} at table arity {s.arity}")
        validate(plain)


# ------------------------------------------------------------ interpret


def interpret(p: Process, gamma: int) -> Definite:
    """The strategy a well-typed process denotes at context size gamma."""
    typecheck(p, gamma)
    return _interp(p, gamma)


def prefix_to_key(prefix) -> SeedKey:
    if isinstance(prefix, Recv):
        return ("in", prefix.subject)
    if isinstance(prefix, Send):
        return ("out", prefix.subject, prefix.obj)
    if isinstance(prefix, Tick):
        return ("heart",)
    raise TypeError(f"not a prefix: {prefix!r}")


def prefix_of_key(key: SeedKey):
    tag = key[0]
    if tag == "in":
        return Recv(key[1])
    if tag == "out":
        return Send(key[1], key[2])
    if tag == "heart":
        return Tick()
    raise ValueError(f"key {key} has no prefix form")


@functools.lru_cache(maxsize=None)
def _interp(p: Process, gamma: int) -> Definite:
    if isinstance(p, Par):
        inner = Plain(gamma + 1, (_interp(p.left, gamma + 1),))
        innerR = Plain(gamma + 1, (_interp(p.right, gamma + 1),))
        return definite(gamma, [(("forkL",), inner), (("forkR",), innerR)])
    groups: dict[SeedKey, list[Definite]] = {}
    for prefix, cont in p.branches:
        key = prefix_to_key(prefix)
        g2 = gamma + 1 if key[0] == "in" else gamma
        groups.setdefault(key, []).append(_interp(cont, g2))
    return definite(
        gamma,
        [(key, Plain(key_arity(key, gamma), tuple(ds))) for key, ds in groups.items()],
    )


class MixedShapeWarning(UserWarning):
    """A strategy mixes fork entries with choice entries; the fork part
    has no process form and is dropped by readback."""


def _is_par_shaped(s: Definite) -> bool:
    if len(s.table) != 2:
        return False
    (k1, v1), (k2, v2) = s.table
    return (
        k1 == ("forkL",)
        and k2 == ("forkR",)
        and len(v1.summands) == 1
        and len(v2.summands) == 1
    )


def readback(s: Definite) -> Process:
    """A process denoting ``s``; exact for strategies in interpret's image.

    Fork entries in a table that is not exactly fork shaped have no
    process counterpart; they are dropped with a MixedShapeWarning.
    """
    if _is_par_shaped(s):
        left = readback(s.lookup(("forkL",)).summands[0])
        right = readback(s.lookup(("forkR",)).summands[0])
        return Par(left, right)
    branches = []
    for key, plain in s.table:
        if key[0] in ("forkL", "forkR"):
            warnings.warn(
                f"dropping {key[0]} entry with no process form", MixedShapeWarning
            )
            continue
        prefix = prefix_of_key(key)
        for d in plain.summands:
            branches.append((prefix, readback(d)))
    return Sum(tuple(branches))


# ---------------------------------------------------------------- dump


def dump(s: Definite | Plain) -> str:
    """Stable single-line text form, versioned."""
    return "strat-v1\n" + _dump(s) + "\n"


def _dump(s: Definite | Plain) -> str:
    if isinstance(s, Plain):
        return "[" + ",".join(_dump(d) for d in s.summands) + "]"
    body = ";".join(
        _key_str(key) + ":" + _dump(plain) for key, plain in s.table
    )
    return "@" + str(s.arity) + "{" + body + "}"


def _key_str(key: SeedKey) -> str:
    tag = key[0]
    if tag == "in":
        return f"in {key[1]}"
    if tag == "out":
        return f"out {key[1]} {key[2]}"
    return tag


def strat_key(s: Definite) -> tuple:
    """Hashable structural key; equal iff the strategies are equal."""
    return (
        s.arity,
        tuple(
            (key, tuple(strat_key(d) for d in plain.summands))
            for key, plain in s.table
        ),
    )


# ------------------------------------------------------------ enumerate


def enumerate_pure(arity: int, depth: int, width: int = 2):
    """Stream the fork-free or exactly-fork-shaped strategies, smallest
    first, each exactly once. Mirrors the term enumerator through
    ``interpret``; used to synthesize strategy corpora directly."""
    from .term import enumerate_terms

    seen = set()
    for t in enumerate_terms(arity, depth, width):
        s = _interp(canonical(t), arity)
        k = strat_key(s)
        if k not in seen:
            seen.add(k)
            yield s
