"""Strategies as nested tables over basic move seeds.

A definite strategy of arity n maps each basic seed available at arity n
to a plain strategy for the resulting avatar; a plain strategy is a
finite formal sum of definite strategies, one per reachable state the
avatar may adopt, and is held as the tuple of its summands. The seed key
fixes their arity. Empty table entries are omitted; lookups treat a
missing key as the empty sum ``()``, so tables are total in effect. A
definite strategy checks itself when built, so every table holds valid
keys in seed order, each with a nonempty entry of the avatar's arity.

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

from .term import Par, Process, Recv, Send, Sum, Tick, Value, typecheck

SeedKey = tuple


# Seed shapes: tag -> (rank in table order, slot numbers in the key,
# slots the avatar gains).
SEEDS = {
    "in": (0, 1, 1),
    "out": (1, 2, 0),
    "heart": (2, 0, 0),
    "forkL": (3, 0, 1),
    "forkR": (4, 0, 1),
}


@functools.lru_cache(maxsize=None)
def seed_order(key: SeedKey) -> tuple:
    """Sort key giving the fixed table order: in, out, heart, forkL, forkR.
    Kept per key, so sorting a table and checking its order compute it
    once."""
    if key[0] not in SEEDS:
        raise ValueError(f"unknown seed key tag {key[0]!r}")
    return (SEEDS[key[0]][0],) + key[1:]


def key_arity(key: SeedKey, n: int) -> int:
    """Arity of the avatar's table after playing ``key`` at arity n."""
    return n + SEEDS[key[0]][2]


def check_entry(key: SeedKey, n: int) -> None:
    """Check that ``key`` is a valid seed key at arity n."""
    if key[0] not in SEEDS:
        raise ValueError(f"unknown seed key tag {key[0]!r}")
    slots = SEEDS[key[0]][1]
    # a key has at most two slot numbers, so its first and last are all
    if len(key) != 1 + slots or slots and not (1 <= key[1] <= n and 1 <= key[-1] <= n):
        raise ValueError(f"bad key {key} at arity {n}")


class Definite(Value, tag=5):
    """A strategy table: seed key to plain strategy for the avatar, the
    nonempty tuple of its summands, each of the arity the key fixes.
    Strategies order by arity, then table entry by entry, key first."""

    __slots__ = ()
    _fields = ("arity", "table")

    def __new__(cls, arity: int, table: tuple = ()) -> Definite:
        prev = ()  # below every key's seed order
        for key, summands in table:
            check_entry(key, arity)
            order = seed_order(key)
            if order <= prev:
                raise ValueError(f"table keys out of order or repeated at {key}")
            prev = order
            if not summands:
                raise ValueError(f"empty entry {key} should be omitted")
            need = key_arity(key, arity)
            for d in summands:
                if d.arity != need:
                    raise ValueError(f"entry {key} at arity {arity} needs arity {need}, not {d.arity}")
        return tuple.__new__(cls, (cls._tag, arity, table))

    def lookup(self, key: SeedKey) -> tuple[Definite, ...]:
        """The summands under ``key``; ``()`` if the table has no entry."""
        for k, v in self.table:
            if k == key:
                return v
        return ()


def definite(n: int, entries: list[tuple[SeedKey, tuple[Definite, ...]]]) -> Definite:
    """Normalizing constructor: drops empty entries and sorts the rest.
    A dropped entry's key is checked here, a kept entry by ``Definite``
    itself."""
    kept = []
    for key, summands in entries:
        if summands:
            kept.append((key, summands))
        else:
            check_entry(key, n)
    kept.sort(key=lambda kv: seed_order(kv[0]))
    return Definite(n, tuple(kept))


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
    rank = seed_order(key)[0]
    if rank > 2:
        raise ValueError(f"key {key} has no prefix form")
    return (Recv, Send, Tick)[rank](*key[1:])


@functools.lru_cache(maxsize=None)
def _interp(p: Process, gamma: int) -> Definite:
    if isinstance(p, Par):
        left = (_interp(p.left, gamma + 1),)
        right = (_interp(p.right, gamma + 1),)
        return definite(gamma, [(("forkL",), left), (("forkR",), right)])
    groups: dict[SeedKey, list[Definite]] = {}
    for prefix, cont in p.branches:
        key = prefix_to_key(prefix)
        groups.setdefault(key, []).append(_interp(cont, key_arity(key, gamma)))
    return definite(gamma, [(key, tuple(ds)) for key, ds in groups.items()])


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
        and len(v1) == 1
        and len(v2) == 1
    )


def readback(s: Definite) -> Process:
    """A process denoting ``s``; exact for strategies in interpret's image.

    Fork entries in a table that is not exactly fork shaped have no
    process counterpart; they are dropped with a MixedShapeWarning.
    """
    if _is_par_shaped(s):
        left = readback(s.lookup(("forkL",))[0])
        right = readback(s.lookup(("forkR",))[0])
        return Par(left, right)
    branches = []
    for key, summands in s.table:
        if key[0] in ("forkL", "forkR"):
            warnings.warn(
                f"dropping {key[0]} entry with no process form", MixedShapeWarning
            )
            continue
        prefix = prefix_of_key(key)
        for d in summands:
            branches.append((prefix, readback(d)))
    return Sum(tuple(branches))


# ---------------------------------------------------------------- dump


def dump(s: Definite) -> str:
    """Stable single-line text form, versioned."""
    return "strat-v1\n" + _dump(s) + "\n"


def _dump(s: Definite) -> str:
    body = ";".join(
        " ".join(map(str, key)) + ":[" + ",".join(_dump(d) for d in summands) + "]"
        for key, summands in s.table
    )
    return "@" + str(s.arity) + "{" + body + "}"
