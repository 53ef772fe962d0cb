"""The one eviction rule of the engine's bounded caches (plans,
prepared queries, binds): oldest insertion first."""

from __future__ import annotations


def evict_oldest(cache: dict, capacity: int) -> None:
    """Make room in *cache* for one more entry.

    Callers may race — ``VoodooEngine.prepare`` holds no lock, and hits
    must stay lock-free — so another thread may insert or evict between
    any two steps here: the iterator then raises ``RuntimeError`` (or
    ``StopIteration`` once empty) and the key may already be gone.  Both
    mean "look again"; the loop also takes back the entry or two by which
    racing inserts can overshoot *capacity*.
    """
    while cache and len(cache) >= capacity:
        try:
            cache.pop(next(iter(cache)), None)
        except (RuntimeError, StopIteration):
            continue
