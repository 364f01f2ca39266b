"""Single-fault mutants of JSON documents, shared by the codec differentials and the fuzzer.

A trail is the tuple of keys and indices that leads from a document's
root to one value.  :func:`mutant` copies a document and applies one
change at a trail; the change takes the parent container and the last
key, as :func:`set_to` and :func:`drop` build them.
"""

from __future__ import annotations

import copy


def trails(node: object, trail: tuple = ()):
    """The key trail to every value inside ``node``, at every depth, with that value."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield trail + (key,), child
        yield from trails(child, trail + (key,))


def at(document: object, trail: tuple) -> object:
    for key in trail:
        document = document[key]
    return document


def mutant(document: object, trail: tuple, change) -> object:
    """A deep copy of ``document`` with ``change(parent, key)`` applied at ``trail``."""
    mutated = copy.deepcopy(document)
    change(at(mutated, trail[:-1]), trail[-1])
    return mutated


def set_to(value):
    """A change that sets the value at the trail to a fresh copy of ``value``."""
    return lambda parent, key: parent.__setitem__(key, copy.deepcopy(value))


def drop(parent, key) -> None:
    """A change that removes the key at the trail."""
    parent.pop(key)
