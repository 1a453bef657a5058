"""JSON persistence for instances, solutions, and reports.

Output is canonical: sorted keys, two-space indent, trailing newline, so
equal objects serialize to identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .model import (
    CONSTRAINT_SPECS,
    Constraint,
    Instance,
    Partition,
    Ranking,
    RootedBinaryTree,
    Solution,
    UnrootedTree,
    is_rate,
    nested_from_rooted,
    rooted_from_nested,
)

FORMAT_VERSION = 1


def _obj_maker(tag: str, names: tuple[str, ...]):
    """c -> {"t": tag, name: c.name, ...} compiled to one dict display, which
    writes as fast as a hand-written function per class; this is the write
    path of every constraint."""
    body = "".join(f", {name!r}: c.{name}" for name in names)
    return eval(f"lambda c: {{'t': {tag!r}{body}}}")


_FIELDS = {
    cls: (spec.tag, tuple(f.name for f in fields(cls)))
    for cls, spec in CONSTRAINT_SPECS.items()
    if spec.tag is not None
}
_TO_OBJ = {cls: _obj_maker(tag, names) for cls, (tag, names) in _FIELDS.items()}
_FROM_TAG = {tag: (cls, names) for cls, (tag, names) in _FIELDS.items()}


def _ints(xs) -> tuple[int, ...]:
    """xs as item ids: JSON integers only, so floats, strings and booleans fail."""
    out = tuple(xs)
    for x in out:
        if type(x) is not int:
            raise ValueError(f"item {x!r} is not an integer")
    return out


def constraint_to_obj(c: Constraint) -> dict:
    try:
        make = _TO_OBJ[type(c)]
    except KeyError:
        raise TypeError(f"cannot serialize {type(c).__name__}") from None
    return make(c)


def obj_to_constraint(o: dict) -> Constraint:
    try:
        cls, names = _FROM_TAG[o["t"]]
    except KeyError as e:
        raise ValueError(f"unknown constraint tag {o.get('t')!r}") from e
    return cls(*_ints(o[f] for f in names))


def solution_to_obj(sol: Solution) -> dict:
    if isinstance(sol, Ranking):
        return {"ranking": list(sol.order)}
    if isinstance(sol, Partition):
        return {"partition": list(sol.labels)}
    if isinstance(sol, RootedBinaryTree):
        return {"rooted_tree": nested_from_rooted(sol)}
    if isinstance(sol, UnrootedTree):
        return {
            "unrooted_tree": {
                "adjacency": [list(nb) for nb in sol.adjacency],
                "items": [x if x >= 0 else None for x in sol.leaf_item],
            }
        }
    raise TypeError(f"cannot serialize {type(sol).__name__}")


def obj_to_solution(o: dict) -> Solution:
    if "ranking" in o:
        return Ranking(_ints(o["ranking"]))
    if "partition" in o:
        return Partition(_ints(o["partition"]))
    if "rooted_tree" in o:
        return rooted_from_nested(o["rooted_tree"])
    if "unrooted_tree" in o:
        body = o["unrooted_tree"]
        adjacency = tuple(_ints(nb) for nb in body["adjacency"])
        items = _ints(-1 if x is None else x for x in body["items"])
        return UnrootedTree(adjacency, items)
    raise ValueError("no recognized solution key")


def instance_to_obj(inst: Instance, meta: dict | None = None, include_truth: bool = True) -> dict:
    obj = {
        "version": FORMAT_VERSION,
        "kind": inst.kind,
        "n": inst.n,
        "constraints": [constraint_to_obj(c) for c in inst.constraints],
    }
    if include_truth and inst.ground_truth is not None:
        obj["ground_truth"] = solution_to_obj(inst.ground_truth)
    if meta is not None:
        obj["meta"] = meta
    return obj


def obj_to_instance(obj: dict) -> tuple[Instance, dict]:
    if not isinstance(obj, dict):
        raise ValueError("an instance must be a JSON object")
    if obj.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {obj.get('version')!r}")
    gt = None
    if "ground_truth" in obj:
        gt = obj_to_solution(obj["ground_truth"])
    n = obj["n"]
    if type(n) is not int:
        raise ValueError(f"n {n!r} is not an integer")
    inst = Instance(
        kind=obj["kind"],
        n=n,
        constraints=tuple(obj_to_constraint(o) for o in obj["constraints"]),
        ground_truth=gt,
    )
    meta = obj.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta must be a JSON object")
    for name in ("eps", "eps1", "eps2"):
        if name in meta and not is_rate(meta[name]):
            raise ValueError(f"meta.{name} must be a number in [0, 1], not {meta[name]!r}")
    return inst, meta


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def write_json(path, obj) -> None:
    Path(path).write_text(dumps(obj))


def read_json(path):
    return json.loads(Path(path).read_text())
