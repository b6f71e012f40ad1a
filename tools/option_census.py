"""Every option has a user: the census behind ROADMAP's "No new knob".

A run-configuration field stays iff a caller outside ``tests/`` sets it, or a
tier-1 test does to reach behaviour no default run reaches (``TEST_ONLY``,
with the reason). A setter is a keyword, dict key or attribute store (not on
``self``) of the field's name — not a keyword that forwards the field
(``pool_pages=config.pool_pages``) or that the callee declares as its own
parameter (``StorageEngine(pool_pages=…)``). Exits 1 on a field with neither.
"""

import ast
from collections import Counter
from pathlib import Path

CLASSES = ("RunConfig", "OEConfig", "SOVConfig", "ShardConfig", "HarmonyConfig")
OUTSIDE, INSIDE = ("src", "benchmarks", "examples", "tools"), ("tests",)
TEST_ONLY = {
    "RunConfig.pool_pages": "a pool smaller than the working set: eviction, write-back",
    "SOVConfig.max_endorser_lag": "lag 0 and lag 3 bracket the endorsement-mismatch rate",
    "HarmonyConfig.snapshot_lag": "the inter-block tests pin the lag they reason about",
}


def nodes_of(roots):
    paths = [p for root in roots for p in sorted(Path(root).rglob("*.py"))]
    return [node for p in paths for node in ast.walk(ast.parse(p.read_text()))]


def declared(nodes):
    """{callable name: the parameters (or dataclass fields) it declares}."""
    table = {}
    for node in (n for n in nodes if isinstance(n, (ast.ClassDef, ast.FunctionDef))):
        names, inits = set(), [node]
        if isinstance(node, ast.ClassDef):
            names = {s.target.id for s in node.body if isinstance(s, ast.AnnAssign)}
            inits = [s for s in node.body if getattr(s, "name", "") == "__init__"]
        names.update(a.arg for f in inits for a in f.args.args + f.args.kwonlyargs)
        table.setdefault(node.name, set()).update(names)
    return table


def setters(nodes, params, classes):
    count = Counter()
    for node in nodes:
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
            own = () if callee in classes else params.get(callee, ())
            for kw in node.keywords:
                count[kw.arg] += kw.arg not in own and getattr(kw.value, "attr", None) != kw.arg
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            count[node.attr] += getattr(node.value, "id", "") != "self"
        elif isinstance(node, ast.Dict):
            count.update(getattr(key, "value", None) for key in node.keys)
    return count


def census(classes=CLASSES, outside=OUTSIDE, inside=INSIDE, reasons=TEST_ONLY):
    """``(rows, unset, options)``: ``(Class.field, setters outside tests, setters in
    tests)`` per field (a restated one is its base's), the names failing the rule,
    and the option count (a base's fields count once per direct subclass)."""
    src, tests = nodes_of(outside), nodes_of(inside)
    params = declared(src + tests)
    found = [n for n in src if isinstance(n, ast.ClassDef) and n.name in classes]
    bases = {n.name: [getattr(b, "id", "") for b in n.bases] for n in found}
    own = {c: params[c] - {f for b in bases[c] for f in params.get(b, ())} for c in bases}
    out, ins = (setters(side, params, classes) for side in (src, tests))
    rows = [(f"{c}.{f}", out[f], ins[f]) for c in classes if c in own for f in sorted(own[c])]
    unset = [name for name, o, i in rows if not o and not (i and name in reasons)]
    subclasses = Counter(b for c in bases for b in bases[c])
    return rows, unset, sum(len(own[c]) * max(1, subclasses[c]) for c in own)


if __name__ == "__main__":
    rows, unset, options = census()
    for name, out, ins in rows:
        print(f"{name:40} {out:4} {ins:4}  {'' if out else TEST_ONLY.get(name, 'UNSET')}")
    print(f"{len(rows)} declared fields, {options} settable options, unset: {unset}")
    raise SystemExit(1 if unset else 0)
