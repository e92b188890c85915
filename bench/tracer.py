"""Spans around calls into the program's public functions.

The tracer wraps functions from outside the program: every module of the
package that binds a traced function by name (``from .games import
restrict``), and every module-level dict that holds one (``CONCEPTS``), is
re-pointed at the wrapper while the tracer is installed, and restored
afterwards.  Spans live in flat arrays (name, start, end, parent, item,
value) and are written out once, at the end of the run.  Self time, call
counts and ratios are computed from the spans alone.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from array import array
from functools import cached_property
from pathlib import Path

#: Functions whose ``calls`` and ``self_s`` are reported, in report order.
FUNCTIONS = (
    "games.restrict",
    "games.is_reduction",
    "games.is_strict_reduction",
    "games.reduce_players",
    "games.enumerate_reductions",
    "games.canonical_id",
    "concepts.eval_concept",
    "concepts.nash",
    "concepts.strong_nash",
    "concepts.jointly_optimal",
    "closures.d_closure",
    "closures.strict_closure",
    "closures.reduction_closure",
    "closures.read_dir",
    "closures.write_dir",
    "gamefiles.game_from_payload",
    "gamefiles.game_payload",
    "gamefiles.load_game",
    "axioms.iis",
    "axioms.mc",
    "axioms.isds",
    "axioms.jo",
    "axioms.cons",
    "axioms.cocons",
    "axioms.ciis",
    "axioms.replay_witness",
    "theorems.verify_theorem1",
    "theorems.audit_d_closed",
    "theorems.verify_one_player_lemma",
    "theorems.lemma1a_witness",
    "theorems.lemma1b_construct",
    "oracles.nash_bruteforce",
    "suite.run_suite",
    "cli.main",
)

#: Derived per-layer metrics: name -> unit.
DERIVED = {
    "games.is_reduction.hit_ratio": "ratio",
    "games.is_strict_reduction.hit_ratio": "ratio",
    "concepts.eval_concept.miss": "count",
    "concepts.eval_concept.hit_ratio": "ratio",
    "closures.members": "count",
    "axioms.cons.checked": "count",
    "axioms.cocons.checked": "count",
    "axioms.ciis.checked": "count",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED)
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.value = array("q")
        self._stack: list[int] = []
        self._item = -1
        self._items = 0
        self.active = False
        # Spans of these names count a call only when value == 1; the
        # others are generator resumptions.
        self._generators: set[int] = set()
        self._concept_fns: set[int] = set()

    @property
    def span_count(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- recording ------------------------------------------------------

    def begin_item(self) -> None:
        self._item = self._items
        self._items += 1
        self.active = True

    def end_item(self) -> None:
        self.active = False
        self._stack.clear()

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self._item)
        self.value.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, value: int = 0) -> None:
        self.end[idx] = time.perf_counter()
        self.value[idx] = value
        self._stack.pop()

    def wrap(self, name: str, fn, value=None, name_of=None):
        """A wrapper that records one span per call while active.

        ``value(result)`` gives the span's value; ``name_of(args)`` picks
        the span name per call."""
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid if name_of is None else tracer.name_id(name_of(args)))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(idx, value(result) if value and result is not None else 0)

        return traced

    def wrap_generator(self, name: str, fn):
        """Like ``wrap`` for a function returning a generator: the call and
        each later resumption become spans; only the call has value 1."""
        nid = self.name_id(name)
        self._generators.add(nid)
        tracer = self

        def resumptions(gen):
            while True:
                if not tracer.active:
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                else:
                    idx = tracer._open(nid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(idx)
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                gen = fn(*args, **kwargs)
            finally:
                tracer._close(idx, 1)
            return resumptions(gen)

        return traced

    # -- installing -----------------------------------------------------

    def _wrappers(self, mods) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every plain function."""
        g, c, cl, gf = mods.games, mods.concepts, mods.closures, mods.gamefiles
        th = mods.theorems

        def truth(result):
            return int(bool(result))

        def checked(verdict):
            return int((verdict.coverage or {}).get("checked", 0))

        plain = [
            ("games.restrict", g.restrict, None),
            ("games.is_reduction", g.is_reduction, truth),
            ("games.is_strict_reduction", g.is_strict_reduction, truth),
            ("games.reduce_players", g.reduce_players, None),
            ("concepts.eval_concept", c.eval_concept, None),
            ("concepts.jointly_optimal", c.jointly_optimal, None),
            ("closures.d_closure", cl.d_closure, len),
            ("closures.strict_closure", cl.strict_closure, len),
            ("closures.reduction_closure", cl.reduction_closure, len),
            ("gamefiles.game_from_payload", gf.game_from_payload, None),
            ("gamefiles.game_payload", gf.game_payload, None),
            ("gamefiles.load_game", gf.load_game, None),
            ("axioms.replay_witness", mods.axioms.replay_witness, None),
            ("theorems.verify_theorem1", th.verify_theorem1, None),
            ("theorems.audit_d_closed", th.audit_d_closed, None),
            ("theorems.verify_one_player_lemma", th.verify_one_player_lemma, None),
            ("theorems.lemma1a_witness", th.lemma1a_witness, None),
            ("theorems.lemma1b_construct", th.lemma1b_construct, None),
            ("oracles.nash_bruteforce", mods.oracles.nash_bruteforce, None),
            ("suite.run_suite", mods.suite.run_suite, None),
            ("cli.main", mods.cli.main, None),
        ]
        out = {}
        for name, fn, value in plain:
            out[id(fn)] = (fn, self.wrap(name, fn, value))
        # Every registered concept is wrapped, so an eval_concept span with
        # a concept child is exactly a cache miss.
        for concept, fn in c.CONCEPTS.items():
            out[id(fn)] = (fn, self.wrap(f"concepts.{concept}", fn))
            self._concept_fns.add(self.name_id(f"concepts.{concept}"))
        check = mods.axioms.check_axiom
        out[id(check)] = (
            check,
            self.wrap(
                "axioms.check_axiom",
                check,
                checked,
                name_of=lambda args: f"axioms.{str(args[0]).lower()}",
            ),
        )
        enum = g.enumerate_reductions
        out[id(enum)] = (enum, self.wrap_generator("games.enumerate_reductions", enum))
        return out

    @contextlib.contextmanager
    def installed(self, mods):
        """Point every binding of a traced function at its wrapper."""
        wrappers = self._wrappers(mods)
        undo = []
        package = mods.games.__name__.rpartition(".")[0]
        modules = [
            m for name, m in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        for module in modules:
            namespace = vars(module)
            for key, held in list(namespace.items()):
                if id(held) in wrappers and held is wrappers[id(held)][0]:
                    setattr(module, key, wrappers[id(held)][1])
                    undo.append((namespace, key, held))
                elif type(held) is dict:
                    for dkey, dval in list(held.items()):
                        if id(dval) in wrappers and dval is wrappers[id(dval)][0]:
                            held[dkey] = wrappers[id(dval)][1]
                            undo.append((held, dkey, dval))
        game_cls, class_cls = mods.games.Game, mods.closures.GameClass
        prop = game_cls.__dict__["canonical_id"]
        read_dir = class_cls.__dict__["read_dir"]
        write_dir = class_cls.__dict__["write_dir"]
        traced_id = cached_property(self.wrap("games.canonical_id", prop.func))
        traced_id.__set_name__(game_cls, "canonical_id")
        methods = [
            (game_cls, "canonical_id", prop, traced_id),
            (
                class_cls,
                "read_dir",
                read_dir,
                classmethod(self.wrap("closures.read_dir", read_dir.__func__, len)),
            ),
            (class_cls, "write_dir", write_dir, self.wrap("closures.write_dir", write_dir)),
        ]
        for owner, attr, _, wrapped in methods:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in methods:
                setattr(owner, attr, original)
            for container, key, original in reversed(undo):
                container[key] = original

    # -- analysis -------------------------------------------------------

    def aggregate(self, lo: int, hi: int) -> dict:
        """Per-name calls, self time and value sums over spans [lo, hi)."""
        child = [0.0] * (hi - lo)
        concept_parents = set()
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
                if self.name[i] in self._concept_fns:
                    concept_parents.add(p)
        stats: dict[str, list] = {}
        for i in range(lo, hi):
            nid = self.name[i]
            entry = stats.setdefault(self.names[nid], [0, 0.0, 0])
            if nid not in self._generators or self.value[i] == 1:
                entry[0] += 1
            entry[1] += self.end[i] - self.start[i] - child[i - lo]
            entry[2] += self.value[i]
        miss = sum(
            1 for p in concept_parents if self.names[self.name[p]] == "concepts.eval_concept"
        )
        return {"stats": stats, "eval_concept_miss": miss}

    def write(self, path: Path) -> Path:
        """Write every span: a JSON header line, then the raw arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "item", "value")
        header = {
            "names": self.names,
            "count": self.span_count,
            "fields": [[f, getattr(self, f).typecode] for f in fields],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode("utf-8") + b"\n")
            for f in fields:
                getattr(self, f).tofile(out)
        return path


def layer_metrics(per_pass: list[dict]) -> dict:
    """Per-layer metrics from per-pass aggregates: counts and ratios from
    the first traced pass, self times as medians over all of them."""
    first = per_pass[0]["stats"]

    def stat(name, k, source=first):
        return source.get(name, [0, 0.0, 0])[k]

    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = {"value": stat(name, 0), "unit": "count"}
        self_times = [stat(name, 1, p["stats"]) for p in per_pass]
        metrics[f"{name}.self_s"] = {"value": statistics.median(self_times), "unit": "s"}

    def ratio(num, den):
        return num / den if den else 0.0

    for name in ("games.is_reduction", "games.is_strict_reduction"):
        metrics[f"{name}.hit_ratio"] = {
            "value": ratio(stat(name, 2), stat(name, 0)),
            "unit": "ratio",
        }
    calls = stat("concepts.eval_concept", 0)
    miss = per_pass[0]["eval_concept_miss"]
    metrics["concepts.eval_concept.miss"] = {"value": miss, "unit": "count"}
    metrics["concepts.eval_concept.hit_ratio"] = {
        "value": ratio(calls - miss, calls),
        "unit": "ratio",
    }
    metrics["closures.members"] = {
        "value": sum(
            stat(f"closures.{f}", 2)
            for f in ("d_closure", "strict_closure", "reduction_closure", "read_dir")
        ),
        "unit": "count",
    }
    for axiom in ("cons", "cocons", "ciis"):
        metrics[f"axioms.{axiom}.checked"] = {"value": stat(f"axioms.{axiom}", 2), "unit": "count"}
    return metrics
