"""Seeded workload inputs, made with the standard library's ``random`` only.

Nothing here imports widgetspace, so a change to the program cannot change
the workload: the same seed gives byte-identical schema, locale and value
files. Each generator returns both the text the program reads and the
``oracle.Model`` that predicts its answers.
"""

from __future__ import annotations

import calendar
import random
import string

from oracle import (FIXTURE_PARENTS, MEDIA, Model, Spec, check, fixture_model,
                    quote, settable_at, vexpr_text)

INVALID_SHARE = 0.1  # share of inputs deliberately malformed

_LOWER = string.ascii_lowercase
_ALNUM = string.ascii_letters + string.digits


def _word(rng: random.Random, lo: int = 2, hi: int = 12) -> str:
    n = rng.randint(lo, hi)
    return rng.choice(string.ascii_uppercase) + "".join(
        rng.choice(_LOWER) for _ in range(n - 1))


def _date(rng: random.Random) -> str:
    year = rng.randint(1900, 2099)
    month = rng.randint(1, 12)
    day = rng.randint(1, calendar.monthrange(year, month)[1])
    if rng.random() < 0.2:
        return f"{year:04d}/{month:02d}/{day:02d}"
    return f"{year:04d}{month:02d}{day:02d}"


def _valid(rng: random.Random, kind: str) -> str:
    if kind == "date":
        return _date(rng)
    if kind == "code":
        return "".join(rng.choice(_ALNUM) for _ in range(rng.randint(6, 12)))
    if kind == "optional":
        return "" if rng.random() < 0.5 else rng.choice(("Jr", "Sr", "II", "III", "IV"))
    if kind == "middle":
        return "" if rng.random() < 0.3 else _word(rng)
    word = _word(rng)
    return word + "-" + _word(rng, 2, 5) if rng.random() < 0.1 else word


def _invalid(rng: random.Random, kind: str) -> str:
    if kind == "date":
        return rng.choice((f"{rng.randint(1900, 2099)}0231", "2010O704", "", "1999123"))
    if kind == "code":
        text = _valid(rng, kind)
        return rng.choice((text[:3] + " " + text[3:], text[:4], text + "!"))
    if kind == "optional":
        return rng.choice(("Junior", "Third", "Esquire", "J3"))
    word = _word(rng)
    return rng.choice((word + str(rng.randint(0, 9)), word * 4, ""))


def input_text(rng: random.Random, kind: str) -> str:
    """One input for a field of ``kind``; a fixed share is malformed."""
    if rng.random() < INVALID_SHARE:
        return _invalid(rng, kind)
    return _valid(rng, kind)


_FIXTURE_KINDS = {"dob": "date", "sid": "code", "name-suffix": "optional",
                  "name-middle": "middle"}


def fixture_kind(name: str) -> str:
    return _FIXTURE_KINDS.get(name, "word")


# -- the fixture tree, extended downwards (records) --------------------------------

_PLACES = ("county", "city", "town", "district", "ward", "village")
_EXTEND_UNDER = ("arkansas", "wisconsin", "park-county-co", "ramsey-county-mn",
                 "colorado", "minnesota")


def extension(rng: random.Random, levels: int = 4, fanout: int = 2):
    """Seeded levels of counties/cities under each state, with no specs of their own.

    The shape is the same for every seed (``levels`` deep, ``fanout`` wide),
    so the work per lookup is too; the seed picks the names.

    Returns (schema text, {child: parent}, leaf locales).
    """
    parents: dict = {}
    leaves = []
    for root in _EXTEND_UNDER:
        frontier = [root]
        for level in range(levels):
            nxt = []
            for parent in frontier:
                for _ in range(fanout):
                    child = f"{parent}-{rng.choice(_PLACES)}{len(parents)}"
                    parents[child] = parent
                    nxt.append(child)
            frontier = nxt
        leaves.extend(frontier)
    text = "".join(f"(locale {c} :parent {p})\n" for c, p in parents.items())
    return text, parents, leaves


def subjects(rng: random.Random, model: Model, locales: list, count: int) -> list:
    """``count`` subjects: (locale, [(name, index, input text), ...])."""
    out = []
    for _ in range(count):
        locale = rng.choice(locales)
        inputs = [(name, index, input_text(rng, fixture_kind(name)))
                  for name, index in settable_at(model, locale)]
        out.append((locale, inputs))
    return out


def subjects_file(pool: list) -> str:
    return "".join(f"{loc}\t{name}.{index}\t{text}\n"
                   for loc, inputs in pool for name, index, text in inputs)


# -- CLI operations (cli) ------------------------------------------------------------

CLI_LOCALES = tuple(FIXTURE_PARENTS)
CLI_MIX = (("get", 0.55), ("set", 0.30), ("show", 0.15))


def cli_ops(rng: random.Random, model: Model, count: int) -> list:
    """A closed-loop script of CLI commands, mostly ``get``.

    Each op is (kind, subject, locale, field, index, medium, text). There is
    one subject per fixture locale, ``park-county-co`` included, so that each
    subject's database fills up within a run and reads return values.
    """
    kinds = [k for k, _ in CLI_MIX]
    weights = [w for _, w in CLI_MIX]
    ops = []
    for _ in range(count):
        kind = rng.choices(kinds, weights)[0]
        subject = rng.randrange(len(CLI_LOCALES))
        locale = CLI_LOCALES[subject]
        medium = rng.choice(MEDIA)
        if kind == "set":
            name, index = rng.choice(settable_at(model, locale))
            text = input_text(rng, fixture_kind(name))
            ops.append(("set", subject, locale, name, index, "ls1100-entry", text))
        elif kind == "get":
            fields = [(n, i) for n in model.visible(locale)
                      for i in range(1, model.storage(n, locale).index + 1)]
            name, index = rng.choice(fields)
            ops.append(("get", subject, locale, name, index, medium, ""))
        else:
            ops.append(("show", subject, locale, "", 0, medium, ""))
    return ops


def ops_file(ops: list) -> str:
    return "".join("\t".join(str(x) for x in op) + "\n" for op in ops)


# -- a generated catalog (catalog) ------------------------------------------------------

CATALOG_MEDIA = ("m0", "m1", "m2", "m3", "m4", "m5")
_DATE_FORMATS = ("format-date-fbi", "format-date-card", "format-date-short",
                 "format-simple-date-long")
_TEXT_FORMATS = ("identity", "string-upcase")


def _catalog_locales(target: int, fanout: int = 3) -> dict:
    """A breadth-first tree of ``target`` locales; the same for every seed."""
    parents = {"nation": None}
    frontier = ["nation"]
    while len(parents) < target:
        below = []
        for parent in frontier:
            for k in range(fanout):
                if len(parents) < target:
                    child = f"r{k}" if parent == "nation" else f"{parent}-{k}"
                    parents[child] = parent
                    below.append(child)
        frontier = below
    return parents


def _shuffled(rng: random.Random, n: int, shares: tuple) -> list:
    """``n`` values in fixed proportions, in a seeded order."""
    out = []
    for value, share in shares:
        out += [value] * round(n * share)
    out = (out + [shares[0][0]] * n)[:n]
    rng.shuffle(out)
    return out


def _text_vexpr(rng: random.Random, kind: str):
    if kind == "date":
        return ("and", [("required",), ("date",)])
    if kind == "code":
        return ("and", [("alphanumeric",), ("length", rng.randint(4, 6), rng.randint(12, 16))])
    if rng.random() < 0.3:
        return ("or", [("not", ("required",), "Must be absent"),
                       ("and", [("alphabetic",), ("length", 1, rng.randint(20, 30))])],
                "Must be 1 to 30 alphabetic characters")
    return ("and", [("required",), ("alphabetic",), ("length", 1, rng.randint(20, 40))])


def _outputs(rng: random.Random, kind: str, n: int) -> dict:
    choices = _DATE_FORMATS if kind == "date" else _TEXT_FORMATS
    media = rng.sample(CATALOG_MEDIA, n)
    out = {m: rng.choice(choices) for m in media}
    return out


def _parser(kind: str) -> str:
    return "parse-date-fbi" if kind == "date" else "identity"


def _widget_form(name: str, locale: str, spec: Spec, doc: str | None) -> str:
    lines = [f"(widget {name} {locale}"]
    if spec.table:
        lines.append(f"  :table {spec.table}")
    if spec.index > 1:
        lines.append(f"  :index {spec.index}")
    if doc:
        lines.append(f"  :doc {quote(doc)}")
    if spec.headings:
        lines.append("  :heading (" + " ".join(
            f"{m} {quote(t)}" for m, t in spec.headings.items()) + ")")
    if spec.inputs:
        lines.append("  :input (" + " ".join(
            f"({m} {p} {vexpr_text(v)})" for m, (p, v) in spec.inputs.items()) + ")")
    if spec.outputs:
        lines.append("  :output (" + " ".join(
            f"({m} {f})" for m, f in spec.outputs.items()) + ")")
    return "\n".join(lines) + ")\n"


class Catalog:
    """A generated schema, the values that fill it, and the commits that follow."""

    def __init__(self, rng: random.Random, names: int, refinements: int,
                 locales: int, tables: int):
        parents = _catalog_locales(locales)
        locale_list = list(parents)
        children: dict = {loc: [] for loc in parents}
        for child, parent in parents.items():
            if parent is not None:
                children[parent].append(child)
        upper = [loc for loc in locale_list if children[loc]]

        def subtree(loc):
            out, stack = [], [loc]
            while stack:
                cur = stack.pop()
                out.append(cur)
                stack.extend(children[cur])
            return out

        specs: dict = {}
        forms = [f"(locale {c} :parent {p or 'none'})\n" for c, p in parents.items()]
        self.kinds: dict = {}
        self.homes: dict = {}      # name -> locale of the storage-declaring spec
        # Proportions are fixed so that the work per pass is the same for
        # every seed; the seed decides which widget gets what.
        kinds = _shuffled(rng, names, (("word", 0.6), ("date", 0.25), ("code", 0.15)))
        slots = _shuffled(rng, names, ((1, 0.85), (2, 0.1), (3, 0.05)))
        for i, (kind, index) in enumerate(zip(kinds, slots)):
            name = f"w{i:05d}"
            home = rng.choice(upper)
            vexpr = _text_vexpr(rng, kind)
            spec = Spec(table=f"t{i % tables}", index=index,
                        inputs={"default": (_parser(kind), vexpr)},
                        outputs={**_outputs(rng, kind, rng.randint(0, 3)),
                                 "default": rng.choice(_DATE_FORMATS if kind == "date"
                                                       else _TEXT_FORMATS)})
            if rng.random() < 0.3:
                spec.headings = {"default": f"Field {i}"}
            doc = f"Generated field {i} of kind {kind}." if rng.random() < 0.5 else None
            specs[(name, home)] = spec
            self.kinds[name] = kind
            self.homes[name] = home
            forms.append(_widget_form(name, home, spec, doc))
        names_list = self.names = list(self.kinds)
        added = 0
        while added < refinements:
            name = rng.choice(names_list)
            below = subtree(self.homes[name])[1:]
            if not below:
                continue
            locale = rng.choice(below)
            if (name, locale) in specs:
                continue
            spec = Spec(outputs=_outputs(rng, self.kinds[name], rng.randint(1, 2)))
            if self.kinds[name] == "word" and rng.random() < 0.3:
                spec.inputs = {CATALOG_MEDIA[0]: ("identity", _text_vexpr(rng, "word"))}
            specs[(name, locale)] = spec
            forms.append(_widget_form(name, locale, spec, None))
            added += 1
        self.schema_text = "".join(forms)
        self.widget_forms = names + refinements
        self.model = Model(parents, specs)
        self.rng = rng
        # Where each name is written and read: a locale that sees its home spec.
        self.coords = {}
        for name in names_list:
            self.coords[name] = (rng.choice(subtree(self.homes[name])),
                                 rng.choice(CATALOG_MEDIA))

    def value(self, name: str) -> str:
        """A valid input for ``name`` at its fill coordinate."""
        locale, medium = self.coords[name]
        _, vexpr = self.model.input(name, locale, medium)
        while True:
            text = _valid(self.rng, self.kinds[name])
            if check(vexpr, text) is None:
                return text

    def fill(self) -> list:
        """(name, index, text) for every slot of every widget, in a seeded order."""
        out = []
        for name in self.kinds:
            slots = self.model.storage(name, self.homes[name]).index
            out.extend((name, i, self.value(name)) for i in range(1, slots + 1))
        self.rng.shuffle(out)
        return out

    def commit(self) -> tuple:
        name = self.rng.choice(self.names)
        slots = self.model.storage(name, self.homes[name]).index
        return name, self.rng.randint(1, slots), self.value(name)


def values_file(rows: list, coords: dict) -> str:
    return "".join(f"{name}.{index}\t{coords[name][0]}\t{coords[name][1]}\t{text}\n"
                   for name, index, text in rows)


def fixture_with_extension(rng: random.Random):
    text, parents, leaves = extension(rng)
    return text, fixture_model(parents), leaves
