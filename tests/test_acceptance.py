"""The package's ten core guarantees, verified end to end at full strength.

Each test prints one PASS line naming the guarantee and the tolerance it
was checked at, so a -s run doubles as a conformance report.
"""

import calendar
import random
import string

import pytest

from widgetspace import (
    UNINITIALIZED, And, Base, Database, Or, ParseError, ResolutionError,
    SimpleDate, ValidationError, ValidatorContext, WidgetCoord, WidgetRegistry,
    WidgetSpec,
)
from widgetspace.textio import (
    format_simple_date_long, format_simple_date_short, format_date_fbi,
    parse_simple_date_fbi,
)

from conftest import run_cli

ENTRY = "ls1100-entry"


def _set(reg, db, name, locale, text, medium=ENTRY, index=1):
    return reg.parse_and_set(
        db, WidgetCoord(name=name, locale=locale, medium=medium, index=index), text)


def _get(reg, db, name, locale, medium, index=1):
    return reg.get_and_format(
        db, WidgetCoord(name=name, locale=locale, medium=medium, index=index))


def test_01_jurisdiction_name_rule_matrix(registry, tmp_path):
    """Same fields, two jurisdictions: 12 exact outcomes, zero tolerance."""
    LAST_25 = "ABCDEFGHIJKLMNOPQRSTUVWXY"
    FIRST_18 = "ABCDEFGHIJKLMNOPQR"
    cases = [
        # (field, input, locale, expected error message or None)
        ("name-last", LAST_25, "wisconsin", None),
        ("name-last", LAST_25, "arkansas", "Length must be smaller than 20"),
        ("name-first", FIRST_18, "wisconsin", None),
        ("name-first", FIRST_18, "arkansas", "Length must be smaller than 15"),
        ("name-middle", "", "wisconsin", None),
        ("name-middle", "", "arkansas", None),
        ("name-suffix", "JUNIO", "wisconsin",
         "Suffix must be 1 to 4 alphabetic characters"),
        ("name-suffix", "JUNIO", "arkansas",
         "Suffix must be 1 to 3 alphabetic characters"),
        ("name-last", "", "wisconsin", "Input is required"),
        ("name-last", "", "arkansas", "Input is required"),
        ("name-suffix", "JR", "wisconsin", None),
        ("name-suffix", "JR", "arkansas", None),
    ]
    assert len(cases) == 12
    failures = []
    for i, (field, text, locale, expected) in enumerate(cases):
        db = Database(tmp_path / f"case{i}")
        if expected is None:
            try:
                _set(registry, db, field, locale, text)
            except ValidationError as e:
                failures.append((field, locale, text, f"rejected: {e.message}"))
        else:
            try:
                _set(registry, db, field, locale, text)
                failures.append((field, locale, text, "accepted"))
            except ValidationError as e:
                if e.message != expected:
                    failures.append((field, locale, text,
                                     f"message {e.message!r} != {expected!r}"))
    assert failures == []
    print("PASS jurisdiction name-rule matrix (12/12 exact outcomes)")


def test_02_date_formatting_goldens():
    d = SimpleDate(2010, 7, 4)
    assert format_simple_date_short(d) == "7/4/2010"
    assert format_simple_date_long(d) == "the fourth of July, 2010"
    print("PASS date formatting goldens (2/2 byte-exact)")


def test_03_date_parsing_and_total_round_trip():
    assert parse_simple_date_fbi("20100704") == SimpleDate(2010, 7, 4)
    assert parse_simple_date_fbi("2010/07/04") == SimpleDate(2010, 7, 4)
    with pytest.raises(ParseError):
        parse_simple_date_fbi("2010-07-04")

    count = 0
    for year in range(1900, 2101):
        for month in range(1, 13):
            for day in range(1, calendar.monthrange(year, month)[1] + 1):
                d = SimpleDate(year, month, day)
                assert parse_simple_date_fbi(format_date_fbi(d)) == d
                count += 1
    assert count == 73414
    print(f"PASS date parse/format identity over {count} dates (1900-2100)")


def test_04_composed_validator_messages(registry):
    expr = And((Base("length", (3, 7)),
                Or((Base("alphabetic"), Base("numeric")),
                   "Input must be alphabetic or numeric.")))
    ctx = ValidatorContext("w", "common", "m")
    validators = registry.registries.validators

    validators.validate(expr, ctx, "abcd")
    validators.validate(expr, ctx, "1234567")
    with pytest.raises(ValidationError) as exc:
        validators.validate(expr, ctx, "ab")
    assert exc.value.message == "Length must be larger than 3"
    with pytest.raises(ValidationError) as exc:
        validators.validate(expr, ctx, "abc1")
    assert exc.value.message == "Input must be alphabetic or numeric."
    print("PASS composed validator behavior (4/4 byte-exact)")


def test_05_formatter_resolution_through_inheritance(registry, db):
    _set(registry, db, "sid", "arkansas", "ab12cd")
    assert _get(registry, db, "sid", "arkansas", ENTRY) == "AB12CD"
    assert _get(registry, db, "sid", "arkansas", "transmission") == "ab12cd"

    _set(registry, db, "dob", "arkansas", "20100704")
    assert _get(registry, db, "dob", "arkansas", "ar-arrest") == "7/4/2010"
    assert _get(registry, db, "dob", "arkansas", "transmission") == "20100704"
    assert _get(registry, db, "dob", "arkansas", "postcard") == "07/04/2010"

    with pytest.raises(ResolutionError) as exc:
        registry.resolve_parser("sid", "arkansas", "transmission")
    assert str(exc.value) == "No formatter/parser specified."
    with pytest.raises(ResolutionError) as exc:
        registry.resolve_formatter("sid", "wisconsin", ENTRY)
    assert str(exc.value) == "No formatter/parser specified."
    print("PASS formatter/parser resolution through inheritance (6 media)")


def test_06_resolution_matches_oracle_at_scale():
    media = ["m1", "m2", "m3", "m4", "default"]
    formatters = ["identity", "format-date-fbi", "format-date-card",
                  "format-date-short", "string-upcase",
                  "format-simple-date-long"]
    rng = random.Random(1281)
    cases = 0
    mismatches = []
    for trial in range(250):
        reg = WidgetRegistry()
        names = [f"loc{i}" for i in range(rng.randint(1, 50))]
        reg.add_locale(names[0])
        for name in names[1:]:
            reg.add_locale(name, rng.choice(reg.locales.locales()))
        table = {}
        for loc in names:
            if rng.random() < 0.45:
                outputs = {m: rng.choice(formatters)
                           for m in media if rng.random() < 0.35}
                table[loc] = outputs
                reg.define_widget(WidgetSpec(name="w", locale=loc, outputs=outputs))

        for _ in range(40):
            start = rng.choice(names)
            medium = rng.choice(media[:4] + ["unheard-of"])
            expected = None
            for loc in reg.locales.ancestry(start):
                outputs = table.get(loc)
                if outputs is None:
                    continue
                hit = outputs.get(medium) or outputs.get("default")
                if hit is not None:
                    expected = hit
                    break
            try:
                got = reg.resolve_formatter("w", start, medium)
            except ResolutionError:
                got = None
            if got != expected:
                mismatches.append((trial, start, medium, expected, got))
            cases += 1
    assert cases >= 10_000
    assert mismatches == []
    print(f"PASS resolution oracle equivalence ({cases} cases, 0 mismatches)")


def test_07_index_invariance(registry, tmp_path):
    """Occurrence index never changes accept/reject outcomes or messages."""
    rng = random.Random(77)
    alphabet = string.ascii_letters + string.digits + " -!@."
    inputs = [""]
    while len(inputs) < 1000:
        n = rng.randint(0, 25)
        inputs.append("".join(rng.choice(alphabet) for _ in range(n)))

    db1 = Database(tmp_path / "idx1")
    db2 = Database(tmp_path / "idx2")
    divergences = []
    for text in inputs:
        outcomes = []
        for db, index in ((db1, 1), (db2, 2)):
            try:
                value = _set(registry, db, "alias", "arkansas", text,
                             medium="transmission", index=index)
                outcomes.append(("ok", value))
            except ValidationError as e:
                outcomes.append(("err", e.message))
        if outcomes[0] != outcomes[1]:
            divergences.append((text, outcomes))
    assert len(inputs) == 1000
    assert divergences == []
    print("PASS index invariance (1000 inputs, indices 1 vs 2 identical)")


def test_08_store_contract(registry, tmp_path):
    root = tmp_path / "db"
    db = Database(root)

    # absence is a value, not an error
    assert db.get("demographics", "dob") is UNINITIALIZED

    # a typical full record
    _set(registry, db, "name-last", "wisconsin", "Doe")
    _set(registry, db, "name-first", "wisconsin", "John")
    _set(registry, db, "name-middle", "wisconsin", "Q")
    _set(registry, db, "name-suffix", "wisconsin", "JR")
    _set(registry, db, "dob", "wisconsin", "20100704")
    _set(registry, db, "sid", "arkansas", "ab12cd")
    _set(registry, db, "alias", "arkansas", "Smith", medium="transmission", index=1)
    _set(registry, db, "alias", "arkansas", "Jones", medium="transmission", index=2)
    db.checkpoint()

    # reopen sees exactly what was written
    again = Database(root)
    assert again.get("demographics", "dob") == SimpleDate(2010, 7, 4)
    assert again.get("demographics", "alias") == ("Smith", "Jones")
    assert again.get("identifiers", "sid") == "ab12cd"

    # rejected input leaves the serialized database byte-identical
    files = sorted(root.glob("*.tbl"))
    before = {p.name: p.read_bytes() for p in files}
    with pytest.raises(ValidationError):
        _set(registry, again, "sid", "arkansas", "this is way too long!")
    again.checkpoint()
    after = {p.name: p.read_bytes() for p in sorted(root.glob("*.tbl"))}
    assert after == before

    # compactness: a typical record's table stays small
    sizes = {name: len(data) for name, data in before.items()}
    assert sizes["demographics.tbl"] <= 5 * 1024
    assert sizes["identifiers.tbl"] <= 5 * 1024
    print(f"PASS store contract (round-trip, fault isolation, {sizes} bytes)")


def test_09_generator_soundness(registry):
    targets = []
    for locale in ("common", "arkansas", "wisconsin"):
        for name in registry.widget_names_at(locale):
            try:
                registry.resolve_generator(name, locale)
                binding = registry.resolve_parser(name, locale, ENTRY)
            except ResolutionError:
                continue
            targets.append((name, locale, binding))
    assert {t[0] for t in targets} == {
        "dob", "alias", "name-last", "name-first", "name-middle",
        "name-suffix", "sid"}

    checked = 0
    for name, locale, binding in targets:
        ctx = ValidatorContext(name, locale, ENTRY)
        for seed in range(1000):
            text = registry.generate_random(name, locale, ENTRY, seed)
            registry.registries.validators.validate(binding.validator, ctx, text)
            checked += 1

    fixed = [registry.generate_random("sid", "arkansas", ENTRY, 20100704)
             for _ in range(3)]
    assert len(set(fixed)) == 1
    print(f"PASS generator soundness ({len(targets)} targets x 1000 seeds, "
          f"{checked} validated)")


def test_10_cli_end_to_end(tmp_path):
    from widgetspace import fixture_paths

    ws = tmp_path / "widgetspace.ws"
    db1 = tmp_path / "db1"
    db2 = tmp_path / "db2"
    base = ["--workspace", str(ws)]

    code, out, err = run_cli(
        ["schema", "load", *map(str, fixture_paths()), *base], cwd=tmp_path)
    assert (code, out) == (0, "locales: 8, widgets: 17\n"), err

    sets = [
        ("dob", ENTRY, "20100704"),
        ("sid", ENTRY, "ab12cd"),
        ("alias.1", "transmission", "Smith"),
        ("alias.2", "transmission", "Jones"),
    ]
    for field, medium, value in sets:
        code, _, err = run_cli(
            ["set", *base, "--db", str(db1), "--locale", "arkansas",
             "--field", field, "--medium", medium, value], cwd=tmp_path)
        assert code == 0, err

    reads = [
        ("dob", "ar-arrest", "7/4/2010\n"),
        ("dob", "transmission", "20100704\n"),
        ("sid", ENTRY, "AB12CD\n"),
        ("sid", "transmission", "ab12cd\n"),
        ("alias.1", "transmission", "Smith\n"),
        ("alias.1", ENTRY, "Smith\n"),
        ("alias.2", "transmission", "Jones\n"),
        ("alias.2", ENTRY, "Jones\n"),
    ]

    def read_all(db):
        got = []
        for field, medium, _ in reads:
            code, out, err = run_cli(
                ["get", *base, "--db", str(db), "--locale", "arkansas",
                 "--field", field, "--medium", medium], cwd=tmp_path)
            assert code == 0, err
            got.append(out)
        return got

    first = read_all(db1)
    assert first == [expected for _, _, expected in reads]

    dump_file = tmp_path / "backup.widgetdump"
    code, _, err = run_cli(["dump", "--db", str(db1), str(dump_file)], cwd=tmp_path)
    assert code == 0, err
    code, _, err = run_cli(["restore", "--db", str(db2), str(dump_file)],
                           cwd=tmp_path)
    assert code == 0, err
    assert read_all(db2) == first

    # exit code conformance on this exact workflow
    code, _, err = run_cli(
        ["set", *base, "--db", str(db1), "--locale", "arkansas",
         "--field", "sid", "--medium", ENTRY, "no spaces allowed"], cwd=tmp_path)
    assert code == 1
    assert err == "The character ' ' is not alphanumeric\n"
    code, _, err = run_cli(
        ["get", *base, "--db", str(db1), "--locale", "wisconsin",
         "--field", "sid", "--medium", ENTRY], cwd=tmp_path)
    assert code == 2
    code, _, _ = run_cli(
        ["restore", "--db", str(db1), str(dump_file)], cwd=tmp_path)
    assert code == 3
    code, _, _ = run_cli(["get", "--oops"], cwd=tmp_path)
    assert code == 4

    print("PASS cli end-to-end (load, set x4, get x8, dump/restore identity, "
          "exit codes 0-4)")
