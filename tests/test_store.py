"""Persistent KV store: absence semantics, durability, file format, fault paths."""

import os
import random
import stat
import sys
import tempfile
import threading
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (
    UNINITIALIZED, CorruptTableError, Database, IndexOutOfRangeError, PersonName,
    SimpleDate, StoreError, WidgetCoord, WidgetRegistry, dumps, is_uninitialized, store,
)
from widgetspace import datum, sexpr
from widgetspace.datum import MAX_DEPTH

from conftest import Shouting

keys = st.from_regex(r"[a-z0-9][a-z0-9_-]{0,10}", fullmatch=True).filter(
    lambda s: not s.isdigit())

small_datums = st.one_of(
    st.just(UNINITIALIZED),
    st.integers(-10**6, 10**6),
    st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0x7e),
            max_size=20),
    st.builds(SimpleDate, year=st.integers(0, 9999), month=st.integers(1, 12),
              day=st.integers(1, 28)),
    st.builds(PersonName,
              last=st.text(alphabet="ABC", max_size=5),
              first=st.text(alphabet="xyz", max_size=5)),
)


class TestAbsence:
    def test_get_missing_returns_uninitialized(self, db):
        assert db.get("demographics", "dob") is UNINITIALIZED
        assert not db.contains_key("demographics", "dob")

    def test_stored_uninitialized_is_distinguishable(self, db):
        db.put("demographics", "dob", UNINITIALIZED)
        assert db.get("demographics", "dob") is UNINITIALIZED
        assert db.contains_key("demographics", "dob")

    def test_get_never_raises_for_fresh_tables(self, db):
        assert db.get("never-written", "nope") is UNINITIALIZED


class TestPutGet:
    def test_round_trip_each_variant(self, db):
        cases = [("n", 42), ("s", "ab12cd"), ("d", SimpleDate(2010, 7, 4)),
                 ("p", PersonName("Doe", "John")), ("t", (1, "a", UNINITIALIZED)),
                 ("u", UNINITIALIZED)]
        for key, value in cases:
            db.put("demographics", key, value)
        for key, value in cases:
            assert db.get("demographics", key) == value

    def test_overwrite(self, db):
        db.put("t", "k", 1)
        db.put("t", "k", 2)
        assert db.get("t", "k") == 2

    def test_rejects_non_datum(self, db):
        with pytest.raises(TypeError):
            db.put("t", "k", 1.5)
        with pytest.raises(TypeError):
            db.put("t", "k", True)
        with pytest.raises(ValueError):
            db.put("t", "k", "line\nbreak")

    def test_integer_too_long_to_dump_is_rejected(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("t", "a", 10 ** 4300 - 1)
        with pytest.raises(ValueError, match="not storable"):
            db.put("t", "k", 10 ** 5000)
        with pytest.raises(ValueError, match="not storable"):
            db.put_indexed("t", "j", 1, -10 ** 4300, 2)
        db.checkpoint()
        assert Database(tmp_path / "db").items("t") == [("a", 10 ** 4300 - 1)]

    def test_keys_normalized(self, db):
        db.put("T", ":DOB", 1)
        assert db.get("t", "dob") == 1

    def test_empty_table_name_rejected(self, db):
        with pytest.raises(StoreError):
            db.get("", "k")

    def test_table_names_normalized_after_load(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.checkpoint()
        db = Database(tmp_path / "db")
        assert db.get("t", "k") == 1  # loads and keeps the table
        assert db.get(":T", "k") == 1
        assert db.get("T", "k") == 1
        for bad in ("", ":", "t t", "T!", "9"):
            with pytest.raises(StoreError, match="invalid table name"):
                db.get(bad, "k")

    @settings(max_examples=50)
    @given(key=keys, value=small_datums)
    def test_get_inverts_put(self, key, value):
        with tempfile.TemporaryDirectory() as root:
            db = Database(root)
            db.put("t", key, value)
            assert db.get("t", key) == value
            assert db.contains_key("t", key)


class TestKeySpellings:
    """A canonical key is looked up as spelled; any other spelling is
    normalized first, and the outcome is the same either way."""

    def test_case_and_colon_spellings_reach_the_canonical_key(self, db):
        db.put("t", "dob", 1)
        db.put_indexed("t", "alias", 2, "x", max_index=2)
        for key in ("dob", "DOB", ":dob", ":DOB"):
            assert db.get("t", key) == 1
            assert db.contains_key("t", key)
        for key in ("alias", "ALIAS", ":alias"):
            assert db.get_indexed("t", key, 2) == "x"
        db.put("t", "DOB", 2)
        assert db.items("t") == [("alias", (UNINITIALIZED, "x")), ("dob", 2)]
        db.put("t", ":dob", 3)
        assert db.get("t", "dob") == 3

    def test_a_subclass_is_looked_up_as_it_lowers(self, db):
        # Shouting("dob") lowers to "DOB": no stored key, and no valid one
        db.put("t", "dob", 1)
        assert db.get("t", Shouting("dob")) is UNINITIALIZED
        assert not db.contains_key("t", Shouting("dob"))
        assert db.get_indexed("t", Shouting("dob"), 1) is UNINITIALIZED
        with pytest.raises(StoreError) as exc:
            db.put("t", Shouting("dob"), 2)
        assert str(exc.value) == "invalid key 'DOB'"
        with pytest.raises(StoreError) as exc:
            db.put_indexed("t", Shouting("dob"), 1, 2, max_index=1)
        assert str(exc.value) == "invalid key 'DOB'"
        assert db.items("t") == [("dob", 1)]

    def test_an_uppercase_subclass_reaches_the_canonical_key(self, db):
        db.put("t", "dob", 1)
        assert db.get("t", Shouting("DOB")) is UNINITIALIZED  # lowers to itself
        db.put("t", ":dob", 2)
        assert db.get("t", "dob") == 2


    @pytest.mark.parametrize("loaded_first", [False, True])
    def test_a_subclass_table_name_is_normalized_whatever_is_loaded(self, db, loaded_first):
        # Shouting("t") lowers to "T", no valid table name, whether or not
        # table "t" is already in memory
        if loaded_first:
            db.put("t", "k", 1)
        for call in (lambda: db.get(Shouting("t"), "k"),
                     lambda: db.put(Shouting("t"), "k", 2),
                     lambda: db.contains_key(Shouting("t"), "k")):
            with pytest.raises(StoreError) as exc:
                call()
            assert str(exc.value) == "invalid table name 'T'"
        assert db.get("t", "k") == (1 if loaded_first else UNINITIALIZED)


class TestNonStringNames:
    @pytest.mark.parametrize("key", [5, None, b"k", ("k",), ["k"]])
    def test_key(self, db, key):
        operations = [lambda: db.put("t", key, 1), lambda: db.get("t", key),
                      lambda: db.contains_key("t", key),
                      lambda: db.put_indexed("t", key, 1, 1, max_index=1),
                      lambda: db.get_indexed("t", key, 1)]
        for operation in operations:
            with pytest.raises(StoreError) as exc:
                operation()
            assert str(exc.value) == f"invalid key {key!r}"
        assert db.is_empty()

    @pytest.mark.parametrize("table", [5, None, b"t", ("t",), ["t"]])
    def test_table_name(self, db, table):
        operations = [lambda: db.put(table, "k", 1), lambda: db.get(table, "k"),
                      lambda: db.contains_key(table, "k"),
                      lambda: db.put_indexed(table, "k", 1, 1, max_index=1),
                      lambda: db.get_indexed(table, "k", 1)]
        for operation in operations:
            with pytest.raises(StoreError) as exc:
                operation()
            assert str(exc.value) == f"invalid table name {table!r}"
        assert db.is_empty()


class TestIndexed:
    def test_first_write_materializes_slots(self, db):
        db.put_indexed("aliases", "alias", 2, "Smith", max_index=3)
        assert db.get("aliases", "alias") == (UNINITIALIZED, "Smith", UNINITIALIZED)
        assert db.get_indexed("aliases", "alias", 2) == "Smith"
        assert db.get_indexed("aliases", "alias", 1) is UNINITIALIZED

    def test_slots_fill_independently(self, db):
        db.put_indexed("a", "k", 1, "x", max_index=2)
        db.put_indexed("a", "k", 2, "y", max_index=2)
        assert db.get("a", "k") == ("x", "y")

    def test_grows_shorter_existing_sequence(self, db):
        db.put("a", "k", ("x",))
        db.put_indexed("a", "k", 3, "z", max_index=3)
        assert db.get("a", "k") == ("x", UNINITIALIZED, "z")

    def test_get_indexed_of_absent_key(self, db):
        assert db.get_indexed("a", "k", 1) is UNINITIALIZED

    def test_index_bounds(self, db):
        with pytest.raises(IndexOutOfRangeError):
            db.get_indexed("a", "k", 0)
        with pytest.raises(IndexOutOfRangeError):
            db.put_indexed("a", "k", 0, "x", max_index=2)
        with pytest.raises(IndexOutOfRangeError):
            db.put_indexed("a", "k", 3, "x", max_index=2)
        db.put_indexed("a", "k", 1, "x", max_index=2)
        assert db.get_indexed("a", "k", 3) is UNINITIALIZED  # the store knows no bound
        for index in (True, False):  # a bool is not an index
            with pytest.raises(IndexOutOfRangeError):
                db.get_indexed("a", "k", index)
            with pytest.raises(IndexOutOfRangeError, match=rf"^index {index} out of range"):
                db.put_indexed("a", "k", index, "z", max_index=2)
        assert db.get("a", "k") == ("x", UNINITIALIZED)

    def test_indexed_access_reads_a_scalar_as_slot_1(self, db):
        db.put("a", "k", "scalar")
        assert db.get_indexed("a", "k", 1) == "scalar"
        assert db.get_indexed("a", "k", 2) is UNINITIALIZED
        db.put("a", "e", ())
        assert db.get_indexed("a", "e", 1) is UNINITIALIZED

    def test_bad_max_index(self, db):
        with pytest.raises(ValueError):
            db.put_indexed("a", "k", 1, "x", max_index=0)

    @pytest.mark.parametrize("bound", [True, False, 1.0, "2", None])
    def test_a_bound_that_is_no_integer_is_refused_as_0_is(self, db, bound):
        with pytest.raises(ValueError, match=rf"^max_index must be an integer >= 1, got {bound!r}$"):
            db.put_indexed("a", "k", 1, "x", max_index=bound)
        assert db.is_empty()

    @pytest.mark.parametrize("index", [True, 0, "1", 1.0])
    def test_an_unbounded_refusal_names_the_type(self, db, index):
        with pytest.raises(IndexOutOfRangeError) as exc:
            db.get_indexed("a", "k", index)
        assert str(exc.value) == f"index must be an integer >= 1, got {index!r}"

    def test_a_refused_integer_of_any_length_is_spelled_in_full(self, db):
        huge = 10 ** 5000  # more digits than the interpreter's str(int) limit
        with pytest.raises(IndexOutOfRangeError) as exc:
            db.get_indexed("a", "k", -huge)
        assert str(exc.value) == f"index must be an integer >= 1, got {sexpr.int_text(-huge)}"
        with pytest.raises(IndexOutOfRangeError) as exc:
            db.put_indexed("a", "k", huge, "x", 2)
        assert str(exc.value) == f"index {sexpr.int_text(huge)} out of range [1, 2]"
        with pytest.raises(ValueError) as exc:
            db.put_indexed("a", "k", 1, "x", max_index=-huge)
        assert str(exc.value) == f"max_index must be an integer >= 1, got {sexpr.int_text(-huge)}"
        assert db.is_empty()

    def test_one_slot_stores_a_single_value_as_it_is(self, db):
        db.put_indexed("a", "k", 1, "x", 1)
        assert db.items("a") == [("k", "x")]
        db.put_indexed("a", "k", 1, ("y",), 1)  # a sequence is kept whole, as slot 1
        db.put_indexed("a", "k", 1, "z", 1)  # over a sequence, slot 1 only
        assert db.items("a") == [("k", ("z",))]

    def test_a_single_value_put_over_a_sequence_replaces_its_slot_1(self, db):
        db.put("a", "k", ("x", "y"))
        db.put("a", "k", "z")
        assert db.get("a", "k") == ("z", "y")
        db.put("a", "k", ("p",))  # a sequence replaces the whole value
        assert db.get("a", "k") == ("p",)
        db.put("a", "e", ())
        db.put("a", "e", "q")
        assert db.get("a", "e") == ("q",)

    def test_put_indexed_makes_a_stored_value_slot_1(self, db):
        db.put("a", "k", "x")
        db.put_indexed("a", "k", 3, "z", 3)
        assert db.get("a", "k") == ("x", UNINITIALIZED, "z")
        db.put_indexed("a", "k", 2, "y", 2)  # over a sequence longer than the bound
        assert db.get("a", "k") == ("x", "y", "z")
        db.put("a", "j", "x")
        with pytest.raises(ValueError, match="control character"):
            db.put_indexed("a", "j", 2, "\x01", 2)
        with pytest.raises(IndexOutOfRangeError):
            db.put_indexed("a", "j", 3, "y", 2)
        assert db.get("a", "j") == "x"


SLOT_VALUES = st.sampled_from(["Smith", "Jones", 7, UNINITIALIZED])
SLOT_VALUE = st.one_of(SLOT_VALUES, st.lists(SLOT_VALUES, max_size=3).map(tuple))


@st.composite
def _slot_op(draw):
    kind = draw(st.sampled_from(["put", "put_indexed", "get_indexed", "reopen"]))
    if kind == "put":
        return kind, draw(SLOT_VALUE)
    if kind == "put_indexed":
        bound = draw(st.integers(1, 4))
        return kind, draw(st.integers(1, bound)), draw(SLOT_VALUE), bound
    if kind == "get_indexed":
        return kind, draw(st.integers(1, 5))
    return (kind,)


@lru_cache(maxsize=None)
def _slot_registry(bound: int) -> WidgetRegistry:
    """A widget ``k`` stored in table ``t`` with ``bound`` slots, shown as stored."""
    reg = WidgetRegistry()
    reg.registries.formatters.register("as-stored", lambda value: value)
    reg.load_schema(f"(locale root :parent none)(widget k root :table t :index {bound}"
                    " :output ((default as-stored)))")
    return reg


class TestSlotRuleModel:
    """The slot rule against a list of slots: a stored value that is not a
    sequence is slot 1, a slot no stored value reaches is UNINITIALIZED, and
    ``put_indexed`` pads the slots to its bound before it writes one, except
    that with one slot it stores a value that is not a sequence as it is where
    no sequence is stored."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_slot_op(), max_size=30))
    def test_every_read_matches_the_model(self, ops):
        with tempfile.TemporaryDirectory() as root:
            db, slots, single = Database(root), [], True  # single: no sequence is stored
            for op in ops:
                if op[0] == "put":
                    db.put("t", "k", op[1])
                    if type(op[1]) is tuple:
                        slots, single = list(op[1]), False
                    else:
                        slots[:1] = [op[1]]
                elif op[0] == "put_indexed":
                    _, index, value, bound = op
                    db.put_indexed("t", "k", index, value, bound)
                    if bound == 1 and single and type(value) is not tuple:
                        slots = [value]
                        assert db.get("t", "k") == value
                    else:
                        slots += [UNINITIALIZED] * (bound - len(slots))
                        slots[index - 1] = value
                        single = False
                        assert db.get("t", "k") == tuple(slots)
                elif op[0] == "get_indexed":
                    index = op[1]
                    expected = slots[index - 1] if index <= len(slots) else UNINITIALIZED
                    assert db.get_indexed("t", "k", index) == expected
                    for bound in range(index, 5):  # the fused read, at every bound that reaches it
                        assert _slot_registry(bound).get_and_format(
                            db, WidgetCoord("k", "root", "default", index)) == expected
                else:
                    db.checkpoint()
                    db = Database(root)
            assert [db.get_indexed("t", "k", i) for i in range(1, 6)] == \
                [slots[i] if i < len(slots) else UNINITIALIZED for i in range(5)]


class TestDurability:
    def test_checkpoint_reopen_round_trip(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("demographics", "dob", SimpleDate(2010, 7, 4))
        db.put_indexed("demographics", "alias", 1, "Smith", max_index=2)
        db.checkpoint()

        again = Database(tmp_path / "db")
        assert again.get("demographics", "dob") == SimpleDate(2010, 7, 4)
        assert again.get("demographics", "alias") == ("Smith", UNINITIALIZED)

    def test_unflushed_writes_are_lost_on_reopen(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.checkpoint()
        db.put("t", "k", 2)  # never checkpointed

        again = Database(tmp_path / "db")
        assert again.get("t", "k") == 1

    def test_checkpoint_skips_clean_tables(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.checkpoint()

        writes = []
        monkeypatch.setattr(db, "_write_file",
                            lambda *a: writes.append(a))
        db.checkpoint()
        assert writes == []
        db.put("t", "k", 2)
        db.checkpoint()
        assert len(writes) == 1

    def test_failed_flush_keeps_table_dirty(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)

        def boom(filename, text):
            raise OSError("disk full")

        monkeypatch.setattr(db, "_write_file", boom)
        with pytest.raises(OSError):
            db.checkpoint()
        monkeypatch.undo()

        db.checkpoint()  # dirtiness survived, so this writes for real
        assert Database(tmp_path / "db").get("t", "k") == 1

    def test_failed_flush_preserves_previous_file(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.checkpoint()
        before = (tmp_path / "db" / "t.tbl").read_bytes()

        db.put("t", "k", 2)
        real_open = open

        def torn_write(filename, text):
            # simulate a crash before rename: temp data written, never renamed
            tmp = tmp_path / "db" / ".torn"
            with real_open(tmp, "w") as fh:
                fh.write(text[: len(text) // 2])
            raise OSError("power loss")

        monkeypatch.setattr(db, "_write_file", torn_write)
        with pytest.raises(OSError):
            db.checkpoint()
        assert (tmp_path / "db" / "t.tbl").read_bytes() == before

    def test_write_replaced_during_flush_stays_dirty(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)

        real_write = db._write_file

        def interleaved(filename, text):
            real_write(filename, text)
            db.put("t", "k", 2)  # lands between render and dirty-clear

        monkeypatch.setattr(db, "_write_file", interleaved)
        db.checkpoint()
        monkeypatch.undo()

        db.checkpoint()
        assert Database(tmp_path / "db").get("t", "k") == 2

    @settings(max_examples=25, deadline=None)
    @given(entries=st.dictionaries(keys, small_datums, max_size=8))
    def test_reopen_equals_memory(self, entries):
        with tempfile.TemporaryDirectory() as root:
            db = Database(Path(root) / "db")
            for key, value in entries.items():
                db.put("t", key, value)
            db.checkpoint()
            again = Database(Path(root) / "db")
            for key, value in entries.items():
                assert again.get("t", key) == value


class _OsSpy:
    """Stands in for ``os`` inside ``widgetspace.store``.

    Records each ``fsync``, ``replace`` and ``unlink`` as ``(name, detail)``
    (for ``fsync``, whether the descriptor is a directory) and raises
    ``OSError`` on the ``fail_at``-th call of the one named ``fail``.
    """

    def __init__(self, fail=None, fail_at=0):
        self.calls = []
        self.fail, self.fail_at, self.seen = fail, fail_at, 0

    def __getattr__(self, name):
        return getattr(os, name)

    def _call(self, name, detail, real, *args):
        if name == self.fail:
            self.seen += 1
            if self.seen == self.fail_at:
                raise OSError(f"injected {name} fault")
        self.calls.append((name, detail))
        return real(*args)

    def fsync(self, fd):
        return self._call("fsync", stat.S_ISDIR(os.fstat(fd).st_mode), os.fsync, fd)

    def replace(self, src, dst):
        return self._call("replace", Path(dst).name, os.replace, src, dst)

    def unlink(self, path):
        return self._call("unlink", Path(path).name, os.unlink, path)


class TestDirectoryFsync:
    def test_checkpoint_fsyncs_file_then_directory(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        spy = _OsSpy()
        monkeypatch.setattr(store, "os", spy)
        db.checkpoint()
        assert spy.calls == [("fsync", False), ("replace", "t.tbl"), ("fsync", True)]

    def test_restore_fsyncs_directory_after_unlink(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.put("u", "k", 2)
        db.checkpoint()
        spy = _OsSpy()
        monkeypatch.setattr(store, "os", spy)
        db.restore_text("(table t)\n(k 3)\n")
        assert spy.calls[-2:] == [("unlink", "u.tbl"), ("fsync", True)]
        assert sorted(p.name for p in (tmp_path / "db").iterdir()) == ["t.tbl"]

    def test_checkpoint_fsyncs_directory_once(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.put("u", "k", 2)
        spy = _OsSpy()
        monkeypatch.setattr(store, "os", spy)
        db.checkpoint()
        assert spy.calls == [("fsync", False), ("replace", "t.tbl"),
                             ("fsync", False), ("replace", "u.tbl"), ("fsync", True)]

    def test_failed_directory_fsync_keeps_tables_dirty(self, tmp_path, monkeypatch):
        db = Database(tmp_path / "db")
        db.put("t", "k", 1)
        db.put("u", "k", 2)
        monkeypatch.setattr(store, "os", _OsSpy(fail="fsync", fail_at=3))
        with pytest.raises(OSError):
            db.checkpoint()
        spy = _OsSpy()
        monkeypatch.setattr(store, "os", spy)
        db.checkpoint()
        assert [detail for name, detail in spy.calls if name == "replace"] == ["t.tbl", "u.tbl"]
        db.checkpoint()  # now both are clean
        assert len(spy.calls) == 5


OLD_TABLES = {"a": {"k": 1}, "b": {"k": 2}, "c": {"k": 3}}
NEW_TABLES = {"a": {"k": 10}, "b": {"k": 20}, "d": {"k": 40}}


def _dump_of(tables):
    return "".join(f"(table {name})\n" + "".join(f"({k} {v})\n" for k, v in sorted(rows.items()))
                   for name, rows in sorted(tables.items()))


def _put_all(db, tables):
    for table, rows in tables.items():
        for key, value in rows.items():
            db.put(table, key, value)


def _on_disk(root):
    fresh = Database(root)
    return {name: dict(fresh.items(name)) for name in fresh.table_names()}


class TestInjectedFaults:
    """The k-th ``replace``, ``fsync`` or ``unlink`` fails, for k = 1, 2, ...

    After each fault a fresh ``Database`` must read every table as old or
    new, none missing, and no temp file may be left behind.
    """

    def _old_database(self, root):
        db = Database(root)
        _put_all(db, OLD_TABLES)
        db.checkpoint()
        assert _on_disk(root) == OLD_TABLES
        return db  # with every old table cached

    def _check_every_fault(self, tmp_path, monkeypatch, operation, new):
        faults = 0
        for name in ("replace", "fsync", "unlink"):
            for k in range(1, 100):
                root = tmp_path / f"{name}-{k}"
                db = self._old_database(root)
                monkeypatch.setattr(store, "os", _OsSpy(fail=name, fail_at=k))
                try:
                    operation(db)
                except OSError:
                    faults += 1
                else:
                    break
                finally:
                    monkeypatch.undo()
                disk = _on_disk(root)
                for table in OLD_TABLES.keys() | new.keys():
                    assert disk.get(table) in (OLD_TABLES.get(table), new.get(table)), \
                        (name, k, table, disk)
                assert [p.name for p in root.iterdir() if ".tmp." in p.name] == []
            assert _on_disk(root) == new
        return faults

    def test_restore(self, tmp_path, monkeypatch):
        def restore(db):
            try:
                db.restore_text(_dump_of(NEW_TABLES))
            finally:  # a failed restore leaves the Database reading the disk
                assert {t: dict(db.items(t)) for t in db.table_names()} == _on_disk(db.root)
        # three table writes (a replace and a file fsync each), one unlink, one directory fsync
        assert self._check_every_fault(tmp_path, monkeypatch, restore, NEW_TABLES) == 3 + 4 + 1

    def test_checkpoint(self, tmp_path, monkeypatch):
        def commit(db):
            _put_all(db, NEW_TABLES)
            db.checkpoint()
        new = {**OLD_TABLES, **NEW_TABLES}
        # three table writes (a replace and a file fsync each), one directory fsync
        assert self._check_every_fault(tmp_path, monkeypatch, commit, new) == 3 + 4


class TestFileFormat:
    def test_golden_bytes(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("demographics", "name-last", "Doe")
        db.put("demographics", "dob", SimpleDate(2010, 7, 4))
        db.checkpoint()
        data = (tmp_path / "db" / "demographics.tbl").read_bytes()
        assert data == (b"(table demographics)\n"
                        b"(dob (date 2010 7 4))\n"
                        b"(name-last \"Doe\")\n")

    def test_keys_sorted_lf_terminated(self, tmp_path):
        db = Database(tmp_path / "db")
        for key in ("zz", "aa", "mm"):
            db.put("t", key, 1)
        db.checkpoint()
        text = (tmp_path / "db" / "t.tbl").read_text()
        assert text == "(table t)\n(aa 1)\n(mm 1)\n(zz 1)\n"
        assert "\r" not in text

    def test_key_named_table_is_not_a_header(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("t", "table", 1)
        db.put("t", "other", UNINITIALIZED)
        db.checkpoint()
        again = Database(tmp_path / "db")
        assert again.get("t", "table") == 1
        assert again.get("t", "other") is UNINITIALIZED
        assert again.table_names() == ["t"]

    def test_names_that_cannot_round_trip_are_rejected(self, db):
        # the file format spells tables and keys as symbols, so anything
        # else must be refused at write time, not discovered at reload
        with pytest.raises(StoreError):
            db.get("criminal/history", "k")
        with pytest.raises(StoreError):
            db.put("t", "bad key", 1)
        with pytest.raises(StoreError):
            db.put("t", "1234", 1)  # would lex as an integer on reload
        with pytest.raises(StoreError):
            db.put("007", "k", 1)

    def test_each_table_is_one_file(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("demographics", "k", 1)
        db.put("identifiers", "k", 2)
        db.checkpoint()
        files = sorted(p.name for p in (tmp_path / "db").glob("*.tbl"))
        assert files == ["demographics.tbl", "identifiers.tbl"]

    def test_blank_lines_tolerated(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_text("(table t)\n\n(k 1)\n\n")
        assert Database(root).get("t", "k") == 1

    @pytest.mark.parametrize("blank", ["", " ", "\t", "\r", " \t\r "])
    def test_tokenizer_whitespace_lines_tolerated(self, tmp_path, blank):
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_bytes(f"(table t)\n{blank}\n(k 1)\n{blank}".encode())
        assert Database(root).get("t", "k") == 1


@pytest.mark.parametrize("text", [
    "", "plain", "with space", "semi;colon", "(parens) [brackets]", "#uninit", "42",
    'say "hi"', "back\\slash", '\\"', '"', "\\", 'ends with \\', "héllo \\ \"wörld\""])
def test_strings_round_trip_through_a_table_file(tmp_path, text):
    db = Database(tmp_path / "db")
    db.put("t", "s", text)
    db.put("t", "n", PersonName(text, "a", text, ""))
    db.put("t", "q", (text, (text,)))
    db.checkpoint()
    again = Database(tmp_path / "db")
    assert again.items("t") == db.items("t")
    assert again.dump_text() == db.dump_text()
    line = (tmp_path / "db" / "t.tbl").read_text(encoding="utf-8").splitlines()[3]
    assert line == "(s " + dumps(text) + ")"
    escaped = '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'
    assert dumps(text) == escaped


def _generated_value(rng, depth=0):
    """One datum of a mix like a generated catalog's: mostly text, some dates
    and sequences, and every other variant."""
    kind = rng.choice("sssssddqinu" if depth < 2 else "sssddinu")
    if kind == "s":
        return "".join(rng.choice('ab Zé€"\\') for _ in range(rng.randrange(12)))
    if kind == "d":
        return SimpleDate(rng.choice([0, 9999, rng.randrange(10000)]),
                          rng.randrange(1, 13), rng.randrange(1, 32))
    if kind == "q":
        return tuple(_generated_value(rng, depth + 1) for _ in range(rng.randrange(4)))
    if kind == "i":
        return rng.choice([0, -7, 10 ** 700 + 1, rng.randrange(-10 ** 9, 10 ** 9)])
    if kind == "n":
        return PersonName("Doe", "Jo", rng.choice(["", "Q"]), "")
    return UNINITIALIZED


class TestColdOpenCalls:
    """What a traced benchmark run counts, pinned in process: a cold open
    reads a text or date entry, as the store writes it, from one line match,
    and tokenizes each other nonblank line once and reads its value once."""

    def test_each_uncovered_line_tokenized_and_its_value_read_once(self, tmp_path,
                                                                    monkeypatch):
        rng = random.Random(1013)
        entries = {f"k{i:04d}": _generated_value(rng) for i in range(1000)}
        db = Database(tmp_path / "db")
        for key, value in entries.items():
            db.put("t", key, value)
        db.checkpoint()
        path = tmp_path / "db" / "t.tbl"
        lines = path.read_text(encoding="utf-8").split("\n")
        path.write_text("\n\n".join(lines[:500]) + "\n \n" + "\n".join(lines[500:]),
                        encoding="utf-8")

        calls = {"sexpr.tokenize": 0, "datum.read_datum": 0}
        for name, original in [("sexpr.tokenize", sexpr.tokenize),
                               ("datum.read_datum", datum.read_datum)]:
            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            # wherever a module of the package holds the name, as the tracer wraps it
            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "widgetspace":
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, counting)

        assert dict(Database(tmp_path / "db").items("t")) == entries
        uncovered = sum(not isinstance(value, (str, SimpleDate)) for value in entries.values())
        assert 0 < uncovered < 500
        assert calls == {"sexpr.tokenize": 1 + uncovered, "datum.read_datum": uncovered}


class TestCorruption:
    def _db_with(self, tmp_path, content):
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_text(content)
        return Database(root)

    def test_missing_header(self, tmp_path):
        db = self._db_with(tmp_path, "(k 1)\n")
        with pytest.raises(CorruptTableError) as exc:
            db.get("t", "k")
        assert "header" in str(exc.value)

    def test_junk_line_offset(self, tmp_path):
        db = self._db_with(tmp_path, "(table t)\n(k1 1)\njunk\n")
        with pytest.raises(CorruptTableError) as exc:
            db.get("t", "k1")
        assert exc.value.offset == 17
        assert exc.value.filename == "t.tbl"

    @pytest.mark.parametrize("line,offset", [
        ("\x0b", 16), ("\x0c", 16), ("\xa0", 16), ("\x85", 16), (" \x0c\t", 17)])
    def test_other_whitespace_line_is_corrupt(self, tmp_path, line, offset):
        # the tokenizer skips only space, tab, CR and LF, so a line of any
        # other whitespace fails like the same character after an entry
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_bytes(f"(table t)\n(k 1)\n{line}\n".encode())
        with pytest.raises(CorruptTableError) as exc:
            Database(root).get("t", "k")
        assert exc.value.offset == offset

    def test_duplicate_key(self, tmp_path):
        db = self._db_with(tmp_path, "(table t)\n(k 1)\n(k 2)\n")
        with pytest.raises(CorruptTableError) as exc:
            db.get("t", "k")
        assert "duplicate key 'k'" in str(exc.value)

    def test_wrong_table_in_file(self, tmp_path):
        db = self._db_with(tmp_path, "(table other)\n(k 1)\n")
        with pytest.raises(CorruptTableError):
            db.get("t", "k")

    def test_trailing_content_in_pair(self, tmp_path):
        db = self._db_with(tmp_path, "(table t)\n(k 1) extra\n")
        with pytest.raises(CorruptTableError):
            db.get("t", "k")

    def test_bad_datum(self, tmp_path):
        db = self._db_with(tmp_path, "(table t)\n(k (date 2010 13 4))\n")
        with pytest.raises(CorruptTableError) as exc:
            db.get("t", "k")
        # byte 10 starts the pair line; the month token sits 14 bytes in
        assert exc.value.offset == 24

    def test_nesting_too_deep(self, tmp_path):
        db = self._db_with(tmp_path, "(table t)\n(k " + "[" * 5000 + "]" * 5000 + ")\n")
        with pytest.raises(CorruptTableError) as exc:
            db.get("t", "k")
        # byte 10 starts the pair line; its first '[' sits 3 bytes in
        assert exc.value.offset == 10 + 3 + MAX_DEPTH
        assert str(exc.value) == (f"t.tbl: sequences nested deeper than {MAX_DEPTH} "
                                  f"(byte {exc.value.offset})")

    @pytest.mark.parametrize("line,offset", [
        ("(k " + "9" * 5000 + ")", 13),   # a value
        ("(" + "9" * 5000 + " 1)", 11),   # a key
    ], ids=["value", "key"])
    def test_integer_literal_too_long(self, tmp_path, line, offset):
        db = self._db_with(tmp_path, f"(table t)\n{line}\n")
        with pytest.raises(CorruptTableError) as exc:
            db.get("t", "k")
        assert str(exc.value) == ("t.tbl: integer literal longer than 4300 digits "
                                  f"(byte {offset})")

    def test_deepest_storable_value_reads_back(self, tmp_path):
        value = 1
        for _ in range(MAX_DEPTH):
            value = (value,)
        db = Database(tmp_path / "db")
        db.put("t", "k", value)
        db.checkpoint()
        assert Database(tmp_path / "db").get("t", "k") == value
        with pytest.raises(ValueError):
            db.put("t", "k", (value,))


class TestDumpRestore:
    def test_round_trip(self, tmp_path):
        db = Database(tmp_path / "a")
        db.put("demographics", "dob", SimpleDate(2010, 7, 4))
        db.put("identifiers", "sid", "ab12cd")
        text = db.dump_text()

        other = Database(tmp_path / "b")
        other.restore_text(text)
        assert other.get("demographics", "dob") == SimpleDate(2010, 7, 4)
        assert other.get("identifiers", "sid") == "ab12cd"
        assert other.dump_text() == text

    def test_dump_is_sorted_by_table(self, tmp_path):
        db = Database(tmp_path / "a")
        db.put("zeta", "k", 1)
        db.put("alpha", "k", 2)
        assert db.dump_text() == "(table alpha)\n(k 2)\n(table zeta)\n(k 1)\n"

    def test_restore_bad_text_names_source(self, tmp_path):
        db = Database(tmp_path / "a")
        with pytest.raises(CorruptTableError) as exc:
            db.restore_text("(k 1)\n", filename="backup.widgetdump")
        assert exc.value.filename == "backup.widgetdump"

    def test_restore_duplicate_table(self, tmp_path):
        db = Database(tmp_path / "a")
        with pytest.raises(CorruptTableError):
            db.restore_text("(table t)\n(k 1)\n(table t)\n(k 2)\n")

    def test_restore_replaces_table_wholesale(self, tmp_path):
        db = Database(tmp_path / "a")
        db.put("t", "old", 1)
        db.restore_text("(table t)\n(new 2)\n")
        assert db.get("t", "old") is UNINITIALIZED
        assert db.get("t", "new") == 2

    def test_replace_drops_other_tables_after_parsing(self, tmp_path):
        db = Database(tmp_path / "a")
        db.put("t", "k", 1)
        db.put("u", "k", 2)
        db.checkpoint()
        with pytest.raises(CorruptTableError):
            db.restore_text("(table t)\n(k\n")
        assert Database(tmp_path / "a").get("u", "k") == 2
        db.restore_text("(table t)\n(k 3)\n")
        db.checkpoint()
        assert db.table_names() == ["t"]
        assert Database(tmp_path / "a").get("t", "k") == 3

    def test_restore_lone_surrogate_is_corrupt_before_any_write(self, tmp_path):
        db = Database(tmp_path / "a")
        db.put("t", "k", 1)
        db.checkpoint()
        with pytest.raises(CorruptTableError) as exc:
            db.restore_text('(table t)\n(k "\ud800")\n(table u)\n(k 2)\n')
        # byte 10 starts the pair line; the surrogate sits 4 bytes into it
        assert str(exc.value) == "<dump>: surrogate '\\ud800' is not storable text (byte 14)"
        assert sorted(p.name for p in (tmp_path / "a").iterdir()) == ["t.tbl"]
        assert Database(tmp_path / "a").items("t") == [("k", 1)]

    def test_restored_data_survives_checkpoint(self, tmp_path):
        db = Database(tmp_path / "a")
        db.restore_text("(table t)\n(k 1)\n")
        db.checkpoint()
        assert Database(tmp_path / "a").get("t", "k") == 1


class TestHousekeeping:
    def test_table_names_merges_disk_and_memory(self, tmp_path):
        db = Database(tmp_path / "db")
        db.put("mem-only", "k", 1)
        db.checkpoint()
        again = Database(tmp_path / "db")
        again.put("fresh", "k", 1)
        assert again.table_names() == ["fresh", "mem-only"]

    def test_is_empty(self, tmp_path):
        db = Database(tmp_path / "db")
        assert db.is_empty()
        db.put("t", "k", 1)
        assert not db.is_empty()

    def test_items_sorted(self, db):
        db.put("t", "b", 2)
        db.put("t", "a", 1)
        assert db.items("t") == [("a", 1), ("b", 2)]

    def test_concurrent_puts_all_land(self, tmp_path):
        db = Database(tmp_path / "db")

        def worker(n):
            for i in range(50):
                db.put("t", f"k{n}-{i}", n * 1000 + i)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(db.items("t")) == 400
        db.checkpoint()
        assert len(Database(tmp_path / "db").items("t")) == 400

    def test_dumps_round_trips_through_file(self, db):
        value = (SimpleDate(1999, 12, 31), PersonName("O\"Hara", "Scarlett"))
        db.put("t", "k", value)
        assert dumps(db.get("t", "k")) == dumps(value)
        assert not is_uninitialized(db.get("t", "k"))


class TestTableLockStress:
    """More threads than cores share one table, switching as often as the
    interpreter allows, while one thread reads and another checkpoints: an
    update lost by ``put_indexed``'s read-modify-write leaves a slot unset."""

    ROUNDS = 500

    def test_no_write_is_lost_and_a_reopen_reads_memory(self, tmp_path):
        slots = (os.cpu_count() or 1) + 2  # one writer thread per slot
        putters = 2
        db = Database(tmp_path / "db")
        stop = threading.Event()
        errors = []
        start = threading.Barrier(slots + putters + 2, timeout=30)
        in_step = threading.Barrier(slots, timeout=30)

        def run(body):
            def target():
                try:
                    start.wait()
                    body()
                except BaseException as e:  # reported by the assertion below
                    errors.append(e)
            return threading.Thread(target=target, daemon=True)

        def fill_slot(slot):  # in each round every slot writer writes the same key
            for r in range(self.ROUNDS):
                in_step.wait()
                for _ in range(10):
                    db.put_indexed("t", f"s{r}", slot, slot * 1000 + r, slots)

        def put_keys(n):
            for r in range(self.ROUNDS):
                db.put("t", f"p{n}-{r}", r)

        def read():
            while not stop.is_set():
                db.get("t", "s0")
                db.contains_key("t", "p0-0")

        def checkpoint():
            while not stop.is_set():
                db.checkpoint()

        writers = ([run(lambda s=s: fill_slot(s)) for s in range(1, slots + 1)]
                   + [run(lambda n=n: put_keys(n)) for n in range(putters)])
        others = [run(read), run(checkpoint)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers + others:
                t.start()
            for t in writers:
                t.join(timeout=60)
            stop.set()
            for t in others:
                t.join(timeout=60)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + others)
        assert errors == []
        expected = {f"s{r}": tuple(s * 1000 + r for s in range(1, slots + 1))
                    for r in range(self.ROUNDS)}
        expected.update((f"p{n}-{r}", r) for n in range(putters) for r in range(self.ROUNDS))
        assert dict(db.items("t")) == expected
        db.checkpoint()
        assert Database(tmp_path / "db").items("t") == db.items("t")


class TestCommitRace:
    """Threads commit to one table while another parses its live file: commits
    to one database take turns and each writer writes its own temp file, so
    every commit succeeds, every read finds a whole table, and a reopen reads
    what was committed last."""

    KEYS = 3000
    ROUNDS = 30

    def _base(self, root) -> dict:
        base = {f"k{i:05d}": f"value {i}" for i in range(self.KEYS)}
        Database(root).restore_text(store._render_table("t", base))
        return base

    def _race(self, root, base: dict, bodies):
        """Run each of ``bodies`` in a thread, switching as often as the
        interpreter allows, while one more parses ``root``'s ``t.tbl``."""
        path = root / "t.tbl"
        errors, torn = [], []
        stop = threading.Event()
        start = threading.Barrier(len(bodies) + 1, timeout=30)

        def run(body):
            def target():
                try:
                    start.wait()
                    body()
                except BaseException as e:  # reported by the assertion below
                    errors.append(e)
            return threading.Thread(target=target, daemon=True)

        def read():
            while not stop.is_set():
                try:
                    entries = store._parse_tables(store.read_text(path), path.name)["t"]
                except Exception as e:
                    torn.append(repr(e))
                    continue
                if not base.keys() <= entries.keys():
                    torn.append(f"{len(entries)} entries")

        writers = [run(body) for body in bodies]
        reader = run(read)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers + [reader]:
                t.start()
            for t in writers:
                t.join(timeout=60)
        finally:
            stop.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + [reader])
        assert errors == [] and torn == []
        assert [p.name for p in root.iterdir() if ".tmp." in p.name] == []

    def _commit(self, db, n):
        for r in range(self.ROUNDS):
            db.put("t", f"c{n}-{r}", r)
            db.checkpoint()

    def test_commits_and_restores_keep_the_file_whole(self, tmp_path):
        root = tmp_path / "db"
        base = self._base(root)
        db = Database(root)
        dump = db.dump_text()

        def restore():
            for _ in range(self.ROUNDS // 3):
                db.restore_text(dump)

        self._race(root, base, [lambda: self._commit(db, 0), lambda: self._commit(db, 1),
                                restore])
        assert Database(root).items("t") == db.items("t")

    def test_a_restore_waits_for_the_checkpoint_it_overlaps(self, tmp_path, monkeypatch):
        # the checkpoint pauses inside its write, holding the commit; gets do
        # not wait for it, the restore does, so the restore's file is the last
        root = tmp_path / "db"
        base = self._base(root)
        dump = Database(root).dump_text()
        db = Database(root)
        db.put("t", "c", 1)
        writing, resume, restored = threading.Event(), threading.Event(), threading.Event()
        real_write, got = db._write_file, []

        def paused_write(filename, text):
            if not writing.is_set():
                writing.set()
                resume.wait(timeout=30)
            real_write(filename, text)

        def restore():
            db.restore_text(dump)
            restored.set()

        monkeypatch.setattr(db, "_write_file", paused_write)
        threads = [threading.Thread(target=db.checkpoint, daemon=True)]
        threads[0].start()
        try:
            assert writing.wait(timeout=30)
            threads += [threading.Thread(target=restore, daemon=True),
                        threading.Thread(target=lambda: got.append(db.get("t", "c")), daemon=True)]
            threads[1].start()
            threads[2].start()
            threads[2].join(timeout=30)
            assert not restored.wait(timeout=0.5)
        finally:
            resume.set()
            for t in threads:
                t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert got == [1] and restored.is_set()
        assert Database(root).items("t") == db.items("t") == sorted(base.items())

    def test_two_databases_on_one_root_write_whole_files(self, tmp_path):
        # two databases share no commit lock, only the rule that each writer
        # has its own temp file
        root = tmp_path / "db"
        base = self._base(root)
        dbs = [Database(root), Database(root)]
        self._race(root, base, [lambda: self._commit(dbs[0], 0),
                                lambda: self._commit(dbs[1], 1)])
        assert Database(root).items("t") in (dbs[0].items("t"), dbs[1].items("t"))


class TestSlotOneStress:
    """Writes of slot 1 by ``put`` and of other slots by ``put_indexed`` race on
    keys that start as a stored single value: ``put_indexed`` makes that value
    slot 1 in the same critical section that writes its own slot, so neither
    write can be lost."""

    ROUNDS = 5000
    BOUND = 4  # one writer thread per slot

    def test_no_write_is_lost(self, tmp_path):
        db = Database(tmp_path / "db")
        for r in range(self.ROUNDS):
            db.put("t", f"s{r}", "old")
        errors = []
        in_step = threading.Barrier(self.BOUND, timeout=30)

        def write(slot):
            try:
                for r in range(self.ROUNDS):
                    in_step.wait()
                    if slot == 1:
                        db.put("t", f"s{r}", f"new{r}")
                    else:
                        db.put_indexed("t", f"s{r}", slot, slot * 1000 + r, self.BOUND)
            except BaseException as e:  # reported by the assertion below
                errors.append(e)

        writers = [threading.Thread(target=write, args=(slot,), daemon=True)
                   for slot in range(1, self.BOUND + 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in writers:
                t.start()
            for t in writers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers)
        assert errors == []
        assert dict(db.items("t")) == {
            f"s{r}": (f"new{r}",) + tuple(s * 1000 + r for s in range(2, self.BOUND + 1))
            for r in range(self.ROUNDS)}
        db.checkpoint()
        assert Database(tmp_path / "db").items("t") == db.items("t")
