"""End-to-end command-line behavior, one subprocess per invocation unless noted."""

import contextlib
import copy
import fcntl
import io
import json
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from widgetspace import (Database, LocaleTree, SchemaError, WidgetCoord, WidgetRegistry, cli,
                         fixture_paths)

from conftest import SRC, run_cli

ALL_FIXTURES = [str(p) for p in fixture_paths()]

# RLIMIT_FSIZE for the commands that must fail part-way, as on a full disk
FULL_DISK = 1024


def temp_files(root: Path) -> list[str]:
    return sorted(p.name for p in root.rglob("*") if ".tmp" in p.name)


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """A workspace compiled once from all bundled schema files."""
    root = tmp_path_factory.mktemp("ws")
    path = root / "widgetspace.ws"
    code, out, err = run_cli(
        ["schema", "load", *ALL_FIXTURES, "--workspace", str(path)], cwd=root)
    assert code == 0, err
    return path


def ws_args(ws):
    return ["--workspace", str(ws)]


# a validator argument longer than the least integer conversion limit (640)
LONG_ARGUMENT = "9" * 2000
LONG_ARGUMENT_SCHEMA = (
    "(locale a :parent none)\n"
    f"(widget w a :table t :input ((m identity (length {LONG_ARGUMENT} 5))))\n")


class TestSchemaLoad:
    def test_report_two_files(self, tmp_path):
        code, out, err = run_cli(
            ["schema", "load", *ALL_FIXTURES[:2],
             "--workspace", str(tmp_path / "w.ws")], cwd=tmp_path)
        assert code == 0
        assert out == "locales: 8, widgets: 13\n"

    def test_report_all_files(self, tmp_path):
        code, out, _ = run_cli(
            ["schema", "load", *ALL_FIXTURES,
             "--workspace", str(tmp_path / "w.ws")], cwd=tmp_path)
        assert code == 0
        assert out == "locales: 8, widgets: 17\n"

    def test_workspace_file_layout(self, ws):
        data = json.loads(ws.read_text())
        assert data["version"] == 1
        assert data["summary"] == {"locales": 8, "widgets": 17}
        assert {pair[0] for pair in data["state"]["locales"]} >= {
            "common", "arkansas", "wisconsin"}

    def test_check_only_writes_nothing(self, tmp_path):
        target = tmp_path / "w.ws"
        code, out, _ = run_cli(
            ["schema", "load", *ALL_FIXTURES, "--check-only",
             "--workspace", str(target)], cwd=tmp_path)
        assert code == 0
        assert "widgets: 17" in out
        assert not target.exists()

    def test_schema_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.scm"
        bad.write_text("(locale x :parent ghost)\n")
        code, out, err = run_cli(
            ["schema", "load", str(bad), "--workspace", str(tmp_path / "w.ws")],
            cwd=tmp_path)
        assert code == 2
        assert err.startswith("error: ")
        assert "ghost" in err

    @pytest.mark.parametrize("action", [["load", "--check-only"], ["lint"]])
    def test_invalid_utf8_exit_2(self, tmp_path, action):
        bad = tmp_path / "bad.scm"
        bad.write_bytes(b"(locale root :parent none)\r\n(wid\xff)\n")
        code, out, err = run_cli(["schema", action[0], str(bad), *action[1:]], cwd=tmp_path)
        assert (code, out) == (2, "")
        # byte 32 is the 5th character of the second line
        assert err == f"error: {bad}:2:5: invalid UTF-8: invalid start byte\n"

    def test_too_deeply_nested_forms_exit_2(self, tmp_path):
        bad = tmp_path / "deep.scm"
        bad.write_text("(" * 5000)
        code, out, err = run_cli(["schema", "lint", str(bad)], cwd=tmp_path)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:1:101: forms nested deeper than 100\n"

    def test_too_deeply_nested_validator_exit_2(self, tmp_path):
        bad = tmp_path / "deep.scm"
        vexpr = "(and " * 3000 + "numeric" + ")" * 3000
        bad.write_text("(locale root :parent none)\n(widget w root :table t\n"
                       f"  :input ((m identity {vexpr})))\n")
        code, out, err = run_cli(["schema", "lint", str(bad)], cwd=tmp_path)
        assert (code, out) == (2, "")
        # the widget form, the :input list and its entry hold 97 levels of '(and'
        col = len("  :input ((m identity ") + 5 * 97 + 1
        assert err == f"error: {bad}:3:{col}: forms nested deeper than 100\n"

    def test_integer_literal_too_long_exit_2(self, tmp_path):
        bad = tmp_path / "long.scm"
        bad.write_text("(locale a :parent none)\n(widget x a :index " + "9" * 5000 + ")\n")
        code, out, err = run_cli(["schema", "lint", str(bad)], cwd=tmp_path)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}:2:20: integer literal longer than 4300 digits\n"

    def test_index_bound_too_large_exit_2(self, tmp_path):
        bad = tmp_path / "wide.scm"
        bad.write_text("(locale a :parent none)\n(widget w a :table t :index 10000000000000)\n")
        code, out, err = run_cli(["schema", "load", str(bad), "--workspace",
                                  str(tmp_path / "w.ws")], cwd=tmp_path)
        assert (code, out) == (2, "")
        assert err == (f"error: {bad}:2:29: max_index must be at most 10000,"
                       " got 10000000000000\n")
        assert not (tmp_path / "w.ws").exists()

    def test_missing_file_exit_3(self, tmp_path):
        code, _, err = run_cli(
            ["schema", "load", str(tmp_path / "absent.scm"),
             "--workspace", str(tmp_path / "w.ws")], cwd=tmp_path)
        assert code == 3
        assert err.startswith("error: ")

    def test_failed_load_keeps_workspace(self, tmp_path):
        target = tmp_path / "w.ws"
        code, _, err = run_cli(["schema", "load", *ALL_FIXTURES, "--workspace", str(target)],
                               cwd=tmp_path)
        assert code == 0, err
        before = target.read_bytes()
        code, _, err = run_cli(["schema", "load", ALL_FIXTURES[0], "--workspace", str(target)],
                               cwd=tmp_path, fsize_limit=FULL_DISK)
        assert code == 3, err
        assert target.read_bytes() == before
        assert temp_files(tmp_path) == []

    def test_failed_write_prints_no_report(self, tmp_path):
        target = tmp_path / "w.ws"
        target.mkdir()  # a directory: the workspace cannot be written there
        code, out, err = run_cli(["schema", "load", *ALL_FIXTURES, "--workspace", str(target)],
                                 cwd=tmp_path)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert list(target.iterdir()) == []

    def test_long_integer_under_a_lowered_interpreter_limit(self, tmp_path):
        (tmp_path / "big.scm").write_text(LONG_ARGUMENT_SCHEMA)
        written = []
        for limit in ("0", "1000"):  # no limit, then one below the argument's length
            target = tmp_path / f"w{limit}.ws"
            code, out, err = run_cli(["schema", "load", "big.scm", "--workspace", str(target)],
                                     cwd=tmp_path, env_extra={"PYTHONINTMAXSTRDIGITS": limit})
            assert (code, out, err) == (0, "locales: 1, widgets: 1\n", "")
            written.append(target.read_bytes())
        assert written[0] == written[1]
        assert LONG_ARGUMENT.encode() in written[0]

    def test_lint_reports_warnings_without_writing(self, tmp_path):
        src = tmp_path / "s.scm"
        src.write_text("(locale root :parent none)\n"
                       "(widget floating root :output ((default identity)))\n")
        code, out, _ = run_cli(["schema", "lint", str(src)], cwd=tmp_path)
        assert code == 0
        assert "locales: 1, widgets: 1" in out
        assert "warning:" in out
        assert not (tmp_path / "widgetspace.ws").exists()


class TestLocales:
    def test_flat_sorted(self, ws, tmp_path):
        code, out, _ = run_cli(["locales", *ws_args(ws)], cwd=tmp_path)
        assert code == 0
        assert out.splitlines() == sorted([
            "common", "united-states", "colorado", "park-county-co",
            "minnesota", "ramsey-county-mn", "arkansas", "wisconsin"])

    def test_tree_indentation(self, ws, tmp_path):
        code, out, _ = run_cli(["locales", "--tree", *ws_args(ws)], cwd=tmp_path)
        assert code == 0
        assert out == ("common\n"
                       "  united-states\n"
                       "    colorado\n"
                       "      park-county-co\n"
                       "    minnesota\n"
                       "      ramsey-county-mn\n"
                       "    arkansas\n"
                       "    wisconsin\n")

    def test_tree_of_a_chain_deeper_than_the_recursion_limit(self, tmp_path):
        depth = 1500
        schema = tmp_path / "chain.scm"
        schema.write_text("(locale l0 :parent none)\n" + "".join(
            f"(locale l{i} :parent l{i - 1})\n" for i in range(1, depth)))
        ws = tmp_path / "w.ws"
        code, _, err = run_cli(["schema", "load", str(schema), *ws_args(ws)], cwd=tmp_path)
        assert code == 0, err
        code, out, err = run_cli(["locales", "--tree", *ws_args(ws)], cwd=tmp_path)
        assert (code, err) == (0, "")
        assert out == "".join(f"{'  ' * i}l{i}\n" for i in range(depth))

    def test_without_workspace_exit_2(self, tmp_path):
        code, _, err = run_cli(
            ["locales", "--workspace", str(tmp_path / "none.ws")], cwd=tmp_path)
        assert code == 2
        assert "schema load" in err

    def test_corrupt_workspace_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ws"
        bad.write_text("{not json")
        code, _, err = run_cli(["locales", "--workspace", str(bad)], cwd=tmp_path)
        assert code == 2
        assert "unreadable" in err

    def test_long_integer_read_under_a_lowered_interpreter_limit(self, tmp_path):
        (tmp_path / "big.scm").write_text(LONG_ARGUMENT_SCHEMA)
        ws = tmp_path / "w.ws"
        code, _, err = run_cli(["schema", "load", "big.scm", *ws_args(ws)], cwd=tmp_path,
                               env_extra={"PYTHONINTMAXSTRDIGITS": "0"})
        assert code == 0, err
        lowered = {"PYTHONINTMAXSTRDIGITS": "1000"}
        code, out, err = run_cli(["locales", *ws_args(ws)], cwd=tmp_path, env_extra=lowered)
        assert (code, out, err) == (0, "a\n", "")
        code, out, err = run_cli(["set", *ws_args(ws), "--db", str(tmp_path / "db"),
                                  "--locale", "a", "--field", "w", "--medium", "m", "x"],
                                 cwd=tmp_path, env_extra=lowered)
        assert (code, out) == (1, "")
        assert err == f"Length must be larger than {LONG_ARGUMENT}\n"

    def test_workspace_integer_too_long_exit_2(self, tmp_path):
        bad = tmp_path / "long.ws"
        bad.write_text('{"version": 1, "state": {"locales": [], "widgets": [%s]}}' % ("9" * 5000))
        code, out, err = run_cli(["locales", "--workspace", str(bad)], cwd=tmp_path)
        assert (code, out) == (2, "")
        assert err == (f"error: workspace '{bad}' is unreadable:"
                       " integer literal longer than 4300 digits\n")

    def test_too_deeply_nested_workspace_exit_2(self, tmp_path):
        bad = tmp_path / "deep.ws"
        bad.write_text("[" * 100_000)
        code, out, err = run_cli(
            ["get", "--workspace", str(bad), "--db", str(tmp_path / "db"),
             "--locale", "root", "--field", "f", "--medium", "m"], cwd=tmp_path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: workspace '{bad}' is unreadable: maximum recursion")
        assert err.count("\n") == 1

    def test_malformed_locale_pair_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ws"
        bad.write_text(json.dumps(
            {"version": 1, "state": {"locales": [["a"]], "widgets": []}}))
        code, _, err = run_cli(["locales", "--workspace", str(bad)], cwd=tmp_path)
        assert code == 2
        assert "malformed registry state" in err
        assert "Traceback" not in err

    def test_double_colon_locale_in_workspace_reads_as_the_locale(self, tmp_path):
        # every leading ':' is dropped, so '::X' names the locale 'x'
        ws = tmp_path / "colons.ws"
        ws.write_text(json.dumps({"version": 1, "state": {
            "locales": [["root", None], ["::X", "::root"]], "widgets": []}}))
        for args, shown in ((["locales"], "root\nx\n"), (["locales", "--tree"], "root\n  x\n")):
            code, out, err = run_cli([*args, "--workspace", str(ws)], cwd=tmp_path)
            assert (code, out, err) == (0, shown, "")

    def test_wrong_version_exit_2(self, tmp_path):
        bad = tmp_path / "bad.ws"
        bad.write_text(json.dumps({"version": 99, "state": {}}))
        code, _, err = run_cli(["locales", "--workspace", str(bad)], cwd=tmp_path)
        assert code == 2
        assert "unsupported" in err


class TestWorkspaceCodec:
    """In process: the workspace JSON reader and writer around the
    interpreter's integer conversion limit."""

    def test_written_by_an_interpreter_without_the_limit(self, monkeypatch):
        for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
            monkeypatch.delattr(sys, name, raising=False)
        payload = {"version": 1, "state": {"widgets": [{"max_index": 12}]}}
        assert cli._workspace_json(payload) == json.dumps(payload, indent=1)

    def test_integers_take_the_fast_path_unless_one_is_past_the_limit(self, monkeypatch):
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("the interpreter has no integer conversion limit")
        read = []
        read_int = cli.read_int
        monkeypatch.setattr(cli, "read_int", lambda text, i: read.append(text) or read_int(text, i))
        assert cli._workspace_data('{"a": [1, 22]}') == {"a": [1, 22]}
        assert read == []
        long = int(LONG_ARGUMENT)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(1000)
        try:
            assert cli._workspace_data('{"a": [1, %s]}' % LONG_ARGUMENT) == {"a": [1, long]}
            assert read == ["1", LONG_ARGUMENT]
            with pytest.raises(json.JSONDecodeError):
                cli._workspace_data('{"a": [1, 22')
            assert read == ["1", LONG_ARGUMENT]
        finally:
            sys.set_int_max_str_digits(limit)


def _fixture_workspace() -> dict:
    registry = WidgetRegistry()
    registry.load_schema_files(fixture_paths())
    return {"version": 1, "state": registry.export_state()}


FIXTURE_WORKSPACE = _fixture_workspace()


def _paths(value, path=()):
    """The path of ``value`` and of every value inside it, outermost first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, path + (i,))


def _replaced(data, path, value):
    if not path:
        return value
    data = copy.deepcopy(data)
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return data


def _locales_in_process(data) -> tuple[int, str]:
    """``widgetspace locales`` run in this process on a workspace holding ``data``."""
    with tempfile.TemporaryDirectory() as root:
        path = Path(root) / "w.ws"
        path.write_text(json.dumps(data), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["locales", "--workspace", str(path)])
    return code, err.getvalue()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children, max_size=3)),
    max_leaves=6)


class TestMalformedWorkspace:
    """A workspace changed by hand exits 0 or 2, never with a traceback.

    These run ``cli.main`` in this process, so that hypothesis can try
    many workspaces quickly.
    """

    @pytest.mark.parametrize("part,value", [
        ("table", 7), ("name", 5), ("outputs", {"m": 3}), ("inputs", {"m": ["identity"]}),
        ("datatype", 3), ("inputs", {"m": ["identity", ["base", 5, []]]}),
        ("max_index", True), ("doc", 5), ("headings", {"m": 3}),
        ("inputs", {"m": ["identity", ["base", "length", [None, 2]]]}),
        ("inputs", {"m": ["identity", {"base": "numeric"}]}),
        ("getter", ["x"]), ("locale", 1), ("outputs", ["m", "identity"]),
        ("locale", "a\nb"), ("name", "x\ny"),
    ])
    def test_bad_widget_part_exit_2(self, part, value):
        data = _replaced(FIXTURE_WORKSPACE, ("state", "widgets", 0, part), value)
        code, err = _locales_in_process(data)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err
        registry = WidgetRegistry()
        with pytest.raises(SchemaError):
            registry.import_state(data["state"])
        assert registry.export_state() == {"locales": [], "widgets": []}

    def test_bad_table_through_the_cli(self, tmp_path):
        path = tmp_path / "w.ws"
        path.write_text(json.dumps(
            _replaced(FIXTURE_WORKSPACE, ("state", "widgets", 0, "table"), "t.x")))
        code, _, err = run_cli(["locales", "--workspace", str(path)], cwd=tmp_path)
        assert code == 2
        assert err == "error: invalid table name 't.x'\n"

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_paths(FIXTURE_WORKSPACE))), value=json_values)
    def test_any_one_value_replaced(self, path, value):
        code, err = _locales_in_process(_replaced(FIXTURE_WORKSPACE, path, value))
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err


DROP = object()  # stands for a key removed from the workspace


def _edited_workspace(path, value) -> dict:
    """``FIXTURE_WORKSPACE`` with the value at ``path`` replaced, or removed for DROP."""
    if value is not DROP:
        return _replaced(FIXTURE_WORKSPACE, path, value)
    data = copy.deepcopy(FIXTURE_WORKSPACE)
    parent = data
    for step in path[:-1]:
        parent = parent[step]
    del parent[path[-1]]
    return data


WIDGET = ("state", "widgets", 0)  # dob at common, the first widget the import reads


class TestMalformedWorkspaceFirstError:
    """The first fault of a malformed workspace, as ``get`` reports it."""

    @pytest.mark.parametrize("path,value,message", [
        (WIDGET + ("name",), DROP, "malformed widget spec: 'name'"),
        (WIDGET + ("name",), 5, "invalid widget name '5'"),
        (WIDGET + ("locale",), "::X", "unknown locale 'x'"),
        (WIDGET + ("inputs",), [["m", ["identity", ["base", "required", []]]]],
         "malformed widget spec: 'list' object has no attribute 'items'"),
        (WIDGET + ("outputs",), {"default": 7}, "unknown formatter '7'"),
        (WIDGET + ("inputs",), {"m": ["nope", ["base", "required", []]]},
         "unknown parser 'nope'"),
        (WIDGET + ("inputs",), {"m": ["identity", ["base", "nope", []]]},
         "unknown validator 'nope'"),
        (WIDGET + ("inputs",), {"m": ["identity", ["base", "length", [1]]]},
         "validator 'length' takes 2 arguments, got 1"),
        (WIDGET + ("inputs",), {"m": ["identity", ["xor", []]]},
         "malformed validator expression: ['xor', []]"),
        (WIDGET + ("max_index",), True, "max_index must be an integer, got True"),
        (("state", "locales"), 7, "malformed registry state: 'int' object is not iterable"),
        (("state", "locales"), [["a", "b", "c"]],
         "malformed registry state: too many values to unpack (expected 2)"),
    ])
    def test_get_exit_2(self, tmp_path, path, value, message):
        workspace = tmp_path / "w.ws"
        workspace.write_text(json.dumps(_edited_workspace(path, value)))
        code, out, err = run_cli(
            ["get", "--workspace", str(workspace), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_outputs_as_pairs_read_as_a_map(self, tmp_path):
        # a JSON array of pairs is accepted where an object is written
        workspace = tmp_path / "w.ws"
        workspace.write_text(json.dumps(_edited_workspace(
            WIDGET + ("outputs",), [["default", "format-date-card"]])))
        code, out, err = run_cli(
            ["get", "--workspace", str(workspace), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, out, err) == (0, "#uninit\n", "")


# Prints whether the schema-text reader was imported by one command run in
# a fresh interpreter.
READER_IMPORTED = ("import sys\n"
                   "from widgetspace import cli\n"
                   "code = cli.main(sys.argv[1:])\n"
                   "print(code, 'widgetspace.schematext' in sys.modules)\n")


class TestImportBoundary:
    """Only a command that reads schema text loads the schema-text reader."""

    def _run(self, args, cwd) -> str:
        proc = subprocess.run([sys.executable, "-c", READER_IMPORTED, *args], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_get_set_and_show_do_not_import_it(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db"), "--locale", "arkansas"]
        field = ["--field", "sid", "--medium", "ls1100-entry"]
        assert self._run(["set", *ws_args(ws), *db, *field, "ab12cd"], tmp_path) == "0 False"
        assert self._run(["get", *ws_args(ws), *db, *field], tmp_path) == "0 False"
        assert self._run(["show", *ws_args(ws), *db, "--medium", "ls1100-entry"],
                         tmp_path) == "0 False"

    def test_schema_load_imports_it(self, tmp_path):
        assert self._run(["schema", "load", *ALL_FIXTURES, "--workspace",
                          str(tmp_path / "w.ws")], tmp_path) == "0 True"


class TestSetGet:
    def test_set_prints_stored_datum(self, ws, tmp_path):
        code, out, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "dob",
             "--medium", "ls1100-entry", "20100704"], cwd=tmp_path)
        assert (code, err) == (0, "")
        assert out == "(date 2010 7 4)\n"

    def test_get_prints_formatted_text(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "dob", "--medium", "ls1100-entry", "20100704"],
                cwd=tmp_path)
        code, out, _ = run_cli(
            ["get", *ws_args(ws), *db, "--locale", "arkansas",
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert code == 0
        assert out == "7/4/2010\n"

    def test_get_from_invalid_utf8_table_exit_3(self, ws, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "demographics.tbl").write_bytes(b"(table demographics)\n(dob \"\xff\")\n")
        code, out, err = run_cli(
            ["get", *ws_args(ws), "--db", str(root), "--locale", "arkansas",
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, out) == (3, "")
        assert err == "error: demographics.tbl: invalid UTF-8: invalid start byte (byte 27)\n"

    def test_get_from_too_deeply_nested_table_exit_3(self, ws, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "demographics.tbl").write_text(
            "(table demographics)\n(dob " + "[" * 5000 + "]" * 5000 + ")\n")
        code, out, err = run_cli(
            ["get", *ws_args(ws), "--db", str(root), "--locale", "arkansas",
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, out) == (3, "")
        # the pair line starts at byte 21 and its 101st '[' at byte 126
        assert err == ("error: demographics.tbl: sequences nested deeper than 100 "
                       "(byte 126)\n")

    def test_get_unset_prints_marker(self, ws, tmp_path):
        code, out, _ = run_cli(
            ["get", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "dob",
             "--medium", "ar-arrest"], cwd=tmp_path)
        assert code == 0
        assert out == "#uninit\n"

    def test_validation_failure_exit_1_verbatim_message(self, ws, tmp_path):
        code, out, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "sid",
             "--medium", "ls1100-entry", "ab!12"], cwd=tmp_path)
        assert code == 1
        assert out == ""
        assert err == "The character '!' is not alphanumeric\n"

    @pytest.mark.parametrize("value,shown", [("ab\x1b[31mX", "\\x1b"), ("ab\ncd", "\\n")])
    def test_unprintable_validation_message_is_escaped(self, ws, tmp_path, value, shown):
        code, out, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "sid",
             "--medium", "ls1100-entry", value], cwd=tmp_path)
        assert (code, out) == (1, "")
        assert err == f"The character '{shown}' is not alphanumeric\n"

    def test_no_parser_exit_2(self, ws, tmp_path):
        code, _, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "sid",
             "--medium", "transmission", "ab12cd"], cwd=tmp_path)
        assert code == 2
        assert err == "error: No formatter/parser specified.\n"

    def test_no_formatter_exit_2(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        run_cli(["set", *ws_args(ws), *db, "--locale", "wisconsin",
                 "--field", "name-last", "--medium", "ls1100-entry", "Doe"],
                cwd=tmp_path)
        code, _, err = run_cli(
            ["get", *ws_args(ws), *db, "--locale", "minnesota",
             "--field", "sid", "--medium", "transmission"], cwd=tmp_path)
        assert code == 2
        assert err == "error: No storage specified.\n"

    def test_indexed_field_syntax(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        code, out, _ = run_cli(
            ["set", *ws_args(ws), *db, "--locale", "arkansas",
             "--field", "alias.2", "--medium", "transmission", "Smith"],
            cwd=tmp_path)
        assert code == 0
        assert out == '"Smith"\n'
        code, out, _ = run_cli(
            ["get", *ws_args(ws), *db, "--locale", "arkansas",
             "--field", "alias.2", "--medium", "transmission"], cwd=tmp_path)
        assert (code, out) == (0, "Smith\n")
        code, out, _ = run_cli(
            ["get", *ws_args(ws), *db, "--locale", "arkansas",
             "--field", "alias.1", "--medium", "transmission"], cwd=tmp_path)
        assert (code, out) == (0, "#uninit\n")

    def test_index_out_of_range_exit_2(self, ws, tmp_path):
        code, _, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "alias.3",
             "--medium", "transmission", "X"], cwd=tmp_path)
        assert code == 2
        assert "out of range" in err

    @pytest.mark.parametrize("field", ["alias.x", "alias.\u0663", "alias.\u00b2"])
    def test_bad_field_index_exit_4(self, ws, tmp_path, field):
        code, _, err = run_cli(
            ["get", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", field,
             "--medium", "transmission"], cwd=tmp_path)
        assert code == 4
        assert err.endswith("error: argument --field: field index must be a positive "
                            f"integer, got {field!r}\n")

    @pytest.mark.parametrize("locale,shown", [
        ("ark\nansas", "ark\\nansas"), ("\x1b[31m", "\\x1b[31m"),
    ])
    def test_unprintable_locale_is_escaped(self, ws, tmp_path, locale, shown):
        code, _, err = run_cli(
            ["get", *ws_args(ws), "--db", str(tmp_path / "db"), "--locale", locale,
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, err) == (2, f"error: unknown locale '{shown}'\n")

    def test_failed_set_persists_nothing(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "sid", "--medium", "ls1100-entry", "bad!"],
                cwd=tmp_path)
        assert list((tmp_path / "db").glob("*.tbl")) == []

    def test_unstorable_text_exit_1_without_traceback(self, tmp_path):
        schema = tmp_path / "notes.scm"
        schema.write_text("(locale root :parent none)\n"
                          "(widget note root :table notes\n"
                          "  :input ((default identity always-ok))\n"
                          "  :output ((default identity)))\n")
        ws = tmp_path / "w.ws"
        run_cli(["schema", "load", str(schema), "--workspace", str(ws)], cwd=tmp_path)
        code, out, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"), "--locale", "root",
             "--field", "note", "--medium", "m", "a\tb"], cwd=tmp_path)
        assert (code, out) == (1, "")
        assert err == "control character '\\t' is not storable text\n"
        assert list((tmp_path / "db").glob("*.tbl")) == []


class TestEnvDefaults:
    def test_env_vars_replace_flags(self, ws, tmp_path):
        env = {"WIDGETSPACE_DB": str(tmp_path / "db"),
               "WIDGETSPACE_WORKSPACE": str(ws)}
        code, out, _ = run_cli(
            ["set", "--locale", "arkansas", "--field", "sid",
             "--medium", "ls1100-entry", "ab12cd"], cwd=tmp_path, env_extra=env)
        assert (code, out) == (0, '"ab12cd"\n')
        code, out, _ = run_cli(
            ["get", "--locale", "arkansas", "--field", "sid",
             "--medium", "ls1100-entry"], cwd=tmp_path, env_extra=env)
        assert (code, out) == (0, "AB12CD\n")

    def test_missing_db_exit_4(self, ws, tmp_path):
        code, _, err = run_cli(
            ["get", *ws_args(ws), "--locale", "arkansas",
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path,
            env_extra={"WIDGETSPACE_DB": ""})
        assert code == 4
        assert "error: no database directory" in err


class TestUsageErrors:
    def test_unknown_command(self, tmp_path):
        code, _, err = run_cli(["frobnicate"], cwd=tmp_path)
        assert code == 4

    def test_missing_required_flag(self, ws, tmp_path):
        code, _, _ = run_cli(
            ["get", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--field", "dob", "--medium", "x"], cwd=tmp_path)
        assert code == 4

    def test_no_arguments(self, tmp_path):
        code, _, _ = run_cli([], cwd=tmp_path)
        assert code == 4


class TestLocking:
    def test_held_lock_exit_3(self, ws, tmp_path):
        db_dir = tmp_path / "db"
        db_dir.mkdir()
        fd = os.open(db_dir, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            code, _, err = run_cli(
                ["get", *ws_args(ws), "--db", str(db_dir), "--locale", "arkansas",
                 "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        finally:
            os.close(fd)
        assert code == 3
        assert "in use" in err

    def test_killed_holder_leaves_no_lock(self, ws, tmp_path):
        db_dir = tmp_path / "db"
        holder = ("import argparse, os, signal\n"
                  "from widgetspace import cli\n"
                  f"with cli._locked_db(argparse.Namespace(db={str(db_dir)!r})):\n"
                  "    os.kill(os.getpid(), signal.SIGKILL)\n")
        proc = subprocess.run([sys.executable, "-c", holder], timeout=60,
                              env={**os.environ, "PYTHONPATH": str(SRC)})
        assert proc.returncode == -9
        code, out, err = run_cli(
            ["get", *ws_args(ws), "--db", str(db_dir), "--locale", "arkansas",
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, out) == (0, "#uninit\n"), err

    def test_lock_released_after_run(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        for _ in range(2):
            code, _, err = run_cli(
                ["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "sid", "--medium", "ls1100-entry", "ab12cd"],
                cwd=tmp_path)
            assert code == 0, err
        assert not (tmp_path / "db" / "lock").exists()

    def test_lock_released_after_failure(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "sid", "--medium", "ls1100-entry", "bad!"],
                cwd=tmp_path)
        assert not (tmp_path / "db" / "lock").exists()


class TestShow:
    def test_renders_visible_widgets(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "dob", "--medium", "ls1100-entry", "20100704"],
                cwd=tmp_path)
        run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "name-last", "--medium", "ls1100-entry", "Doe"],
                cwd=tmp_path)
        code, out, _ = run_cli(
            ["show", *ws_args(ws), *db, "--locale", "arkansas",
             "--medium", "transmission"], cwd=tmp_path)
        assert code == 0
        lines = out.splitlines()
        assert "Date of Birth: 20100704" in lines
        assert "Last Name: Doe" in lines
        assert "Alias.1: #uninit" in lines
        assert "Alias.2: #uninit" in lines
        assert "Name: Doe," in lines
        assert "State ID Number: #uninit" in lines

    # the whole of stdout, after the three sets below, for each (locale, medium)
    GOLDEN = {
        ("arkansas", "transmission"): (
            "Alias.1: #uninit\nAlias.2: Smith\nDate of Birth: 20100704\n"
            "First Name: #uninit\nLast Name: Doe\nMiddle Name: #uninit\n"
            "Suffix: #uninit\nState ID Number: #uninit\nName: Doe,\n"),
        ("arkansas", "ar-arrest"): (
            "Alias.1: #uninit\nAlias.2: Smith\nDate of Birth: 7/4/2010\n"
            "First Name: #uninit\nLast Name: Doe\nMiddle Name: #uninit\n"
            "Suffix: #uninit\nState ID Number: #uninit\nName: , , Doe\n"),
        ("wisconsin", "ls1100-entry"): (
            "Alias.1: #uninit\nAlias.2: Smith\nDate of Birth: 20100704\n"
            "First Name: #uninit\nLast Name: Doe\nMiddle Name: #uninit\n"
            "Suffix: #uninit\nName: Doe,\n"),
    }

    def test_whole_output_is_pinned(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        for field, text in (("dob", "20100704"), ("name-last", "Doe"), ("alias.2", "Smith")):
            code, _, err = run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                                    "--field", field, "--medium", "ls1100-entry", text],
                                   cwd=tmp_path)
            assert code == 0, err
        for (locale, medium), expected in self.GOLDEN.items():
            assert run_cli(["show", *ws_args(ws), *db, "--locale", locale,
                            "--medium", medium], cwd=tmp_path) == (0, expected, "")

    def test_one_walk_per_widget_besides_its_plan(self, ws, tmp_path, monkeypatch):
        """Storage and heading come from one ``resolve_parts`` walk per widget; the
        plan of its ``get_and_format`` is the other."""
        walks = []
        resolve = LocaleTree.resolve

        def counted(tree, start, *args, **kwargs):
            walks.append(start)
            return resolve(tree, start, *args, **kwargs)

        monkeypatch.setattr(LocaleTree, "resolve", counted)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["show", *ws_args(ws), "--db", str(tmp_path / "db"),
                             "--locale", "arkansas", "--medium", "transmission"])
        assert code == 0
        tags = [line.split(":")[0] for line in out.getvalue().splitlines()]
        assert tags == [line.split(":")[0]
                        for line in self.GOLDEN[("arkansas", "transmission")].splitlines()]
        assert len(walks) == 16  # 8 widgets


class TestGrownIndex:
    SCHEMA = ("(locale root :parent none)\n"
              "(widget alias root :table t :index {}"
              " :input ((default identity always-ok)) :output ((default identity)))\n")

    def test_slots_a_grown_index_adds_read_as_unset(self, tmp_path):
        ws = ["--workspace", str(tmp_path / "ws")]
        at = ["--db", str(tmp_path / "db"), "--locale", "root", "--medium", "default"]
        for bound, args in ((2, ["set", *ws, *at, "--field", "alias.1", "Smith"]),
                            (3, ["get", *ws, *at, "--field", "alias.3"])):
            (tmp_path / "s.scm").write_text(self.SCHEMA.format(bound))
            code, _, err = run_cli(["schema", "load", str(tmp_path / "s.scm"), *ws],
                                   cwd=tmp_path)
            assert code == 0, err
            code, out, err = run_cli(args, cwd=tmp_path)
            assert code == 0, err
        assert out == "#uninit\n"
        assert run_cli(["show", *ws, *at], cwd=tmp_path) == (
            0, "alias.1: Smith\nalias.2: #uninit\nalias.3: #uninit\n", "")


class TestChangedIndex:
    SCHEMA = TestGrownIndex.SCHEMA

    def test_a_smaller_and_a_restored_index_lose_no_slot(self, tmp_path):
        ws = ["--workspace", str(tmp_path / "ws")]
        at = ["--db", str(tmp_path / "db"), "--locale", "root", "--medium", "default"]
        steps = [(2, ["set", "--field", "alias.1", "Smith"], '"Smith"\n'),
                 (2, ["set", "--field", "alias.2", "Jones"], '"Jones"\n'),
                 (1, ["get", "--field", "alias"], "Smith\n"),
                 (1, ["set", "--field", "alias", "Brown"], '"Brown"\n'),
                 (2, ["get", "--field", "alias.1"], "Brown\n"),
                 (2, ["get", "--field", "alias.2"], "Jones\n")]
        for bound, (command, *args), shown in steps:
            (tmp_path / "s.scm").write_text(self.SCHEMA.format(bound))
            code, _, err = run_cli(["schema", "load", str(tmp_path / "s.scm"), *ws],
                                   cwd=tmp_path)
            assert code == 0, err
            assert run_cli([command, *ws, *at, *args], cwd=tmp_path) == (0, shown, "")
        assert (tmp_path / "db" / "t.tbl").read_text() == '(table t)\n(alias ["Brown" "Jones"])\n'


class TestSetBytes:
    """``set`` of every settable fixture field at one locale, one-slot and indexed,
    writes what it always wrote: the dump is a literal golden."""

    FIELDS = [("alias.1", "SMITH", '"SMITH"'), ("alias.2", "JONES", '"JONES"'),
              ("dob", "20100704", "(date 2010 7 4)"), ("name-first", "Jane", '"Jane"'),
              ("name-last", "Doe", '"Doe"'), ("name-middle", "Quinn", '"Quinn"'),
              ("name-suffix", "Jr", '"Jr"'), ("sid", "ab123456", '"ab123456"')]
    GOLDEN = (b'(table demographics)\n(alias ["SMITH" "JONES"])\n(dob (date 2010 7 4))\n'
              b'(name-first "Jane")\n(name-last "Doe")\n(name-middle "Quinn")\n'
              b'(name-suffix "Jr")\n(table identifiers)\n(sid "ab123456")\n')

    def test_every_settable_field_at_arkansas(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        for field, text, shown in self.FIELDS:
            assert run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas", "--medium",
                            "ls1100-entry", "--field", field, text],
                           cwd=tmp_path) == (0, shown + "\n", "")
        assert run_cli(["dump", *db, str(tmp_path / "out")], cwd=tmp_path)[0] == 0
        assert (tmp_path / "out").read_bytes() == self.GOLDEN


class TestGen:
    def test_deterministic_across_processes(self, ws, tmp_path):
        args = ["gen", *ws_args(ws), "--locale", "arkansas", "--field", "sid",
                "--medium", "ls1100-entry", "--seed", "42"]
        code1, out1, _ = run_cli(args, cwd=tmp_path)
        code2, out2, _ = run_cli(args, cwd=tmp_path)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.strip()

    def test_generated_value_is_accepted_by_set(self, ws, tmp_path):
        _, out, _ = run_cli(
            ["gen", *ws_args(ws), "--locale", "arkansas", "--field", "sid",
             "--medium", "ls1100-entry", "--seed", "7"], cwd=tmp_path)
        code, _, err = run_cli(
            ["set", *ws_args(ws), "--db", str(tmp_path / "db"),
             "--locale", "arkansas", "--field", "sid",
             "--medium", "ls1100-entry", out.strip()], cwd=tmp_path)
        assert code == 0, err

    def test_missing_generator_exit_2(self, ws, tmp_path):
        code, _, err = run_cli(
            ["gen", *ws_args(ws), "--locale", "arkansas",
             "--field", "subject-name", "--medium", "x", "--seed", "1"],
            cwd=tmp_path)
        assert code == 2
        assert err.startswith("error: ")


class TestDumpRestore:
    def _populate(self, ws, tmp_path, db):
        for field, medium, value in [
            ("dob", "ls1100-entry", "20100704"),
            ("sid", "ls1100-entry", "ab12cd"),
            ("alias.1", "transmission", "Smith"),
        ]:
            code, _, err = run_cli(
                ["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", field, "--medium", medium, value], cwd=tmp_path)
            assert code == 0, err

    def test_round_trip_to_fresh_database(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        self._populate(ws, tmp_path, db)
        out_file = tmp_path / "backup.widgetdump"
        code, _, err = run_cli(["dump", *db, str(out_file)], cwd=tmp_path)
        assert code == 0, err
        assert "(table demographics)" in out_file.read_text()

        db2 = ["--db", str(tmp_path / "db2")]
        code, _, err = run_cli(["restore", *db2, str(out_file)], cwd=tmp_path)
        assert code == 0, err
        code, out, _ = run_cli(
            ["get", *ws_args(ws), *db2, "--locale", "arkansas",
             "--field", "sid", "--medium", "ls1100-entry"], cwd=tmp_path)
        assert (code, out) == (0, "AB12CD\n")

    def test_restore_refuses_non_empty_without_force(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        self._populate(ws, tmp_path, db)
        dump_file = tmp_path / "d.widgetdump"
        run_cli(["dump", *db, str(dump_file)], cwd=tmp_path)
        code, _, err = run_cli(["restore", *db, str(dump_file)], cwd=tmp_path)
        assert code == 3
        assert "--force" in err

    def test_a_file_not_named_as_a_table_is_not_dumped(self, tmp_path):
        """A table's file is ``<canonical name>.tbl``: a copy under another
        spelling is not dumped, but it still makes the directory non-empty.
        This runs ``cli.main`` in this process."""
        db = Database(tmp_path / "db")
        db.put("demographics", "sid", "ab12cd")
        db.checkpoint()
        stray = (db.root / "demographics.tbl").read_bytes()
        (db.root / "Demographics.tbl").write_bytes(stray)
        dump = tmp_path / "d.widgetdump"
        assert _main_in_process(["dump", "--db", str(db.root), str(dump)]) == (0, "")
        assert dump.read_text() == '(table demographics)\n(sid "ab12cd")\n'
        assert _main_in_process(["restore", "--db", str(tmp_path / "fresh"), str(dump)]) == (0, "")
        only = tmp_path / "only"
        only.mkdir()
        (only / "Demographics.tbl").write_bytes(stray)
        code, err = _main_in_process(["restore", "--db", str(only), str(dump)])
        assert code == 3 and "--force" in err

    def test_restore_force_replaces(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        self._populate(ws, tmp_path, db)
        dump_file = tmp_path / "d.widgetdump"
        run_cli(["dump", *db, str(dump_file)], cwd=tmp_path)
        run_cli(["set", *ws_args(ws), *db, "--locale", "arkansas",
                 "--field", "sid", "--medium", "ls1100-entry", "zz99zz"],
                cwd=tmp_path)
        code, _, err = run_cli(
            ["restore", *db, "--force", str(dump_file)], cwd=tmp_path)
        assert code == 0, err
        code, out, _ = run_cli(
            ["get", *ws_args(ws), *db, "--locale", "arkansas",
             "--field", "sid", "--medium", "transmission"], cwd=tmp_path)
        assert (code, out) == (0, "ab12cd\n")

    def test_restore_force_corrupt_dump_keeps_data(self, ws, tmp_path):
        db = ["--db", str(tmp_path / "db")]
        self._populate(ws, tmp_path, db)
        bad = tmp_path / "bad.widgetdump"
        bad.write_text("(table demographics)\n(dob\n")
        code, _, err = run_cli(["restore", *db, "--force", str(bad)], cwd=tmp_path)
        assert code == 3
        assert "bad.widgetdump" in err
        code, out, _ = run_cli(
            ["get", *ws_args(ws), *db, "--locale", "arkansas",
             "--field", "dob", "--medium", "ar-arrest"], cwd=tmp_path)
        assert (code, out) == (0, "7/4/2010\n")

    def test_failed_dump_keeps_backup(self, tmp_path):
        db = Database(tmp_path / "db")
        for i in range(100):
            db.put("extra", f"k{i:03}", "x" * 50)
        db.checkpoint()
        backup = tmp_path / "backup.widgetdump"
        code, _, err = run_cli(["dump", "--db", str(db.root), str(backup)], cwd=tmp_path)
        assert code == 0, err
        before = backup.read_bytes()
        assert len(before) > FULL_DISK
        db.put("extra", "k100", "y")
        db.checkpoint()
        code, _, err = run_cli(["dump", "--db", str(db.root), str(backup)],
                               cwd=tmp_path, fsize_limit=FULL_DISK)
        assert code == 3, err
        assert backup.read_bytes() == before
        assert temp_files(tmp_path) == []

    def test_failed_restore_keeps_every_table(self, tmp_path):
        def tables(value):
            return {"alpha": {"k": value}, "extra": {f"k{i:03}": value * 50 for i in range(100)}}

        def database(root, contents):
            db = Database(root)
            for table, rows in contents.items():
                for key, value in rows.items():
                    db.put(table, key, value)
            db.checkpoint()
            return db

        old, new = tables("o"), tables("n")
        dump = tmp_path / "new.widgetdump"
        dump.write_text(database(tmp_path / "new", new).dump_text())
        db = database(tmp_path / "db", old)
        sizes = sorted(p.stat().st_size for p in db.root.glob("*.tbl"))
        assert sizes[0] < FULL_DISK < sizes[1]
        code, _, err = run_cli(["restore", "--db", str(db.root), "--force", str(dump)],
                               cwd=tmp_path, fsize_limit=FULL_DISK)
        assert code == 3, err
        after = Database(db.root)
        assert after.table_names() == ["alpha", "extra"]
        for table in old:
            assert dict(after.items(table)) in (old[table], new[table])
        assert temp_files(tmp_path) == []

    def _one_table_db(self, tmp_path) -> tuple[list[str], str]:
        db = Database(tmp_path / "db")
        db.put("t", "k", "v")
        db.checkpoint()
        return ["--db", str(db.root)], db.dump_text()

    def test_dump_to_fifo(self, tmp_path):
        db, expected = self._one_table_db(tmp_path)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        # a daemon, so that a reader whose FIFO was renamed over cannot hang the run
        reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
        reader.start()
        try:
            code, _, err = run_cli(["dump", *db, str(fifo)], cwd=tmp_path)
        finally:
            with contextlib.suppress(OSError):  # let a reader no writer opened finish
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=10)
        assert code == 0, err
        assert got == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    def test_dump_through_symlink(self, tmp_path):
        db, expected = self._one_table_db(tmp_path)
        target = tmp_path / "backups" / "b1.widgetdump"
        target.parent.mkdir()
        target.write_text("old\n")
        link = tmp_path / "latest.widgetdump"
        link.symlink_to(target)
        code, _, err = run_cli(["dump", *db, str(link)], cwd=tmp_path)
        assert code == 0, err
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == expected
        assert temp_files(tmp_path) == []

    def test_dump_to_appended_stdout_keeps_its_file(self, tmp_path):
        db, expected = self._one_table_db(tmp_path)
        log = tmp_path / "log"
        log.write_text("before\n")
        env = dict(os.environ,
                   PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        with open(log, "a") as out:  # as a shell's `>> log` leaves it
            proc = subprocess.run(
                [sys.executable, "-m", "widgetspace", "dump", *db, "/dev/stdout"],
                cwd=tmp_path, env=env, stdout=out, stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert log.read_text() == "before\n" + expected
        assert temp_files(tmp_path) == []

    def test_restore_invalid_utf8_dump_exit_3(self, tmp_path):
        bad = tmp_path / "bad.widgetdump"
        bad.write_bytes(b"(table t)\n(k \"caf\xff\")\n")
        code, _, err = run_cli(
            ["restore", "--db", str(tmp_path / "db"), str(bad)], cwd=tmp_path)
        assert code == 3
        assert err == f"error: {bad}: invalid UTF-8: invalid start byte (byte 17)\n"
        assert Database(tmp_path / "db").is_empty()

    def test_dump_of_too_deeply_nested_table_exit_3(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_text("(table t)\n(k " + "[" * 5000 + "]" * 5000 + ")\n")
        out = tmp_path / "out.widgetdump"
        code, _, err = run_cli(["dump", "--db", str(root), str(out)], cwd=tmp_path)
        assert code == 3
        assert err == "error: t.tbl: sequences nested deeper than 100 (byte 113)\n"
        assert not out.exists()

    def test_dump_of_too_long_integer_exit_3(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        (root / "t.tbl").write_text("(table t)\n(k " + "9" * 5000 + ")\n")
        out = tmp_path / "out.widgetdump"
        code, _, err = run_cli(["dump", "--db", str(root), str(out)], cwd=tmp_path)
        assert code == 3
        assert err == "error: t.tbl: integer literal longer than 4300 digits (byte 13)\n"
        assert not out.exists()

    def test_dump_of_long_integers_under_a_lowered_interpreter_limit(self, tmp_path):
        root = tmp_path / "db"
        root.mkdir()
        values = ["-" + "1234567890" * 200, "1" + "0" * 2999, "9" * 4300, "-7"]
        (root / "t.tbl").write_text("(table t)\n" + "".join(
            f"(k{i} [{v} 0])\n" if i % 2 else f"(k{i} {v})\n" for i, v in enumerate(values)))
        dumps = []
        for limit in ("0", "1000"):  # no limit, then one below the values' lengths
            code, out, err = run_cli(["dump", "--db", str(root), "/dev/stdout"], cwd=tmp_path,
                                     env_extra={"PYTHONINTMAXSTRDIGITS": limit})
            assert (code, err) == (0, "")
            dumps.append(out)
        assert dumps[0] == dumps[1]
        assert all(v in dumps[0] for v in values)

    def test_restore_corrupt_dump_exit_3(self, ws, tmp_path):
        bad = tmp_path / "bad.widgetdump"
        bad.write_text("(k 1)\n")
        code, _, err = run_cli(
            ["restore", "--db", str(tmp_path / "db"), str(bad)], cwd=tmp_path)
        assert code == 3
        assert "bad.widgetdump" in err

    def test_restore_missing_file_exit_3(self, ws, tmp_path):
        code, _, _ = run_cli(
            ["restore", "--db", str(tmp_path / "db"),
             str(tmp_path / "absent.widgetdump")], cwd=tmp_path)
        assert code == 3



# -- byte-level mutations of every file the CLI reads ---------------------------


def _fixture_db_files() -> tuple[bytes, bytes]:
    """A table file and a dump of a database filled through the fixture schemas."""
    registry = WidgetRegistry()
    registry.load_schema_files(fixture_paths())
    with tempfile.TemporaryDirectory() as root:
        db = Database(root)
        for name, index, medium, text in [
                ("dob", 1, "ls1100-entry", "20100704"), ("sid", 1, "ls1100-entry", "ab12cd"),
                ("alias", 1, "transmission", "Smith"), ("alias", 2, "transmission", "Doe")]:
            coord = WidgetCoord(name=name, locale="arkansas", medium=medium, index=index)
            registry.parse_and_set(db, coord, text)
        db.checkpoint()
        return (Path(root) / "demographics.tbl").read_bytes(), db.dump_text().encode()


FIXTURE_TABLE, FIXTURE_DUMP = _fixture_db_files()
FIXTURE_SCHEMAS = [p.read_bytes() for p in fixture_paths()]
FIXTURE_WORKSPACE_BYTES = json.dumps(FIXTURE_WORKSPACE).encode()

# bytes that mean something to one of the readers, beside arbitrary ones
_CHUNKS = st.one_of(
    st.binary(min_size=1, max_size=3),
    st.sampled_from([b"(", b")", b"[", b"]", b'"', b"\\", b";", b":", b" ", b"\n", b"\r",
                     b"{", b"}", b",", b"-", b"0", b"99", b"#uninit", b"none", b"\xff",
                     b"\xc3", b"\xed\xa0\x80", b"\xf0\x9d\x84\x9e", b"\x00"]))


@st.composite
def mutated(draw, originals: list[bytes]) -> bytes:
    """One of ``originals`` with a few bytes deleted, inserted or overwritten."""
    data = bytearray(draw(st.sampled_from(originals)))
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["delete", "insert", "overwrite"]))
        if op == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            chunk = draw(_CHUNKS)
            data[at:at + (len(chunk) if op == "overwrite" else 0)] = chunk
    return bytes(data)


def _main_in_process(args: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


class TestMutatedInputs:
    """Any bytes in a schema, workspace, table file or dump exit 0, 2 or 3
    with at most one ``error:`` line, never with a traceback.

    These run ``cli.main`` in this process, so that hypothesis can try
    many inputs quickly.
    """

    @staticmethod
    def run(args: list[str]) -> None:
        code, err = _main_in_process(args)
        assert code in (0, 2, 3), err
        if code == 0:
            assert "error:" not in err, err
        else:
            assert err.startswith("error: ") and err.count("\n") == 1, err

    @staticmethod
    def get_args(root: Path) -> list[str]:
        return ["get", "--workspace", str(root / "w.ws"), "--db", str(root / "db"),
                "--locale", "arkansas", "--field", "alias.2", "--medium", "transmission"]

    @settings(max_examples=100, deadline=None)
    @given(schema=mutated(FIXTURE_SCHEMAS))
    def test_schema_lint(self, schema):
        with tempfile.TemporaryDirectory() as root:
            path = Path(root) / "s.scm"
            path.write_bytes(schema)
            self.run(["schema", "lint", str(path)])

    @settings(max_examples=100, deadline=None)
    @given(workspace=mutated([FIXTURE_WORKSPACE_BYTES]))
    def test_get_with_workspace(self, workspace):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            (root / "db").mkdir()
            (root / "db" / "demographics.tbl").write_bytes(FIXTURE_TABLE)
            (root / "w.ws").write_bytes(workspace)
            self.run(self.get_args(root))

    @settings(max_examples=100, deadline=None)
    @given(table=mutated([FIXTURE_TABLE]), command=st.sampled_from(["get", "dump"]))
    def test_get_or_dump_from_table(self, table, command):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            (root / "db").mkdir()
            (root / "db" / "demographics.tbl").write_bytes(table)
            if command == "get":
                (root / "w.ws").write_bytes(FIXTURE_WORKSPACE_BYTES)
                self.run(self.get_args(root))
            else:
                self.run(["dump", "--db", str(root / "db"), str(root / "out")])

    @settings(max_examples=100, deadline=None)
    @given(dump=mutated([FIXTURE_DUMP]))
    def test_restore(self, dump):
        with tempfile.TemporaryDirectory() as root:
            root = Path(root)
            (root / "in").write_bytes(dump)
            self.run(["restore", "--db", str(root / "db"), str(root / "in")])


class TestInternalError:
    """An exception that no clause of ``cli.main`` maps is a fault of the
    program: one ``error:`` line naming its type, and exit 5, never 1."""

    @pytest.mark.parametrize("exc,line", [
        (RuntimeError("boom"), "error: internal error: RuntimeError: boom\n"),
        (KeyError("k"), "error: internal error: KeyError: 'k'\n"),
    ], ids=["RuntimeError", "KeyError"])
    def test_unmapped_exception_exit_5(self, monkeypatch, tmp_path, exc, line):
        def handler(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_locales", handler)
        code, err = _main_in_process(["locales", "--workspace", str(tmp_path / "w.ws")])
        assert (code, err) == (5, line)
