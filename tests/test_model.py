"""The fixture registry against the benchmark's independent model of it.

A ``hypothesis.stateful`` machine drives one database through ``set``,
``get``, checkpoint-and-reopen and dump-and-restore steps, and checks every
answer and error message, and after each step the whole dump, against
``perfbench/oracle.py``'s ``fixture_model()``. The oracle imports nothing of
widgetspace, so the two agree only where the documented behaviour does.
"""

import sys
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from widgetspace import Database, ValidationError, WidgetCoord, load_fixture_registry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))
try:
    import oracle
finally:
    sys.path.remove(str(PERFBENCH))

MODEL = oracle.fixture_model()
MEDIA = (*oracle.MEDIA, "default")
# (locale, name, index, medium) of every input the fixtures declare
SETTABLE = [(locale, name, index, medium) for locale in MODEL.parents
            for name, index in oracle.settable_at(MODEL, locale) for medium in MEDIA
            if MODEL.input(name, locale, medium) is not None]
READABLE = [(locale, name, index) for locale in MODEL.parents
            for name, index in oracle.fields_at(MODEL, locale)]
# text each fixture validator accepts, and text some validator refuses
TEXTS = st.one_of(
    st.sampled_from(["Smith", "Jo-Ann", "Jr", "ab123456", "20100704", "2010/07/04", "",
                     " ", "20101332", "Smith3", "x" * 25, "abc", "O'Hara"]),
    st.text(alphabet="aZ09/- ", max_size=14))


@lru_cache(maxsize=None)
def _registry():
    return load_fixture_registry()[0]


class FixtureMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dirs = tempfile.TemporaryDirectory()
        self.db = Database(Path(self.dirs.name, "db"))
        self.model = oracle.fixture_model()

    def teardown(self):
        self.dirs.cleanup()

    @rule(field=st.sampled_from(SETTABLE), text=TEXTS)
    def set(self, field, text):
        locale, name, index, medium = field
        expected, message = self.model.set(name, locale, medium, text, index)
        try:
            value = _registry().parse_and_set(
                self.db, WidgetCoord(name, locale, medium, index), text)
        except ValidationError as e:
            assert str(e) == message, (field, text)
        else:
            assert message is None and oracle.from_program(value) == expected, (field, text)

    @rule(field=st.sampled_from(READABLE))
    def get(self, field):
        locale, name, index = field
        for medium in MEDIA:
            shown = _registry().get_and_format(self.db, WidgetCoord(name, locale, medium, index))
            expected = self.model.get(name, locale, medium, index)
            assert (oracle.from_program(shown) is oracle.UNINIT if expected is oracle.UNINIT
                    else shown == expected), (field, medium, shown, expected)

    @rule()
    def checkpoint_and_reopen(self):
        self.db.checkpoint()
        self.db = Database(self.db.root)

    @rule()
    def dump_and_restore(self):
        restored = Database(tempfile.mkdtemp(dir=self.dirs.name))
        restored.restore_text(self.db.dump_text())
        self.db = restored

    @invariant()
    def dump_matches_the_model(self):
        assert self.db.dump_text() == oracle.render_tables(self.model.tables)


FixtureMachine.TestCase.settings = settings(max_examples=100, stateful_step_count=30,
                                            deadline=None)
TestFixtureMachine = FixtureMachine.TestCase
