from __future__ import annotations

import gc
import json
import random
import tracemalloc
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banevasion import corpus as corpus_module
from banevasion.analysis import characterize
from banevasion.corpus import (
    Account,
    Corpus,
    EvasionPair,
    Revision,
    SockpuppetRecord,
    SynthConfig,
    check_pairs,
    generate_synthetic,
    load_corpus,
    load_pairs,
    save_corpus,
    save_pairs,
    write_synthetic,
)
from banevasion.errors import (
    InvalidConfigError,
    RecordParseError,
    ReferentialIntegrityError,
    RevisionsNotLoadedError,
)
from banevasion.evaluation import run_ranking
from banevasion.features import Digests
from banevasion.matching import TASKS, build_candidate_sets
from banevasion.pairing import (
    classify_success,
    extract_evasion_pairs,
    first_pair_per_group,
    merge_groups,
)

from conftest import account, all_revisions, corpus_of, record, revision


def write_lines(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def corpus_paths(tmp_path, accounts=(), revisions=(), records=()):
    a, r, s = tmp_path / "a.jsonl", tmp_path / "r.jsonl", tmp_path / "s.jsonl"
    write_lines(a, accounts)
    write_lines(r, revisions)
    write_lines(s, records)
    return a, r, s


class TestLoadCorpus:
    def test_three_empty_files(self, tmp_path):
        corpus = load_corpus(*corpus_paths(tmp_path))
        assert (len(corpus.accounts), len(all_revisions(corpus)), len(corpus.sockpuppet_records)) == (0, 0, 0)

    def test_counts(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[
                {"account_id": "1", "username": "u1", "creation_time": 0, "ban_time": None},
                {"account_id": "2", "username": "u2", "creation_time": 5, "ban_time": 9},
            ],
            revisions=[
                {"account_id": "1", "page_id": "p", "timestamp": 3,
                 "added_text": "x", "deleted_text": "", "comment": ""},
            ],
        )
        corpus = load_corpus(*paths)
        assert (len(corpus.accounts), len(all_revisions(corpus)), len(corpus.sockpuppet_records)) == (2, 1, 0)

    def test_unknown_revision_account(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[{"account_id": "1", "username": "u", "creation_time": 0}],
            revisions=[{"account_id": "X", "page_id": "p", "timestamp": 3}],
        )
        with pytest.raises(ReferentialIntegrityError) as err:
            load_corpus(*paths)
        assert err.value.offending_id == "X"

    def test_unknown_record_member(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[
                {"account_id": "1", "username": "u", "creation_time": 0},
                {"account_id": "2", "username": "v", "creation_time": 0},
            ],
            records=[{"member_ids": ["1", "nope"]}],
        )
        with pytest.raises(ReferentialIntegrityError):
            load_corpus(*paths)

    def test_duplicate_account_id(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[
                {"account_id": "1", "username": "u", "creation_time": 0},
                {"account_id": "1", "username": "v", "creation_time": 1},
            ],
        )
        with pytest.raises(RecordParseError, match="duplicate account id '1'"):
            load_corpus(*paths)

    def test_bad_json_reports_line(self, tmp_path):
        a, r, s = corpus_paths(tmp_path)
        a.write_text('{"account_id": "1", "username": "u", "creation_time": 0}\nnot json\n')
        with pytest.raises(RecordParseError) as err:
            load_corpus(a, r, s)
        assert err.value.line_number == 2

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("bad", [False, True])
    def test_gc_state_restored(self, tmp_path, enabled, bad):
        a, r, s = corpus_paths(tmp_path, GOOD_ACCOUNTS, [GOOD_REVISION], [GOOD_RECORD])
        if bad:
            with open(r, "a", encoding="utf-8") as fh:
                fh.write("{nope\n")
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            if bad:
                with pytest.raises(RecordParseError):
                    load_corpus(a, r, s)
            else:
                load_corpus(a, r, s)
            generate_synthetic(SynthConfig(n_groups=1, n_benign=1, n_nonevading_malicious=1))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_ban_before_creation_rejected(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[{"account_id": "1", "username": "u", "creation_time": 10, "ban_time": 10}],
        )
        with pytest.raises(RecordParseError):
            load_corpus(*paths)

    def test_revision_before_creation_rejected(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[{"account_id": "1", "username": "u", "creation_time": 100}],
            revisions=[{"account_id": "1", "page_id": "p", "timestamp": 99}],
        )
        with pytest.raises(RecordParseError):
            load_corpus(*paths)

    def test_single_member_record_rejected(self, tmp_path):
        paths = corpus_paths(
            tmp_path,
            accounts=[{"account_id": "1", "username": "u", "creation_time": 0}],
            records=[{"member_ids": ["1", "1"]}],
        )
        with pytest.raises(RecordParseError):
            load_corpus(*paths)


GOOD_ACCOUNTS = [
    {"account_id": "1", "username": "u1", "creation_time": 0, "ban_time": None},
    {"account_id": "2", "username": "u2", "creation_time": 5, "ban_time": 9},
]
NEW_ACCOUNT = {"account_id": "3", "username": "u3", "creation_time": 5, "ban_time": 9}
GOOD_REVISION = {"account_id": "2", "page_id": "p", "timestamp": 6,
                 "added_text": "x", "deleted_text": "", "comment": ""}
GOOD_RECORD = {"member_ids": ["1", "2"]}


def with_changes(obj, **changes):
    """``obj`` with ``changes`` applied; a value of ``...`` deletes the key."""
    out = {**obj, **changes}
    return {k: v for k, v in out.items() if v is not ...}


# (file, line appended after one good line, error type, message fragment)
CORRUPTIONS = {
    "account_bad_json": ("a", "{nope", RecordParseError, "bad JSON"),
    "account_not_object": ("a", [1, 2], RecordParseError, "expected a JSON object"),
    "account_two_objects": ("a", json.dumps(NEW_ACCOUNT) + json.dumps(NEW_ACCOUNT),
                            RecordParseError, "bad JSON: Extra data"),
    "account_trailing_data": ("a", json.dumps(NEW_ACCOUNT) + " x",
                              RecordParseError, "bad JSON: Extra data"),
    "account_scalar": ("a", "3", RecordParseError, "expected a JSON object"),
    "account_bad_escape": ("a", r'{"account_id":"\q"}', RecordParseError, r"bad JSON: Invalid \escape"),
    # JSON whitespace is space, tab, CR and LF only
    "account_trailing_form_feed": ("a", json.dumps(NEW_ACCOUNT) + "\x0c",
                                   RecordParseError, "bad JSON: Extra data"),
    "account_no_break_space_line": ("a", "\xa0", RecordParseError, "bad JSON: Expecting value"),
    "account_missing_username": ("a", with_changes(NEW_ACCOUNT, username=...),
                                 RecordParseError, "missing field 'username'"),
    "account_id_null": ("a", with_changes(NEW_ACCOUNT, account_id=None),
                        RecordParseError, "field 'account_id' must be a string"),
    "account_id_int": ("a", with_changes(NEW_ACCOUNT, account_id=3),
                       RecordParseError, "field 'account_id' must be a string"),
    "username_null": ("a", with_changes(NEW_ACCOUNT, username=None),
                      RecordParseError, "field 'username' must be a string"),
    "username_list": ("a", with_changes(NEW_ACCOUNT, username=["u"]),
                      RecordParseError, "field 'username' must be a string"),
    "creation_string": ("a", with_changes(NEW_ACCOUNT, creation_time="5"),
                        RecordParseError, "field 'creation_time' must be an integer"),
    "creation_bool": ("a", with_changes(NEW_ACCOUNT, creation_time=True),
                      RecordParseError, "field 'creation_time' must be an integer"),
    "ban_float": ("a", with_changes(NEW_ACCOUNT, ban_time=9.0),
                  RecordParseError, "field 'ban_time' must be an integer"),
    "ban_bool": ("a", with_changes(NEW_ACCOUNT, ban_time=True),
                 RecordParseError, "field 'ban_time' must be an integer"),
    "ban_at_creation": ("a", with_changes(NEW_ACCOUNT, ban_time=5),
                        RecordParseError, "ban_time must be after creation_time"),
    "duplicate_id": ("a", with_changes(NEW_ACCOUNT, account_id="1"),
                     RecordParseError, "duplicate account id '1'"),
    # a samples file holds ids in tab-separated lines
    "account_id_tab": ("a", with_changes(NEW_ACCOUNT, account_id="p\tx"),
                       RecordParseError, r"account id 'p\tx' holds a tab or line break"),
    "account_id_cr": ("a", with_changes(NEW_ACCOUNT, account_id="p\rx"),
                      RecordParseError, r"account id 'p\rx' holds a tab or line break"),
    "account_id_lf": ("a", with_changes(NEW_ACCOUNT, account_id="p\nx"),
                      RecordParseError, r"account id 'p\nx' holds a tab or line break"),
    "revision_owner_null": ("r", with_changes(GOOD_REVISION, account_id=None),
                            RecordParseError, "field 'account_id' must be a string"),
    "revision_missing_page": ("r", with_changes(GOOD_REVISION, page_id=...),
                              RecordParseError, "missing field 'page_id'"),
    "page_id_int": ("r", with_changes(GOOD_REVISION, page_id=3),
                    RecordParseError, "field 'page_id' must be a string"),
    "timestamp_string": ("r", with_changes(GOOD_REVISION, timestamp="6"),
                         RecordParseError, "field 'timestamp' must be an integer"),
    "page_id_int_and_timestamp_string": ("r", with_changes(GOOD_REVISION, page_id=3, timestamp="6"),
                                         RecordParseError, "field 'page_id' must be a string"),
    "added_text_null": ("r", with_changes(GOOD_REVISION, added_text=None),
                        RecordParseError, "field 'added_text' must be a string"),
    "deleted_text_int": ("r", with_changes(GOOD_REVISION, deleted_text=1),
                         RecordParseError, "field 'deleted_text' must be a string"),
    "comment_bool": ("r", with_changes(GOOD_REVISION, comment=False),
                     RecordParseError, "field 'comment' must be a string"),
    "revision_owner_unknown": ("r", with_changes(GOOD_REVISION, account_id="X"),
                               ReferentialIntegrityError, "unknown account id 'X' (revision owner)"),
    "revision_before_creation": ("r", with_changes(GOOD_REVISION, timestamp=4),
                                 RecordParseError, "predates creation of '2'"),
    "record_missing_members": ("s", {"members": ["1", "2"]},
                               RecordParseError, "missing field 'member_ids'"),
    "members_not_array": ("s", {"member_ids": "12"}, RecordParseError, "member_ids must be an array"),
    "member_int": ("s", {"member_ids": ["1", 2]}, RecordParseError, "member id 2 must be a string"),
    "member_null": ("s", {"member_ids": ["1", None]},
                    RecordParseError, "member id None must be a string"),
    "member_unknown": ("s", {"member_ids": ["1", "nope"]},
                       ReferentialIntegrityError, "unknown account id 'nope' (record member)"),
    "record_one_member": ("s", {"member_ids": ["1", "1"]},
                          RecordParseError, "sockpuppet record needs at least 2 members"),
}


# Files with two faults each (a str is a raw line), and the error and
# (file, line) reported: the first fault in reading order (accounts,
# revisions, records), whether it is a parse error or a broken rule.
TWO_FAULTS = {
    "unknown_owner_before_bad_json": (
        {"a": GOOD_ACCOUNTS, "s": [GOOD_RECORD],
         "r": [with_changes(GOOD_REVISION, account_id="X"), GOOD_REVISION, "{nope"]},
        ReferentialIntegrityError, "r", 1,
    ),
    "early_revision_before_bad_members": (
        {"a": GOOD_ACCOUNTS, "s": [{"member_ids": "12"}, GOOD_RECORD],
         "r": [GOOD_REVISION, with_changes(GOOD_REVISION, timestamp=4)]},
        RecordParseError, "r", 2,
    ),
    "ban_at_creation_before_bad_json": (
        {"a": [GOOD_ACCOUNTS[0], with_changes(GOOD_ACCOUNTS[1], ban_time=5)], "s": [GOOD_RECORD],
         "r": ["{nope", GOOD_REVISION]},
        RecordParseError, "a", 2,
    ),
}


# c is created exactly at p's ban, late one second after it
PAIR_CORPUS = corpus_of([account("p", 0, 100), account("c", 100), account("late", 101, 200)])
# each pair, after a good (p, late) pair, and what it breaks
PAIR_FAULTS = [
    (("zz", "c"), ReferentialIntegrityError, "unknown account id 'zz' (pair parent)"),
    (("p", "zz"), ReferentialIntegrityError, "unknown account id 'zz' (pair child)"),
    (("c", "late"), RecordParseError, "parent 'c' was never banned"),
    (("p", "c"), RecordParseError, "child 'c' was not created after the ban of 'p'"),
    (("late", "p"), RecordParseError, "child 'p' was not created after the ban of 'late'"),
    (("p", "late"), RecordParseError, "child 'late' is named by an earlier pair"),
]
PAIR_FAULT_IDS = ["unknown_parent", "unknown_child", "never_banned", "created_at_ban", "reversed",
                  "repeated_child"]


class TestCorruption:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_rejected_at_file_and_line(self, tmp_path, name):
        which, bad, error, fragment = CORRUPTIONS[name]
        a, r, s = corpus_paths(tmp_path, GOOD_ACCOUNTS, [GOOD_REVISION], [GOOD_RECORD])
        path = {"a": a, "r": r, "s": s}[which]
        bad_line = bad if isinstance(bad, str) else json.dumps(bad)
        # a blank line before the bad one: line numbers count every line
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n" + bad_line + "\n")
        # lines end at LF only: ``splitlines`` would also split at a form feed
        line = path.read_text(encoding="utf-8").count("\n")
        # a load that keeps only revision counts parses and checks every line alike
        for keep_revisions in (True, False):
            with pytest.raises(error) as err:
                load_corpus(a, r, s, keep_revisions=keep_revisions)
            assert type(err.value) is error
            assert (err.value.path, err.value.line_number) == (str(path), line)
            assert str(err.value).startswith(f"{path}:{line}: ")
            assert fragment in str(err.value)

    @pytest.mark.parametrize("keep_revisions", [True, False])
    @pytest.mark.parametrize("name", sorted(TWO_FAULTS))
    def test_first_faulty_line_in_reading_order_wins(self, tmp_path, name, keep_revisions):
        # each file is read as it is checked, so a rule broken on an earlier
        # line is reported before a parse error on a later one
        parts, error, which, line = TWO_FAULTS[name]
        paths = dict(zip("ars", corpus_paths(tmp_path)))
        for key, lines in parts.items():
            paths[key].write_text(
                "".join((x if isinstance(x, str) else json.dumps(x)) + "\n" for x in lines),
                encoding="utf-8",
            )
        with pytest.raises(error) as err:
            load_corpus(*paths.values(), keep_revisions=keep_revisions)
        assert type(err.value) is error
        assert (err.value.path, err.value.line_number) == (str(paths[which]), line)

    @pytest.mark.parametrize(
        "bad", ['{"child_id":"c2","parent_id":"p"}\x0c', "\xa0"],
        ids=["trailing_form_feed", "no_break_space_line"],
    )
    def test_pairs_reject_non_json_space(self, tmp_path, bad):
        path = tmp_path / "pairs.jsonl"
        path.write_text('{"child_id":"c","parent_id":"p"}\n' + bad + "\n", encoding="utf-8")
        with pytest.raises(RecordParseError) as err:
            load_pairs(path)
        assert (err.value.path, err.value.line_number) == (str(path), 2)
        assert err.value.reason.startswith("bad JSON: ")

    @pytest.mark.parametrize("key", ["parent_id", "child_id"])
    def test_pairs_reject_non_string_ids(self, tmp_path, key):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{"parent_id": "p", "child_id": "c"}, {"parent_id": "p", "child_id": "c", key: 1}])
        with pytest.raises(RecordParseError) as err:
            load_pairs(path)
        assert (err.value.line_number, err.value.reason) == (2, f"field {key!r} must be a string")

    @pytest.mark.parametrize("pair, error, reason", PAIR_FAULTS, ids=PAIR_FAULT_IDS)
    def test_pairs_checked_against_corpus(self, tmp_path, pair, error, reason):
        corpus = PAIR_CORPUS
        path = tmp_path / "pairs.jsonl"
        good = json.dumps({"parent_id": "p", "child_id": "late", "group_id": 4})
        path.write_text(good + "\n\n" + json.dumps(dict(zip(("parent_id", "child_id"), pair))) + "\n")
        with pytest.raises(error) as err:
            load_pairs(path, corpus)
        assert str(err.value) == f"{path}:3: {reason}"
        path.write_text(good + "\n")
        assert load_pairs(path, corpus) == [("p", "late", 4)]

    def test_pairs_reject_repeated_child_without_corpus(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{"parent_id": "p", "child_id": "c"}, {"parent_id": "q", "child_id": "c"}])
        with pytest.raises(RecordParseError) as err:
            load_pairs(path)
        assert str(err.value) == f"{path}:2: child 'c' is named by an earlier pair"

    @pytest.mark.parametrize(
        "consume, runs_on_one_pair",
        [
            (lambda pairs: check_pairs(pairs, PAIR_CORPUS), True),
            (lambda pairs: build_candidate_sets(pairs, PAIR_CORPUS), True),
            (lambda pairs: classify_success(pairs, PAIR_CORPUS), True),
            *((lambda pairs, t=t: TASKS[t].match(PAIR_CORPUS, pairs), True) for t in "123"),
            # the ranking splits the pairs by parent, so one pair leaves a side empty
            (lambda pairs: run_ranking(Digests(PAIR_CORPUS), pairs), False),
            (lambda pairs: characterize(Digests(PAIR_CORPUS), pairs), True),
        ],
        ids=["check_pairs", "build_candidate_sets", "classify_success",
             "task1_match", "task2_match", "task3_match", "run_ranking", "characterize"],
    )
    @pytest.mark.parametrize("pair, error, reason", PAIR_FAULTS, ids=PAIR_FAULT_IDS)
    def test_pairs_in_memory_checked_as_in_a_file(
        self, consume, runs_on_one_pair, pair, error, reason
    ):
        # the pairs file rows of test_pairs_checked_against_corpus, built in
        # memory; a task's match raises at the call, before any sample is drawn
        good = EvasionPair("p", "late", 4)
        with pytest.raises(error) as err:
            consume([good, EvasionPair(*pair, None)])
        assert type(err.value) is error
        assert (err.value.path, err.value.line_number) == (None, None)
        assert str(err.value) == reason
        if runs_on_one_pair:
            consume([good])


# The corruptions that parse but break a corpus rule.
RULE_CORRUPTIONS = [
    "ban_at_creation", "duplicate_id", "account_id_tab", "account_id_cr", "account_id_lf",
    "revision_owner_unknown", "revision_before_creation", "member_unknown", "record_one_member",
]
# The corruptions whose fault is a field of the wrong type on an account or
# revision line, or a member id that is no string: records built in memory can
# hold them too.
TYPE_CORRUPTIONS = [
    "account_id_null", "account_id_int", "username_null", "username_list", "creation_string",
    "creation_bool", "ban_float", "ban_bool", "revision_owner_null", "page_id_int",
    "timestamp_string", "page_id_int_and_timestamp_string", "added_text_null",
    "deleted_text_int", "comment_bool", "member_int", "member_null",
]
AS_OBJECT = {
    "a": lambda obj: Account(**obj),
    "r": lambda obj: Revision(**obj),
    "s": lambda obj: SockpuppetRecord(frozenset(obj["member_ids"])),
}


class TestCorpusRules:
    @pytest.mark.parametrize("name", RULE_CORRUPTIONS)
    def test_rejected_in_memory_without_location(self, name):
        which, bad, error, fragment = CORRUPTIONS[name]
        parts = {
            "a": [AS_OBJECT["a"](obj) for obj in GOOD_ACCOUNTS],
            "r": [AS_OBJECT["r"](GOOD_REVISION)],
            "s": [AS_OBJECT["s"](GOOD_RECORD)],
        }
        parts[which].append(AS_OBJECT[which](bad))
        for keep_revisions in (True, False):
            with pytest.raises(error) as err:
                Corpus(*(tuple(parts[k]) for k in "ars"), keep_revisions=keep_revisions)
            assert (err.value.path, err.value.line_number) == (None, None)
            assert fragment in str(err.value)
            assert "<corpus>" not in str(err.value)

    @pytest.mark.parametrize("name", TYPE_CORRUPTIONS)
    def test_field_types_rejected_in_memory_as_in_a_file(self, tmp_path, name):
        which, bad, error, fragment = CORRUPTIONS[name]
        paths = dict(zip("ars", corpus_paths(tmp_path, GOOD_ACCOUNTS, [GOOD_REVISION], [GOOD_RECORD])))
        with open(paths[which], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bad) + "\n")
        with pytest.raises(error) as from_file:
            load_corpus(*paths.values())
        assert from_file.value.reason == fragment
        parts = {
            "a": [AS_OBJECT["a"](obj) for obj in GOOD_ACCOUNTS],
            "r": [AS_OBJECT["r"](GOOD_REVISION)],
            "s": [AS_OBJECT["s"](GOOD_RECORD)],
        }
        parts[which].append(AS_OBJECT[which](bad))
        for keep_revisions in (True, False):
            with pytest.raises(error) as err:
                Corpus(*(tuple(parts[k]) for k in "ars"), keep_revisions=keep_revisions)
            assert type(err.value) is error
            assert (err.value.path, err.value.line_number) == (None, None)
            assert str(err.value) == from_file.value.reason

    def test_two_unknown_members_report_the_smaller_id(self):
        # frozenset order follows the hash seed; the smaller id must win anyway
        accounts = tuple(AS_OBJECT["a"](obj) for obj in GOOD_ACCOUNTS)
        for i in range(16):
            rec = SockpuppetRecord(frozenset({f"x{i}", f"w{i}", "1"}))
            with pytest.raises(ReferentialIntegrityError) as err:
                Corpus(accounts, (), (rec,))
            assert err.value.offending_id == f"w{i}"


# Text that JSON must escape or that a careless reader would split on.
AWKWARD_CHARS = '"\\\t\n\r \x00\x85\u2028\u2029{}[]:,\ufeff'
AWKWARD_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from(AWKWARD_CHARS), st.characters(codec="utf-8")),
    max_size=10,
)
# The same without tab, CR or LF, which no account id may hold.
AWKWARD_ID = st.text(
    alphabet=st.one_of(st.sampled_from(AWKWARD_CHARS), st.characters(codec="utf-8"))
    .filter(lambda c: c not in "\t\r\n"),
    max_size=10,
)


@st.composite
def corpora(draw):
    ids = draw(st.lists(AWKWARD_ID, max_size=6, unique=True))
    accounts = []
    for account_id in ids:
        creation = draw(st.integers(-(10**12), 10**12))
        ban = draw(st.none() | st.integers(creation + 1, creation + 10**6))
        accounts.append(Account(account_id, draw(AWKWARD_TEXT), creation, ban))
    revisions, records = [], []
    if accounts:
        for _ in range(draw(st.integers(0, 8))):
            owner = draw(st.sampled_from(accounts))
            revisions.append(Revision(
                owner.account_id,
                draw(AWKWARD_TEXT),
                draw(st.integers(owner.creation_time, owner.creation_time + 100)),
                draw(AWKWARD_TEXT),
                draw(AWKWARD_TEXT),
                draw(AWKWARD_TEXT),
            ))
    if len(ids) >= 2:
        for _ in range(draw(st.integers(0, 3))):
            records.append(SockpuppetRecord(frozenset(draw(st.lists(
                st.sampled_from(ids), min_size=2, max_size=4, unique=True
            )))))
    return Corpus(tuple(accounts), tuple(revisions), tuple(records))


@st.composite
def corpus_inputs(draw):
    """Accounts, revisions and records as a caller might build them in memory:
    in half the draws a time may be a bool or a float and an id an int; in the
    other half every time is an int and every id a string."""
    odd = draw(st.booleans())
    times = st.sampled_from([1, True, 5, 5.0, 7] if odd else [1, 5, 7])
    id_kinds = st.sampled_from(["a", "b", "c", 1, 2] if odd else ["a", "b", "c"])
    ids = draw(st.lists(id_kinds, max_size=4, unique=True))
    accounts = [Account(i, "u", draw(times), draw(st.none() | times)) for i in ids]
    revisions, records = [], []
    if ids:
        for _ in range(draw(st.integers(0, 4))):
            revisions.append(Revision(draw(st.sampled_from(ids)), draw(id_kinds), draw(times)))
    if len(ids) >= 2:
        for _ in range(draw(st.integers(0, 2))):
            records.append(SockpuppetRecord(frozenset(draw(st.lists(
                st.sampled_from(ids), min_size=2, max_size=3, unique=True
            )))))
    return tuple(accounts), tuple(revisions), tuple(records)


@st.composite
def tied_revisions(draw):
    """Shuffled revisions of few owners, pages and times, so that keys tie: one
    owner and time on two pages, and exact (account_id, timestamp, page_id)
    duplicates. Each revision's text is its own, so any reordering shows."""
    keys = draw(st.lists(st.tuples(
        st.sampled_from(["b", "a", "c"]),
        st.sampled_from([1, 5, 7]),
        st.sampled_from(["q", "p"]),
    ), max_size=14))
    keys += draw(st.lists(st.sampled_from(keys), max_size=6)) if keys else []
    revisions = [revision(owner, page, t, added=str(i)) for i, (owner, t, page) in enumerate(keys)]
    return draw(st.permutations(revisions))


class TestCanonicalOrder:
    @settings(max_examples=200, deadline=None)
    @given(revisions=tied_revisions())
    def test_per_owner_order_is_the_global_sort(self, revisions):
        corpus = corpus_of([account(k, 0) for k in "dcba"], revisions)
        # the oracle: one stable sort of every revision by its full key
        expected = sorted(revisions, key=lambda r: (r.account_id, r.timestamp, r.page_id))
        flat = all_revisions(corpus)
        assert len(flat) == len(expected)
        # ``Corpus`` builds each revision it keeps; every text is unique, so
        # equality pins the order
        assert list(flat) == expected
        assert corpus.revisions_by_account == {
            k: tuple(v) for k, v in groupby(expected, attrgetter("account_id"))
        }
        assert list(corpus.revisions_by_account) == sorted({r.account_id for r in revisions})


EQUALITY_ACCOUNTS = [account("a", 0), account("b", 5, 50)]
EQUALITY_REVISIONS = [
    revision("a", "p1", 2, added="x"),
    revision("b", "p1", 9, added="y"),
    revision("a", "p2", 4, added="z"),
]


def _one_text_edited(tmp_path):
    edited = [*EQUALITY_REVISIONS[:2], EQUALITY_REVISIONS[2]._replace(added_text="Z")]
    return corpus_of(EQUALITY_ACCOUNTS, EQUALITY_REVISIONS), corpus_of(EQUALITY_ACCOUNTS, edited)


def _input_reversed(tmp_path):
    return (
        corpus_of(EQUALITY_ACCOUNTS, EQUALITY_REVISIONS),
        corpus_of(EQUALITY_ACCOUNTS, EQUALITY_REVISIONS[::-1]),
    )


def _full_and_light_load(tmp_path):
    paths = [tmp_path / n for n in ("a.jsonl", "r.jsonl", "s.jsonl")]
    save_corpus(corpus_of(EQUALITY_ACCOUNTS, EQUALITY_REVISIONS), *paths)
    return load_corpus(*paths), load_corpus(*paths, keep_revisions=False)


@pytest.mark.parametrize(
    "make, equal",
    [(_one_text_edited, False), (_input_reversed, True), (_full_and_light_load, False)],
    ids=["one_added_text_differs", "reversed_input_order", "full_and_light_load"],
)
def test_equality_compares_the_revision_store(tmp_path, make, equal):
    """Equal accounts, records and counts in every case: only the revisions
    kept per owner can tell the corpora apart."""
    one, two = make(tmp_path)
    assert (one.accounts, one.sockpuppet_records) == (two.accounts, two.sockpuppet_records)
    assert one.revision_counts == two.revision_counts
    assert (one == two) is equal
    assert hash(one) == hash(two)


@pytest.fixture(scope="module")
def round_trip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("round_trip")


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(corpus=corpora())
    def test_save_load_save_is_identity(self, round_trip_dir, corpus):
        out = round_trip_dir
        first = [out / n for n in ("a.jsonl", "r.jsonl", "s.jsonl")]
        second = [out / n for n in ("a2.jsonl", "r2.jsonl", "s2.jsonl")]
        save_corpus(corpus, *first)
        reloaded = load_corpus(*first)
        assert reloaded == corpus
        save_corpus(reloaded, *second)
        for one, two in zip(first, second):
            assert one.read_bytes() == two.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(parts=corpus_inputs())
    def test_whatever_corpus_accepts_round_trips(self, round_trip_dir, parts):
        # one definition of a valid record: ``Corpus`` refuses what the
        # reader would, so nothing it holds is saved unloadable
        try:
            corpus = Corpus(*parts)
        except RecordParseError:
            return
        first = [round_trip_dir / n for n in ("a.jsonl", "r.jsonl", "s.jsonl")]
        second = [round_trip_dir / n for n in ("a2.jsonl", "r2.jsonl", "s2.jsonl")]
        save_corpus(corpus, *first)
        reloaded = load_corpus(*first)
        assert reloaded == corpus
        save_corpus(reloaded, *second)
        for one, two in zip(first, second):
            assert one.read_bytes() == two.read_bytes()

    def test_save_load_identity(self, tmp_path):
        corpus = corpus_of(
            [account("b", 5, 50), account("a", 0), account("c", 7, 70)],
            [
                revision("a", "p2", 4, added="héllo wörld", comment="unicode ok"),
                revision("a", "p1", 2, added="x"),
                revision("b", "p1", 9, deleted="gone"),
            ],
            [record("b", "c")],
        )
        paths = (tmp_path / "a.jsonl", tmp_path / "r.jsonl", tmp_path / "s.jsonl")
        save_corpus(corpus, *paths)
        reloaded = load_corpus(*paths)
        assert reloaded == corpus

        save_corpus(reloaded, tmp_path / "a2.jsonl", tmp_path / "r2.jsonl", tmp_path / "s2.jsonl")
        for first, second in zip(("a", "r", "s"), ("a2", "r2", "s2")):
            assert (tmp_path / f"{first}.jsonl").read_bytes() == (tmp_path / f"{second}.jsonl").read_bytes()

    def test_pairs_round_trip(self, tmp_path):
        path = tmp_path / "pairs.jsonl"
        save_pairs([EvasionPair("p", "c"), EvasionPair("p2", "c2", 3)], path)
        assert path.read_text() == (
            '{"child_id":"c","parent_id":"p"}\n{"child_id":"c2","group_id":3,"parent_id":"p2"}\n'
        )
        loaded = load_pairs(path)
        assert loaded == [("p", "c", None), ("p2", "c2", 3)]
        assert [type(pair) for pair in loaded] == [EvasionPair, EvasionPair]
        assert loaded[0].group_id is None

    def test_lines_are_json_encoder_output(self, tmp_path):
        # escapes, a line separator and a non-BMP character
        odd = 'q"uo\\te \x00 \u2028 \U0001f600 é'
        corpus = corpus_of(
            [account("a", 0), account(odd, 0, 9, username=odd)],
            [
                revision("a", odd, 3, added=odd, deleted="\t\n", comment="\x7f\ud7ff"),
                revision(odd, "p", 1, comment=odd),
                revision("a", "p", 5),
            ],
            [record("a", odd)],
        )
        paths = (tmp_path / "a.jsonl", tmp_path / "r.jsonl", tmp_path / "s.jsonl")
        save_corpus(corpus, *paths)
        encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
        expected = (
            [encode(a._asdict()) for a in corpus.accounts],
            [encode(r._asdict()) for r in all_revisions(corpus)],
            [encode({"member_ids": sorted(rec.member_ids)}) for rec in corpus.sockpuppet_records],
        )
        for path, lines in zip(paths, expected):
            assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


class TestWithoutRevisions:
    @settings(max_examples=100, deadline=None)
    @given(corpus=corpora())
    def test_counts_equal_the_full_corpus(self, round_trip_dir, corpus):
        paths = [round_trip_dir / n for n in ("a.jsonl", "r.jsonl", "s.jsonl")]
        save_corpus(corpus, *paths)
        full, light = (load_corpus(*paths, keep_revisions=keep) for keep in (True, False))
        lengths = {k: len(v) for k, v in full.revisions_by_account.items()}
        assert light.revision_counts == full.revision_counts == lengths
        assert list(light.revision_counts) == sorted(lengths)
        assert (light.accounts, light.sockpuppet_records) == (full.accounts, full.sockpuppet_records)
        assert light.revisions_by_account is None and not hasattr(light, "revisions")
        assert light != full

    def test_light_load_memory_does_not_grow_with_revisions(self, tmp_path):
        # the same corpus with each revision line repeated 8 times (a repeated
        # revision is valid): a light load keeps a count per owner and no
        # revision, so its peak does not grow with the revision lines
        names = ("accounts.jsonl", "revisions.jsonl", "records.jsonl")
        once, repeated = tmp_path / "once", tmp_path / "repeated"
        once.mkdir()
        repeated.mkdir()
        write_synthetic(SynthConfig(n_groups=12, seed=7), *(once / n for n in names),
                        once / "pairs.jsonl")
        for n in names:
            text = (once / n).read_text(encoding="utf-8")
            (repeated / n).write_text(text * 8 if n == "revisions.jsonl" else text, encoding="utf-8")
        n_lines = (once / "revisions.jsonl").read_text(encoding="utf-8").count("\n")
        assert n_lines == 4203

        def peak(directory):
            tracemalloc.start()
            try:
                corpus = load_corpus(*(directory / n for n in names), keep_revisions=False)
                return corpus, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # held, so its interned account ids stay: freeing and re-interning
        # them can resize the interpreter's interned-string table mid-load
        held = load_corpus(*(once / n for n in names), keep_revisions=False)
        (_, small), (light, large) = peak(once), peak(repeated)
        assert light.revision_counts == {k: 8 * v for k, v in held.revision_counts.items()}
        growth = (large - small) / (7 * n_lines)
        assert growth < 16, f"{growth:.1f} bytes per added revision line"

    def test_reading_revisions_raises(self, tmp_path, tiny_corpus):
        paths = [tmp_path / n for n in ("a.jsonl", "r.jsonl", "s.jsonl")]
        save_corpus(tiny_corpus, *paths)
        light = load_corpus(*paths, keep_revisions=False)
        assert light.revision_counts == {"b1": 1, "c1": 1, "m1": 1, "p1": 2}
        with pytest.raises(RevisionsNotLoadedError):
            light.revisions_of("p1")
        with pytest.raises(RevisionsNotLoadedError):
            light.revisions_of("nobody")
        with pytest.raises(RevisionsNotLoadedError):
            Digests(light).of("b1")
        out = [tmp_path / "out" / n for n in ("a.jsonl", "r.jsonl", "s.jsonl")]
        (tmp_path / "out").mkdir()
        with pytest.raises(RevisionsNotLoadedError):
            save_corpus(light, *out)
        assert not any(path.exists() for path in out)


class TestRecordTypes:
    def test_fields_and_defaults_pinned(self):
        assert Account._fields == ("account_id", "username", "creation_time", "ban_time")
        assert Account._field_defaults == {"ban_time": None}
        assert Revision._fields == (
            "account_id", "page_id", "timestamp", "added_text", "deleted_text", "comment"
        )
        assert Revision._field_defaults == {"added_text": "", "deleted_text": "", "comment": ""}

    def test_duration_seconds(self):
        assert Account("a", "u", 10, 25).duration_seconds == 15
        assert Account("a", "u", 10).duration_seconds is None

    def test_equal_to_plain_tuple(self):
        assert Account("a", "u", 10) == ("a", "u", 10, None)
        assert Revision("a", "p", 3) == ("a", "p", 3, "", "", "")

    @pytest.mark.parametrize(
        "record, name",
        [
            (Account("a", "u", 10), "ban_time"),
            (Account("a", "u", 10), "extra"),
            (Revision("a", "p", 3), "page_id"),
            (Revision("a", "p", 3), "extra"),
        ],
    )
    def test_attribute_assignment_rejected(self, record, name):
        with pytest.raises(AttributeError):
            setattr(record, name, "x")

    def test_loaded_revisions_share_id_strings(self, tmp_path):
        synth = generate_synthetic(SynthConfig(n_groups=4, n_benign=20, n_nonevading_malicious=10))
        paths = (tmp_path / "a.jsonl", tmp_path / "r.jsonl", tmp_path / "s.jsonl")
        save_corpus(synth.corpus, *paths)
        corpus = load_corpus(*paths)
        page_ids = {}
        for rev in all_revisions(corpus):
            assert rev.account_id is corpus.account(rev.account_id).account_id
            assert page_ids.setdefault(rev.page_id, rev.page_id) is rev.page_id
        assert len(page_ids) < len(all_revisions(corpus))  # some page is revised twice


def stdlib_revisions(rng, config, account, persona, malicious, active_until):
    """The generator's revision draws written with ``random.Random.choice``,
    ``randint`` and ``randrange``."""
    def text(lo=6, hi=14):
        tokens = []
        for _ in range(rng.randint(lo, hi)):
            if rng.random() < 0.4:
                tokens.append(rng.choice(corpus_module._FUNCTION_WORDS))
            elif malicious and rng.random() < config.malicious_text_rate:
                tokens.append(rng.choice(corpus_module._MALICIOUS_WORDS))
            else:
                tokens.append(rng.choice(persona["vocab"]))
        return " ".join(tokens)

    start = account.creation_time
    span = max(1, active_until - start)
    revisions = []
    for t in sorted(rng.randrange(span) for _ in range(persona["n_revisions"])):
        deleted = text(2, 5) if rng.random() < 0.3 else ""
        page = rng.choice(persona["home_pages"])
        added = text()
        comment = " ".join(
            rng.choice(persona["comment_words"]) for _ in range(rng.randint(2, 4))
        )
        revisions.append(Revision(account.account_id, page, start + t, added, deleted, comment))
    return revisions


def stdlib_words(rng, count, lo=2, hi=4):
    """``_make_words`` written with ``random.Random.choice`` and ``randint``."""
    words = []
    while len(words) < count:
        w = "".join(rng.choice(corpus_module._SYLLABLES) for _ in range(rng.randint(lo, hi)))
        if w not in words:
            words.append(w)
    return words


class TestSynthetic:
    def test_inline_draws_match_stdlib(self):
        # every bound from 1 to 1100, so every power of two and its rejection
        # edge, as list length, time span and token-count range
        gen = corpus_module._Generator(SynthConfig(n_groups=0, n_benign=0, n_nonevading_malicious=0))
        acct = account("a", 1000)
        for n in range(1, 1101):
            words = [f"w{i}" for i in range(n)]
            persona = {"n_revisions": 3, "vocab": words, "home_pages": words, "comment_words": words}
            gen.rng, reference = random.Random(n), random.Random(n)
            drawn = gen._emit_revisions(acct, persona, n % 2 == 0, 1000 + n)
            expected = stdlib_revisions(reference, gen.config, acct, persona, n % 2 == 0, 1000 + n)
            assert drawn == expected
            vocab = corpus_module._draw_table(words)
            lo = n % 7
            assert gen._text(vocab, False, lo, lo + n - 1) == " ".join(
                reference.choice(words) if reference.random() >= 0.4
                else reference.choice(corpus_module._FUNCTION_WORDS)
                for _ in range(reference.randint(lo, lo + n - 1))
            )
            assert gen.rng.getstate() == reference.getstate()

    def test_inline_sample_and_words_match_stdlib(self):
        # population sizes around CPython's set-size threshold for each k, so
        # both of its branches run, and k from 0 to the whole population
        gen = corpus_module._Generator(SynthConfig(n_groups=0, n_benign=0, n_nonevading_malicious=0))
        for n in range(1, 120):
            population = [f"w{i}" for i in range(n)]
            gen.rng, reference = random.Random(n), random.Random(n)
            for k in sorted({0, 1, min(n, 5), min(n, 6), n // 2, n}):
                assert gen._sample(population, k) == reference.sample(population, k)
            lo = 1 + n % 3
            hi = lo + n % 4
            assert corpus_module._make_words(gen.rng, 3, lo, hi) == stdlib_words(reference, 3, lo, hi)
            for _ in range(5):
                username = stdlib_words(reference, 1)[0] + f"{reference.randint(0, 99):02d}"
                assert gen._username() == username
            assert gen.rng.getstate() == reference.getstate()

    def test_determinism_byte_identical(self, tmp_path):
        cfg = SynthConfig(n_groups=6, n_benign=15, n_nonevading_malicious=9, seed=7)
        for run in ("one", "two"):
            result = generate_synthetic(cfg)
            save_corpus(
                result.corpus,
                tmp_path / f"{run}_a.jsonl",
                tmp_path / f"{run}_r.jsonl",
                tmp_path / f"{run}_s.jsonl",
            )
            save_pairs(result.true_pairs, tmp_path / f"{run}_p.jsonl")
        for name in ("a", "r", "s", "p"):
            assert (tmp_path / f"one_{name}.jsonl").read_bytes() == (
                tmp_path / f"two_{name}.jsonl"
            ).read_bytes()

    def test_seed_changes_output(self):
        base = generate_synthetic(SynthConfig(n_groups=3, n_benign=5, n_nonevading_malicious=2, seed=1))
        other = generate_synthetic(SynthConfig(n_groups=3, n_benign=5, n_nonevading_malicious=2, seed=2))
        assert base.corpus != other.corpus

    def test_full_evasion_rate_yields_one_first_pair_per_group(self):
        result = generate_synthetic(
            SynthConfig(n_groups=5, n_benign=0, n_nonevading_malicious=0, evasion_rate=1.0, seed=3)
        )
        groups = merge_groups(result.corpus)
        pairs = first_pair_per_group(
            extract_evasion_pairs(groups, result.corpus), result.corpus
        )
        assert len(pairs) == 5
        assert all(type(p) is EvasionPair and p.group_id is None for p in result.true_pairs)
        assert sorted((p.parent_id, p.child_id) for p in pairs) == sorted(
            (p.parent_id, p.child_id) for p in result.true_pairs
        )

    def test_no_groups_only_benign(self):
        result = generate_synthetic(SynthConfig(n_groups=0, n_benign=10, n_nonevading_malicious=0, seed=0))
        assert len(result.corpus.accounts) == 10
        assert len(result.corpus.sockpuppet_records) == 0
        assert all(a.ban_time is None for a in result.corpus.accounts)

    def test_parent_banned_before_child_created(self):
        result = generate_synthetic(SynthConfig(n_groups=12, n_benign=0, n_nonevading_malicious=0, seed=11))
        for pair in result.true_pairs:
            parent = result.corpus.account(pair.parent_id)
            child = result.corpus.account(pair.child_id)
            assert parent.ban_time is not None
            assert parent.ban_time < child.creation_time

    def test_benign_pool_has_revisions(self):
        result = generate_synthetic(SynthConfig(n_groups=0, n_benign=25, n_nonevading_malicious=0, seed=5))
        for acct in result.corpus.accounts:
            assert result.corpus.revisions_of(acct.account_id)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("n_groups", -1),
            ("evasion_rate", 1.5),
            ("page_overlap", -0.1),
            ("idle_gap_days", 0.0),
            ("idle_gap_days", float("inf")),
            ("idle_gap_days", float("nan")),
            ("idle_gap_days", 1e305),
            ("idle_gap_days", 1e-9),
            ("malicious_text_rate", 2.0),
            # ids are a%06d: the default 60 groups may make 180 accounts
            ("n_groups", 333_334),
            ("n_nonevading_malicious", 999_820),
            ("n_benign", 1_000_000),
        ],
    )
    def test_invalid_config(self, field, value):
        with pytest.raises(InvalidConfigError) as err:
            SynthConfig(**{field: value}).validate()
        assert err.value.field == field

    @pytest.mark.parametrize("groups, benign, malicious", [(333_333, 0, 0), (0, 999_999, 0),
                                                           (8551, 85_510, 42_755)])
    def test_account_bound_admits_999_999(self, groups, benign, malicious):
        SynthConfig(n_groups=groups, n_benign=benign, n_nonevading_malicious=malicious).validate()

    def test_timestamp_ties_in_a_block_take_corpus_order(self, tmp_path, monkeypatch):
        """Revisions of one account drawn at one timestamp are streamed in
        ``Corpus``'s (timestamp, page_id) order, not in the order drawn."""
        # an hour's life with 60 revisions on 4 pages, so timestamps tie
        profile = corpus_module._ActivityProfile(0.0, 0.0, 60, 60, 4, 4)
        monkeypatch.setattr(corpus_module, "_BASELINE", profile)
        out_of_order = []
        emit = corpus_module._Generator._emit_revisions
        by_time = attrgetter("timestamp", "page_id")

        def drawn(self, *args):
            revisions = emit(self, *args)
            out_of_order.append(revisions != sorted(revisions, key=by_time))
            return revisions

        monkeypatch.setattr(corpus_module._Generator, "_emit_revisions", drawn)
        cfg = SynthConfig(n_groups=0, n_benign=30, n_nonevading_malicious=0, seed=1)
        streamed = [tmp_path / f"streamed_{n}.jsonl" for n in "arsp"]
        assert write_synthetic(cfg, *streamed)[:2] == (30, 30 * 60)
        assert any(out_of_order)
        synth = generate_synthetic(cfg)
        held = [tmp_path / f"held_{n}.jsonl" for n in "arsp"]
        save_corpus(synth.corpus, *held[:3])
        save_pairs(synth.true_pairs, held[3])
        for a, b in zip(streamed, held):
            assert a.read_bytes() == b.read_bytes()
