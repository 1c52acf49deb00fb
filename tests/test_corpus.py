from __future__ import annotations

import gc
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banevasion import corpus as corpus_module
from banevasion.corpus import (
    Account,
    Corpus,
    EvasionPair,
    Revision,
    SockpuppetRecord,
    SynthConfig,
    generate_synthetic,
    load_corpus,
    load_pairs,
    save_corpus,
    save_pairs,
)
from banevasion.errors import InvalidConfigError, RecordParseError, ReferentialIntegrityError
from banevasion.pairing import extract_evasion_pairs, first_pair_per_group, merge_groups

from conftest import account, corpus_of, record, revision


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
        assert (len(corpus.accounts), len(corpus.revisions), len(corpus.sockpuppet_records)) == (0, 0, 0)

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
        assert (len(corpus.accounts), len(corpus.revisions), len(corpus.sockpuppet_records)) == (2, 1, 0)

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
        line = len(path.read_text(encoding="utf-8").splitlines())
        with pytest.raises(error) as err:
            load_corpus(a, r, s)
        assert (err.value.path, err.value.line_number) == (str(path), line)
        assert str(err.value).startswith(f"{path}:{line}: ")
        assert fragment in str(err.value)

    @pytest.mark.parametrize("key", ["parent_id", "child_id"])
    def test_pairs_reject_non_string_ids(self, tmp_path, key):
        path = tmp_path / "pairs.jsonl"
        write_lines(path, [{"parent_id": "p", "child_id": "c"}, {"parent_id": "p", "child_id": "c", key: 1}])
        with pytest.raises(RecordParseError) as err:
            load_pairs(path)
        assert (err.value.line_number, err.value.reason) == (2, f"field {key!r} must be a string")

    @pytest.mark.parametrize(
        "pair, error, reason",
        [
            (("zz", "c"), ReferentialIntegrityError, "unknown account id 'zz' (pair parent)"),
            (("p", "zz"), ReferentialIntegrityError, "unknown account id 'zz' (pair child)"),
            (("c", "late"), RecordParseError, "parent 'c' was never banned"),
            (("p", "c"), RecordParseError, "child 'c' was not created after the ban of 'p'"),
            (("late", "p"), RecordParseError, "child 'p' was not created after the ban of 'late'"),
            (("p", "late"), RecordParseError, "child 'late' is named by an earlier line"),
        ],
        ids=["unknown_parent", "unknown_child", "never_banned", "created_at_ban", "reversed",
             "repeated_child"],
    )
    def test_pairs_checked_against_corpus(self, tmp_path, pair, error, reason):
        # c is created exactly at p's ban, late one second after it
        corpus = corpus_of([account("p", 0, 100), account("c", 100), account("late", 101, 200)])
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
        assert str(err.value) == f"{path}:2: child 'c' is named by an earlier line"


# The corruptions that parse but break a corpus rule.
RULE_CORRUPTIONS = [
    "ban_at_creation", "duplicate_id", "account_id_tab", "account_id_cr", "account_id_lf",
    "revision_owner_unknown", "revision_before_creation", "member_unknown", "record_one_member",
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
        with pytest.raises(error) as err:
            Corpus(*(tuple(parts[k]) for k in "ars"))
        assert (err.value.path, err.value.line_number) == (None, None)
        assert fragment in str(err.value)
        assert "<corpus>" not in str(err.value)

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
        # escapes, a line separator, a non-BMP character, and timestamps that
        # are not exactly int (an in-memory corpus can hold them)
        odd = 'q"uo\\te \x00 \u2028 \U0001f600 é'
        corpus = corpus_of(
            [account("a", 0), account(odd, 0, 9, username=odd)],
            [
                revision("a", odd, 3, added=odd, deleted="\t\n", comment="\x7f\ud7ff"),
                revision(odd, "p", True, comment=odd),
                revision("a", "p", 5.0),
            ],
            [record("a", odd)],
        )
        paths = (tmp_path / "a.jsonl", tmp_path / "r.jsonl", tmp_path / "s.jsonl")
        save_corpus(corpus, *paths)
        encode = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ":")).encode
        expected = (
            [encode(a._asdict()) for a in corpus.accounts],
            [encode(r._asdict()) for r in corpus.revisions],
            [encode({"member_ids": sorted(rec.member_ids)}) for rec in corpus.sockpuppet_records],
        )
        for path, lines in zip(paths, expected):
            assert path.read_bytes() == "".join(line + "\n" for line in lines).encode("utf-8")


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
        for rev in corpus.revisions:
            assert rev.account_id is corpus.account(rev.account_id).account_id
            assert page_ids.setdefault(rev.page_id, rev.page_id) is rev.page_id
        assert len(page_ids) < len(corpus.revisions)  # some page is revised twice


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
            gen.revisions = []
            gen._emit_revisions(acct, persona, n % 2 == 0, 1000 + n)
            expected = stdlib_revisions(reference, gen.config, acct, persona, n % 2 == 0, 1000 + n)
            assert gen.revisions == expected
            vocab = corpus_module._draw_table(words)
            lo = n % 7
            assert gen._text(vocab, False, lo, lo + n - 1) == " ".join(
                reference.choice(words) if reference.random() >= 0.4
                else reference.choice(corpus_module._FUNCTION_WORDS)
                for _ in range(reference.randint(lo, lo + n - 1))
            )
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
            ("malicious_text_rate", 2.0),
        ],
    )
    def test_invalid_config(self, field, value):
        with pytest.raises(InvalidConfigError) as err:
            SynthConfig(**{field: value}).validate()
        assert err.value.field == field
