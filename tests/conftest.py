from __future__ import annotations

import random
from itertools import chain

import pytest

from banevasion.corpus import Account, Corpus, Revision, SockpuppetRecord


def account(account_id, creation, ban=None, username=None):
    return Account(account_id, username or f"user_{account_id}", creation, ban)


def corpus_of(accounts, revisions=(), records=()):
    return Corpus(tuple(accounts), tuple(revisions), tuple(records))


def all_revisions(corpus):
    """Every revision of a corpus, owner after owner in id order: one stable
    sort of them all by (account_id, timestamp, page_id)."""
    return tuple(chain.from_iterable(corpus.revisions_by_account.values()))


def revision(account_id, page_id, timestamp, added="", deleted="", comment=""):
    return Revision(account_id, page_id, timestamp, added, deleted, comment)


def record(*member_ids):
    return SockpuppetRecord(frozenset(member_ids))


def random_group_accounts(rng: random.Random, n: int, time_range: int = 60):
    """Accounts with small timestamp ranges so ties are frequent."""
    accounts = []
    for i in range(n):
        creation = rng.randint(0, time_range)
        ban = creation + rng.randint(1, time_range) if rng.random() < 0.8 else None
        accounts.append(Account(f"a{i:02d}", f"u{i:02d}", creation, ban))
    return accounts


@pytest.fixture
def tiny_corpus():
    accounts = [
        account("p1", creation=0, ban=1000),
        account("c1", creation=2000, ban=5000),
        account("m1", creation=100, ban=900),
        account("b1", creation=2100),
    ]
    revisions = [
        revision("p1", "page-a", 10, added="the damn report was edited", comment="fix typo"),
        revision("p1", "page-b", 500, added="it was talked about ago", comment="add link"),
        revision("c1", "page-a", 2500, added="the damn report was changed", comment="fix typo"),
        revision("m1", "page-z", 200, added="hello there", comment="note"),
        revision("b1", "page-q", 2200, added="calm benign words", comment="cleanup"),
    ]
    return corpus_of(accounts, revisions, [record("p1", "c1")])
