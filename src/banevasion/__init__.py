"""Toolkit for studying ban evasion: pairing banned accounts with their
successor accounts, building matched control samples, engineering
behavioral features, and evaluating prediction, early-detection, and
attribution classifiers on desk-scale corpora."""

from .corpus import (
    Account,
    Corpus,
    EvasionPair,
    Revision,
    SockpuppetRecord,
    SynthConfig,
    SyntheticCorpus,
    generate_synthetic,
    load_corpus,
    save_corpus,
    write_synthetic,
)
from .pairing import (
    SockpuppetGroup,
    extract_evasion_pairs,
    first_pair_per_group,
    merge_groups,
)

__version__ = "0.1.0"

__all__ = [
    "Account",
    "Corpus",
    "EvasionPair",
    "Revision",
    "SockpuppetRecord",
    "SynthConfig",
    "SyntheticCorpus",
    "generate_synthetic",
    "load_corpus",
    "save_corpus",
    "write_synthetic",
    "SockpuppetGroup",
    "extract_evasion_pairs",
    "first_pair_per_group",
    "merge_groups",
    "__version__",
]
