"""piiprep: corpus preparation and span-level evaluation for PII tagging.

Submodules:
- labelspace: fine/coarse BIO label inventories from a taxonomy
- biospan: span extraction and orphan counting (compiled kernel + fallback)
- ingest: inline-tagged text to tokenised BIO records
- jsonl: the one line reader and JSON line decoder
- records: the record schema, its JSONL encoding, readers and writers
- idindex: the id-uniqueness index of a line file
- allocation: largest-remainder apportionment with exact fractions
- pipeline: consolidation (by source line range), rebalancing, capping,
  rare-label filtering and splitting of record streams, and
  source-proportional sampling (sample_groups)
- manifest: reproducibility manifests for written artifacts
- scorer: streaming span-level exact-match evaluation
- workers: work cut into line ranges, one per CPU, each but the first in a
  forked worker process
- splitscore: scoring, ordered and unordered, by gold line range
- predindex: the prediction index behind unordered scoring
- analysis: entity-level comparison of two tagging systems
- objective: class-weighted cross-entropy over label distributions
- errors: the exception types the CLI maps to its exit codes
- cli: the `piiprep` command
"""

__version__ = "0.1.0"
