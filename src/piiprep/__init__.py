"""piiprep: corpus preparation and span-level evaluation for PII tagging.

Submodules:
- labelspace: fine/coarse BIO label inventories from a taxonomy
- biospan: span extraction, orphan counting and the BIO label form check
  (compiled kernel + fallback)
- ingest: inline-tagged text to tokenised BIO records
- jsonl: the one line reader and JSON line decoder
- records: the record schema, its JSONL encoding, readers and writers
- idindex: id keys, the id-uniqueness index of a line file, lookup by id
- allocation: largest-remainder apportionment with exact fractions
- pipeline: consolidation (by source line range), rebalancing, capping,
  rare-label filtering and splitting of record streams, and
  source-proportional sampling (sample_groups)
- manifest: reproducibility manifests for written artifacts
- scorer: span-level exact-match counters and the score report
- workers: work cut into line ranges, one per CPU, and the one runner for
  them (in_ranges): each range but the first in a forked worker process,
  whose values and error come back in range order; Spill, the one file
  read back by offset: worker results, encoded lines, a line index's rows
- splitscore: gold and prediction files read into scored pairs, ordered or
  matched by id through the prediction index, by gold line range
- analysis: entity-level comparison of two tagging systems
- objective: class-weighted cross-entropy over label distributions
- errors: the exception types the CLI maps to its exit codes
- cli: the `piiprep` command
"""

__version__ = "0.1.0"
