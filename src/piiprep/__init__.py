"""piiprep: corpus preparation and span-level evaluation for PII tagging.

Submodules:
- labelspace: fine/coarse BIO label inventories from a taxonomy
- biospan: span extraction and orphan counting (compiled kernel + fallback)
- ingest: inline-tagged text to tokenised BIO records
- pipeline: consolidation, rebalancing, capping, rare-label filtering,
  splitting and subsetting of record streams
- manifest: reproducibility manifests for written artifacts
- scorer: streaming span-level exact-match evaluation
- analysis: entity-level comparison of two tagging systems
- objective: class-weighted cross-entropy over label distributions
- cli: the `piiprep` command
"""

__version__ = "0.1.0"
