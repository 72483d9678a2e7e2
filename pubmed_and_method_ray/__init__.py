"""Ray-Data-native entity-resolution engine (web-page graft of
carmanzhang/PubMed-AND-method).

Layout:
- ``functions/``: pure, deterministic kernels (no Ray) — string similarity,
  simhash/minhash, tf-idf, a numpy gradient-boosted classifier, metrics.
- ``sources/``:   synthetic page corpus generation, Parquet checkpointing
  with lineage manifests.
- ``stages/``:    Ray Data stages (map_batches building blocks over the
  keyed exchange of ``rayutil``).
- ``pipelines/``: end-to-end pipelines (ER flagship, dedup, similarity
  search, text analysis, relational ops) exposed to ``__ray_entry__``.
- ``state/``:     trained-model persistence.

Reference semantics are cited per-function as /root/reference/<file>:<line>.
"""

__version__ = "0.1.0"
