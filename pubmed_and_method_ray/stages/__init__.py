"""Ray Data stages: map_batches building blocks of the pipelines, over
the keyed exchange of ``rayutil``."""
