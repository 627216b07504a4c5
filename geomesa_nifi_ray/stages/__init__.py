"""Stages: the map_batches / map_groups building blocks.

Facade over the stage implementations (each module documents the reference
behavior it re-expresses):

- convert kernel + schema adapter: :mod:`geomesa_nifi_ray.engine`
  (``make_convert_fn``), :mod:`geomesa_nifi_ray.schema`
- batched bucket upsert/update merge: :mod:`geomesa_nifi_ray.engine`
  (``make_bucket_merger``), kernels in :mod:`geomesa_nifi_ray.upsert`
- dedup stages: :mod:`geomesa_nifi_ray.dedup`
- text analysis: :mod:`geomesa_nifi_ray.textstats`
- multimodal actor stages: :mod:`geomesa_nifi_ray.multimodal`
- export encoders: :mod:`geomesa_nifi_ray.export`
"""

from geomesa_nifi_ray.dedup import MinHashStage, SimHashStage
from geomesa_nifi_ray.engine import (
    make_bucket_merger,
    make_convert_fn,
    make_generic_convert_fn,
    run_late_exchange,
)
from geomesa_nifi_ray.joins import asof_join
from geomesa_nifi_ray.multimodal import AudioFeatureStage, FrameSampleStage, ImageDecodeStage
from geomesa_nifi_ray.textstats import LangIdStage, QualityStage

__all__ = [
    "make_convert_fn",
    "make_generic_convert_fn",
    "make_bucket_merger",
    "run_late_exchange",
    "asof_join",
    "MinHashStage",
    "SimHashStage",
    "LangIdStage",
    "QualityStage",
    "ImageDecodeStage",
    "AudioFeatureStage",
    "FrameSampleStage",
]
