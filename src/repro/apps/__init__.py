"""Application layer: the paper's link-prediction case study (Section 6.7).

The case study plugs LightRW-accelerated Node2Vec into a SNAP-style
pipeline: generate walks, train skip-gram embeddings, score vertex pairs
by cosine similarity.  :mod:`repro.apps.word2vec` is a from-scratch numpy
implementation of skip-gram with negative sampling (the Word2Vec stand-in)
and :mod:`repro.apps.link_prediction` assembles the full pipeline with the
Figure 18 time breakdown.
"""

from repro.apps.link_prediction import LinkPredictionPipeline, LinkPredictionReport
from repro.apps.word2vec import SkipGramModel, train_skipgram

__all__ = [
    "LinkPredictionPipeline",
    "LinkPredictionReport",
    "SkipGramModel",
    "train_skipgram",
]
