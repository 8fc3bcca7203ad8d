"""Document-level literary machine translation toolkit.

Pieces:
  corpus        hierarchical bilingual corpus model + validating loaders
  stages        training-data builders (paragraph packing, interlinear
                documents, instruction records)
  retrieval     tf-idf / keyword style-exemplar search
  prompts       prompt templates and rendering (shared by stage builders
                and the decoder)
  decoder       incremental document decoding with history + exemplars
  backend       translation backends (mocks + HTTP chat-completions client)
  metrics       s-BLEU / d-BLEU scoring
  config        YAML config loader: every key's one type, default and range
  tokenization  CJK-aware segmentation for token budgets and retrieval terms
  cli           command-line driver (prepare / translate / evaluate / validate)
"""

__version__ = "0.1.0"
