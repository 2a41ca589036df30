"""Streaming speech recognition: restricted-look-ahead transformer encoder,
CTC head, triggered attention decoder, and a frame-synchronous joint beam
search, all on deterministic per-row numpy kernels."""

from .attention import (
    MhaParams,
    causal_mask,
    full_mask,
    lookahead_mask,
    multi_head_attention,
    scaled_dot_attention,
    truncation_mask,
)
from .ctc import (
    BLANK,
    Posteriorgram,
    PrefixScores,
    TriggerAlignment,
    ctc_forward_logprob,
    ctc_prefix_step,
    ctc_viterbi_align,
    log_posterior_row,
    posteriorgram_from_states,
    read_posteriorgram,
    write_posteriorgram,
)
from .decoder import (
    CrossAttentionCache,
    DecoderLayerParams,
    DecoderParams,
    advance_position,
    decoder_log_posterior,
    decoder_posterior,
    ta_prefix_score,
)
from .encoder import (
    CnnParams,
    EncoderLayerParams,
    EncoderParams,
    EncoderStates,
    FeatureMatrix,
    cnn_frame_count,
    enc_cnn,
    encode,
    encoder_forward,
    positional_encoding,
    positional_encoding_rows,
)
from .lm import LanguageModel, NgramLM, UniformLM, ngram_load
from .modelio import (
    ModelParams,
    Vocab,
    load_features,
    load_model,
    load_vocab,
    random_features,
    random_model,
    save_model,
    save_vocab,
    toy_vocab,
    write_features,
)
from .search import (
    CtcPrefixSearch,
    DecodeParams,
    DecodeResult,
    Hypothesis,
    JointSearch,
    LossParams,
    ctc_prefix_search,
    decode,
    joint_loss,
    joint_score,
    prefix_score,
    prune,
    top_hypotheses,
)
from .streaming import (
    StreamConfig,
    StreamingSession,
    emission_frame,
    theoretical_latency_ms,
)

__version__ = "0.1.0"
