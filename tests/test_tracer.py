"""The benchmark's tracer, ``perfbench/tracer.py``, on the package: every
name it wraps exists, a traced decode gives the untraced bits, and
uninstall puts every original back.  A rename in ``src/`` that the tracer
still wraps by its old name fails here."""

import numpy as np

from streamasr.ctc import posteriorgram_from_states
from streamasr.lm import UniformLM
from streamasr.search import DecodeParams, JointSearch, ctc_prefix_search, decode
from streamasr.streaming import StreamConfig, StreamingSession
from helpers import load_module, random_enc_states, tiny_model


def decodes(m, enc, post, frames):
    """An offline joint decode, a pure-CTC decode and a streamed joint
    decode, as (labels, score, trace) each."""
    lm, params = UniformLM(3), DecodeParams(k_size=8, p_size=4, eps_dec=2)
    sess = StreamingSession(m, lm, params, StreamConfig(eps_enc=1, eps_dec=2))
    for t in range(0, frames.shape[0], 8):
        sess.push(frames[t:t + 8])
    outs = (decode(enc, post, lm, m.decoder, params),
            ctc_prefix_search(post, lm, params, m.decoder.reserved_ids), sess.finalize())
    return [(out.labels, out.score, out.trace) for out in outs]


def test_the_tracer_wraps_names_that_exist_and_puts_every_original_back():
    tracer_mod = load_module("perfbench_tracer", "perfbench/tracer.py")
    m = tiny_model(150)
    enc = random_enc_states(np.random.default_rng(150), 8, 8)
    post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
    frames = np.random.default_rng(151).standard_normal((32, 4)).astype(np.float32)
    want = decodes(m, enc, post, frames)
    # the tracer reads a search's TA entries as getattr(search, "ta", None);
    # they live on the prefix nodes, so that reads None and the ratio 0
    assert getattr(JointSearch(m.decoder, UniformLM(3), DecodeParams(), post.shape[1]),
                   "ta", None) is None

    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # a wrapped name that is gone raises KeyError here
        patched = list(tracer._patched)
        for owner, attr, original in patched:
            assert owner.__dict__[attr].__wrapped__ is original, (owner, attr)
        got = decodes(m, enc, post, frames)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original, (owner, attr)
    assert got == want
    summary = tracer.summary(1)
    assert summary["search.advance.calls"] == 3 * post.shape[0]
    assert summary["search.prune.calls"] > 0
    assert summary["search.ta_useful_ratio"] == 0.0
