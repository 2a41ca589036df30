"""End-to-end acceptance checks.

Each test exercises one release criterion over randomized instances,
prints a single PASS/FAIL line, and asserts.  Oracles come from
tests/oracles.py: scalar loops and explicit path enumeration.
"""

import math
import time

import numpy as np
import pytest

from streamasr.attention import full_mask, scaled_dot_attention
from streamasr.ctc import (PrefixScores, ctc_forward_logprob,
                           ctc_prefix_step, ctc_viterbi_align,
                           posteriorgram_from_states)
from streamasr.decoder import ta_prefix_score
from streamasr.encoder import encode, encoder_forward, encoder_layer
from streamasr.kernels import NEG_INF, layer_norm
from streamasr.lm import UniformLM, ngram_load
from streamasr.modelio import random_model
from streamasr.search import (DecodeParams, LossParams, ctc_prefix_search,
                              decode, joint_loss)
from streamasr.streaming import (StreamConfig, StreamingSession,
                                 emission_frame, theoretical_latency_ms)
from helpers import (logprob_rows, next_label_logp, normalized_bigram_arpa,
                     random_enc_states, tiny_model)
from oracles import (collapse_path, ctc_path_masses, exhaustive_joint_argmax,
                     full_context_decoder_logps, latency_oracle,
                     stepwise_ta_with_eos, viterbi_oracle)


def report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status}")
    assert not failures, failures[:3]


def log_or_neg_inf(x):
    return math.log(x) if x > 0.0 else NEG_INF


def test_acceptance_01_ctc_exactness():
    # 200 random instances (N <= 6, V <= 3): unpruned prefix beam search
    # reproduces path-enumeration marginals to 1e-10 in the log domain,
    # and the forward scorer agrees with the same enumeration.
    rng = np.random.default_rng(1001)
    failures = []
    start = time.perf_counter()
    for case in range(200):
        n = int(rng.integers(1, 7))
        v = int(rng.integers(1, 4))
        rows = logprob_rows(rng, n, v + 1)
        masses = ctc_path_masses(rows)

        hyps = {(): PrefixScores(0.0, NEG_INF)}
        for row in rows:
            hyps = ctc_prefix_step(row, hyps, local_threshold=0.0)
        if set(hyps) != set(masses):
            failures.append((case, "prefix sets differ"))
            continue
        for pre, (b, nb) in masses.items():
            got = hyps[pre]
            if abs(got.p_b - log_or_neg_inf(b)) > 1e-10 and not (
                    got.p_b == NEG_INF and b == 0.0):
                failures.append((case, pre, "p_b", got.p_b, log_or_neg_inf(b)))
            if abs(got.p_nb - log_or_neg_inf(nb)) > 1e-10 and not (
                    got.p_nb == NEG_INF and nb == 0.0):
                failures.append((case, pre, "p_nb", got.p_nb, log_or_neg_inf(nb)))

        prefixes = sorted(masses)
        picks = [prefixes[i] for i in rng.choice(len(prefixes),
                                                 size=min(20, len(prefixes)),
                                                 replace=False)]
        for pre in picks:
            want = log_or_neg_inf(sum(masses[pre]))
            got = ctc_forward_logprob(rows, pre)
            ok = got == want if want == NEG_INF else abs(got - want) <= 1e-10
            if not ok:
                failures.append((case, pre, "forward", got, want))
        # a sequence longer than the frame count is unreachable both ways
        too_long = tuple([1] * (n + 1))
        if ctc_forward_logprob(rows, too_long) != NEG_INF:
            failures.append((case, "unreachable not -inf"))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    report(1, "ctc exactness vs path enumeration", failures)


def test_acceptance_02_joint_search_exactness():
    # 100 random tiny models: saturated-beam joint decode equals the
    # exhaustive oracle's argmax sequence, scores within 1e-6.
    rng = np.random.default_rng(1002)
    failures = []
    start = time.perf_counter()
    for case in range(100):
        m = tiny_model(int(rng.integers(1, 10**9)))
        t = int(rng.integers(2, 17))  # up to 4 encoder frames
        feats = rng.standard_normal((t, 4)).astype(np.float32)
        enc = encode(feats, m.encoder, math.inf)
        post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
        n = post.shape[0]
        lam = float(rng.choice([0.0, 0.3, 0.5, 0.8, 1.0]))
        eps_dec = int(rng.integers(0, 3))
        lm = UniformLM(3)
        params = DecodeParams(lam=lam, eps_dec=eps_dec, k_size=10**6,
                              p_size=10**6, theta1=1e9, theta2=1e9,
                              local_threshold=0.0)
        got = decode(enc, post, lm, m.decoder, params)

        def ta_fn(labels, nus, _m=m, _enc=enc, _n=n):
            return stepwise_ta_with_eos(_m.decoder, _enc, labels, nus, _n)

        banned = {m.decoder.sos_id + 1, m.decoder.eos_id + 1}
        best, scores = exhaustive_joint_argmax(
            [r.tolist() for r in post], banned, lm, params, ta_fn)
        want_labels = tuple(c - 1 for c in best)
        if got.labels != want_labels:
            failures.append((case, got.labels, want_labels))
        elif abs(got.score - scores[best]) > 1e-6:
            failures.append((case, "score", got.score, scores[best]))
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(("runtime", elapsed))
    report(2, "joint one-pass search vs exhaustive oracle", failures)


def test_acceptance_03_pure_ctc_reduction():
    # lam=1 with matching LM weights makes the joint decoder reproduce
    # standalone CTC prefix beam search on 100 random instances.
    rng = np.random.default_rng(1003)
    m = tiny_model(333)
    lm = UniformLM(3)
    failures = []
    for case in range(100):
        n = int(rng.integers(1, 9))
        post = logprob_rows(rng, n, 6)
        enc = random_enc_states(rng, n, 8)
        params = DecodeParams(lam=1.0, alpha0=0.7, alpha=0.7, k_size=6,
                              p_size=3, eps_dec=int(rng.integers(0, 4)))
        joint = decode(enc, post, lm, m.decoder, params)
        pure = ctc_prefix_search(post, lm, params,
                                 banned_ids=(m.decoder.sos_id, m.decoder.eos_id))
        if joint.labels != pure.labels or joint.score != pure.score \
                or joint.trace != pure.trace:
            failures.append((case, joint.labels, pure.labels))
    report(3, "pure-CTC reduction identity", failures)


def test_acceptance_04_streaming_offline_equivalence():
    # 50 random model/utterance pairs, chunk size 1, all (eps_enc, eps_dec)
    # combinations: bit-identical sequence, score, and trace.
    rng = np.random.default_rng(1004)
    failures = []
    for case in range(50):
        m = tiny_model(int(rng.integers(1, 10**9)))
        t = int(rng.integers(9, 18))
        frames = rng.standard_normal((t, 4)).astype(np.float32)
        lm = UniformLM(3)
        for eps_enc in (0, 1, 2):
            for eps_dec in (2, 4):
                params = DecodeParams(k_size=8, p_size=4, eps_dec=eps_dec)
                enc = encode(frames, m.encoder, eps_enc)
                post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
                offline = decode(enc, post, lm, m.decoder, params)
                sess = StreamingSession(
                    m, lm, params, StreamConfig(eps_enc=eps_enc, eps_dec=eps_dec))
                for i in range(t):
                    sess.push(frames[i:i + 1])
                got = sess.finalize()
                if (got.labels, got.score, got.trace) != (
                        offline.labels, offline.score, offline.trace):
                    failures.append((case, eps_enc, eps_dec,
                                     got.labels, offline.labels))
    report(4, "streaming equals offline bit for bit", failures)


def test_acceptance_05_encoder_causality():
    # encoder row n is bit-invariant to x0 rows beyond n + E*eps_enc for
    # eps_enc in {0,1,2,3} and E in {1,2,12}, 20 random models each; and
    # infinite look-ahead equals an unmasked encoder bit for bit.
    failures = []
    for e_layers in (1, 2, 12):
        for eps in (0, 1, 2, 3):
            rng = np.random.default_rng(7000 + 100 * e_layers + eps)
            for k in range(20):
                m = random_model(int(rng.integers(1, 10**9)), d_feat=4,
                                 d_model=8, d_ff=16, heads=2,
                                 e_layers=e_layers, vocab_size=5)
                n = int(rng.integers(0, 3))
                horizon = n + e_layers * eps
                rows = horizon + 1 + int(rng.integers(1, 3))
                x0 = rng.standard_normal((rows, 8)).astype(np.float32)
                base = encoder_forward(x0, m.encoder, eps)
                x0p = x0.copy()
                x0p[horizon + 1:] += 3.0
                pert = encoder_forward(x0p, m.encoder, eps)
                if not np.array_equal(base[n], pert[n]):
                    failures.append((e_layers, eps, k, "leaked"))
    rng = np.random.default_rng(7999)
    for k in range(20):
        m = tiny_model(int(rng.integers(1, 10**9)))
        x0 = rng.standard_normal((6, 8)).astype(np.float32)
        inf_run = encoder_forward(x0, m.encoder, math.inf)
        x = x0.copy()
        for layer in m.encoder.layers:
            x = encoder_layer(x, layer, full_mask(6, 6))
        unmasked = layer_norm(x, m.encoder.final_norm_g, m.encoder.final_norm_b)
        if not np.array_equal(inf_run, unmasked):
            failures.append(("inf", k))
    report(5, "encoder look-ahead causality", failures)


def test_acceptance_06_triggered_truncation():
    # decoder posteriors at truncation nu never see encoder rows past nu
    # (50 probes, bitwise), and an all-nu=N schedule matches a batched
    # full-context decoder run within 1e-10.
    rng = np.random.default_rng(1006)
    failures = []
    for case in range(50):
        m = tiny_model(int(rng.integers(1, 10**9)))
        n = int(rng.integers(2, 8))
        enc = random_enc_states(rng, n, 8)
        nu = int(rng.integers(1, n + 1))
        ctx = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(0, 4))))
        base = next_label_logp(m.decoder, enc, nu, ctx)
        pert = enc.copy()
        pert[nu:] += 9.0
        if nu < n and not np.array_equal(
                base, next_label_logp(m.decoder, pert, nu, ctx)):
            failures.append((case, "truncation leak"))
    for case in range(20):
        m = tiny_model(int(rng.integers(1, 10**9)))
        n = int(rng.integers(2, 7))
        enc = random_enc_states(rng, n, 8)
        length = int(rng.integers(1, 5))
        labels = tuple(int(rng.integers(2, 5)) for _ in range(length))
        full = full_context_decoder_logps(m.decoder, enc, labels)
        want = sum(float(full[i][lab]) for i, lab in enumerate(labels))
        got = ta_prefix_score(enc, labels, (n,) * length, m.decoder)
        if abs(got - want) > 1e-10:
            failures.append((case, "full-context", got, want))
    report(6, "triggered truncation and full-context limit", failures)


def test_acceptance_07_latency_arithmetic():
    # closed-form worst-case latency, zero tolerance
    failures = []
    checks = [
        (StreamConfig(eps_enc=3, eps_dec=18), 12, 2190.0),
        (StreamConfig(eps_enc=1, eps_dec=18), 12, 1230.0),
        (StreamConfig(eps_enc=0, eps_dec=0), 12, 30.0),
    ]
    for cfg, e, want in checks:
        got = theoretical_latency_ms(cfg, e)
        if got != want:
            failures.append((cfg.eps_enc, cfg.eps_dec, got, want))
        if got != latency_oracle(cfg.eps_enc, cfg.eps_dec, e, 10.0):
            failures.append(("oracle", cfg.eps_enc, cfg.eps_dec))
    for eps, want in [(0, 0.0), (1, 480.0), (2, 960.0), (3, 1440.0)]:
        got = emission_frame(0, 12, eps) * 10.0
        if got != want:
            failures.append(("encoder latency", eps, got, want))
    if theoretical_latency_ms(StreamConfig(eps_enc=math.inf, eps_dec=18), 12) != math.inf:
        failures.append(("inf",))
    report(7, "latency closed forms", failures)


def test_acceptance_08_forced_alignment():
    # Viterbi path probability equals the exhaustive maximum on 200
    # instances; paths collapse to the reference and triggers strictly
    # increase.
    rng = np.random.default_rng(1008)
    failures = []
    done = 0
    while done < 200:
        n = int(rng.integers(1, 7))
        v = int(rng.integers(1, 4))
        length = int(rng.integers(1, 4))
        labels = tuple(int(rng.integers(1, v + 1)) for _ in range(length))
        repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        if length + repeats > n:
            continue
        done += 1
        rows = logprob_rows(rng, n, v + 1)
        best, _, _ = viterbi_oracle(rows, labels)
        out = ctc_viterbi_align(rows, labels, eps_dec=int(rng.integers(0, 5)))
        got = sum(float(rows[t][c]) for t, c in enumerate(out.path))
        if abs(got - best) > 1e-10:
            failures.append((done, "score", got, best))
        if collapse_path(out.path) != labels:
            failures.append((done, "collapse", out.path, labels))
        if any(b <= a for a, b in zip(out.first_occurrence, out.first_occurrence[1:])):
            failures.append((done, "not increasing", out.first_occurrence))
        if out.nu != tuple(f + out.nu[0] - out.first_occurrence[0]
                           for f in out.first_occurrence):
            failures.append((done, "nu offset", out.nu, out.first_occurrence))
    report(8, "forced alignment vs exhaustive max", failures)


def test_acceptance_09_loss_limits():
    # gamma in {0,1} reproduces the single objectives within 1e-12;
    # gamma=0.3 equals the hand-weighted sum within 1e-10.
    rng = np.random.default_rng(1009)
    failures = []
    for case in range(10):
        m = tiny_model(int(rng.integers(1, 10**9)))
        n = int(rng.integers(3, 8))
        enc = random_enc_states(rng, n, 8)
        post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
        y = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 3))))
        align = ctc_viterbi_align(post, [lab + 1 for lab in y], eps_dec=2)
        ctc_nll = -ctc_forward_logprob(post, [lab + 1 for lab in y])
        ta_nll = -ta_prefix_score(enc, y, align.nu, m.decoder)
        if abs(joint_loss(post, enc, y, align, m.decoder, LossParams(1.0)) - ctc_nll) > 1e-12:
            failures.append((case, "gamma=1"))
        if abs(joint_loss(post, enc, y, align, m.decoder, LossParams(0.0)) - ta_nll) > 1e-12:
            failures.append((case, "gamma=0"))
        mixed = joint_loss(post, enc, y, align, m.decoder, LossParams(0.3))
        if abs(mixed - (0.3 * ctc_nll + 0.7 * ta_nll)) > 1e-10:
            failures.append((case, "gamma=0.3"))
    report(9, "loss limit identities", failures)


def test_acceptance_10_normalization_suite(tmp_path):
    # 1000 randomized distributions: attention weight rows, CTC posterior
    # rows, decoder posteriors, and LM conditionals all sum to one.
    rng = np.random.default_rng(1010)
    failures = []
    cases = 0

    for _ in range(400):
        width = int(rng.integers(2, 9))
        q = rng.normal(scale=4.0, size=(1, 4))
        k = rng.normal(size=(width, 4))
        mask = full_mask(1, width)
        if rng.random() < 0.3:
            mask[0, rng.integers(0, width)] = False
        # with identity values the attention output is its weight row
        out = scaled_dot_attention(q, k, np.eye(width), mask)
        cases += 1
        if abs(float(out.sum()) - 1.0) > 1e-6 or (out[~mask] != 0.0).any():
            failures.append(("attention weights", cases))

    m = tiny_model(2020)
    for _ in range(300):
        states = rng.standard_normal((1, 8)).astype(np.float32)
        post = posteriorgram_from_states(states, m.ctc_w, m.ctc_b)
        cases += 1
        if abs(float(np.exp(post[0]).sum()) - 1.0) > 1e-6:
            failures.append(("posterior", cases))

    for _ in range(100):
        n = int(rng.integers(2, 6))
        enc = random_enc_states(rng, n, 8)
        ctx = tuple(int(rng.integers(2, 5)) for _ in range(int(rng.integers(0, 3))))
        p = np.exp(next_label_logp(m.decoder, enc, n, ctx))
        cases += 1
        if abs(float(p.sum()) - 1.0) > 1e-6:
            failures.append(("decoder", cases))

    ids = [0, 1, 2, 3]
    for f in range(10):
        path = tmp_path / f"lm{f}.arpa"
        path.write_text(normalized_bigram_arpa(rng, ids))
        lm = ngram_load(path)
        for hist in [()] + [(h,) for h in ids]:
            state = lm.start_state()
            for lab in hist:
                state, _ = lm.extend(state, lab)
            total = sum(math.exp(lm.extend(state, w)[1]) for w in ids)
            cases += 1
            if abs(total - 1.0) > 1e-6:
                failures.append(("ngram", f, hist, total))
    uni = UniformLM(7)
    for _ in range(150):
        total = sum(math.exp(uni.extend((), w)[1]) for w in range(7))
        cases += 1
        if abs(total - 1.0) > 1e-6:
            failures.append(("uniform", cases))

    if cases != 1000:
        failures.append(("case count", cases))
    report(10, "normalization across 1000 cases", failures)
