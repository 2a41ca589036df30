import math

import numpy as np
import pytest

from streamasr.cli import build_parser, main
from streamasr.ctc import posteriorgram_from_states
from streamasr.encoder import encode
from streamasr.lm import UniformLM
from streamasr.modelio import (load_features, load_model, load_vocab, random_features,
                               random_model, save_model, save_vocab, toy_vocab,
                               write_features)
from streamasr.search import DecodeParams, ctc_prefix_search, decode

UNIFORM_ARPA = """\\data\\
ngram 1=3

\\1-grams:
-0.4771212547196624 a
-0.4771212547196624 b
-0.4771212547196624 c

\\end\\
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliws")
    m = random_model(150, d_feat=4, d_model=8, heads=2, e_layers=2,
                     d_layers=1, vocab_size=5)
    save_model(root / "toy.model", m)
    save_vocab(root / "toy.vocab", toy_vocab(3))
    for i, (seed, t) in enumerate([(151, 18), (152, 9)]):
        write_features(root / f"utt{i}.feats", random_features(seed, t, 4))
    (root / "toy.arpa").write_text(UNIFORM_ARPA)
    return root


def base_args(ws, **extra):
    args = ["--model", str(ws / "toy.model"), "--vocab", str(ws / "toy.vocab"),
            "--features", str(ws / "utt0.feats"), "--features", str(ws / "utt1.feats"),
            "--eps-enc", "1", "--eps-dec", "2", "--k", "8", "--p", "4"]
    for k, v in extra.items():
        args += [f"--{k.replace('_', '-')}", str(v)]
    return args


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_offline_decode_prints_one_line_per_utterance(capsys, workspace):
    code, out, err = run(capsys, base_args(workspace))
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert set(line) <= set("abc")


def library_offline(ws, ctc_only):
    """The transcript and trace lines of base_args's files, decoded by the
    library's offline path with the command's default weights."""
    m = load_model(ws / "toy.model")
    vocab = load_vocab(ws / "toy.vocab")
    params = DecodeParams(lam=0.5, alpha0=0.7, alpha=0.5, beta=2.0, k_size=8, p_size=4,
                          theta1=16.0, theta2=6.0, eps_dec=2)
    out, trace = [], []
    for i, name in enumerate(["utt0.feats", "utt1.feats"]):
        enc = encode(load_features(ws / name), m.encoder, 1)
        post = posteriorgram_from_states(enc, m.ctc_w, m.ctc_b)
        if ctc_only:
            result = ctc_prefix_search(post, UniformLM(3), params,
                                       banned_ids=m.decoder.reserved_ids)
        else:
            result = decode(enc, post, UniformLM(3), m.decoder, params)
        out.append(vocab.detokenize(result.labels))
        trace += [f"utt {i} {ws / name}"] + result.trace
    return out, trace


def test_streaming_flag_reproduces_offline_output(capsys, workspace, tmp_path):
    # with and without --streaming the command decodes through a session;
    # both must print what the library's offline decode gives
    for ctc_only in (False, True):
        want_out, want_trace = library_offline(workspace, ctc_only)
        for streaming in (None, 1):
            t = tmp_path / f"{ctc_only}-{streaming}.trace"
            args = base_args(workspace, trace=t) + (["--ctc-only"] if ctc_only else [])
            if streaming is not None:
                args += ["--streaming", str(streaming)]
            code, out, _ = run(capsys, args)
            assert code == 0
            assert out.splitlines() == want_out
            assert t.read_text().splitlines() == want_trace


def test_larger_chunks_match_too(capsys, workspace):
    _, out1, _ = run(capsys, base_args(workspace))
    _, out7, _ = run(capsys, base_args(workspace, streaming=7))
    assert out1 == out7


def test_ctc_only_equals_pure_ctc_joint_settings(capsys, workspace):
    code, ctc_out, _ = run(capsys, base_args(workspace) + ["--ctc-only"])
    assert code == 0
    _, joint_out, _ = run(capsys, base_args(workspace, **{"lambda": 1.0, "alpha": 0.7}))
    assert ctc_out == joint_out


def test_repeat_runs_are_identical(capsys, workspace, tmp_path):
    ta = tmp_path / "a.trace"
    tb = tmp_path / "b.trace"
    _, out_a, _ = run(capsys, base_args(workspace, trace=ta))
    _, out_b, _ = run(capsys, base_args(workspace, trace=tb))
    assert out_a == out_b
    assert ta.read_bytes() == tb.read_bytes()


def test_trace_file_structure(workspace, tmp_path, capsys):
    t = tmp_path / "t.trace"
    run(capsys, base_args(workspace, trace=t))
    lines = t.read_text().splitlines()
    headers = [ln for ln in lines if ln.startswith("utt ")]
    assert len(headers) == 2
    assert headers[0].startswith("utt 0 ") and headers[0].endswith("utt0.feats")
    body = [ln for ln in lines if not ln.startswith("utt ")]
    assert body and all(ln.startswith("frame=") for ln in body)


def test_arpa_lm_flag(capsys, workspace):
    code, out, err = run(capsys, base_args(workspace, lm=workspace / "toy.arpa"))
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 2


def test_eps_enc_inf_parses(capsys, workspace):
    code, out, _ = run(capsys, base_args(workspace, **{"eps-enc": "inf"}))
    assert code == 0
    args = build_parser().parse_args(base_args(workspace, **{"eps-enc": "infinity"}))
    assert args.eps_enc == math.inf


def test_missing_required_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--vocab", "x"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


def test_bad_eps_enc_exits_one(capsys, workspace):
    with pytest.raises(SystemExit) as exc:
        main(base_args(workspace, **{"eps-enc": "woof"}))
    assert exc.value.code == 1


@pytest.mark.parametrize("model", ["toy.model", "missing.model"])
def test_a_bad_eps_enc_is_reported_before_anything_loads(capsys, workspace, model):
    # it used to be reported after the model, vocabulary and LM had
    # loaded, as an error of the first feature file
    args = base_args(workspace, **{"eps-enc": "-1"})
    args[1] = str(workspace / model)
    code, out, err = run(capsys, args)
    assert code == 1 and out == ""
    assert err == "streamasr: error: eps_enc must be a non-negative integer or inf, got -1\n"


def test_runtime_errors_exit_one_with_message(capsys, workspace, tmp_path):
    code, _, err = run(capsys, ["--model", str(tmp_path / "nope.model"),
                                "--vocab", str(workspace / "toy.vocab"),
                                "--features", str(workspace / "utt0.feats")])
    assert code == 1
    assert "streamasr: error:" in err

    code, _, err = run(capsys, base_args(workspace, streaming=0))
    assert code == 1
    assert "chunk must be >= 1" in err

    small = toy_vocab(2)
    save_vocab(tmp_path / "small.vocab", small)
    code, _, err = run(capsys, ["--model", str(workspace / "toy.model"),
                                "--vocab", str(tmp_path / "small.vocab"),
                                "--features", str(workspace / "utt0.feats")])
    assert code == 1
    assert "vocabulary has 4 tokens but the model expects 5" in err


@pytest.mark.parametrize("streaming", [None, 4])
@pytest.mark.parametrize("shift", ["0.0", "nan"])
def test_bad_frame_shift_fails_with_and_without_streaming(capsys, workspace, tmp_path,
                                                          streaming, shift):
    bad = tmp_path / "bad.feats"
    bad.write_bytes(f"FEATS v1\n8 4 {shift}\n".encode("ascii") + b"\x00" * 128)
    args = ["--model", str(workspace / "toy.model"), "--vocab", str(workspace / "toy.vocab"),
            "--features", str(bad)]
    if streaming is not None:
        args += ["--streaming", str(streaming)]
    code, out, err = run(capsys, args)
    assert code == 1 and out == ""
    assert f"{bad}: frame shift must be positive and finite" in err


@pytest.mark.parametrize("streaming", [None, 4])
def test_feature_width_must_match_the_model(capsys, workspace, tmp_path, streaming):
    # 3 columns give the conv stack the width 4 does, so the offline path
    # used to decode them silently; of several files, the error names the
    # one that failed
    narrow = tmp_path / "narrow.feats"
    write_features(narrow, random_features(153, 12, 3))
    args = ["--model", str(workspace / "toy.model"), "--vocab", str(workspace / "toy.vocab"),
            "--features", str(workspace / "utt0.feats"), "--features", str(narrow)]
    if streaming is not None:
        args += ["--streaming", str(streaming)]
    code, out, err = run(capsys, args)
    assert code == 1 and len(out.splitlines()) == 1
    assert f"{narrow}: got 3 feature columns, the model takes 4" in err
    assert "utt0.feats" not in err
