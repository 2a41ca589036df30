"""Label-level language models for shallow fusion during search.

A model exposes an opaque, value-like state plus ``extend``: advance the
state by one label id and get back the incremental natural-log
probability.  Equal histories always produce equal states, so search can
cache per-prefix state safely.
"""

import math

LN10 = math.log(10.0)


class LanguageModel:
    """A state-machine LM over label ids.

    States must be hashable values (tuples, ints, strings, ...), and
    ``extend`` must depend only on its (state, label) arguments: the
    search memoises LM steps keyed on (state, label), so two prefixes
    whose states compare equal share one step.
    """

    def start_state(self):
        raise NotImplementedError

    def extend(self, state, label):
        """Advance state by one label id; returns (new_state, log p increment)."""
        raise NotImplementedError


class UniformLM(LanguageModel):
    """Every label costs log(1/n) regardless of history."""

    def __init__(self, n_labels):
        if n_labels < 1:
            raise ValueError(f"uniform LM needs at least one label, got {n_labels}")
        self._logp = -math.log(n_labels)

    def start_state(self):
        return ()

    def extend(self, state, label):
        return (), self._logp


class NgramLM(LanguageModel):
    """Back-off n-gram model over label ids.

    entries maps id tuples to (logp, backoff) in natural log.  Scoring
    uses the longest matching history; a missing (history, word) entry
    falls back to the history's backoff weight plus the shortened-context
    score.  Ids never seen as unigrams score the unigram floor.
    """

    def __init__(self, entries, order):
        if order < 1:
            raise ValueError(f"n-gram order must be >= 1, got {order}")
        self._entries = entries
        self.order = order
        unigrams = [v[0] for k, v in entries.items() if len(k) == 1]
        if not unigrams:
            raise ValueError("n-gram model has no unigrams")
        self._floor = min(unigrams)

    def start_state(self):
        return ()

    def extend(self, state, label):
        logp = self._score(tuple(state), label)
        new_state = (tuple(state) + (label,))[-(self.order - 1):] if self.order > 1 else ()
        return new_state, logp

    def _score(self, hist, label):
        entry = self._entries.get(hist + (label,))
        if entry is not None:
            return entry[0]
        if hist:
            back = self._entries.get(hist)
            weight = back[1] if back is not None else 0.0
            return weight + self._score(hist[1:], label)
        return self._floor


def ngram_load(path, token_to_id=None):
    """Read an ARPA-style text file into an NgramLM.

    Values are base-10 logs as usual for the format and are converted to
    natural log.  Tokens resolve through ``token_to_id`` when given,
    otherwise they must be bare integer label ids.
    """
    def resolve(tok, lineno):
        if token_to_id is not None:
            if tok in token_to_id:
                return token_to_id[tok]
            raise ValueError(f"{path}:{lineno}: unknown token {tok!r}")
        try:
            return int(tok)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: token {tok!r} is not an integer id") from None

    entries = {}
    declared = {}
    section = None
    seen_data = False
    with open(path, "r", encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line == "\\data\\":
                seen_data = True
                section = "data"
                continue
            if line == "\\end\\":
                section = "end"
                continue
            if line.startswith("\\") and line.endswith("-grams:"):
                try:
                    section = int(line[1:-len("-grams:")])
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad section header {line!r}") from None
                continue
            if section == "data":
                if not line.startswith("ngram "):
                    raise ValueError(f"{path}:{lineno}: expected 'ngram N=count', got {line!r}")
                body = line[len("ngram "):]
                n, _, count = body.partition("=")
                try:
                    declared[int(n)] = int(count)
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad ngram count line {line!r}") from None
                continue
            if isinstance(section, int):
                parts = line.split()
                if len(parts) not in (section + 1, section + 2):
                    raise ValueError(
                        f"{path}:{lineno}: expected {section} tokens with 1 or 2 weights, got {line!r}"
                    )
                try:
                    logp = float(parts[0]) * LN10
                    backoff = float(parts[section + 1]) * LN10 if len(parts) == section + 2 else 0.0
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: bad weight in {line!r}") from None
                ids = tuple(resolve(tok, lineno) for tok in parts[1 : section + 1])
                entries[ids] = (logp, backoff)
                continue
            raise ValueError(f"{path}:{lineno}: content outside any section: {line!r}")
    if not seen_data:
        raise ValueError(f"{path}: missing \\data\\ header")
    order = max((n for n, c in declared.items() if c > 0), default=0)
    if order < 1:
        raise ValueError(f"{path}: file declares no n-grams")
    return NgramLM(entries, order)
