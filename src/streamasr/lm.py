"""Label-level language models for shallow fusion during search.

A model exposes an opaque, value-like state plus ``extend``: advance the
state by one label id and get back the incremental natural-log
probability.  Equal histories always produce equal states, so search can
cache per-prefix state safely.
"""

import math

from .kernels import is_int
from .modelio import read_lines

LN10 = math.log(10.0)


class LanguageModel:
    """A state-machine LM over label ids.

    States must be hashable values (tuples, ints, strings, ...), and
    ``extend`` must depend only on its (state, label) arguments: the
    search memoises LM steps keyed on (state, label), so two prefixes
    whose states compare equal share one step, and a state that leaves
    the beam and comes back finds its steps again.  A search calls
    ``extend`` once per (state, label) pair while the state is carried
    or among the last ``PrefixTable.SPARE_ROWS`` to leave, and again
    only after its memo row went to a new state.
    """

    def start_state(self):
        raise NotImplementedError

    def extend(self, state, label):
        """Advance state by one label id; returns (new_state, log p increment)."""
        raise NotImplementedError


class UniformLM(LanguageModel):
    """Every label costs log(1/n_labels), an integer >= 1, regardless of history."""

    def __init__(self, n_labels):
        if not is_int(n_labels) or n_labels < 1:
            raise ValueError(f"uniform LM needs at least one label, an integer count: {n_labels!r}")
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


def _is_header(line):
    """Whether a stripped ARPA line starts a section."""
    return line in ("\\data\\", "\\end\\") or (line.startswith("\\") and line.endswith("-grams:"))


def _token_error(path, lineno, tokens, token_to_id):
    """The error for the first of ``tokens`` that names no label id."""
    for tok in tokens:
        if token_to_id is not None:
            if tok not in token_to_id:
                return ValueError(f"{path}:{lineno}: unknown token {tok!r}")
            continue
        try:
            int(tok)
        except ValueError:
            return ValueError(f"{path}:{lineno}: token {tok!r} is not an integer id")
    return ValueError(f"{path}:{lineno}: tokens {tokens!r} name no label ids")


def ngram_load(path, token_to_id=None):
    """Read an ARPA-style text file into an NgramLM.

    Values are base-10 logs as usual for the format and are converted to
    natural log.  Tokens resolve through ``token_to_id`` when given,
    otherwise they must be bare integer label ids >= 0.  The ``ngram
    N=count`` lines set the order, the highest N with a nonzero count;
    the counts are otherwise advisory.  What the model could not use
    raises ``ValueError`` naming ``path:line``: an n-gram listed twice or
    above the order, a weight or back-off that is NaN or +inf (-inf,
    probability zero, is allowed), or a negative id.

    The file is read once, and each ``\\N-grams:`` section is parsed in
    one loop.
    """
    bare = token_to_id is None
    lookup = int if bare else token_to_id.__getitem__
    inf = math.inf
    lines = read_lines(path)
    entries = {}
    declared = {}
    seen_data = False
    section = None  # "data" or "end" once such a header was read
    i = 0  # the next line's index; past the increment, the line's number
    while i < len(lines):
        line = lines[i].strip()
        i += 1
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
                n = int(line[1:-len("-grams:")])
            except ValueError:
                n = 0
            if n < 1:
                raise ValueError(f"{path}:{i}: bad section header {line!r}")
            if not seen_data:
                raise ValueError(f"{path}: missing \\data\\ header")
            order = max((k for k, c in declared.items() if c > 0), default=0)
            if order < 1:
                raise ValueError(f"{path}: file declares no n-grams")
            # the section's entries, up to the next header
            stop = len(lines)
            for j in range(i, stop):
                parts = lines[j].split()
                if not parts:
                    continue
                if parts[0][0] == "\\" and _is_header(lines[j].strip()):
                    stop = j
                    break
                if n > order:
                    raise ValueError(f"{path}:{j + 1}: {n}-gram above the order {order} "
                                     f"the \\data\\ counts declare")
                weights = len(parts) - n
                if weights != 1 and weights != 2:
                    raise ValueError(f"{path}:{j + 1}: expected {n} tokens with 1 or 2 weights, "
                                     f"got {lines[j].strip()!r}")
                try:
                    logp = float(parts[0]) * LN10
                    backoff = 0.0 if weights == 1 else float(parts[-1]) * LN10
                except ValueError:
                    raise ValueError(f"{path}:{j + 1}: bad weight in {lines[j].strip()!r}") from None
                # the sum is NaN or +inf exactly when either is NaN or +inf
                if not logp + backoff < inf:
                    raise ValueError(f"{path}:{j + 1}: weight or back-off is NaN or +inf "
                                     f"in {lines[j].strip()!r}")
                try:
                    ids = tuple(map(lookup, parts[1:n + 1]))
                except (KeyError, ValueError):
                    raise _token_error(path, j + 1, parts[1:n + 1], token_to_id) from None
                if bare and min(ids) < 0:
                    raise ValueError(f"{path}:{j + 1}: negative label id in {lines[j].strip()!r}")
                entry = (logp, backoff)
                if entries.setdefault(ids, entry) is not entry:
                    raise ValueError(f"{path}:{j + 1}: duplicate {n}-gram {lines[j].strip()!r}")
            i = stop
            continue
        if section == "data":
            if not line.startswith("ngram "):
                raise ValueError(f"{path}:{i}: expected 'ngram N=count', got {line!r}")
            body = line[len("ngram "):]
            n, _, count = body.partition("=")
            try:
                declared[int(n)] = int(count)
            except ValueError:
                raise ValueError(f"{path}:{i}: bad ngram count line {line!r}") from None
            continue
        raise ValueError(f"{path}:{i}: content outside any section: {line!r}")
    if not seen_data:
        raise ValueError(f"{path}: missing \\data\\ header")
    order = max((n for n, c in declared.items() if c > 0), default=0)
    if order < 1:
        raise ValueError(f"{path}: file declares no n-grams")
    try:
        return NgramLM(entries, order)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
