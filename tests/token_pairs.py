"""The token columns of a Corpus as per-row (segment a, segment b) token
lists, and back: the shape the per-token reference loops in the tests read."""

import numpy as np


def token_pairs(corpus):
    """[(tokens_a, tokens_b)] of every row of ``corpus``."""
    words = [corpus.vocab[i] for i in corpus.token_ids.tolist()]
    off = corpus.token_offsets.tolist()
    return [(words[off[k]:off[k + 1]], words[off[k + 1]:off[k + 2]])
            for k in range(0, len(off) - 1, 2)]


def token_columns(pairs):
    """Keyword arguments ``vocab``, ``token_ids`` and ``token_offsets`` of a
    Corpus whose rows hold ``pairs``."""
    index = {}
    segments = [seg for pair in pairs for seg in pair]
    ids = [index.setdefault(tok, len(index)) for seg in segments for tok in seg]
    return {"vocab": list(index), "token_ids": np.array(ids, dtype=np.int32),
            "token_offsets": np.cumsum([0] + [len(seg) for seg in segments],
                                       dtype=np.int64)}
