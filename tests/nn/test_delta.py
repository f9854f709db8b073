"""Delta-scoring kernels: bitwise parity with the stable full forward.

The load-bearing contract: a delta-scored candidate's probabilities are
bitwise identical to the composition-stable full forward of that candidate
(the same reference the scoring service dispatches through), for every
model family, edit position, and span shape.  Everything that is *not*
delta-eligible must fall back bitwise to the legacy ``predict_proba``
path, so ``AttackResult`` fields never change when delta scoring is
switched on.

The recurrent kernel scores a proposal set as one staggered recurrence
(rows sorted by resume point, a spare row padding lone-row steps) and
resumes new base states from resident ones; both get their own bitwise
tests, as does ``diff_span`` against a full-range reference scan.

Also home to the ``max_over_time_np`` edge cases the conv kernel's
prefix/suffix-maxima decomposition leans on: all-masked windows, exact
ties at segment boundaries, and documents shorter than the kernel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import GRUClassifier, LSTMClassifier, WCNN
from repro.nn.delta import (
    DELTA_SCORING_ENV,
    DeltaScoreFn,
    RecurrentDeltaKernel,
    delta_kernel_for,
    delta_scoring_enabled,
    diff_span,
)
from repro.nn.inference import max_over_time_np, softmax_np, stable_kernel_for
from repro.text import Vocabulary

WORDS = [f"w{i:02d}" for i in range(40)]
VOCAB = Vocabulary.build([WORDS])


def make_model(family: str, max_len: int = 32, **kwargs):
    cls = {"wcnn": WCNN, "lstm": LSTMClassifier, "gru": GRUClassifier}[family]
    model = cls(VOCAB, max_len, embedding_dim=12, seed=3, **kwargs)
    model.eval()  # freshly built models default to training mode
    return model


def stable_row(model, doc) -> np.ndarray:
    """The composition-stable full forward of one document (2-row padded)."""
    n_cap = min(len(doc), model.max_len)
    pad_len = model.padded_length(n_cap)
    ids, mask = model.vocab.encode_batch([list(doc)], pad_len)
    kernel = stable_kernel_for(model)
    ids2 = np.concatenate([ids, ids])
    mask2 = np.concatenate([mask, mask])
    return softmax_np(kernel(model, ids2, mask2))[0]


def random_doc(rng, n: int) -> list[str]:
    return [WORDS[i] for i in rng.integers(0, len(WORDS), n)]


def edited(rng, base: list[str], positions) -> list[str]:
    cand = list(base)
    for pos in positions:
        cand[pos] = WORDS[int(rng.integers(0, len(WORDS)))]
    return cand


def changed(base: list[str], pos: int) -> list[str]:
    """``base`` with position ``pos`` replaced by a different word."""
    cand = list(base)
    cand[pos] = WORDS[(WORDS.index(base[pos]) + 1) % len(WORDS)]
    return cand


def assert_stable_parity(model, base, cands) -> DeltaScoreFn:
    fn = DeltaScoreFn(model)
    got = fn(cands, base=base)
    for i, cand in enumerate(cands):
        assert got[i].tobytes() == stable_row(model, cand).tobytes(), i
    assert fn.stats["delta_candidates"] == len(cands)
    return fn


def encoded(model, doc):
    ids, mask = model.vocab.encode_batch([doc], model.padded_length(len(doc)))
    return ids, mask


def full_scan_diff_span(base, cand, limit):
    """Reference: one pass over the whole range, noting every difference."""
    lo, hi = -1, 0
    for i in range(min(limit, len(base), len(cand))):
        if base[i] != cand[i]:
            if lo < 0:
                lo = i
            hi = i + 1
    return None if lo < 0 else (lo, hi)


# ---------------------------------------------------------------------------
# diff_span
# ---------------------------------------------------------------------------


class TestDiffSpan:
    def test_single_edit(self):
        assert diff_span(["a", "b", "c"], ["a", "x", "c"], 3) == (1, 2)

    def test_multi_span_covers_first_to_last(self):
        assert diff_span(list("abcde"), list("xbcdy"), 5) == (0, 5)

    def test_identical_is_none(self):
        assert diff_span(["a", "b"], ["a", "b"], 2) is None

    def test_limit_hides_tail_edits(self):
        # an edit past the truncation point is invisible to the model
        assert diff_span(list("abcd"), list("abcx"), 3) is None
        assert diff_span(list("abcd"), list("abxx"), 3) == (2, 3)

    def test_matches_full_scan_randomized(self):
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(0, 12))
            base = [str(t) for t in rng.integers(0, 3, n)]
            cand = list(base)
            for pos in rng.integers(0, max(n, 1), int(rng.integers(0, 4)) if n else 0):
                cand[pos] = str(rng.integers(0, 3))
            limit = int(rng.integers(0, n + 3))
            assert diff_span(base, cand, limit) == full_scan_diff_span(base, cand, limit)


# ---------------------------------------------------------------------------
# kernel parity (the tentpole contract)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["wcnn", "lstm", "gru"])
class TestDeltaParity:
    def test_randomized_edits_match_stable_forward_bitwise(self, family):
        model = make_model(family)
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 30))
            base = random_doc(rng, n)
            cands = [edited(rng, base, rng.integers(0, n, size=k + 1)) for k in range(6)]
            cands.append(list(base))  # base hit
            fn = DeltaScoreFn(model)
            got = fn(cands, base=base)
            for i, cand in enumerate(cands):
                want = stable_row(model, cand)
                assert got[i].tobytes() == want.tobytes()
            assert fn.stats["full_forwards"] == 0

    def test_edge_positions(self, family):
        """First and last token edits exercise the span-bound arithmetic."""
        model = make_model(family)
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 12):
            base = random_doc(rng, n)
            cands = [edited(rng, base, [0]), edited(rng, base, [n - 1])]
            if n > 2:
                cands.append(edited(rng, base, [0, n - 1]))  # widest span
            got = DeltaScoreFn(model)(cands, base=base)
            for i, cand in enumerate(cands):
                assert got[i].tobytes() == stable_row(model, cand).tobytes()

    def test_doc_longer_than_max_len(self, family):
        """Edits past the truncation point serve the cached base probs."""
        model = make_model(family, max_len=16)
        rng = np.random.default_rng(2)
        base = random_doc(rng, 24)
        visible = edited(rng, base, [3])
        invisible = edited(rng, base, [20])  # beyond max_len: same truncation
        fn = DeltaScoreFn(model)
        got = fn([visible, invisible], base=base)
        assert got[0].tobytes() == stable_row(model, visible).tobytes()
        assert got[1].tobytes() == stable_row(model, base).tobytes()
        assert fn.stats["base_hits"] == 1
        assert fn.stats["delta_candidates"] == 1

    def test_length_changed_candidates_use_legacy_path(self, family):
        model = make_model(family)
        rng = np.random.default_rng(3)
        base = random_doc(rng, 10)
        shorter = base[:-1]
        longer = base + [WORDS[0]]
        fn = DeltaScoreFn(model)
        got = fn([shorter, longer], base=base)
        want = model.predict_proba([shorter, longer])
        assert got.tobytes() == want.tobytes()
        assert fn.stats["full_forwards"] == 2
        assert fn.stats["delta_candidates"] == 0

    def test_no_base_falls_back_to_predict_proba_bitwise(self, family):
        model = make_model(family)
        rng = np.random.default_rng(4)
        docs = [random_doc(rng, int(rng.integers(2, 15))) for _ in range(4)]
        fn = DeltaScoreFn(model)
        assert fn(docs).tobytes() == model.predict_proba(docs).tobytes()

    def test_stochastic_model_falls_back(self, family):
        """Training-mode scoring must never touch the delta kernels."""
        model = make_model(family)
        model.train()
        rng = np.random.default_rng(5)
        base = random_doc(rng, 8)
        fn = DeltaScoreFn(model)
        fn([edited(rng, base, [2])], base=base)
        assert fn.stats["delta_candidates"] == 0
        assert fn.stats["full_forwards"] == 1
        assert not fn._states


@pytest.mark.parametrize("family", ["lstm", "gru"])
class TestStaggeredRecurrence:
    """Proposal-set shapes that stress the one-recurrence schedule."""

    def test_lone_earliest_row_then_many_later(self, family):
        # one candidate runs alone (padded by the spare row) until the rest join
        model = make_model(family)
        base = random_doc(np.random.default_rng(20), 14)
        cands = [changed(base, 1)] + [changed(base, p) for p in (6, 7, 7, 9, 12)]
        assert_stable_parity(model, base, cands)

    def test_candidates_out_of_start_order(self, family):
        model = make_model(family)
        base = random_doc(np.random.default_rng(21), 12)
        positions = (9, 2, 7, 2, 0, 11, 5, 0)
        assert_stable_parity(model, base, [changed(base, p) for p in positions])

    def test_single_candidate(self, family):
        model = make_model(family)
        base = random_doc(np.random.default_rng(22), 9)
        for pos in (0, 4, 8):
            assert_stable_parity(model, base, [changed(base, pos)])

    def test_all_candidates_share_a_start(self, family):
        model = make_model(family)
        base = random_doc(np.random.default_rng(23), 10)
        cands = [changed(base, 3)] + [changed(changed(base, 3), 3 + k) for k in range(1, 6)]
        assert_stable_parity(model, base, cands)

    def test_resume_at_last_real_step(self, family):
        model = make_model(family)
        base = random_doc(np.random.default_rng(24), 11)
        assert_stable_parity(model, base, [changed(base, 10)])
        assert_stable_parity(model, base, [changed(base, 10), changed(base, 10), changed(base, 4)])

    def test_units_count_suffix_steps_plus_lone_steps(self, family):
        """n_real = 10, starts 2, 5, 5: suffixes 8 + 5 + 5, and steps 2-4
        run the first row alone as a padded pair: 3 more."""
        model = make_model(family)
        base = random_doc(np.random.default_rng(25), 10)
        fn = assert_stable_parity(model, base, [changed(base, p) for p in (5, 2, 5)])
        assert fn.pop_stats()["delta_units"] == 8 + 5 + 5 + 3
        # a lone candidate runs padded all the way: 2 x its suffix
        fn = assert_stable_parity(model, base, [changed(base, 6)])
        assert fn.pop_stats()["delta_units"] == 2 * 4


@pytest.mark.parametrize("family", ["lstm", "gru"])
class TestPrefixResumedBuild:
    def assert_same_state(self, got, want):
        assert got.probs.tobytes() == want.probs.tobytes()
        assert got.payload.keys() == want.payload.keys()
        for key, arr in want.payload.items():
            assert got.payload[key].shape == arr.shape, key
            assert got.payload[key].tobytes() == arr.tobytes(), key

    def test_resumed_state_equals_cold_build_bitwise(self, family):
        model = make_model(family)
        kernel = RecurrentDeltaKernel(family, family)
        rng = np.random.default_rng(30)
        old = random_doc(rng, 16)
        resident = kernel.build(model, *encoded(model, old))
        for new in (changed(old, 9), changed(old, 0), changed(old, 15), old[:12], old + old[:5]):
            ids, mask = encoded(model, new)
            cold = kernel.build(model, ids, mask)
            resumed = kernel.build(model, ids, mask, [resident])
            self.assert_same_state(resumed, cold)
        # only the steps after the shared prefix are paid for
        ids, mask = encoded(model, changed(old, 9))
        assert kernel.build(model, ids, mask, [resident]).build_units == 2 * (16 - 9)
        # a base that is a prefix of a resident one runs no steps at all
        ids, mask = encoded(model, old[:12])
        assert kernel.build(model, ids, mask, [resident]).build_units == 0

    def test_longest_shared_prefix_wins(self, family):
        model = make_model(family)
        kernel = RecurrentDeltaKernel(family, family)
        base = random_doc(np.random.default_rng(31), 12)
        residents = [kernel.build(model, *encoded(model, changed(base, p))) for p in (3, 8, 5)]
        state = kernel.build(model, *encoded(model, base), residents)
        assert state.build_units == 2 * (12 - 8)
        self.assert_same_state(state, kernel.build(model, *encoded(model, base)))

    def test_greedy_walk_builds_resume(self, family):
        """Successive bases one edit apart: scores stay exact, builds shrink."""
        model = make_model(family)
        rng = np.random.default_rng(32)
        base = random_doc(rng, 18)
        fn = DeltaScoreFn(model)
        for pos in (12, 4, 15):
            cands = [changed(base, p) for p in range(len(base))]
            got = fn(cands, base=base)
            for i, cand in enumerate(cands):
                assert got[i].tobytes() == stable_row(model, cand).tobytes()
            base = cands[pos]
        assert fn.stats["state_builds"] == 3
        assert fn.stats["state_build_units"] == 2 * (18 + (18 - 12) + (18 - 4))


# ---------------------------------------------------------------------------
# DeltaScoreFn mechanics
# ---------------------------------------------------------------------------


class TestDeltaScoreFn:
    def test_for_model_requires_a_kernel(self):
        class NotAModel:
            pass

        assert delta_kernel_for(NotAModel()) is None
        assert DeltaScoreFn.for_model(NotAModel()) is None
        assert DeltaScoreFn.for_model(make_model("wcnn")) is not None

    def test_accepts_base_is_advertised(self):
        assert DeltaScoreFn.accepts_base is True

    def test_state_lru_eviction(self):
        model = make_model("wcnn")
        rng = np.random.default_rng(6)
        fn = DeltaScoreFn(model, max_states=2)
        bases = [random_doc(rng, 8) for _ in range(3)]
        for base in bases:
            fn([edited(rng, base, [1])], base=base)
        assert len(fn._states) == 2
        assert tuple(bases[0]) not in fn._states  # oldest evicted

    def test_empty_batch(self):
        model = make_model("lstm")
        out = DeltaScoreFn(model)([], base=["w00"])
        assert out.shape == (0, model.num_classes)

    def test_forward_reduction_beats_one_on_fanout(self):
        """Many single edits against one base must cost less than full."""
        model = make_model("wcnn")
        rng = np.random.default_rng(8)
        base = random_doc(rng, 28)
        cands = [edited(rng, base, [int(rng.integers(0, 28))]) for _ in range(64)]
        fn = DeltaScoreFn(model)
        fn(cands, base=base)
        assert fn.forward_reduction() > 1.5
        assert fn.stats["delta_units"] < fn.stats["delta_units_full"]

    def test_pop_stats_returns_and_clears(self):
        model = make_model("gru")
        rng = np.random.default_rng(9)
        base = random_doc(rng, 6)
        fn = DeltaScoreFn(model)
        fn([edited(rng, base, [1])], base=base)
        fields = fn.pop_stats()
        assert fields is not None and fields["n_delta"] == 1
        assert fn.pop_stats() is None
        fn([random_doc(rng, 5)])  # full-path call leaves no delta fields
        assert fn.pop_stats() is None

    def test_env_toggle(self, monkeypatch):
        monkeypatch.delenv(DELTA_SCORING_ENV, raising=False)
        assert not delta_scoring_enabled()
        for value in ("1", "true", "YES", "on"):
            monkeypatch.setenv(DELTA_SCORING_ENV, value)
            assert delta_scoring_enabled()
        for value in ("0", "false", "", "off"):
            monkeypatch.setenv(DELTA_SCORING_ENV, value)
            assert not delta_scoring_enabled()


# ---------------------------------------------------------------------------
# max_over_time_np edge cases (the conv kernel's pooling substrate)
# ---------------------------------------------------------------------------


class TestMaxOverTimeEdgeCases:
    def test_all_masked_windows(self):
        """Every window masked: the penalty dominates, nothing is dropped."""
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(2, 5, 3))
        mask = np.zeros((2, 5), dtype=bool)
        out = max_over_time_np(feats, mask, -1e30)
        want = (feats + (-1e30)).max(axis=1)
        np.testing.assert_array_equal(out, want)

    def test_single_window(self):
        """A document shorter than the kernel still pools one real window."""
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(1, 1, 4))
        out = max_over_time_np(feats, np.ones((1, 1), dtype=bool), -1e30)
        np.testing.assert_array_equal(out, feats[:, 0, :])

    def test_segmented_max_identity_at_every_split(self):
        """max(prefix-max, suffix-max) == global max for every split point —
        the exactness argument of the conv kernel's pooled-maxima cache."""
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(1, 9, 4))
        # plant exact ties straddling arbitrary split points
        feats[0, 2] = feats[0, 7]
        feats[0, 0, 1] = feats[0, 8, 1] = feats.max() + 1.0
        mask = np.ones((1, 9), dtype=bool)
        mask[0, 5] = False  # one masked window in the interior
        penalty = np.where(mask[0], 0.0, -1e30)[:, None]
        pfeats = feats[0] + penalty
        full = max_over_time_np(feats, mask, -1e30)[0]
        n_win = pfeats.shape[0]
        for split in range(n_win + 1):
            left = pfeats[:split].max(axis=0) if split else np.full(4, -np.inf)
            right = pfeats[split:].max(axis=0) if split < n_win else np.full(4, -np.inf)
            np.testing.assert_array_equal(np.maximum(left, right), full)

    def test_short_doc_delta_parity_with_wide_kernel(self):
        """WCNN with kernel wider than the document: delta stays exact."""
        model = make_model("wcnn", kernel_size=5)
        rng = np.random.default_rng(3)
        for n in (1, 2, 4):
            base = random_doc(rng, n)
            cands = [edited(rng, base, [i]) for i in range(n)]
            got = DeltaScoreFn(model)(cands, base=base)
            for i, cand in enumerate(cands):
                assert got[i].tobytes() == stable_row(model, cand).tobytes()
