"""Shared experiment setup: datasets, embeddings, trained victims, attacks.

Every table/figure driver draws from one :class:`ExperimentContext`, which
builds (and caches) the three task corpora, their synonym-clustered
embeddings, language models, and trained WCNN/LSTM victims.  Trained
weights are cached on disk so repeated benchmark runs skip training.

Canonical settings (the reduced-scale analog of paper Sec. 6.2):

- vocabulary: all corpus words (the paper's top-100k cap never binds at
  this scale);
- embeddings: 32-d synonym-clustered vectors (cluster radius 0.6), the
  stand-in for 300-d word2vec;
- similarity thresholds: ``delta_w = 0.45`` / ``delta_s = 0.4`` on our
  1/(1+d) WMD scale — calibrated so synonym clusters pass and unrelated
  words fail, playing the role of the paper's 0.75 on spaCy's scale;
- termination τ = 0.7, neighbor cap k = 15, λ_w = 20% (paper values).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from repro.attacks import (
    ATTACKS,
    AttackEngine,
    ParaphraseConfig,
    SentenceParaphraser,
    WordParaphraser,
    build_attack,
)
from repro.data import (
    CorpusConfig,
    TextDataset,
    make_news_corpus,
    make_sentiment_corpus,
    make_spam_corpus,
    news_lexicon,
    sentiment_lexicon,
    spam_lexicon,
)
from repro.data.lexicon import DomainLexicon
from repro.eval.config import RunConfig
from repro.eval.progress import ProgressPrinter
from repro.models import GRUClassifier, LSTMClassifier, TextClassifier, TrainConfig, WCNN, fit
from repro.nn.serialization import load, save
from repro.obs.exporter import TelemetryServer
from repro.obs.registry import MetricsRegistry
from repro.obs.spans import PhaseProfiler
from repro.text import (
    NGramLM,
    Vocabulary,
    embedding_matrix_for_vocab,
    synonym_clustered_embeddings,
)

__all__ = ["ExperimentSettings", "ExperimentContext", "DATASETS", "MODELS", "METHOD_ALIASES"]

#: driver-facing method names (paper terminology) → registry names; the
#: registry names themselves are also accepted by :meth:`make_attack`
METHOD_ALIASES = {
    "joint": "joint",
    "joint-greedy": "joint_greedy",
    "gradient-guided": "gradient_guided",
    "objective-greedy": "greedy_word",
    "gradient": "gradient_word",
    "random": "random_word",
}

# The aliases live here but the registry lives in repro.attacks — the two
# have drifted before (a renamed registry entry leaves a dangling alias
# that only explodes when some driver uses it).  Fail at import instead.
_dangling = {a: t for a, t in METHOD_ALIASES.items() if t not in ATTACKS}
if _dangling:
    raise ImportError(
        f"METHOD_ALIASES targets missing from repro.attacks.ATTACKS: "
        f"{_dangling} (registry has {sorted(ATTACKS)})"
    )
del _dangling

DATASETS = ("news", "trec07p", "yelp")
MODELS = ("wcnn", "lstm")

_CORPUS_FACTORIES = {
    "news": (make_news_corpus, news_lexicon),
    "trec07p": (make_spam_corpus, spam_lexicon),
    "yelp": (make_sentiment_corpus, sentiment_lexicon),
}


@dataclass(frozen=True)
class ExperimentSettings:
    """Reduced-scale analog of the paper's Sec. 6.2 configuration."""

    n_train: int = 360
    n_test: int = 100
    max_len: int = 72
    embedding_dim: int = 32
    # Embedding geometry + corpus frequency bias together determine how
    # under-trained rare synonyms are — the attack surface.  radius 0.6
    # puts within-cluster similarity at ~0.54 and cross-cluster at ~0.41
    # on the 1/(1+d) scale, so delta_w = 0.45 passes synonyms and rejects
    # unrelated words; canonical_prob 0.9 leaves rare synonyms with weak
    # learned responses (clean accuracy stays in the paper's 93-100% band).
    cluster_radius: float = 0.6
    canonical_prob: float = 0.9
    wcnn_filters: int = 64
    lstm_hidden: int = 48
    epochs: int = 10
    tau: float = 0.7
    k_neighbors: int = 15
    delta_w: float = 0.45
    delta_s: float = 0.4
    # The paper's syntactic bound is delta^2 = 2 on a neural LM over real
    # corpora.  On our small synthetic corpora an interpolated n-gram LM
    # charges rare synonyms ~5 nats just for being rare (median candidate
    # delta is 4.9), so the calibrated analog is the ~90th percentile,
    # 7.5 nats: the filter prunes only the most jarring candidates, which
    # is its role in the paper.
    delta_lm: float = 7.5
    lm_order: int = 3
    seed: int = 0

    def cache_key(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha1(payload).hexdigest()[:12]


class ExperimentContext:
    """Lazily builds and memoizes every experiment ingredient.

    One of the two entry points that read the environment
    (:mod:`repro.eval.config`): a ``None`` ``cache_dir``, ``progress``,
    ``journal_dir``, ``trace_dir`` or ``telemetry_port`` falls back to its
    ``REPRO_*`` variable.  ``n_workers`` and ``delta_scoring`` go as given
    to every ``evaluate_attack`` call, which resolves them.
    """

    def __init__(
        self,
        settings: ExperimentSettings | None = None,
        cache_dir: str | os.PathLike | None = None,
        n_workers: int | None = None,
        progress=None,
        journal_dir: str | os.PathLike | None = None,
        trace_dir: str | os.PathLike | None = None,
        scoring_service: bool | None = None,
        delta_scoring: bool | None = None,
        telemetry_port: int | None = None,
    ) -> None:
        # kept only because bench/child.py still passes scoring_service=False
        if scoring_service is not None and scoring_service is not False:
            raise ValueError(
                "the scoring service was removed; ExperimentContext accepts "
                f"only scoring_service=None or False, got {scoring_service!r}"
            )
        config = RunConfig.from_env(
            cache_dir=cache_dir,
            # a caller's callback wins over REPRO_PROGRESS
            progress=True if progress is not None else None,
            journal_dir=journal_dir,
            trace_dir=trace_dir,
            telemetry_port=telemetry_port,
        )
        self.settings = settings or ExperimentSettings()
        self.cache_dir = config.cache_dir
        #: worker count and delta-scoring flag handed to every
        #: evaluate_attack call by the drivers
        self.n_workers = n_workers
        self.delta_scoring = delta_scoring
        #: heartbeat callback (e.g. repro.eval.progress.ProgressPrinter)
        #: handed to evaluate_attack by every table/figure driver; None
        #: keeps runs silent
        if progress is None and config.progress:
            progress = ProgressPrinter()
        self.progress = progress
        #: directory for per-cell JSONL run journals; None disables
        #: checkpointing
        self.journal_dir = config.journal_dir
        #: root directory for per-cell attack traces / metrics.json /
        #: failures.jsonl; None disables tracing.  Render a traced run with
        #: `python -m repro.experiments report`.
        self.trace_dir = config.trace_dir
        #: live-telemetry HTTP exporter port (repro.obs.exporter; 0 = an
        #: ephemeral port); None disables it.  The context owns one
        #: TelemetryServer for its whole lifetime, so the endpoints keep
        #: serving the last cell's frozen final state between
        #: evaluate_attack calls — post-run scrapes match metrics.json.
        self.telemetry_port = config.telemetry_port
        self._telemetry: TelemetryServer | None = None
        self._datasets: dict[str, TextDataset] = {}
        self._lexicons: dict[str, DomainLexicon] = {}
        self._vectors: dict[str, dict[str, np.ndarray]] = {}
        self._vocabs: dict[str, Vocabulary] = {}
        self._lms: dict[str, NGramLM] = {}
        self._models: dict[tuple[str, str], TextClassifier] = {}
        self._word_paraphrasers: dict[str, WordParaphraser] = {}
        self._sentence_paraphrasers: dict[str, SentenceParaphraser] = {}
        # one registry + phase profiler shared by every victim, paraphraser
        # and attack this context builds; drivers and benchmarks read/reset
        # them around the sections they measure.  Victims count their
        # forwards and the profiler its spans into the registry, and pool
        # workers ship theirs home as registry snapshots.
        self.metrics = MetricsRegistry()
        self.profiler = PhaseProfiler(registry=self.metrics)

    # -- corpora -----------------------------------------------------------
    def dataset(self, name: str) -> TextDataset:
        if name not in _CORPUS_FACTORIES:
            raise KeyError(f"unknown dataset {name!r}; choose from {DATASETS}")
        if name not in self._datasets:
            factory, _ = _CORPUS_FACTORIES[name]
            s = self.settings
            self._datasets[name] = factory(
                CorpusConfig(
                    n_train=s.n_train,
                    n_test=s.n_test,
                    canonical_prob=s.canonical_prob,
                    seed=s.seed + 100,
                )
            )
        return self._datasets[name]

    def lexicon(self, name: str) -> DomainLexicon:
        if name not in self._lexicons:
            _, lex_factory = _CORPUS_FACTORIES[name]
            self._lexicons[name] = lex_factory()
        return self._lexicons[name]

    def vectors(self, name: str) -> dict[str, np.ndarray]:
        if name not in self._vectors:
            lex = self.lexicon(name)
            s = self.settings
            self._vectors[name] = synonym_clustered_embeddings(
                lex.word_cluster_lists(),
                extra_words=lex.function_words,
                dim=s.embedding_dim,
                cluster_radius=s.cluster_radius,
                seed=s.seed,
            )
        return self._vectors[name]

    def vocab(self, name: str) -> Vocabulary:
        if name not in self._vocabs:
            self._vocabs[name] = Vocabulary.build(self.dataset(name).documents("train"))
        return self._vocabs[name]

    def language_model(self, name: str) -> NGramLM:
        if name not in self._lms:
            s = self.settings
            self._lms[name] = NGramLM(order=s.lm_order, alpha=0.1).fit(
                self.dataset(name).documents("train")
            )
        return self._lms[name]

    # -- models ---------------------------------------------------------------
    def build_model(self, dataset: str, arch: str) -> TextClassifier:
        """A fresh, untrained victim of the requested architecture."""
        s = self.settings
        vocab = self.vocab(dataset)
        emb = embedding_matrix_for_vocab(vocab, self.vectors(dataset), dim=s.embedding_dim)
        if arch == "wcnn":
            return WCNN(
                vocab,
                s.max_len,
                pretrained_embeddings=emb,
                num_filters=s.wcnn_filters,
                seed=s.seed,
            )
        if arch == "lstm":
            return LSTMClassifier(
                vocab,
                s.max_len,
                pretrained_embeddings=emb,
                hidden_dim=s.lstm_hidden,
                seed=s.seed,
            )
        if arch == "gru":
            # not part of the paper's evaluation; provided for extensions
            return GRUClassifier(
                vocab,
                s.max_len,
                pretrained_embeddings=emb,
                hidden_dim=s.lstm_hidden,
                seed=s.seed,
            )
        raise KeyError(f"unknown architecture {arch!r}; choose from {MODELS} or 'gru'")

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.settings.epochs, seed=self.settings.seed)

    def model(self, dataset: str, arch: str) -> TextClassifier:
        """Trained victim, memoized in memory and on disk."""
        key = (dataset, arch)
        if key in self._models:
            return self._models[key]
        model = self.build_model(dataset, arch)
        cache_file = (
            self.cache_dir
            / "models"
            / f"{dataset}_{arch}_{self.settings.cache_key()}.npz"
        )
        if cache_file.exists():
            load(model, cache_file)
            model.eval()
        else:
            fit(model, self.dataset(dataset).train, self.train_config())
            cache_file.parent.mkdir(parents=True, exist_ok=True)
            save(model, cache_file)
        model.metrics = self.metrics
        self._models[key] = model
        return model

    # -- paraphrasers and attacks ---------------------------------------------
    def paraphrase_config(self, dataset: str) -> ParaphraseConfig:
        s = self.settings
        # Paper Sec. 6.2: the LM filter is disabled for the spam corpus
        # (corrupted text renders it ineffective) and bounded elsewhere.
        delta_lm = float("inf") if dataset == "trec07p" else s.delta_lm
        return ParaphraseConfig(
            k=s.k_neighbors, delta_w=s.delta_w, delta_s=s.delta_s, delta_lm=delta_lm, seed=s.seed
        )

    def word_paraphraser(self, dataset: str) -> WordParaphraser:
        # Memoized per dataset: paraphrasers are deterministic and carry
        # pure word/sentence candidate caches, so sharing one instance
        # across every attack on a dataset amortizes the WMD filtering
        # over the whole corpus without changing any output.
        if dataset not in self._word_paraphrasers:
            paraphraser = WordParaphraser(
                self.lexicon(dataset),
                self.vectors(dataset),
                lm=self.language_model(dataset),
                config=self.paraphrase_config(dataset),
            )
            paraphraser.profiler = self.profiler
            self._word_paraphrasers[dataset] = paraphraser
        return self._word_paraphrasers[dataset]

    def sentence_paraphraser(self, dataset: str) -> SentenceParaphraser:
        if dataset not in self._sentence_paraphrasers:
            self._sentence_paraphrasers[dataset] = SentenceParaphraser(
                self.lexicon(dataset),
                self.vectors(dataset),
                config=self.paraphrase_config(dataset),
            )
        return self._sentence_paraphrasers[dataset]

    def sentence_budget(self, dataset: str) -> float:
        """λ_s per paper Sec. 6.2: 60% for spam, 20% for news/yelp."""
        return 0.6 if dataset == "trec07p" else 0.2

    def make_attack(
        self,
        method: str,
        model: TextClassifier,
        dataset: str,
        word_budget: float | None = None,
        sentence_budget: float | None = None,
        strategy: str | None = None,
        use_cache: bool | None = None,
        max_queries: int | None = None,
    ) -> AttackEngine:
        """Attack factory by method name, resolved through the registry.

        ``method`` is a paper-terminology alias (``joint`` = Alg. 1 ours,
        ``joint-greedy``, ``gradient-guided`` = Alg. 3, ``objective-greedy``
        = [19], ``gradient`` = [18], ``random``) or any registry name from
        :data:`repro.attacks.ATTACKS` (``charflip_greedy``, ``beam_word``,
        ...).  Each spec declares which paraphrasers it needs and which
        keywords it takes, so new registry entries work here without new
        branches.  ``word_budget`` and ``sentence_budget`` are λ_w and λ_s;
        ``strategy`` selects scan vs CELF lazy greedy; ``use_cache``
        toggles the per-call :class:`ScoreCache`; ``max_queries`` caps
        model forwards per document (the engine rejects a cap below 1).

        ``None`` leaves a setting to the registry default (λ_s to
        :meth:`sentence_budget`); a setting the attack does not take
        raises ``TypeError``.  The context's τ and seed go to the attacks
        that take them.
        """
        name = METHOD_ALIASES.get(method, method)
        try:
            spec = ATTACKS[name]
        except KeyError:
            raise KeyError(
                f"unknown attack method {method!r}; choose from "
                f"{sorted(METHOD_ALIASES)} or {sorted(ATTACKS)}"
            ) from None
        params = spec.params
        defaults = {
            "tau": self.settings.tau,
            "seed": self.settings.seed,
            "sentence_budget_ratio": self.sentence_budget(dataset),
        }
        kwargs = {p: value for p, value in defaults.items() if p in params}
        given = {
            "word_budget_ratio": word_budget,
            "sentence_budget_ratio": sentence_budget,
            "strategy": strategy,
            "use_cache": use_cache,
            "max_queries": max_queries,
        }
        given = {p: value for p, value in given.items() if value is not None}
        refused = [f"{p}={value!r}" for p, value in given.items() if p not in params]
        if refused:
            raise TypeError(f"attack {name!r} does not take {', '.join(refused)}")
        kwargs.update(given)
        attack = build_attack(
            name,
            model,
            word_paraphraser=(
                self.word_paraphraser(dataset) if "word" in spec.needs else None
            ),
            sentence_paraphraser=(
                self.sentence_paraphraser(dataset) if "sentence" in spec.needs else None
            ),
            **kwargs,
        )
        attack.set_profiler(self.profiler)
        return attack

    def journal_path(self, tag: str) -> Path | None:
        """Per-cell run-journal file, or ``None`` when journaling is off.

        The settings cache key is part of the name so a journal written
        under one configuration is never resumed under another.
        """
        if self.journal_dir is None:
            return None
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        return self.journal_dir / f"{tag}_{self.settings.cache_key()}.jsonl"

    def trace_path(self, tag: str) -> Path | None:
        """Per-cell trace directory, or ``None`` when tracing is off."""
        if self.trace_dir is None:
            return None
        return self.trace_dir / tag

    @property
    def telemetry(self) -> TelemetryServer | None:
        """The context-owned live HTTP exporter (started on first access).

        ``None`` unless the context has a ``telemetry_port``.  With an
        ephemeral port (0), read the bound one from
        :attr:`TelemetryServer.port` / :attr:`TelemetryServer.url`.
        """
        if self.telemetry_port is None:
            return None
        if self._telemetry is None:
            self._telemetry = TelemetryServer(port=self.telemetry_port)
            self._telemetry.start()
        return self._telemetry

    def eval_kwargs(self, tag: str) -> dict:
        """Observability/fault-tolerance keywords every driver passes to
        evaluate_attack: worker count, heartbeat callback, the ``tag``'s
        journal file, its trace directory, and the live telemetry
        exporter."""
        return {
            "n_workers": self.n_workers,
            "progress": self.progress,
            "journal_path": self.journal_path(tag),
            "trace_dir": self.trace_path(tag),
            "delta_scoring": self.delta_scoring,
            "telemetry": self.telemetry,
        }
