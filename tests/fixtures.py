"""Shared attack-test fixtures: a small trained WCNN victim + paraphrasers,
and scrape helpers for a live telemetry exporter."""

import json
import urllib.request

import pytest

from repro.attacks import ParaphraseConfig, SentenceParaphraser, WordParaphraser
from repro.data import CorpusConfig, make_sentiment_corpus, sentiment_lexicon
from repro.models import WCNN, TrainConfig, fit
from repro.text import NGramLM, Vocabulary, embedding_matrix_for_vocab, synonym_clustered_embeddings

MAX_LEN = 72


@pytest.fixture(scope="session")
def atk_corpus():
    return make_sentiment_corpus(CorpusConfig(n_train=240, n_test=60, seed=101))


@pytest.fixture(scope="session")
def atk_lexicon():
    return sentiment_lexicon()


@pytest.fixture(scope="session")
def atk_vectors(atk_lexicon):
    return synonym_clustered_embeddings(
        atk_lexicon.word_cluster_lists(),
        extra_words=atk_lexicon.function_words,
        dim=32,
        cluster_radius=0.4,
        seed=0,
    )


@pytest.fixture(scope="session")
def victim(atk_corpus, atk_vectors):
    vocab = Vocabulary.build(atk_corpus.documents("train"))
    emb = embedding_matrix_for_vocab(vocab, atk_vectors, dim=32)
    model = WCNN(vocab, MAX_LEN, pretrained_embeddings=emb, num_filters=48, seed=0)
    fit(model, atk_corpus.train, TrainConfig(epochs=8, seed=0))
    return model


@pytest.fixture(scope="session")
def atk_lm(atk_corpus):
    return NGramLM(order=3, alpha=0.1).fit(atk_corpus.documents("train"))


@pytest.fixture(scope="session")
def pconfig():
    return ParaphraseConfig(k=15, delta_w=0.4, delta_s=0.5)


@pytest.fixture(scope="session")
def word_paraphraser(atk_lexicon, atk_vectors, atk_lm, pconfig):
    return WordParaphraser(atk_lexicon, atk_vectors, lm=atk_lm, config=pconfig)


@pytest.fixture(scope="session")
def sentence_paraphraser(atk_lexicon, atk_vectors, pconfig):
    return SentenceParaphraser(atk_lexicon, atk_vectors, config=pconfig)


@pytest.fixture(scope="session")
def attackable_docs(victim, atk_corpus):
    """(doc, target) pairs for correctly-classified test documents."""
    docs = atk_corpus.documents("test")
    labels = atk_corpus.labels("test")
    preds = victim.predict(docs)
    return [
        (docs[i], int(1 - labels[i]))
        for i in range(len(docs))
        if preds[i] == labels[i]
    ][:12]


# -- scraping a live TelemetryServer ---------------------------------------------


def prometheus_name(counter: str) -> str:
    """The ``/metrics`` sample name of a registry counter."""
    return "repro_" + counter.replace("/", "_") + "_total"


def _get(server, path: str) -> str:
    return urllib.request.urlopen(server.url + path, timeout=5).read().decode()


def scrape_metrics(server) -> dict[str, float]:
    """``/metrics`` as {sample name: value}."""
    return {
        line.split()[0]: float(line.split()[1])
        for line in _get(server, "/metrics").splitlines()
        if line and not line.startswith("#")
    }


def scrape_health(server) -> dict:
    """``/healthz`` as a dict."""
    return json.loads(_get(server, "/healthz"))
