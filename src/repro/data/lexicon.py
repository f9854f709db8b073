"""Synonym lexicons for the three synthetic tasks.

Each :class:`SynonymCluster` is a set of interchangeable words with a
*polarity* tag saying which class the cluster signals (or ``neutral``).
The clusters play three roles:

1. Corpus generation — signal slots in sentence templates are filled from
   class-consistent clusters (``repro.data.generators``).
2. Embedding geometry — cluster members are embedded as near-neighbors
   (``repro.text.embeddings.synonym_clustered_embeddings``), replicating the
   Paragram/word2vec neighborhoods the paper's candidate sets come from.
3. Attack candidate sets — word paraphrase candidates ``W_i`` are the other
   members of a word's cluster (``repro.attacks.paraphrase``).

Within a cluster the *first* word is the canonical, frequent form; later
words are rarer synonyms.  The generator samples them with a steep
frequency bias, so trained classifiers acquire much stronger weights for
canonical forms — which is precisely the asymmetry that synonym-substitution
attacks exploit on real models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["SynonymCluster", "DomainLexicon", "sentiment_lexicon", "news_lexicon", "spam_lexicon"]

POS = "positive"
NEG = "negative"
NEUTRAL = "neutral"


@dataclass(frozen=True)
class SynonymCluster:
    """A set of interchangeable words with a class-polarity tag.

    ``polarity`` is ``"positive"`` (signals class 1), ``"negative"``
    (signals class 0) or ``"neutral"``.
    """

    words: tuple[str, ...]
    polarity: str = NEUTRAL

    def __post_init__(self) -> None:
        if len(self.words) < 1:
            raise ValueError("a cluster needs at least one word")
        if self.polarity not in (POS, NEG, NEUTRAL):
            raise ValueError(f"unknown polarity {self.polarity!r}")
        if len(set(self.words)) != len(self.words):
            raise ValueError(f"duplicate words in cluster {self.words}")

    @property
    def canonical(self) -> str:
        return self.words[0]

    def alternatives(self, word: str) -> tuple[str, ...]:
        """The other members of the cluster (paraphrase candidates)."""
        if word not in self.words:
            raise KeyError(f"{word!r} not in cluster {self.words}")
        return tuple(w for w in self.words if w != word)


@dataclass
class DomainLexicon:
    """All clusters of one task domain plus standalone function words."""

    name: str
    clusters: list[SynonymCluster]
    function_words: tuple[str, ...] = ()
    _by_word: dict[str, SynonymCluster] = field(default_factory=dict, repr=False)
    _synonyms: dict[str, tuple[str, ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        for cluster in self.clusters:
            for w in cluster.words:
                if w in self._by_word:
                    raise ValueError(f"word {w!r} appears in multiple clusters of {self.name!r}")
                self._by_word[w] = cluster
                self._synonyms[w] = cluster.alternatives(w)

    def cluster_of(self, word: str) -> SynonymCluster | None:
        """The cluster containing ``word``, or None."""
        return self._by_word.get(word)

    def synonyms(self, word: str) -> tuple[str, ...]:
        """Paraphrase candidates for ``word`` (empty if unclustered).

        A lookup in a table built once: the smoothing defense and the word
        paraphraser ask for every word of every document they see.
        """
        return self._synonyms.get(word, ())

    def clusters_by_polarity(self, polarity: str) -> list[SynonymCluster]:
        return [c for c in self.clusters if c.polarity == polarity]

    def all_words(self) -> list[str]:
        words = [w for c in self.clusters for w in c.words]
        words.extend(self.function_words)
        return words

    def word_cluster_lists(self) -> list[list[str]]:
        """Clusters as plain lists (input format for embedding generation)."""
        return [list(c.words) for c in self.clusters]


_COMMON_FUNCTION_WORDS = (
    "the", "a", "an", "is", "was", "were", "are", "and", "but", "or",
    "very", "so", "quite", "really", "of", "in", "at", "to", "it",
    "this", "that", "we", "i", "they", "he", "she", "with", "for",
    ".", ",", "!", "?",
)


def sentiment_lexicon() -> DomainLexicon:
    """Yelp-style restaurant-review sentiment lexicon (neg=0, pos=1)."""
    clusters = [
        # positive signal
        SynonymCluster(("great", "wonderful", "terrific", "superb", "fabulous", "fantastic", "marvelous"), POS),
        SynonymCluster(("delicious", "tasty", "flavorful", "scrumptious", "delectable", "savory", "appetizing"), POS),
        SynonymCluster(("friendly", "welcoming", "courteous", "warm", "hospitable", "gracious"), POS),
        SynonymCluster(("fast", "quick", "prompt", "speedy", "swift", "rapid"), POS),
        SynonymCluster(("fresh", "crisp", "garden-fresh", "unspoiled"), POS),
        SynonymCluster(("loved", "adored", "enjoyed", "relished", "savored", "cherished"), POS),
        SynonymCluster(("recommend", "suggest", "endorse", "advocate", "propose"), POS),
        SynonymCluster(("amazing", "astonishing", "incredible", "stunning2", "breathtaking", "remarkable"), POS),
        SynonymCluster(("cozy", "comfortable", "snug", "homey", "inviting"), POS),
        SynonymCluster(("perfect", "flawless", "ideal", "impeccable", "faultless"), POS),
        # negative signal
        SynonymCluster(("terrible", "horrible", "dreadful", "appalling", "horrendous", "ghastly", "frightful"), NEG),
        SynonymCluster(("bland", "tasteless", "flavorless", "insipid", "unseasoned"), NEG),
        SynonymCluster(("rude", "impolite", "disrespectful", "discourteous", "insolent", "uncivil"), NEG),
        SynonymCluster(("slow", "sluggish", "unhurried", "dawdling", "lethargic", "leisurely"), NEG),
        SynonymCluster(("stale", "spoiled", "rancid", "moldy", "rotten"), NEG),
        SynonymCluster(("hated", "despised", "detested", "loathed", "abhorred"), NEG),
        SynonymCluster(("avoid", "skip", "bypass", "shun", "dodge"), NEG),
        SynonymCluster(("awful", "atrocious", "abysmal", "dismal", "wretched", "lousy"), NEG),
        SynonymCluster(("dirty", "filthy", "grimy", "grubby", "squalid", "unclean"), NEG),
        SynonymCluster(("overpriced", "expensive", "costly", "pricey", "exorbitant", "steep"), NEG),
        # neutral nouns / verbs
        SynonymCluster(("food", "meal", "dish", "cuisine")),
        SynonymCluster(("service", "staff", "waiters")),
        SynonymCluster(("place", "restaurant", "spot", "venue")),
        SynonymCluster(("pizza", "pasta", "burger", "salad")),
        SynonymCluster(("dinner", "lunch", "brunch")),
        SynonymCluster(("atmosphere", "ambiance", "vibe")),
        SynonymCluster(("price", "cost", "bill")),
        SynonymCluster(("visited", "went", "stopped")),
        SynonymCluster(("ordered", "tried", "sampled")),
        SynonymCluster(("night", "evening", "weekend")),
    ]
    return DomainLexicon("sentiment", clusters, _COMMON_FUNCTION_WORDS)


def news_lexicon() -> DomainLexicon:
    """Fake-news-style lexicon (real=0 signalled by NEG, fake=1 by POS).

    Polarity convention: ``positive`` clusters signal the *fake* class
    (sensational language), ``negative`` clusters the *real* class
    (attributive, sourced language) — matching label 1 = fake.
    """
    clusters = [
        # fake / sensational (class 1)
        SynonymCluster(("shocking", "stunning", "jaw-dropping", "bombshell", "explosive", "sensational"), POS),
        SynonymCluster(("exposed", "unmasked", "revealed", "uncovered", "disclosed", "leaked"), POS),
        SynonymCluster(("secret", "hidden", "covert", "clandestine", "undisclosed", "classified"), POS),
        SynonymCluster(("conspiracy", "plot", "scheme", "coverup", "cabal", "racket"), POS),
        SynonymCluster(("destroys", "obliterates", "demolishes", "annihilates", "crushes", "shreds"), POS),
        SynonymCluster(("unbelievable", "incredible2", "outrageous", "preposterous", "astounding", "scandalous"), POS),
        SynonymCluster(("elites", "establishment", "insiders", "globalists", "oligarchs", "kingmakers"), POS),
        SynonymCluster(("truth", "reality", "facts", "evidence", "proof"), POS),
        SynonymCluster(("banned", "censored", "silenced", "suppressed", "blacklisted", "muzzled"), POS),
        SynonymCluster(("miracle", "wonder", "marvel", "phenomenon", "sensation"), POS),
        # real / attributive (class 0)
        SynonymCluster(("reported", "stated", "announced", "declared", "noted", "indicated"), NEG),
        SynonymCluster(("according", "per", "citing", "referencing", "quoting"), NEG),
        SynonymCluster(("officials", "authorities", "spokespeople", "administrators", "regulators", "bureaucrats"), NEG),
        SynonymCluster(("confirmed", "verified", "corroborated", "validated", "substantiated", "authenticated"), NEG),
        SynonymCluster(("investigation", "inquiry", "probe", "examination", "audit", "review3"), NEG),
        SynonymCluster(("statement", "briefing", "release", "communique", "memo", "bulletin"), NEG),
        SynonymCluster(("spokesman", "spokesperson", "representative", "delegate", "liaison"), NEG),
        SynonymCluster(("data", "figures", "statistics", "numbers", "metrics", "tallies"), NEG),
        SynonymCluster(("committee", "panel", "commission", "board", "council", "taskforce"), NEG),
        SynonymCluster(("testimony", "deposition", "hearing", "affidavit", "proceeding"), NEG),
        # neutral topical
        SynonymCluster(("government", "administration", "state")),
        SynonymCluster(("president", "leader", "chief")),
        SynonymCluster(("police", "officers", "detectives")),
        SynonymCluster(("city", "town", "capital")),
        SynonymCluster(("country", "nation", "republic")),
        SynonymCluster(("election", "vote", "ballot")),
        SynonymCluster(("economy", "market", "trade")),
        SynonymCluster(("thursday", "friday", "monday")),
        SynonymCluster(("yesterday", "today", "tonight")),
        SynonymCluster(("sources", "reports", "accounts")),
    ]
    return DomainLexicon("news", clusters, _COMMON_FUNCTION_WORDS)


def spam_lexicon() -> DomainLexicon:
    """Trec07p-style email lexicon (ham=0 via NEG, spam=1 via POS)."""
    clusters = [
        # spam signal (class 1)
        SynonymCluster(("free", "complimentary", "gratis", "costless", "unpaid", "giveaway"), POS),
        SynonymCluster(("winner", "champion", "chosen", "victor", "finalist", "lucky"), POS),
        SynonymCluster(("cash", "money", "funds", "currency", "dollars", "payout"), POS),
        SynonymCluster(("offer", "deal", "bargain", "promotion", "special", "steal"), POS),
        SynonymCluster(("guaranteed", "assured", "promised", "certified", "warranted", "pledged"), POS),
        SynonymCluster(("urgent", "immediate", "instant", "pressing", "expedited", "rush"), POS),
        SynonymCluster(("prize", "reward", "jackpot", "bonus", "windfall", "trophy"), POS),
        SynonymCluster(("discount", "markdown", "saving", "rebate", "reduction", "cutback"), POS),
        SynonymCluster(("click", "tap", "press", "select", "visit", "open"), POS),
        SynonymCluster(("pills", "meds", "supplements", "tablets", "capsules", "remedies"), POS),
        # ham / technical signal (class 0)
        SynonymCluster(("patch", "fix", "hotfix", "bugfix", "correction", "workaround"), NEG),
        SynonymCluster(("compile", "build", "assemble", "link", "rebuild", "make"), NEG),
        SynonymCluster(("function", "method", "routine", "procedure", "subroutine", "callback"), NEG),
        SynonymCluster(("meeting", "standup", "sync", "huddle", "checkin", "retro"), NEG),
        SynonymCluster(("attached", "enclosed", "appended", "included", "bundled"), NEG),
        SynonymCluster(("review2", "feedback", "comments", "critique", "notes", "remarks"), NEG),
        SynonymCluster(("repository", "repo", "codebase", "tree", "project", "source"), NEG),
        SynonymCluster(("documentation", "docs", "manual", "guide", "handbook", "reference"), NEG),
        SynonymCluster(("server", "host", "machine", "node", "box", "instance"), NEG),
        SynonymCluster(("schedule", "agenda", "calendar", "timetable", "itinerary", "roster"), NEG),
        # neutral
        SynonymCluster(("email", "message", "mail")),
        SynonymCluster(("please", "kindly")),
        SynonymCluster(("thanks", "cheers", "regards")),
        SynonymCluster(("team", "group", "crew")),
        SynonymCluster(("week", "month", "quarter")),
        SynonymCluster(("question", "query", "ask")),
        SynonymCluster(("list", "thread", "digest")),
        SynonymCluster(("version", "release", "edition")),
        SynonymCluster(("account", "profile", "login")),
        SynonymCluster(("send", "forward", "deliver")),
    ]
    return DomainLexicon("spam", clusters, _COMMON_FUNCTION_WORDS)
