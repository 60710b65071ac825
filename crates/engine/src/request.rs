//! Requests into and responses out of a [`Session`](crate::Session).

use crate::{Artifact, Language};
use rd_core::exec::ExplainNode;
use rd_core::trace::Span;
use rd_core::{Relation, Tuple};
use std::sync::Arc;

/// How a response should render the Relational Diagram, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DiagramFormat {
    /// No diagram.
    #[default]
    None,
    /// Graphviz DOT (one cluster per negation box).
    Dot,
    /// Self-contained SVG.
    Svg,
}

/// A query to run: the language, the source text, and which optional
/// artifacts the response should carry.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryRequest {
    /// The query language.
    pub language: Language,
    /// The query source text.
    pub text: String,
    /// Also produce the cross-language translations (TRC as the hub).
    pub translations: bool,
    /// Also render the Relational Diagram.
    pub diagram: DiagramFormat,
}

impl QueryRequest {
    /// A request in an explicit language, evaluation only.
    pub fn new(language: Language, text: impl Into<String>) -> Self {
        QueryRequest {
            language,
            text: text.into(),
            translations: false,
            diagram: DiagramFormat::None,
        }
    }

    /// A request whose language is [detected](Language::detect) from the
    /// source text.
    pub fn auto(text: impl Into<String>) -> Self {
        let text = text.into();
        QueryRequest::new(Language::detect(&text), text)
    }

    /// Requests cross-language translations in the response.
    pub fn with_translations(mut self) -> Self {
        self.translations = true;
        self
    }

    /// Requests a diagram rendering in the response.
    pub fn with_diagram(mut self, format: DiagramFormat) -> Self {
        self.diagram = format;
        self
    }
}

/// The query carried into the other three languages through the TRC hub
/// (Theorem 6). Directions that leave a fragment are `None` with the
/// reason recorded in `notes`.
#[derive(Debug, Clone, Default)]
pub struct Translations {
    /// The hub TRC form (always present).
    pub trc: String,
    /// SQL\* (1-to-1 with canonical TRC\*, Theorem 6 part 5).
    pub sql: Option<String>,
    /// Datalog\* (safety repairs may add references, Lemma 20).
    pub datalog: Option<String>,
    /// Basic RA\* via eq. (5).
    pub ra: Option<String>,
    /// Why any direction is missing (e.g. disjunctive queries are outside
    /// the single-query Datalog\*/RA\* translations).
    pub notes: Vec<String>,
}

/// Everything a [`Session::explain`](crate::Session::explain)
/// produces: the compiled plan rendered for diagnosis, without any
/// evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainResponse {
    /// The language the query was parsed as.
    pub language: Language,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// The explain tree: scan order, join strategy, bound keys.
    pub plan: ExplainNode,
    /// `true` if the artifact came from the parse cache.
    pub cache_hit: bool,
}

/// Everything a [`Session::run`](crate::Session::run) produces.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// The language the query was parsed as.
    pub language: Language,
    /// The parsed/canonicalized artifact (shared with the session cache).
    pub artifact: Arc<Artifact>,
    /// The canonical rendering in the source language.
    pub canonical: String,
    /// The evaluated result over the session database (shared with the
    /// eval cache — a cache hit is one `Arc` clone, not a deep copy).
    pub relation: Arc<Relation>,
    /// `true` if the artifact came from the parse cache.
    pub cache_hit: bool,
    /// `true` if the result came from the eval/result cache (the
    /// evaluation itself was skipped).
    pub eval_cache_hit: bool,
    /// Cross-language translations, if requested.
    pub translations: Option<Translations>,
    /// The rendered Relational Diagram, if requested.
    pub diagram: Option<String>,
    /// Why a *requested* optional artifact is missing (e.g. the query is
    /// outside the fragment the TRC-hub translation covers). Evaluation
    /// succeeded regardless; these never accompany a failed run.
    pub notes: Vec<String>,
    /// Per-stage spans of this request, in execution order (empty when
    /// the shared state was built with
    /// [`SharedConfig::metrics`](crate::SharedConfig) off). Stages that
    /// did not run (e.g. `plan` on an eval-cache hit) have no span.
    pub spans: Vec<Span>,
    /// Total wall-clock time of the request in microseconds (0 with
    /// metrics off).
    pub micros: u64,
    /// The root q-error of the execution behind this response: the
    /// planner's row estimate against the rows produced (`None` on an
    /// eval-cache hit, or when the plan carries no estimate).
    pub q_error: Option<f64>,
}

impl QueryResponse {
    /// Iterates the result tuples in batches of at most `chunk_rows`
    /// (minimum 1), in the relation's deterministic order — the
    /// session-boundary hook a streaming transport builds its
    /// `rows-chunk` frames on without first materializing a second full
    /// copy of the result.
    pub fn row_chunks(&self, chunk_rows: usize) -> impl Iterator<Item = Vec<&Tuple>> + '_ {
        let chunk_rows = chunk_rows.max(1);
        let mut tuples = self.relation.iter();
        std::iter::from_fn(move || {
            let batch: Vec<&Tuple> = tuples.by_ref().take(chunk_rows).collect();
            if batch.is_empty() {
                None
            } else {
                Some(batch)
            }
        })
    }
}
