//! Corpus-scale near-duplicate (clone) detection: token-shingle MinHash
//! signatures, a banded LSH index, and union-find clone classes with an
//! exact-Jaccard verification pass.
//!
//! The content-addressed [`AnalysisCache`](crate::cache::AnalysisCache)
//! already collapses *exact* duplicates (one whitespace-normalized hash per
//! unit). Synthetic duplication — one of the data pathologies the source
//! paper calls out — produces *near* duplicates instead: alpha-renamed,
//! comment-padded, or lightly edited copies whose content keys all differ.
//! This module finds those in sublinear time:
//!
//! 1. **Shingling** ([`shingles`]): the unit is lexed zero-copy with
//!    [`lex_ref`](crate::lexer::lex_ref) and every window of
//!    [`CloneConfig::shingle_k`] consecutive tokens is hashed into a `u64`.
//!    Identifier payloads are normalized to a single `<id>` marker (the
//!    standard clone-detection normalization, mirroring
//!    `vulnman_ml`'s normalized n-gram features), so alpha-renamed copies
//!    produce the *same* shingle set; comments are trivia and never reach
//!    the token stream, so comment padding is invisible by construction.
//! 2. **MinHash** ([`MinHasher`]): a seeded family of `bands * rows`
//!    splitmix64-derived hash functions maps each shingle *set* to a fixed
//!    signature whose positional agreement estimates Jaccard similarity.
//! 3. **Banded LSH** ([`CloneIndex`]): signatures are cut into `bands`
//!    bands of `rows` values; units sharing any band bucket become
//!    candidate pairs. Probing buckets is O(bands) per query instead of
//!    O(corpus) brute-force comparisons.
//! 4. **Verification + classes** ([`CloneIndex::classes`]): candidate
//!    pairs are re-checked with *exact* Jaccard over the shingle sets and
//!    only pairs at or above [`CloneConfig::threshold`] are unioned, so an
//!    LSH false positive can never corrupt a clone class.
//!
//! Everything is seeded and byte-deterministic: signatures depend only on
//! `(source, config)`, bucket maps are ordered, pairs are verified in
//! sorted order, and the builder shingles on the [`par`](crate::par) work
//! queue, whose output is in input order, so `jobs` never changes a single
//! byte of the output.

use crate::error::ParseResult;
use crate::intern::Fnv64;
use crate::lexer::{lex_ref, LexOutput};
use crate::span::Span;
use crate::token::TokenKind;
use std::collections::BTreeMap;
use std::hash::Hasher;

/// splitmix64 finalizer: the same cheap, well-mixed permutation used by the
/// workflow engine's deterministic per-sample draws.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Folds a shingle window or an LSH band into one hash, order-sensitively:
/// FNV-1a over the words' little-endian bytes.
fn fold_words(words: &[u64]) -> u64 {
    let mut h = Fnv64::default();
    for &w in words {
        h.write(&w.to_le_bytes());
    }
    h.finish()
}

/// Parameters of the clone detector. The defaults are calibrated for the
/// synthetic corpus (see DESIGN.md §14): `shingle_k = 4` is long enough
/// that unrelated templates share few shingles but short enough that a
/// single inserted statement only disturbs a handful of windows;
/// `bands = 16, rows = 4` puts the LSH s-curve threshold at
/// `(1/16)^(1/4) ≈ 0.5`, comfortably below the verification
/// `threshold = 0.7`, so near-threshold pairs still surface as candidates
/// and verification does the precise cut.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CloneConfig {
    /// Tokens per shingle window.
    pub shingle_k: usize,
    /// Number of LSH bands.
    pub bands: usize,
    /// Signature rows per band (signature width = `bands * rows`).
    pub rows: usize,
    /// Seed of the MinHash hash family.
    pub seed: u64,
    /// Exact-Jaccard verification threshold for clone-class membership.
    pub threshold: f64,
    /// Worker threads for [`CloneIndex::build`] (results are identical at
    /// any value).
    pub jobs: usize,
}

impl Default for CloneConfig {
    fn default() -> Self {
        CloneConfig { shingle_k: 4, bands: 16, rows: 4, seed: 0xC10_0E5, threshold: 0.7, jobs: 1 }
    }
}

impl CloneConfig {
    /// Signature width in u64s.
    pub fn width(&self) -> usize {
        self.bands * self.rows
    }
}

/// Hashes one token for shingling. Identifier payloads normalize to a
/// fixed marker so alpha-renamed clones shingle identically; literal
/// payloads stay verbatim (two templates that differ only in their string
/// constants are *not* the same unit); structural kinds hash their stable
/// [`TokenKind::describe`] label.
fn token_hash<S: AsRef<str>>(kind: &TokenKind<S>) -> u64 {
    match kind {
        TokenKind::Ident(_) => Fnv64::of(b"<id>"),
        TokenKind::Int(v) => Fnv64::of(b"<int>") ^ mix64(*v as u64),
        TokenKind::Char(c) => Fnv64::of(b"<char>") ^ mix64(u64::from(*c as u32)),
        TokenKind::Str(s) => {
            let mut h = Fnv64::default();
            h.write(b"<str>");
            h.write(s.as_ref().as_bytes());
            h.finish()
        }
        other => Fnv64::of(other.describe().as_bytes()),
    }
}

/// The sorted, deduplicated set of `k`-shingle hashes of `source`'s token
/// stream (comments excluded, `Eof` excluded, identifiers normalized —
/// see [`token_hash`]). Units shorter than `k` tokens contribute one
/// shingle covering the whole stream; an empty unit has no shingles.
pub fn shingles(source: &str, k: usize) -> ParseResult<Vec<u64>> {
    let k = k.max(1);
    let lexed = lex_ref(source)?;
    let hashes: Vec<u64> = lexed
        .tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Eof))
        .map(|t| token_hash(&t.kind))
        .collect();
    let mut out: Vec<u64> = if hashes.is_empty() {
        Vec::new()
    } else if hashes.len() < k {
        vec![fold_words(&hashes)]
    } else {
        hashes.windows(k).map(fold_words).collect()
    };
    out.sort_unstable();
    out.dedup();
    Ok(out)
}

/// Exact Jaccard similarity of two sorted, deduplicated shingle sets.
/// Two empty sets are identical (`1.0`); one empty set is disjoint from
/// any non-empty set (`0.0`).
pub fn exact_jaccard(a: &[u64], b: &[u64]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    let union = a.len() + b.len() - inter;
    inter as f64 / union as f64
}

/// Positional agreement of two MinHash signatures — an unbiased estimator
/// of the exact Jaccard similarity of the underlying sets, with standard
/// error `sqrt(J(1-J)/width)`.
///
/// # Panics
///
/// Panics if the signatures have different widths.
pub fn estimated_jaccard(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signatures must share a width");
    if a.is_empty() {
        return 1.0;
    }
    let agree = a.iter().zip(b).filter(|(x, y)| x == y).count();
    agree as f64 / a.len() as f64
}

/// A seeded MinHash family of `width` independent hash functions. The
/// family is a pure function of the seed: two hashers built from the same
/// `(seed, width)` produce bit-identical signatures on any input, on any
/// thread.
#[derive(Debug, Clone)]
pub struct MinHasher {
    seeds: Vec<u64>,
}

impl MinHasher {
    /// Derives `width` per-function seeds from `seed` via splitmix64.
    pub fn new(seed: u64, width: usize) -> Self {
        MinHasher { seeds: (0..width as u64).map(|i| mix64(seed ^ mix64(i))).collect() }
    }

    /// Signature width.
    pub fn width(&self) -> usize {
        self.seeds.len()
    }

    /// The MinHash signature of a shingle set: per hash function, the
    /// minimum permuted shingle value. An empty set signs as all
    /// `u64::MAX`, so two empty units estimate Jaccard `1.0`.
    pub fn signature(&self, shingles: &[u64]) -> Vec<u64> {
        self.seeds
            .iter()
            .map(|&s| shingles.iter().map(|&x| mix64(x ^ s)).min().unwrap_or(u64::MAX))
            .collect()
    }
}

/// One indexed unit: corpus id, shingle set, and MinHash signature.
#[derive(Debug, Clone)]
pub struct CloneEntry {
    /// Caller-supplied id (corpus sample id, request id, ...).
    pub id: u64,
    /// Sorted, deduplicated shingle hashes.
    pub shingles: Vec<u64>,
    /// MinHash signature (`config.width()` u64s).
    pub signature: Vec<u64>,
}

/// Banded LSH index over MinHash signatures.
///
/// Buckets live in a [`BTreeMap`] keyed by `(band, band-hash)` so
/// iteration — and therefore candidate-pair order, class order, and every
/// derived report — is byte-deterministic.
#[derive(Debug)]
pub struct CloneIndex {
    config: CloneConfig,
    hasher: MinHasher,
    entries: Vec<CloneEntry>,
    buckets: BTreeMap<(u32, u64), Vec<u32>>,
    entry_limit: Option<usize>,
    evictions: u64,
}

impl CloneIndex {
    /// An empty index for `config`.
    pub fn new(config: CloneConfig) -> Self {
        let hasher = MinHasher::new(config.seed, config.width());
        CloneIndex {
            config,
            hasher,
            entries: Vec::new(),
            buckets: BTreeMap::new(),
            entry_limit: None,
            evictions: 0,
        }
    }

    /// Bounds the index to `limit` entries with the same epoch-eviction
    /// discipline as [`AnalysisCache`](crate::cache::AnalysisCache): when
    /// an insert would exceed the bound, the whole index flushes first. A
    /// long-running service indexes an unbounded stream of unit versions;
    /// flushing keeps memory flat and only ever costs rediscovery — clone
    /// classes are derived views, never the source of analysis results, so
    /// eviction cannot orphan anything (see the dedup invariant on
    /// [`CloneIndex::classes`]).
    pub fn with_entry_limit(mut self, limit: usize) -> Self {
        self.entry_limit = Some(limit.max(1));
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &CloneConfig {
        &self.config
    }

    /// Number of indexed units.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Epoch flushes performed under [`CloneIndex::with_entry_limit`].
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Indexed entries, in insertion order.
    pub fn entries(&self) -> &[CloneEntry] {
        &self.entries
    }

    /// Lexes, shingles, signs, and indexes one unit. Returns the entry
    /// index. Lex errors propagate; the unit is not indexed.
    pub fn insert(&mut self, id: u64, source: &str) -> ParseResult<u32> {
        let sh = shingles(source, self.config.shingle_k)?;
        Ok(self.insert_entry(id, sh))
    }

    /// Indexes a pre-shingled unit (the parallel builder and the service
    /// reuse shingle sets computed elsewhere).
    pub fn insert_entry(&mut self, id: u64, shingles: Vec<u64>) -> u32 {
        if let Some(limit) = self.entry_limit {
            if self.entries.len() >= limit {
                self.entries.clear();
                self.buckets.clear();
                self.evictions += 1;
            }
        }
        let signature = self.hasher.signature(&shingles);
        let idx = self.entries.len() as u32;
        let keys: Vec<(u32, u64)> = self.band_keys(&signature).collect();
        for key in keys {
            self.buckets.entry(key).or_default().push(idx);
        }
        self.entries.push(CloneEntry { id, shingles, signature });
        idx
    }

    /// The `(band, band-hash)` bucket keys of a signature.
    fn band_keys<'a>(&'a self, signature: &'a [u64]) -> impl Iterator<Item = (u32, u64)> + 'a {
        signature
            .chunks(self.config.rows)
            .enumerate()
            .map(|(band, chunk)| (band as u32, fold_words(chunk)))
    }

    /// Ids of indexed units sharing at least one LSH band with `source`,
    /// sorted and deduplicated. This is the sublinear query path: it probes
    /// `bands` buckets instead of comparing against every entry.
    pub fn query(&self, source: &str) -> ParseResult<Vec<u64>> {
        let sh = shingles(source, self.config.shingle_k)?;
        let signature = self.hasher.signature(&sh);
        let mut ids: Vec<u64> = self
            .band_keys(&signature)
            .flat_map(|key| self.buckets.get(&key).map(Vec::as_slice).unwrap_or(&[]))
            .map(|&e| self.entries[e as usize].id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// Brute-force reference query: every entry whose *exact* Jaccard
    /// similarity to `source` meets the threshold. O(corpus); exists as
    /// the oracle the LSH path is benchmarked (and tested) against.
    pub fn query_brute_force(&self, source: &str) -> ParseResult<Vec<u64>> {
        let sh = shingles(source, self.config.shingle_k)?;
        let mut ids: Vec<u64> = self
            .entries
            .iter()
            .filter(|e| exact_jaccard(&sh, &e.shingles) >= self.config.threshold)
            .map(|e| e.id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// Candidate pairs `(i, j)` (entry indices, `i < j`) sharing at least
    /// one band bucket, sorted and deduplicated.
    pub fn candidate_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs = Vec::new();
        for members in self.buckets.values() {
            for (a, &i) in members.iter().enumerate() {
                for &j in &members[a + 1..] {
                    pairs.push(if i < j { (i, j) } else { (j, i) });
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        pairs
    }

    /// Candidate pairs whose exact Jaccard similarity meets the
    /// verification threshold.
    pub fn verified_pairs(&self) -> Vec<(u32, u32)> {
        self.candidate_pairs()
            .into_iter()
            .filter(|&(i, j)| {
                exact_jaccard(
                    &self.entries[i as usize].shingles,
                    &self.entries[j as usize].shingles,
                ) >= self.config.threshold
            })
            .collect()
    }

    /// Clone classes: the connected components of the verified-pair graph,
    /// via union-find. Every entry appears in exactly one class
    /// (singletons included); members are sorted by entry index, classes
    /// by their first member, so the partition is byte-deterministic.
    ///
    /// Classes are a *derived view*: consumers that deduplicate analysis
    /// work must fall back to direct analysis whenever a class (or its
    /// representative) is unavailable, which makes index eviction purely a
    /// performance event.
    pub fn classes(&self) -> Vec<Vec<u32>> {
        let mut uf = UnionFind::new(self.entries.len());
        for (i, j) in self.verified_pairs() {
            uf.union(i as usize, j as usize);
        }
        uf.classes().into_iter().map(|c| c.into_iter().map(|i| i as u32).collect()).collect()
    }

    /// Builds an index over `(id, source)` pairs. Shingling runs on the
    /// [`par`](crate::par) work queue with `config.jobs` threads, then
    /// entries are indexed sequentially in corpus order — the result is
    /// byte-identical at any job count. Units that fail to lex are
    /// skipped (they can never share a clone class).
    pub fn build(sources: &[(u64, &str)], config: CloneConfig) -> Self {
        let shingled = crate::par::map_ordered(sources, config.jobs, |(id, src)| {
            Some((*id, shingles(src, config.shingle_k).ok()?))
        });
        let mut index = CloneIndex::new(config);
        for entry in shingled.into_iter().flatten() {
            index.insert_entry(entry.0, entry.1);
        }
        index
    }
}

/// Disjoint-set forest with deterministic representatives: the root of a
/// class is always its minimum element, so class structure is independent
/// of union order.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect() }
    }

    /// Representative (minimum member) of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets of `a` and `b`; the smaller root wins, keeping the
    /// minimum-element invariant.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[hi] = lo;
    }

    /// Whether `a` and `b` share a set.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// All sets (singletons included), members sorted ascending, sets
    /// ordered by their minimum member.
    pub fn classes(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        by_root.into_values().collect()
    }
}

// ---------------------------------------------------------------------------
// Token alignment: the safety proof behind dedup-before-analyze.
// ---------------------------------------------------------------------------

/// A token-level alignment between a clone-class representative and a
/// member, proving the two units are identical up to a consistent
/// identifier renaming and whitespace/comment layout.
///
/// Clone *detection* is a similarity judgement; analysis *propagation*
/// needs an equivalence proof. An alignment exists only when both units
/// lex to token streams of the same length whose kinds and literal
/// payloads match position-for-position, with identifier payloads related
/// by one injective name map. Under that proof, the member's analysis
/// results are exactly the representative's with spans moved through the
/// alignment and identifiers moved through the name map — which is what
/// [`TokenAlignment::map_span`] and [`TokenAlignment::rewrite`] compute.
#[derive(Debug, Clone)]
pub struct TokenAlignment {
    /// Representative identifier → member identifier.
    rename: BTreeMap<String, String>,
    /// Representative span start → member `(start, line, col)`.
    starts: BTreeMap<usize, (usize, u32, u32)>,
    /// Representative span end → member span end.
    ends: BTreeMap<usize, usize>,
}

impl TokenAlignment {
    /// Attempts to align `rep` and `member`. Returns `None` when the two
    /// units are not renaming-equivalent (different token counts, a kind
    /// or literal mismatch, or an inconsistent / non-injective renaming).
    ///
    /// Identifiers in *call position* (immediately followed by `(` —
    /// function definitions and call sites alike) must match exactly, not
    /// merely consistently: analyses attach semantics to specific callee
    /// names (taint sources and sinks, sanitizers, allocation and free
    /// primitives, zero-click entry APIs), so a clone that renames a
    /// callee is not analysis-equivalent even though its token shingles
    /// (which normalize every identifier) still look identical. Variables
    /// and parameters — the names alpha-renaming actually touches — are
    /// never in call position in this dialect.
    pub fn align(rep: &str, member: &str) -> Option<TokenAlignment> {
        let (rt, mt) = (lex_ref(rep).ok()?, lex_ref(member).ok()?);
        Self::align_tokens(&rt, &mt)
    }

    /// Token-level [`TokenAlignment::align`]: callers that compare one
    /// source against several candidates (the dedup planner's anchor
    /// scan) lex each source once and reuse the streams across attempts
    /// instead of re-lexing per pair.
    pub fn align_tokens<S: AsRef<str> + PartialEq>(
        rt: &LexOutput<S>,
        mt: &LexOutput<S>,
    ) -> Option<TokenAlignment> {
        if rt.tokens.len() != mt.tokens.len() {
            return None;
        }
        let mut rename: BTreeMap<String, String> = BTreeMap::new();
        let mut reverse: BTreeMap<String, String> = BTreeMap::new();
        let mut starts = BTreeMap::new();
        let mut ends = BTreeMap::new();
        for (i, (a, b)) in rt.tokens.iter().zip(&mt.tokens).enumerate() {
            match (&a.kind, &b.kind) {
                (TokenKind::Ident(x), TokenKind::Ident(y)) => {
                    let (x, y) = (x.as_ref(), y.as_ref());
                    let call_position =
                        matches!(rt.tokens.get(i + 1).map(|t| &t.kind), Some(TokenKind::LParen));
                    if call_position && x != y {
                        return None;
                    }
                    match rename.get(x) {
                        Some(prev) if prev != y => return None,
                        Some(_) => {}
                        None => {
                            // Injectivity: two rep names must not collapse
                            // onto one member name, or the reverse rewrite
                            // would be ambiguous.
                            match reverse.get(y) {
                                Some(prev) if prev != x => return None,
                                _ => {}
                            }
                            rename.insert(x.to_string(), y.to_string());
                            reverse.insert(y.to_string(), x.to_string());
                        }
                    }
                }
                (ka, kb) if ka == kb => {}
                _ => return None,
            }
            starts.insert(a.span.start, (b.span.start, b.span.line, b.span.col));
            ends.insert(a.span.end, b.span.end);
        }
        Some(TokenAlignment { rename, starts, ends })
    }

    /// Whether the renaming is the identity map (layout-only clone).
    pub fn is_identity(&self) -> bool {
        self.rename.iter().all(|(k, v)| k == v)
    }

    /// The representative→member name map.
    pub fn rename_map(&self) -> &BTreeMap<String, String> {
        &self.rename
    }

    /// Moves a representative-side span to the member side. Dummy spans
    /// (synthesized findings) pass through unchanged. Returns `None` when
    /// either endpoint does not land on a token boundary — the caller must
    /// then fall back to direct analysis.
    pub fn map_span(&self, span: Span) -> Option<Span> {
        if span.is_dummy() {
            return Some(span);
        }
        let &(start, line, col) = self.starts.get(&span.start)?;
        let &end = self.ends.get(&span.end)?;
        Some(Span { start, end, line, col })
    }

    /// Renames one identifier (identity for names outside the map, e.g.
    /// external sinks and sources, which alpha-renaming never touches).
    pub fn map_name<'a>(&'a self, name: &'a str) -> &'a str {
        self.rename.get(name).map(String::as_str).unwrap_or(name)
    }

    /// Rewrites identifier words in free text through the name map.
    /// Detector messages and evidence claims quote program identifiers
    /// verbatim (conventionally inside backticks); this walks maximal
    /// identifier-shaped words and renames exactly those present in the
    /// map, leaving prose (and external names) untouched. Each word is
    /// looked up once against the original map, so chained renames cannot
    /// cascade.
    pub fn rewrite(&self, text: &str) -> String {
        if self.rename.is_empty() {
            return text.to_string();
        }
        let mut out = String::with_capacity(text.len());
        let bytes = text.as_bytes();
        let is_word = |b: u8| b == b'_' || b.is_ascii_alphanumeric();
        let mut i = 0;
        while i < bytes.len() {
            if is_word(bytes[i]) && !bytes[i].is_ascii_digit() {
                let start = i;
                while i < bytes.len() && is_word(bytes[i]) {
                    i += 1;
                }
                let word = &text[start..i];
                match self.rename.get(word) {
                    Some(renamed) => out.push_str(renamed),
                    None => out.push_str(word),
                }
            } else {
                // Covers non-word bytes and digit-led runs (numbers can't
                // start an identifier). Multi-byte UTF-8 sequences advance
                // whole, so the slice below stays on char boundaries —
                // detector prose is allowed punctuation like `—`.
                let start = i;
                i += 1;
                while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
                    i += 1;
                }
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                out.push_str(&text[start..i]);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shingle_hashes_are_pinned() {
        // Shingle hashes decide MinHash signatures and band buckets; pin one
        // shingle set so the hash function cannot drift.
        let got = shingles("int f(int x) { return x + 1; }", 4).unwrap();
        assert_eq!(got.len(), 10);
        assert_eq!((got[0], got[got.len() - 1]), (0x26eb67ec725987c, 0xee82cd167614cef7));
    }

    const BASE: &str = r#"
        void handler() {
            char* user_id = http_param("q");
            exec_query(user_id);
        }
    "#;

    #[test]
    fn shingles_are_sorted_and_deterministic() {
        let a = shingles(BASE, 4).unwrap();
        let b = shingles(BASE, 4).unwrap();
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(!a.is_empty());
    }

    #[test]
    fn alpha_rename_preserves_shingles_but_literals_matter() {
        let renamed = BASE.replace("user_id", "uid_9");
        assert_eq!(shingles(BASE, 4).unwrap(), shingles(&renamed, 4).unwrap());
        let other_literal = BASE.replace("\"q\"", "\"session\"");
        assert_ne!(shingles(BASE, 4).unwrap(), shingles(&other_literal, 4).unwrap());
    }

    #[test]
    fn comments_are_invisible_to_shingling() {
        let commented = BASE.replace("exec_query", "// audit note\n            exec_query");
        assert_eq!(shingles(BASE, 4).unwrap(), shingles(&commented, 4).unwrap());
    }

    #[test]
    fn short_units_get_one_shingle_and_empty_units_none() {
        assert_eq!(shingles("x", 8).unwrap().len(), 1);
        assert!(shingles("", 4).unwrap().is_empty());
    }

    #[test]
    fn minhash_estimates_jaccard() {
        let hasher = MinHasher::new(7, 256);
        let a: Vec<u64> = (0..1000u64).map(mix64).collect();
        let mut a_sorted = a.clone();
        a_sorted.sort_unstable();
        // 50% overlap.
        let b: Vec<u64> = (500..1500u64).map(mix64).collect();
        let mut b_sorted = b.clone();
        b_sorted.sort_unstable();
        let exact = exact_jaccard(&a_sorted, &b_sorted);
        let est = estimated_jaccard(&hasher.signature(&a_sorted), &hasher.signature(&b_sorted));
        assert!((est - exact).abs() < 0.12, "estimate {est} too far from exact {exact}");
    }

    #[test]
    fn identical_and_disjoint_extremes() {
        let hasher = MinHasher::new(3, 64);
        let a: Vec<u64> = (0..100u64).map(mix64).collect();
        let mut a = a;
        a.sort_unstable();
        assert_eq!(estimated_jaccard(&hasher.signature(&a), &hasher.signature(&a)), 1.0);
        assert_eq!(exact_jaccard(&a, &a), 1.0);
        let b: Vec<u64> = (1000..1100u64).map(mix64).collect();
        let mut b = b;
        b.sort_unstable();
        assert!(estimated_jaccard(&hasher.signature(&a), &hasher.signature(&b)) < 0.1);
    }

    #[test]
    fn index_groups_near_duplicates() {
        let renamed = BASE.replace("user_id", "uid");
        let unrelated = "int add(int a, int b) { return a + b; }";
        let sources: Vec<(u64, &str)> = vec![(1, BASE), (2, renamed.as_str()), (3, unrelated)];
        let index = CloneIndex::build(&sources, CloneConfig::default());
        let classes = index.classes();
        let of = |id: u64| {
            classes
                .iter()
                .position(|c| c.iter().any(|&e| index.entries()[e as usize].id == id))
                .unwrap()
        };
        assert_eq!(of(1), of(2), "alpha-renamed copy must share a class");
        assert_ne!(of(1), of(3), "unrelated unit must not");
    }

    #[test]
    fn build_is_jobs_invariant() {
        let renamed = BASE.replace("user_id", "uid");
        let sources: Vec<(u64, String)> = (0..40)
            .map(|i| (i, if i % 2 == 0 { BASE.to_string() } else { renamed.clone() }))
            .collect();
        let refs: Vec<(u64, &str)> = sources.iter().map(|(i, s)| (*i, s.as_str())).collect();
        let one = CloneIndex::build(&refs, CloneConfig { jobs: 1, ..CloneConfig::default() });
        let four = CloneIndex::build(&refs, CloneConfig { jobs: 4, ..CloneConfig::default() });
        assert_eq!(one.classes(), four.classes());
        for (a, b) in one.entries().iter().zip(four.entries()) {
            assert_eq!(a.signature, b.signature);
        }
    }

    #[test]
    fn query_lsh_superset_of_brute_force_on_duplicates() {
        let renamed = BASE.replace("user_id", "uid");
        let sources: Vec<(u64, &str)> = vec![(1, BASE), (2, renamed.as_str())];
        let index = CloneIndex::build(&sources, CloneConfig::default());
        let lsh = index.query(BASE).unwrap();
        let brute = index.query_brute_force(BASE).unwrap();
        for id in &brute {
            assert!(lsh.contains(id), "brute-force hit {id} missing from LSH candidates");
        }
        assert!(lsh.contains(&1) && lsh.contains(&2));
    }

    #[test]
    fn entry_limit_epoch_evicts() {
        let mut index = CloneIndex::new(CloneConfig::default()).with_entry_limit(4);
        for i in 0..10 {
            index.insert(i, BASE).unwrap();
        }
        assert!(index.len() <= 4);
        assert_eq!(index.evictions(), 2);
    }

    #[test]
    fn union_find_min_representative_and_partition() {
        let mut uf = UnionFind::new(6);
        uf.union(4, 2);
        uf.union(2, 5);
        uf.union(0, 3);
        assert_eq!(uf.find(5), 2);
        assert_eq!(uf.find(3), 0);
        let classes = uf.classes();
        assert_eq!(classes, vec![vec![0, 3], vec![1], vec![2, 4, 5]]);
    }

    #[test]
    fn alignment_proves_alpha_equivalence() {
        let renamed = BASE.replace("user_id", "uid");
        let al = TokenAlignment::align(BASE, &renamed).expect("alpha clone aligns");
        assert!(!al.is_identity());
        assert_eq!(al.map_name("user_id"), "uid");
        assert_eq!(al.map_name("exec_query"), "exec_query");
        assert_eq!(
            al.rewrite("tainted `user_id` reaches `exec_query(user_id)`"),
            "tainted `uid` reaches `exec_query(uid)`"
        );
        // Non-ASCII prose around an identifier must survive untouched —
        // detector messages use punctuation like the em-dash.
        assert_eq!(
            al.rewrite("`user_id` is external — the sink’s mask never covered «command» 9×"),
            "`uid` is external — the sink’s mask never covered «command» 9×"
        );
    }

    #[test]
    fn alignment_rejects_structural_change() {
        assert!(TokenAlignment::align(BASE, "void handler() { }").is_none());
        let other_literal = BASE.replace("\"q\"", "\"other\"");
        assert!(TokenAlignment::align(BASE, &other_literal).is_none());
        // Non-injective renaming: two distinct names collapsing onto one.
        let rep = "int f(int a, int b) { return a + b; }";
        let collapsed = "int f(int c, int c) { return c + c; }";
        assert!(TokenAlignment::align(rep, collapsed).is_none());
    }

    #[test]
    fn alignment_pins_call_position_names() {
        // Renaming a callee keeps the shingles identical (every identifier
        // normalizes to `<id>`), so the pair still looks like a clone —
        // but analyses attach semantics to callee names, so the alignment
        // proof must refuse it.
        let renamed_sink = BASE.replace("exec_query", "run_query");
        assert_eq!(shingles(BASE, 4).unwrap(), shingles(&renamed_sink, 4).unwrap());
        assert!(TokenAlignment::align(BASE, &renamed_sink).is_none());
        // Variables are not in call position: renaming them still aligns.
        assert!(TokenAlignment::align(BASE, &BASE.replace("user_id", "uid_9")).is_some());
    }

    #[test]
    fn alignment_maps_spans_through_comment_padding() {
        let commented =
            BASE.replace("char* user_id", "// reviewed 2024-01-01\n            char* user_id");
        let al = TokenAlignment::align(BASE, &commented).expect("layout clone aligns");
        assert!(al.is_identity());
        let lexed = lex_ref(BASE).unwrap();
        for t in lexed.tokens.iter().filter(|t| !matches!(t.kind, TokenKind::Eof)) {
            let mapped = al.map_span(t.span).expect("token span maps");
            assert_eq!(&commented[mapped.start..mapped.end], &BASE[t.span.start..t.span.end]);
        }
    }
}
