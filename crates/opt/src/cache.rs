//! Hash-consed NPN-canonical cut cache.
//!
//! Refactor and rewrite spend most of their resynthesis time in
//! `TruthTable -> irredundant SOP -> factored form`, and real circuits
//! present the same handful of truth-table classes thousands of times —
//! usually under different input orderings, input polarities, or output
//! polarity.  This module collapses those presentations into one cache entry:
//!
//! 1. [`semi_canonicalize`] maps a truth table to an NPN *semi*-canonical
//!    representative (output polarity, per-variable phases, and a variable
//!    permutation are normalized by cofactor-count heuristics, ABC-style;
//!    ties are left unresolved, so the class split is coarser than true NPN
//!    but the mapping is cheap and deterministic).
//! 2. [`CutCache`] memoizes `factor_truth_table` of the representative, and
//!    the operators implement the cut *from the representative's form*,
//!    reading it through the recorded [`NpnTransform`] instead of rebuilding
//!    it for the original function.
//!
//! # The reading rule
//!
//! A factored form is a flat arena ([`FactoredForm`]); the map holds one per
//! class, whole or a prefix of its gates (below).
//! `CutCache::factor_both_into` copies the entry into the caller's form
//! while the read lock is held — gate by gate into warm capacity, so no lock
//! outlives the call — and returns the transform.  The transform is then
//! applied where it is cheap: to the at most ten leaf literals, once per cut
//! ([`NpnTransform::leaf_map`]: canonical variable `placement[v]` is leaf
//! `v`, complemented by bit `v` of the phase mask), and to the one literal
//! `build_expr` returns ([`NpnTransform::output_negated`]).
//!
//! This is the AIG the decanonicalized form would give, node for node.
//! Remapping literals commutes with building; and the De Morgan dual of a
//! form (And and Or exchanged, literals negated — what an output complement
//! pushed down to the leaves produces) issues the same `and_lookup` /
//! `Aig::and` calls with the same operands in the same order, because
//! `or(a, b)` *is* `!and(!a, !b)`: every sub-expression comes out as the
//! complement of its dual at equal `new_nodes` and `level`.
//! [`NpnTransform::decanonicalize`] and [`CutCache::factor`] still produce
//! the rewritten form, in one pass over the arena, for callers that want a
//! form of the function itself.
//!
//! # One lookup per cut
//!
//! A function and its complement always share a representative, so an
//! operator that weighs both polarities of a cut asks once:
//! `CutCache::factor_both_into` canonicalizes once and looks the
//! representative up (or factors it) once.  The complement is a candidate of
//! its own only where it can differ from the first — when both polarities
//! canonicalize to *equal words*, a subset of the balanced ON-sets, the two
//! transforms come from different tables and read the one form through two
//! leaf maps.  Everywhere else the complement's implementation is the first
//! one complemented: the identical AIG at equal cost, level and gate count,
//! so no operator's "strictly better" test can select it.
//!
//! Consequence for the counters: every cut factored costs one lookup where
//! it used to cost two (the second a guaranteed hit below capacity).  Below
//! capacity, `misses` and `entries` are what they were and `hits` is lower
//! by exactly one per cut factored, so hit *rates* read lower by
//! construction.
//!
//! The operators count a reading's gain while its form is being written and
//! stop at the gate where every reading has lost (`crate::build`), on most
//! cuts a few gates into the form.  So the one lookup takes the same watcher
//! as `elf_sop::factor_truth_table_into`, and a lookup costs only what its
//! watcher reads:
//!
//! * a disabled cache factors and stops with the watcher;
//! * a miss factors and stops with the watcher too, and stores the gates it
//!   wrote as a *prefix* entry, marked incomplete (the whole form where the
//!   watcher never stopped);
//! * a hit replays the stored gates in order and stops with the watcher
//!   ([`FactoredForm::replay`]).  Only where the watcher outlives a prefix
//!   does the hit factor the class to the end, show the watcher each gate
//!   past the prefix once, and replace the prefix by the whole form in
//!   place, at capacity too — a *completion*.
//!
//! Gates are only ever appended, so a stopped form is a prefix of the whole
//! one, gate for gate: a watcher shown a prefix up to where it stops decides
//! as it would on the whole form, and a watcher that outlives the prefix is
//! shown the whole form's gates in order.  A lookup finds an entry exactly
//! where the policy of storing whole forms would find one, and is made for
//! every cut, decided or not, so `hits`, `misses` and `entries` are that
//! policy's and do not depend on where a count stopped;
//! [`CutCacheStats::completions`] counts, among the hits, the ones that had
//! to factor.
//!
//! # Determinism contract
//!
//! [`CutCache::factor`] is a pure function of the truth table: canonicalize,
//! factor the representative, undo the transform (and
//! `CutCache::factor_both_into` one of the truth table alone).  The cache
//! only memoizes the middle step, whose output — the whole form, and so each
//! of its prefixes — is itself a pure function of the representative.  A
//! watcher reads the same gates in the same order whether they come from a
//! whole entry, a prefix, a completion or a fresh factoring, so
//! cache-enabled and cache-disabled runs produce node-for-node identical
//! AIGs by construction (enforced by twin tests in `elf-core`), and a cache
//! shared across concurrently-served jobs cannot leak one job's timing into
//! another's result: a racing reader sees a prefix or the whole form, and
//! both decide alike.  Nothing depends on the map's iteration order, so its
//! per-process hash seed ([`elf_aig::WordState`]) changes no result.
//!
//! A deliberate non-feature: the cache stores no "no gain" verdicts —
//! whether a factored form wins is decided against the *local* MFFC of each
//! commit site, so a class-level verdict would change results depending on
//! which site populated the entry.
//!
//! The canonical step means plain (uncached) operators also factor the
//! representative rather than the raw table.  Both are functionally
//! identical implementations of the cut; only which of several same-gain
//! implementations gets built changes, and it changes for every flow
//! uniformly — all twin suites compare within one code version.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use elf_aig::{Lit, WordState};
use elf_sop::{
    factor_truth_table_into, FactorScratch, FactoredForm, Gate, Term, TruthTable, MAX_VARS,
};

/// Enable knob for the [`CutCache`] (plumbed through `ElfOptions`; `Copy` so
/// that config stays `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CutCacheConfig {
    /// Whether lookups are memoized at all.  Disabled caches still
    /// canonicalize (the uniform path is what keeps on/off bit-identical);
    /// they just never store or share anything.
    pub enabled: bool,
}

impl Default for CutCacheConfig {
    fn default() -> Self {
        CutCacheConfig { enabled: true }
    }
}

impl CutCacheConfig {
    /// A configuration with memoization turned off.
    pub fn disabled() -> Self {
        CutCacheConfig { enabled: false }
    }
}

/// Most canonical classes an enabled cache retains.  Once full it stops
/// inserting (no eviction: deterministic and contention-free; the hot
/// classes of a workload are the ones seen first and most often).
const CAPACITY: usize = 1 << 16;

/// The NPN transform recorded by [`semi_canonicalize`]: how to get from the
/// canonical representative back to the original function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NpnTransform {
    num_vars: u8,
    /// `placement[v]` is the canonical position of original variable `v`
    /// (entries at `num_vars` and above stay zero).
    placement: [u8; MAX_VARS],
    /// Bit `v` is set where original variable `v` was complemented.
    phase: u16,
    /// Whether the output was complemented.
    output_negated: bool,
}

impl NpnTransform {
    /// Whether the output polarity was flipped by canonicalization.
    pub fn output_negated(&self) -> bool {
        self.output_negated
    }

    /// Whether original variable `v` was complemented.
    fn flipped(&self, v: usize) -> bool {
        self.phase >> v & 1 == 1
    }

    /// The cut's leaf literals as the representative's variables: entry
    /// `placement[v]` is `leaf_lits[v]`, complemented where the phase of `v`
    /// was flipped (entries past the cut's width stay constant false).
    /// Building the representative's form over them and complementing the
    /// result by [`output_negated`](Self::output_negated) implements the
    /// original function (see the module docs).
    pub fn leaf_map(&self, leaf_lits: &[Lit]) -> [Lit; MAX_VARS] {
        let mut lits = [Lit::FALSE; MAX_VARS];
        for (v, &lit) in leaf_lits[..usize::from(self.num_vars)].iter().enumerate() {
            lits[usize::from(self.placement[v])] = lit.complement_if(self.flipped(v));
        }
        lits
    }

    /// Rewrites a factored form of the canonical representative into a
    /// factored form of the original function, in one pass over the arena:
    /// literals are remapped to the original variable (XOR-ing the phase back
    /// in), and an output complement is pushed down with De Morgan (And <->
    /// Or, literals negated), which keeps [`FactoredForm::num_gates`]
    /// unchanged.
    pub fn decanonicalize(&self, expr: &FactoredForm) -> FactoredForm {
        // original[j] = the original variable sitting at canonical position j.
        let mut original = [0u8; MAX_VARS];
        for (v, &j) in (0..).zip(&self.placement[..usize::from(self.num_vars)]) {
            original[usize::from(j)] = v;
        }
        let negate = self.output_negated;
        let remap = |term| match term {
            Term::Const(value) => Term::Const(value != negate),
            Term::Literal { var, negated } => {
                let var = original[usize::from(var)];
                let negated = negated ^ self.flipped(usize::from(var)) ^ negate;
                Term::Literal { var, negated }
            }
            gate @ Term::Gate(_) => gate,
        };
        let gates = expr.gates().iter().map(|gate| Gate {
            or: gate.or != negate,
            operands: gate.operands.map(remap),
        });
        FactoredForm::from_parts(gates.collect(), remap(expr.root()))
    }
}

/// Maps a truth table to its NPN semi-canonical representative and the
/// transform that undoes the mapping.
///
/// The normalization is the classic cofactor-count heuristic:
///
/// * output polarity — keep the polarity with the smaller ON-set (words
///   compared lexicographically on a tie), so a function and its complement
///   share a representative;
/// * variable phases — each variable is flipped (in index order, on the
///   running table) until its positive cofactor has the smaller ON-set;
/// * variable order — variables are stable-sorted by positive-cofactor
///   ON-set size.
///
/// Ties left unresolved make this *semi*-canonical: two NPN-equivalent
/// functions may still map to different representatives, which costs cache
/// capacity but never correctness (the key *is* the representative).
pub fn semi_canonicalize(function: &TruthTable) -> (TruthTable, NpnTransform) {
    let mut canonical = function.clone();
    let (transform, _) = canonicalize_both(function, &mut canonical);
    (canonical, transform)
}

/// [`semi_canonicalize`] into the caller's `canonical`, plus — only when both
/// output polarities normalize to equal words — the transform
/// `semi_canonicalize(&!function)` records.  In every other case that
/// transform is the returned one with the output complement toggled.
///
/// A balanced ON-set is normalized in both polarities without a second
/// table.  Complementing the output leaves every variable's cofactor key
/// alone, so both polarities sort the variables alike; and it flips the
/// phase decision of every variable whose positive cofactor does not hold
/// exactly half the ON-set.  So the complement's representative is the
/// first one with those variables flipped and the output complemented, and
/// its words are compared with the first one's as they are read.
pub(crate) fn canonicalize_both(
    function: &TruthTable,
    canonical: &mut TruthTable,
) -> (NpnTransform, Option<NpnTransform>) {
    use std::cmp::Ordering::{Equal, Greater, Less};

    let ones = function.count_ones();
    let zeros = (1usize << function.num_vars()) - ones;
    canonical.clone_from(function);
    if ones > zeros {
        canonical.complement_in_place();
    }
    let transform = canonicalize_polarity(canonical, ones > zeros);
    if ones != zeros {
        return (transform, None);
    }
    // The variables whose phase the complement decides the other way, and
    // the canonical positions they sit at.
    let (mut phase, mut moved) = (0u16, 0u16);
    for v in 0..function.num_vars() {
        if 2 * function.count_ones_with(v) != ones {
            phase |= 1 << v;
            moved |= 1 << transform.placement[v];
        }
    }
    let complemented = NpnTransform {
        phase: transform.phase ^ phase,
        output_negated: true,
        ..transform
    };
    match complement_order(canonical, moved) {
        Less => {
            for position in (0..function.num_vars()).filter(|&j| moved >> j & 1 == 1) {
                canonical.flip_var_in_place(position);
            }
            canonical.complement_in_place();
            (complemented, None)
        }
        Greater => (transform, None),
        Equal => {
            let complement = NpnTransform {
                output_negated: false,
                ..complemented
            };
            (transform, Some(complement))
        }
    }
}

/// [`canonicalize_both`] of the functions of at most four variables one
/// pass meets, each computed once: rewrite weighs the same few hundred
/// functions of its 3- and 4-leaf cuts over and over.  Keyed by the width
/// and the low 16 bits of the table's word (the whole table, repeated where
/// it is shorter), hashed by the graph's word hasher.
#[derive(Debug, Default)]
pub(crate) struct ClassMemo {
    /// Per function: its representative's word and the two transforms.
    classes: HashMap<u64, (u64, NpnTransform, Option<NpnTransform>), WordState>,
}

impl ClassMemo {
    /// What `canonicalize_both(function, canonical)` returns and writes, for
    /// the function of `num_vars <= 4` variables whose table's word is
    /// `word`; `function` is written only when the class is first met.
    pub(crate) fn canonicalize_both(
        &mut self,
        (num_vars, word): (usize, u64),
        function: &mut TruthTable,
        canonical: &mut TruthTable,
    ) -> (NpnTransform, Option<NpnTransform>) {
        assert!(num_vars <= 4, "{num_vars} variables do not fit the key");
        let key = (num_vars as u64) << 16 | word & 0xffff;
        if let Some(&(representative, transform, complement)) = self.classes.get(&key) {
            canonical.copy_from_words(&[representative], num_vars);
            return (transform, complement);
        }
        function.copy_from_words(&[word], num_vars);
        let transforms = canonicalize_both(function, canonical);
        self.classes
            .insert(key, (canonical.words()[0], transforms.0, transforms.1));
        transforms
    }
}

/// How `!table` with the variables at the positions `moved` flipped
/// compares with `table`, word by word from the least significant, as
/// slices compare.  A flipped variable below six exchanges bits inside each
/// word; one at six or above exchanges whole words.
fn complement_order(table: &TruthTable, moved: u16) -> std::cmp::Ordering {
    let words = table.words();
    let across = usize::from(moved >> 6);
    let live = if table.num_vars() >= 6 {
        !0
    } else {
        !0 >> (64 - (1 << table.num_vars()))
    };
    for (index, &word) in words.iter().enumerate() {
        let mut flipped = words[index ^ across];
        for var in (0..6).filter(|&var| moved >> var & 1 == 1) {
            let (high, shift) = (TruthTable::var_word(var, 0), 1 << var);
            flipped = (flipped & high) >> shift | (flipped & !high) << shift;
        }
        let order = (!flipped & live).cmp(&word);
        if order.is_ne() {
            return order;
        }
    }
    std::cmp::Ordering::Equal
}

/// Phase + permutation normalization of one output polarity, in place on the
/// words of `work`.
fn canonicalize_polarity(work: &mut TruthTable, output_negated: bool) -> NpnTransform {
    let num_vars = work.num_vars();
    let ones = work.count_ones();
    let mut phase = 0u16;
    // keys[v] = ON-set minterms with v = 1, after v's phase is settled.
    // Flipping one variable leaves every other variable's count alone.
    let mut keys = [0usize; MAX_VARS];
    for (var, key) in keys[..num_vars].iter_mut().enumerate() {
        let positive = work.count_ones_with(var);
        if positive > ones - positive {
            work.flip_var_in_place(var);
            phase |= 1 << var;
        }
        *key = positive.min(ones - positive);
    }

    let mut order: [usize; MAX_VARS] = std::array::from_fn(|var| var);
    order[..num_vars].sort_by_key(|&var| keys[var]);
    let mut placement = [0usize; MAX_VARS];
    for (position, &var) in order[..num_vars].iter().enumerate() {
        placement[var] = position;
    }
    work.permute_vars_in_place(&placement[..num_vars]);
    NpnTransform {
        num_vars: num_vars as u8,
        placement: placement.map(|position| position as u8),
        phase,
        output_negated,
    }
}

/// One class's entry: the gates factoring its representative wrote, as far
/// as the lookup that stored them watched (see the module docs).
struct Entry {
    /// The whole form, or a prefix of its gates under a constant-false root.
    form: FactoredForm,
    /// Whether `form` is the whole form.
    complete: bool,
}

/// Shared state behind every view of one cache (the map plus lifetime-global
/// counters; see [`CutCache::job_view`] for the per-view ones).
struct CacheShared {
    map: RwLock<HashMap<TruthTable, Entry, WordState>>,
    counters: Counters,
    /// [`CAPACITY`], which a test lowers to fill the map.
    #[cfg(test)]
    capacity: usize,
    /// Whether a miss factors to the end, as the cache did before it kept
    /// prefixes: the oracle of the counters in the tests.
    #[cfg(test)]
    whole_on_miss: bool,
}

impl CacheShared {
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.capacity
    }

    #[cfg(not(test))]
    fn capacity(&self) -> usize {
        CAPACITY
    }

    #[cfg(test)]
    fn factors_whole(&self) -> bool {
        self.whole_on_miss
    }

    #[cfg(not(test))]
    fn factors_whole(&self) -> bool {
        false
    }
}

/// Lookup counters: the lifetime ones of a cache, or those of one view (a
/// fresh set per [`CutCache::job_view`], so a served job can report its own
/// hit rate without racing on deltas of the global counters).
#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hits on a prefix whose watcher outlived it, so the class was
    /// factored to the end.
    completions: AtomicU64,
}

/// A handle to the NPN-canonical factored-form cache.
///
/// Cloning shares both the map and the view counters; [`CutCache::job_view`]
/// shares the map but issues fresh view counters.  The default handle is
/// disabled: it canonicalizes (so results never depend on whether a cache is
/// attached) but memoizes nothing.
///
/// # Examples
///
/// ```
/// use elf_opt::{CutCache, CutCacheConfig};
/// use elf_sop::{factor_truth_table, TruthTable};
///
/// let cache = CutCache::new(CutCacheConfig::default());
/// let f = TruthTable::from_fn(3, |m| m.count_ones() >= 2);
/// let expr = cache.factor(&f);
/// assert_eq!(expr.to_truth_table(3), f);
/// // A permuted, phase-flipped presentation of the same class hits.
/// let g = f.permute_vars(&[2, 0, 1]).flip_var(1);
/// let _ = cache.factor(&g);
/// assert_eq!(cache.local_hits(), 1);
/// ```
#[derive(Clone, Default)]
pub struct CutCache {
    shared: Option<Arc<CacheShared>>,
    view: Arc<Counters>,
}

impl fmt::Debug for CutCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CutCache")
            .field("enabled", &self.shared.is_some())
            .field("entries", &self.stats().entries)
            .field("local_hits", &self.local_hits())
            .field("local_misses", &self.local_misses())
            .field("local_completions", &self.local_completions())
            .finish()
    }
}

/// A point-in-time snapshot of a cache's global counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CutCacheStats {
    /// Whether this handle memoizes at all.
    pub enabled: bool,
    /// Canonical classes currently stored.
    pub entries: usize,
    /// Capacity the map stops growing at.
    pub capacity: usize,
    /// Lifetime lookup hits across every view of the cache.
    pub hits: u64,
    /// Lifetime lookup misses across every view of the cache.
    pub misses: u64,
    /// Lifetime hits that completed a prefix entry (counted among `hits`).
    pub completions: u64,
}

impl CutCacheStats {
    /// Lifetime hit rate in `[0, 1]` (zero when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl CutCache {
    /// Creates a cache from its configuration (disabled configurations yield
    /// the memoization-free handle).
    pub fn new(config: CutCacheConfig) -> Self {
        if !config.enabled {
            return CutCache::default();
        }
        CutCache {
            shared: Some(Arc::new(CacheShared {
                map: RwLock::new(HashMap::with_hasher(WordState::default())),
                counters: Counters::default(),
                #[cfg(test)]
                capacity: CAPACITY,
                #[cfg(test)]
                whole_on_miss: false,
            })),
            view: Arc::new(Counters::default()),
        }
    }

    /// A handle that canonicalizes but never memoizes.
    pub fn disabled() -> Self {
        CutCache::default()
    }

    /// Whether this handle memoizes.
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A new handle onto the same map with fresh per-view counters: one per
    /// served job, so each job reports its own hit rate.
    pub fn job_view(&self) -> CutCache {
        CutCache {
            shared: self.shared.clone(),
            view: Arc::new(Counters::default()),
        }
    }

    /// Factors `function`, memoizing by NPN semi-canonical class.
    ///
    /// Pure in its argument regardless of cache state (see the module docs),
    /// and functionally sound: the result's truth table equals `function`.
    pub fn factor(&self, function: &TruthTable) -> FactoredForm {
        let mut form = FactoredForm::default();
        let (transform, _) =
            self.factor_both_into(function, &mut FactorScratch::default(), &mut form);
        transform.decanonicalize(&form)
    }

    /// Serves both output polarities of `function` from one canonicalization
    /// and one lookup: `form` becomes the factored form of the NPN
    /// *representative* (factored in `scratch` on a miss), and the returned
    /// transforms say how to read `function` and — only where that can be a
    /// different implementation — its complement off it.
    ///
    /// Over `transform.leaf_map(leaf_lits)`, `form` builds `function` up to
    /// `transform.output_negated()`; the second transform, where present,
    /// builds `!function` the same way.  `None` means the complement's
    /// implementation *is* the first one complemented, the same AIG, so a
    /// caller weighing both polarities has nothing further to evaluate (see
    /// the module docs).
    pub(crate) fn factor_both_into(
        &self,
        function: &TruthTable,
        scratch: &mut FactorScratch,
        form: &mut FactoredForm,
    ) -> (NpnTransform, Option<NpnTransform>) {
        let mut canonical = function.clone();
        let transforms = canonicalize_both(function, &mut canonical);
        self.form_into(&canonical, scratch, form, |_| true);
        transforms
    }

    /// Writes the factored form of the representative `canonical` to `form`,
    /// showing `watch` each gate as `elf_sop::factor_truth_table_into` does
    /// and stopping where it returns `false` (see the module docs): replayed
    /// from the map on a hit, factored on a disabled cache, and on a miss
    /// factored as far as `watch` watches and stored that far.  A hit on a
    /// prefix whose watcher outlives it factors the class to the end, shows
    /// the watcher the gates past the prefix, and stores the whole form.
    pub(crate) fn form_into(
        &self,
        canonical: &TruthTable,
        scratch: &mut FactorScratch,
        form: &mut FactoredForm,
        mut watch: impl FnMut(&FactoredForm) -> bool,
    ) {
        let Some(shared) = &self.shared else {
            return factor_truth_table_into(canonical, scratch, form, watch);
        };
        // The gates of a prefix entry the watcher saw to the end.
        let mut shown = None;
        if let Ok(map) = shared.map.read() {
            if let Some(entry) = map.get(canonical) {
                self.count(shared, |counters| &counters.hits);
                if entry.complete {
                    return form.replay(&entry.form, watch);
                }
                let mut watching = true;
                form.replay(&entry.form, |form| {
                    watching = watch(form);
                    watching
                });
                if !watching {
                    return;
                }
                shown = Some(entry.form.num_gates());
            }
        }
        let complete = match shown {
            Some(shown) => {
                self.count(shared, |counters| &counters.completions);
                let mut watching = true;
                factor_truth_table_into(canonical, scratch, form, |form| {
                    if form.num_gates() > shown {
                        watching = watching && watch(form);
                    }
                    true
                });
                true
            }
            None => {
                self.count(shared, |counters| &counters.misses);
                let mut complete = true;
                factor_truth_table_into(canonical, scratch, form, |form| {
                    complete = complete && watch(form);
                    complete || shared.factors_whole()
                });
                complete || shared.factors_whole()
            }
        };
        if let Ok(mut map) = shared.map.write() {
            // Every entry of a class is a prefix of its one whole form (a
            // pure function of the key), so of two racing lookups the one
            // that wrote more wins, and a whole form is never cut back.
            let room = map.len() < shared.capacity();
            if let Some(entry) = map.get_mut(canonical) {
                if !entry.complete && (complete || form.num_gates() > entry.form.num_gates()) {
                    entry.form.clone_from(form);
                    entry.complete = complete;
                }
            } else if room {
                let form = form.clone();
                map.insert(canonical.clone(), Entry { form, complete });
            }
        }
    }

    /// Adds one to the counter `which` picks, in the view and the lifetime
    /// set alike.
    fn count(&self, shared: &CacheShared, which: impl Fn(&Counters) -> &AtomicU64) {
        which(&self.view).fetch_add(1, Ordering::Relaxed);
        which(&shared.counters).fetch_add(1, Ordering::Relaxed);
    }

    /// Lookup hits recorded through this view (see [`CutCache::job_view`]).
    pub fn local_hits(&self) -> u64 {
        self.view.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses recorded through this view.
    pub fn local_misses(&self) -> u64 {
        self.view.misses.load(Ordering::Relaxed)
    }

    /// Hits recorded through this view that completed a prefix entry.
    pub fn local_completions(&self) -> u64 {
        self.view.completions.load(Ordering::Relaxed)
    }

    /// Sets the occupancy gauges of `registry` — `elf_cut_cache_entries` and
    /// `elf_cut_cache_capacity` — from the shared map; called at scrape
    /// time.  Hits and misses are not folded here: the flow layer counts
    /// them per run from its view deltas.
    pub fn fold_into(&self, registry: &elf_obs::metrics::Registry) {
        let stats = self.stats();
        registry
            .gauge(elf_obs::names::CUT_CACHE_ENTRIES)
            .set(stats.entries as i64);
        registry
            .gauge(elf_obs::names::CUT_CACHE_CAPACITY)
            .set(stats.capacity as i64);
    }

    /// Snapshot of the cache-lifetime counters (all views combined).
    pub fn stats(&self) -> CutCacheStats {
        match &self.shared {
            None => CutCacheStats::default(),
            Some(shared) => CutCacheStats {
                enabled: true,
                entries: shared.map.read().map_or(0, |map| map.len()),
                capacity: shared.capacity(),
                hits: shared.counters.hits.load(Ordering::Relaxed),
                misses: shared.counters.misses.load(Ordering::Relaxed),
                completions: shared.counters.completions.load(Ordering::Relaxed),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_sop::factor_truth_table;
    use proptest::prelude::*;

    /// [`semi_canonicalize`] as it was before it moved onto words: cofactor
    /// tables cloned per variable, the permutation applied minterm by
    /// minterm.  The oracle for the table *and* the transform.
    fn semi_canonicalize_reference(function: &TruthTable) -> (TruthTable, NpnTransform) {
        fn canonicalize_polarity(
            function: &TruthTable,
            output_negated: bool,
        ) -> (TruthTable, NpnTransform) {
            let num_vars = function.num_vars();
            let mut work = function.clone();
            let mut phase = 0u16;
            for var in 0..num_vars {
                let positive = work.cofactor1(var).count_ones();
                let negative = work.cofactor0(var).count_ones();
                if positive > negative {
                    work = work.flip_var(var);
                    phase |= 1 << var;
                }
            }
            let mut order: Vec<usize> = (0..num_vars).collect();
            let keys: Vec<usize> = (0..num_vars)
                .map(|var| work.cofactor1(var).count_ones())
                .collect();
            order.sort_by_key(|&var| keys[var]);
            let mut placement = [0usize; MAX_VARS];
            for (position, &var) in order.iter().enumerate() {
                placement[var] = position;
            }
            let canonical = TruthTable::from_fn(num_vars, |minterm| {
                // Bit `placement[v]` of the new assignment feeds variable `v`.
                let mut original = 0usize;
                for (v, &p) in placement[..num_vars].iter().enumerate() {
                    original |= (minterm >> p & 1) << v;
                }
                work.get_bit(original)
            });
            (
                canonical,
                NpnTransform {
                    num_vars: num_vars as u8,
                    placement: placement.map(|position| position as u8),
                    phase,
                    output_negated,
                },
            )
        }

        let ones = function.count_ones();
        let zeros = (1usize << function.num_vars()) - ones;
        match ones.cmp(&zeros) {
            std::cmp::Ordering::Greater => canonicalize_polarity(&!function, true),
            std::cmp::Ordering::Less => canonicalize_polarity(function, false),
            std::cmp::Ordering::Equal => {
                let plain = canonicalize_polarity(function, false);
                let complemented = canonicalize_polarity(&!function, true);
                if complemented.0.words() < plain.0.words() {
                    complemented
                } else {
                    plain
                }
            }
        }
    }

    /// The boxed tree a factored form was before the arena, and
    /// [`NpnTransform::decanonicalize`] over it kept verbatim: the oracle of
    /// the one-pass rewrite.
    #[derive(Debug, Clone, PartialEq, Eq)]
    enum Boxed {
        Const(bool),
        Literal { var: usize, negated: bool },
        And(Box<Boxed>, Box<Boxed>),
        Or(Box<Boxed>, Box<Boxed>),
    }

    impl Boxed {
        /// The tree `form` spells out below `term`.
        fn of(form: &FactoredForm, term: Term) -> Boxed {
            match term {
                Term::Const(value) => Boxed::Const(value),
                Term::Literal { var, negated } => Boxed::Literal {
                    var: usize::from(var),
                    negated,
                },
                Term::Gate(index) => {
                    let gate = form.gates()[index as usize];
                    let [a, b] = gate.operands.map(|term| Box::new(Boxed::of(form, term)));
                    if gate.or {
                        Boxed::Or(a, b)
                    } else {
                        Boxed::And(a, b)
                    }
                }
            }
        }
    }

    impl NpnTransform {
        fn decanonicalize_boxed(&self, expr: &Boxed) -> Boxed {
            // original[j] = the original variable sitting at canonical position j.
            let mut original = [0usize; MAX_VARS];
            for (v, &j) in self.placement[..usize::from(self.num_vars)]
                .iter()
                .enumerate()
            {
                original[usize::from(j)] = v;
            }
            self.remap(expr, &original, self.output_negated)
        }

        fn remap(&self, expr: &Boxed, original: &[usize], negate: bool) -> Boxed {
            match expr {
                Boxed::Const(value) => Boxed::Const(*value != negate),
                Boxed::Literal { var, negated } => {
                    let var = original[*var];
                    Boxed::Literal {
                        var,
                        negated: *negated ^ self.flipped(var) ^ negate,
                    }
                }
                Boxed::And(a, b) => {
                    let left = Box::new(self.remap(a, original, negate));
                    let right = Box::new(self.remap(b, original, negate));
                    if negate {
                        Boxed::Or(left, right)
                    } else {
                        Boxed::And(left, right)
                    }
                }
                Boxed::Or(a, b) => {
                    let left = Box::new(self.remap(a, original, negate));
                    let right = Box::new(self.remap(b, original, negate));
                    if negate {
                        Boxed::And(left, right)
                    } else {
                        Boxed::Or(left, right)
                    }
                }
            }
        }
    }

    /// The function of a random gate list over the projections (an empty
    /// list yields a single literal): the shape of a cut function.
    fn gate_list_function(num_vars: usize, gates: &[(u8, u16, u16, bool)]) -> TruthTable {
        let mut pool: Vec<TruthTable> = (0..num_vars)
            .map(|var| TruthTable::var(var, num_vars))
            .collect();
        for &(op, a, b, negate) in gates {
            let (a, b) = (
                &pool[a as usize % pool.len()],
                &pool[b as usize % pool.len()],
            );
            let gate = match op % 3 {
                0 => a & b,
                1 => a | b,
                _ => a ^ b,
            };
            pool.push(if negate { !&gate } else { gate });
        }
        pool.pop().expect("at least one projection")
    }

    /// Functions of `num_vars` variables: uniform tables, gate-list
    /// functions (single literals included), constants, and — drawn on
    /// purpose, because only they reach the two-polarity branch — balanced
    /// ON-sets: `x ^ g` (complementing the output is flipping `x`) and the
    /// self-dual `x ? g : !g(!rest)` (majority and the multiplexer are of
    /// this kind), each under a random input permutation and phase.
    fn arbitrary_function(num_vars: usize) -> impl Strategy<Value = TruthTable> {
        let words = TruthTable::zeros(num_vars).words().len();
        let uniform = move || {
            prop::collection::vec(any::<u64>(), words)
                .prop_map(move |w| TruthTable::from_words(w, num_vars))
        };
        let gates = move || {
            prop::collection::vec((0u8..3, any::<u16>(), any::<u16>(), any::<bool>()), 0..24)
                .prop_map(move |gates| gate_list_function(num_vars, &gates))
        };
        let balanced = move |self_dual: bool| {
            (gates(), uniform(), any::<bool>(), any::<u64>()).prop_map(
                move |(structured, random, pick, salt)| {
                    let top = num_vars - 1;
                    let x = TruthTable::var(top, num_vars);
                    let g = if pick { structured } else { random }.cofactor0(top);
                    let mut f = if self_dual {
                        let mut mirrored = !&g;
                        for var in 0..top {
                            mirrored.flip_var_in_place(var);
                        }
                        &(&x & &g) | &(&!&x & &mirrored)
                    } else {
                        &x ^ &g
                    };
                    let mut perm: Vec<usize> = (0..num_vars).collect();
                    for var in 0..num_vars {
                        if salt >> var & 1 == 1 {
                            f.flip_var_in_place(var);
                        }
                        perm.swap(var, (salt >> (16 + 4 * var)) as usize % num_vars);
                    }
                    f.permute_vars(&perm)
                },
            )
        };
        prop_oneof![
            uniform(),
            gates(),
            balanced(false),
            balanced(true),
            any::<bool>().prop_map(move |value| {
                if value {
                    TruthTable::ones(num_vars)
                } else {
                    TruthTable::zeros(num_vars)
                }
            }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        /// Word-level canonicalization is the table-level one, bit for bit:
        /// same representative, same recorded transform.
        #[test]
        fn semi_canonicalize_matches_the_table_oracle(
            function in (1usize..=12).prop_flat_map(arbitrary_function)
        ) {
            prop_assert_eq!(semi_canonicalize(&function), semi_canonicalize_reference(&function));
        }

        /// The one-pass rewrite of the arena is the boxed push-down, tree
        /// for tree, and leaves the representative's form as it was.
        #[test]
        fn decanonicalize_matches_the_boxed_oracle(
            function in (1usize..=11).prop_flat_map(arbitrary_function)
        ) {
            let (canonical, transform) = semi_canonicalize(&function);
            let form = factor_truth_table(&canonical);
            let rewritten = transform.decanonicalize(&form);
            prop_assert_eq!(
                Boxed::of(&rewritten, rewritten.root()),
                transform.decanonicalize_boxed(&Boxed::of(&form, form.root()))
            );
            prop_assert_eq!(rewritten.to_truth_table(function.num_vars()), function);
        }

        /// `factor_both_into` serves `(factor(f), factor(!f))`: the
        /// representative's form, rewritten by the first transform, is
        /// `factor(f)`; rewritten by the second — or, where there is none, by
        /// the first with the output complement toggled — it is `factor(!f)`.
        /// One lookup either way, cache on or off.
        #[test]
        fn factor_both_is_both_single_polarity_answers(
            function in (1usize..=10).prop_flat_map(arbitrary_function)
        ) {
            let cache = CutCache::new(CutCacheConfig::default());
            let first = cache.factor(&function);
            let second = cache.factor(&!&function);
            prop_assert_eq!((cache.local_hits(), cache.local_misses()), (1, 1));
            let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
            let (transform, complement) = cache.factor_both_into(&function, &mut scratch, &mut form);
            prop_assert_eq!((cache.local_hits(), cache.local_misses()), (2, 1));
            prop_assert_eq!(transform.decanonicalize(&form), first);
            let toggled = NpnTransform {
                output_negated: !transform.output_negated,
                ..transform
            };
            prop_assert_eq!(complement.unwrap_or(toggled).decanonicalize(&form), second);

            let mut bare = FactoredForm::default();
            let transforms = CutCache::disabled().factor_both_into(&function, &mut scratch, &mut bare);
            prop_assert_eq!((transforms, bare), ((transform, complement), form));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A miss stopped at gate `k` stores exactly the whole form's first
        /// `k` gates.  A hit whose watcher stops halfway through the prefix
        /// replays it that far.  A hit whose watcher outlives the prefix is shown every
        /// gate of the whole form once, in order, ends on the whole form and
        /// leaves a whole entry behind, which later hits replay.
        #[test]
        fn a_miss_stores_the_prefix_its_watcher_saw_and_a_longer_count_completes_it(
            function in (1usize..=10).prop_flat_map(arbitrary_function),
            stop in 1usize..=40,
        ) {
            let cache = CutCache::new(CutCacheConfig::default());
            let mut canonical = TruthTable::zeros(0);
            let _ = canonicalize_both(&function, &mut canonical);
            let whole = factor_truth_table(&canonical);
            let gates = whole.num_gates();
            let k = stop.min(gates);
            let entry = |cache: &CutCache| {
                let shared = cache.shared.as_ref().expect("enabled");
                let map = shared.map.read().expect("no panic holds the lock");
                let entry = &map[&canonical];
                (entry.form.gates().to_vec(), entry.complete)
            };
            let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
            let mut shown = 0;
            cache.form_into(&canonical, &mut scratch, &mut form, |_| {
                shown += 1;
                shown < stop
            });
            prop_assert_eq!(shown, k);
            prop_assert_eq!(form.gates(), &whole.gates()[..k]);
            let stored_whole = gates == 0 || stop > gates;
            prop_assert_eq!(entry(&cache), (whole.gates()[..k].to_vec(), stored_whole));

            let (half, mut early) = (k.div_ceil(2), 0);
            cache.form_into(&canonical, &mut scratch, &mut form, |_| {
                early += 1;
                early < half
            });
            prop_assert_eq!(form.gates(), &whole.gates()[..half]);
            prop_assert_eq!(cache.local_completions(), 0);

            let mut seen = Vec::new();
            cache.form_into(&canonical, &mut scratch, &mut form, |form| {
                seen.push(form.gates()[form.num_gates() - 1]);
                true
            });
            prop_assert_eq!(&seen[..], whole.gates());
            prop_assert_eq!(&form, &whole);
            prop_assert_eq!(entry(&cache), (whole.gates().to_vec(), true));
            let completed = u64::from(!stored_whole);
            prop_assert_eq!(cache.local_completions(), completed);

            cache.form_into(&canonical, &mut scratch, &mut form, |_| true);
            prop_assert_eq!(&form, &whole);
            let counts = (cache.local_hits(), cache.local_misses(), cache.local_completions());
            prop_assert_eq!(counts, (3, 1, completed));
            prop_assert_eq!(cache.stats().completions, completed);
        }
    }

    /// A structural fingerprint: every reachable AND with its fanins, in
    /// topological order, and the outputs.
    type Structure = (Vec<(u32, u32, u32)>, Vec<u32>);

    fn structure(aig: &elf_aig::Aig) -> Structure {
        let nodes = aig.topological_order().into_iter().map(|id| {
            let (f0, f1) = aig.fanins(id);
            (id.index(), f0.raw(), f1.raw())
        });
        let outputs = aig.outputs().iter().map(|lit| lit.raw());
        (nodes.collect(), outputs.collect())
    }

    /// `rf; rw; rs` over the Tiny arithmetic suite, every circuit through
    /// one shared `cache`: the fingerprint of each result.
    fn flow_through(cache: &CutCache) -> Vec<Structure> {
        use crate::{PrunableOperator, Refactor, Resubstitution, Rewrite};
        use elf_circuits::epfl::{arithmetic_suite, Scale};

        let (mut refactor, mut rewrite) = (Refactor::default(), Rewrite::default());
        refactor.set_cut_cache(cache.clone());
        rewrite.set_cut_cache(cache.clone());
        let mut results = Vec::new();
        for (_, mut aig) in arithmetic_suite(Scale::Tiny) {
            refactor.run(&mut aig);
            rewrite.run(&mut aig);
            Resubstitution.run(&mut aig);
            results.push(structure(&aig));
        }
        results
    }

    /// Keeping prefixes moves no counter but the completions: hits, misses
    /// and entries are those of a cache that factors every miss to the end,
    /// and every AIG is the one a disabled cache builds, node for node.
    #[test]
    fn prefix_entries_count_and_build_as_whole_entries_do() {
        let prefixes = CutCache::new(CutCacheConfig::default());
        let mut whole = CutCache::new(CutCacheConfig::default());
        let shared = whole.shared.as_mut().expect("enabled");
        Arc::get_mut(shared).expect("one handle").whole_on_miss = true;
        let built = flow_through(&prefixes);
        assert_eq!(built, flow_through(&whole));
        assert_eq!(built, flow_through(&CutCache::disabled()));
        let counts = |stats: CutCacheStats| (stats.hits, stats.misses, stats.entries);
        assert_eq!(counts(prefixes.stats()), counts(whole.stats()));
        assert_eq!(whole.stats().completions, 0);
        assert!(prefixes.stats().completions > 0, "{:?}", prefixes.stats());
        assert!(prefixes.stats().misses > 0, "{:?}", prefixes.stats());
    }

    /// The memo answers what `canonicalize_both` answers, representative
    /// and transforms, for every function of three and of four variables,
    /// met first and met again: no two functions share a key.
    #[test]
    fn the_class_memo_answers_as_canonicalize_both_on_every_small_function() {
        let mut memo = ClassMemo::default();
        let (mut function, mut memoized) = (TruthTable::zeros(0), TruthTable::zeros(0));
        for _ in 0..2 {
            for (num_vars, tables) in [(3, 1u64 << 8), (4, 1 << 16)] {
                for table in 0..tables {
                    // The word every table of fewer than six variables repeats.
                    let word = (0..64 >> num_vars)
                        .fold(0, |word, copy| word | table << (copy << num_vars));
                    let truth = TruthTable::from_words(vec![word], num_vars);
                    let mut canonical = TruthTable::zeros(0);
                    let expected = canonicalize_both(&truth, &mut canonical);
                    let got =
                        memo.canonicalize_both((num_vars, word), &mut function, &mut memoized);
                    assert_eq!(
                        (got, &memoized),
                        (expected, &canonical),
                        "{num_vars} {table:x}"
                    );
                }
            }
        }
    }

    #[test]
    fn factor_both_returns_the_complement_for_self_dual_classes_only() {
        let [a, b, c] = [0, 1, 2].map(|var| TruthTable::var(var, 3));
        let majority = &(&(&a & &b) | &(&a & &c)) | &(&b & &c);
        let multiplexer = &(&a & &b) | &(&!&a & &c);
        let xor = &(&a ^ &b) ^ &c;
        let and = &(&a & &b) & &c;
        let cache = CutCache::disabled();
        let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
        for function in [&majority, &multiplexer] {
            let (transform, complement) = cache.factor_both_into(function, &mut scratch, &mut form);
            assert_eq!(transform.decanonicalize(&form).to_truth_table(3), *function);
            let complement = complement.expect("both polarities normalize to equal words");
            assert!(!complement.output_negated());
            assert_eq!(
                complement.decanonicalize(&form).to_truth_table(3),
                !function
            );
        }
        // Balanced, but the polarities normalize to different words.
        assert_eq!(
            cache.factor_both_into(&xor, &mut scratch, &mut form).1,
            None
        );
        assert_eq!(
            cache.factor_both_into(&and, &mut scratch, &mut form).1,
            None
        );
    }

    fn sample_tables() -> Vec<TruthTable> {
        let mut tables = Vec::new();
        for num_vars in 1..=5usize {
            for salt in 0..6usize {
                tables.push(TruthTable::from_fn(num_vars, |m| {
                    (m.wrapping_mul(2654435761).wrapping_add(salt * 97) >> 2) & 3 == 1
                }));
            }
        }
        tables.push(TruthTable::zeros(3));
        tables.push(TruthTable::ones(3));
        tables.push(TruthTable::var(1, 4));
        tables
    }

    #[test]
    fn decanonicalized_factoring_reproduces_the_function() {
        for function in sample_tables() {
            let (canonical, transform) = semi_canonicalize(&function);
            let expr = transform.decanonicalize(&factor_truth_table(&canonical));
            assert_eq!(
                expr.to_truth_table(function.num_vars()),
                function,
                "round-trip failed for {function}"
            );
        }
    }

    #[test]
    fn canonicalization_collapses_npn_presentations() {
        let f = TruthTable::from_fn(4, |m| m.count_ones() >= 3 || m == 0b0101);
        let (canonical, _) = semi_canonicalize(&f);
        // Output complement, variable phases and variable order all collapse
        // onto the same representative.
        for presentation in [
            !&f,
            f.flip_var(0),
            f.flip_var(2).flip_var(3),
            f.permute_vars(&[3, 2, 1, 0]),
            !&f.permute_vars(&[1, 0, 3, 2]).flip_var(1),
        ] {
            let (other, transform) = semi_canonicalize(&presentation);
            assert_eq!(other, canonical, "presentation {presentation} diverged");
            let expr = transform.decanonicalize(&factor_truth_table(&other));
            assert_eq!(expr.to_truth_table(4), presentation);
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        for function in sample_tables() {
            let (canonical, _) = semi_canonicalize(&function);
            let num_vars = canonical.num_vars();
            let ones = canonical.count_ones();
            assert!(
                2 * ones <= 1 << num_vars,
                "representative keeps the smaller ON-set"
            );
            // Exactly balanced ON-sets are semi-canonical ties (the winner
            // is picked lexicographically between fully-normalized
            // polarities); everything else must be a strict fixpoint.
            if 2 * ones < 1 << num_vars {
                let (again, transform) = semi_canonicalize(&canonical);
                assert_eq!(again, canonical, "representative must be a fixpoint");
                assert!(!transform.output_negated());
            }
        }
    }

    #[test]
    fn decanonicalization_preserves_gate_count() {
        for function in sample_tables() {
            let (canonical, transform) = semi_canonicalize(&function);
            let canonical_expr = factor_truth_table(&canonical);
            let expr = transform.decanonicalize(&canonical_expr);
            assert_eq!(expr.num_gates(), canonical_expr.num_gates());
            assert_eq!(expr.num_literals(), canonical_expr.num_literals());
            assert_eq!(expr.depth(), canonical_expr.depth());
        }
    }

    #[test]
    fn cache_on_and_off_agree_exactly() {
        let cached = CutCache::new(CutCacheConfig::default());
        let uncached = CutCache::disabled();
        for function in sample_tables() {
            // Factor twice through the cache so the second pass replays a
            // stored entry; all three answers must be identical.
            let first = cached.factor(&function);
            let second = cached.factor(&function);
            let bare = uncached.factor(&function);
            assert_eq!(first, second);
            assert_eq!(first, bare, "cache changed the result for {function}");
        }
        assert!(cached.local_hits() > 0);
        assert_eq!(uncached.stats(), CutCacheStats::default());
    }

    #[test]
    fn views_share_the_map_but_not_the_counters() {
        let cache = CutCache::new(CutCacheConfig::default());
        let f = TruthTable::from_fn(3, |m| m % 3 == 1);
        let _ = cache.factor(&f);
        let view = cache.job_view();
        let _ = view.factor(&f);
        assert_eq!(view.local_hits(), 1, "the view should hit the warm map");
        assert_eq!(view.local_misses(), 0);
        assert_eq!(cache.local_hits(), 0, "parent counters are separate");
        assert_eq!(cache.stats().hits, 1, "global counters aggregate views");
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn complement_and_permutation_presentations_hit_the_cache() {
        let cache = CutCache::new(CutCacheConfig::default());
        let f = TruthTable::from_fn(4, |m| (m & 0b11) == 0b10 || m.count_ones() == 4);
        let _ = cache.factor(&f);
        assert_eq!(cache.local_misses(), 1);
        let _ = cache.factor(&!&f);
        let _ = cache.factor(&f.permute_vars(&[2, 3, 0, 1]));
        assert_eq!(cache.local_hits(), 2);
        assert_eq!(cache.local_misses(), 1);
    }

    #[test]
    fn capacity_zero_never_stores() {
        let mut cache = CutCache::new(CutCacheConfig::default());
        let shared = cache.shared.as_mut().expect("enabled");
        Arc::get_mut(shared).expect("one handle").capacity = 0;
        let f = TruthTable::var(0, 3);
        let _ = cache.factor(&f);
        let _ = cache.factor(&f);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.local_misses(), 2, "nothing stored, nothing hit");
    }
}

/// The reading rule, end to end: implementing a cut from the factored form
/// of its NPN *representative* — leaf literals placed by
/// `NpnTransform::leaf_map`, the built literal complemented by
/// `output_negated` — costs what the decanonicalized form of
/// `CutCache::factor` costs and builds the same nodes with the same ids, for
/// the cut function and for its complement, whatever part of the graph is
/// dereferenced.
#[cfg(test)]
mod reading {
    use elf_aig::{Aig, Cut, CutParams, Lit, NodeId};
    use elf_circuits::{script_strategy, scripted_circuit};
    use elf_sop::{FactorScratch, FactoredForm, TruthTable};
    use proptest::prelude::*;

    use super::{CutCache, CutCacheConfig};
    use crate::{build_expr, count_new_nodes, cut_truth_table};

    /// Every AND node followed by its fanin literals, then the output literals.
    type Structure = (Vec<(NodeId, Lit, Lit)>, Vec<Lit>);

    fn structure(aig: &Aig) -> Structure {
        let nodes = aig.and_ids().map(|id| {
            let (f0, f1) = aig.fanins(id);
            (id, f0, f1)
        });
        (nodes.collect(), aig.outputs().to_vec())
    }

    /// How much of the graph around the cut is dereferenced while costs are read.
    #[derive(Debug, Clone, Copy)]
    enum Deref {
        Nothing,
        /// The root's MFFC down to the cut's leaves, as the operators do.
        Bounded,
        /// The root's whole MFFC, through the leaves.
        Whole,
    }

    /// Checks both polarities of `cut` on `source`, cache off and cache on, and
    /// returns the cut's function.
    fn check_cut(source: &Aig, cut: &Cut, deref: Deref) -> TruthTable {
        let truth = cut_truth_table(source, cut);
        let leaf_lits: Vec<Lit> = cut.leaves.iter().map(|&leaf| leaf.lit()).collect();
        let mut dereferenced = source.clone();
        match deref {
            Deref::Nothing => {}
            Deref::Bounded => drop(dereferenced.deref_mffc_bounded(cut.root, &cut.leaves)),
            Deref::Whole => drop(dereferenced.deref_mffc_bounded(cut.root, &[])),
        }

        for config in [CutCacheConfig::disabled(), CutCacheConfig::default()] {
            let cache = CutCache::new(config);
            let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
            let (transform, complement) = cache.factor_both_into(&truth, &mut scratch, &mut form);
            for complemented in [false, true] {
                // The form of the polarity itself, over the cut's own leaves ...
                let oracle = if complemented {
                    cache.factor(&!&truth)
                } else {
                    cache.factor(&truth)
                };
                // ... against the representative's, read through the transform:
                // the complement has a reading of its own (built, it is `!f`)
                // or is the first reading, and every candidate ends as `f`.
                let own = complement.filter(|_| complemented);
                let reading = own.unwrap_or(transform);
                let lits = reading.leaf_map(&leaf_lits);
                let flip = reading.output_negated() != own.is_some();

                for root in [Some(cut.root), None] {
                    assert_eq!(
                        count_new_nodes(&dereferenced, &form, &lits, root),
                        count_new_nodes(&dereferenced, &oracle, &leaf_lits, root),
                        "cost of {truth} (complemented: {complemented}, {deref:?})"
                    );
                }
                let (mut read, mut rebuilt) = (source.clone(), source.clone());
                let read_lit = build_expr(&mut read, &form, &lits).complement_if(flip);
                let rebuilt_lit =
                    build_expr(&mut rebuilt, &oracle, &leaf_lits).complement_if(complemented);
                assert_eq!(read_lit, rebuilt_lit, "root literal of {truth}");
                assert_eq!(structure(&read), structure(&rebuilt), "nodes of {truth}");
            }
        }
        truth
    }

    /// The cut of `root` over `leaves`: its cone collected by walking the fanins.
    fn cut_over(aig: &Aig, root: Lit, leaves: &[Lit]) -> Cut {
        let leaves: Vec<NodeId> = leaves.iter().map(|leaf| leaf.node()).collect();
        let mut cone = Vec::new();
        let mut stack = vec![root.node()];
        while let Some(id) = stack.pop() {
            if leaves.contains(&id) || cone.contains(&id) {
                continue;
            }
            cone.push(id);
            let (f0, f1) = aig.fanins(id);
            stack.extend([f0.node(), f1.node()]);
        }
        Cut {
            root: root.node(),
            leaves,
            cone,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn reading_the_representative_matches_the_decanonicalized_form(
            script in script_strategy(40),
            picks in prop::collection::vec((any::<usize>(), 3usize..=10, 0usize..3), 1..6),
        ) {
            let aig = scripted_circuit(6, &script);
            let nodes: Vec<NodeId> = aig.and_ids().filter(|&id| aig.refs(id) > 0).collect();
            for &(pick, max_leaves, deref) in &picks {
                let Some(&root) = nodes.get(pick % nodes.len().max(1)) else { break };
                let cut = aig.reconvergence_cut(root, &CutParams::with_max_leaves(max_leaves));
                let deref = [Deref::Nothing, Deref::Bounded, Deref::Whole][deref];
                check_cut(&aig, &cut, deref);
            }
        }
    }

    /// The classes the random cuts seldom meet, each built over three inputs of
    /// a graph that already holds some of the nodes its implementations need:
    /// self-dual functions whose two polarities normalize to equal words (a
    /// complement of its own), dense ON-sets (an output-negated representative),
    /// and cuts whose function is a constant.
    #[test]
    fn reading_covers_self_dual_output_negated_and_constant_classes() {
        let mut aig = Aig::new();
        let [a, b, c] = [aig.add_input(), aig.add_input(), aig.add_input()];
        // Structure for `and_lookup` to find: parts of both majority forms.
        let a_or_c = aig.or(a, c);
        let shared = aig.and(b, a_or_c);
        aig.add_output(shared);
        let ac = aig.and(a, c);
        aig.add_output(ac);

        let majority = aig.maj(a, b, c);
        let multiplexer = aig.mux(a, b, c);
        let parity = {
            let ab = aig.xor(a, b);
            aig.xor(ab, c)
        };
        let dense = {
            let (ab, bc) = (aig.or(a, b), aig.or(b, c));
            aig.and(ab, bc)
        };
        let sparse = {
            let bc = aig.and(!b, c);
            aig.and(a, bc)
        };
        // Constant over the leaves, but not to the structural hash.
        let never = {
            let ab = aig.and(a, b);
            let not_a_c = aig.and(!a, c);
            aig.and(ab, not_a_c)
        };
        let roots = [majority, multiplexer, parity, dense, sparse, never];
        for &root in &roots {
            aig.add_output(root);
        }

        let mut seen = Vec::new();
        for &root in &roots {
            assert!(aig.is_and(root.node()), "{root:?} is a node of its own");
            let cut = cut_over(&aig, root, &[a, b, c]);
            for deref in [Deref::Nothing, Deref::Bounded, Deref::Whole] {
                seen.push(check_cut(&aig, &cut, deref));
            }
        }

        // The cases are the ones announced.
        let cache = CutCache::disabled();
        let (mut scratch, mut form) = (FactorScratch::default(), FactoredForm::default());
        let mut classes = |root: Lit| {
            let truth = cut_truth_table(&aig, &cut_over(&aig, root, &[a, b, c]));
            let (transform, complement) = cache.factor_both_into(&truth, &mut scratch, &mut form);
            (truth, transform.output_negated(), complement.is_some())
        };
        assert!(classes(majority).2 && classes(multiplexer).2);
        assert!(!classes(parity).2);
        let (dense_truth, dense_negated, _) = classes(dense);
        assert!(dense_truth.count_ones() > 4 && dense_negated);
        assert!(!classes(sparse).1);
        assert!(classes(never).0.is_zero());
        assert_eq!(seen.len(), 3 * roots.len());
    }
}
