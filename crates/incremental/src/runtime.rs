//! The view runtime: named base bags plus registered views, maintained
//! under batched insert/delete updates.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use balg_core::bag::Bag;
use balg_core::eval::{EvalError, Evaluator, Limits};
use balg_core::expr::{Expr, Var};
use balg_core::index::IndexCache;
use balg_core::schema::Database;
use balg_core::value::Value;
use balg_core::wal::{bag_decodes, expr_decodes, zbag_decodes, MAX_DECODE_DEPTH};
use balg_core::zbag::{Spare, ZBag, ZBagError, ZInt};

use crate::view::{View, ViewStats};

/// A batch of signed updates against named base bags: inserts and deletes
/// accumulate into one ℤ-bag delta per base, so a batch that inserts and
/// then deletes the same tuple cancels before it ever reaches a view.
#[derive(Clone, Debug, Default)]
pub struct UpdateBatch {
    deltas: BTreeMap<Var, ZBag>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Record one insertion of `value` into `base`.
    pub fn insert(&mut self, base: &str, value: Value) {
        self.change(base, value, ZInt::one());
    }

    /// Record one deletion of `value` from `base`.
    pub fn delete(&mut self, base: &str, value: Value) {
        self.change(base, value, ZInt::neg_one());
    }

    /// Record a signed multiplicity change for `value` in `base`.
    pub fn change(&mut self, base: &str, value: Value, by: ZInt) {
        self.deltas
            .entry(Var::from(base))
            .or_default()
            .insert(value, by);
    }

    /// Merge a whole delta bag into `base`'s pending change.
    pub fn merge_delta(&mut self, base: &str, delta: &ZBag) {
        let slot = self.deltas.entry(Var::from(base)).or_default();
        *slot = slot.add(delta);
    }

    /// `true` iff every accumulated delta is zero.
    pub fn is_empty(&self) -> bool {
        self.deltas.values().all(ZBag::is_empty)
    }

    /// The accumulated delta for `base` (zero if untouched).
    pub fn delta(&self, base: &str) -> Option<&ZBag> {
        self.deltas.get(base)
    }

    /// Iterate over `(base, delta)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &ZBag)> {
        self.deltas.iter()
    }
}

/// An error from the runtime's public operations.
#[derive(Debug, Clone)]
pub enum UpdateError {
    /// An update names a base bag that was never loaded.
    UnknownBase(String),
    /// A delete would drive a base multiplicity negative — rejected
    /// before anything is committed.
    NegativeBase {
        /// The base bag name.
        base: String,
        /// The element whose multiplicity would go below zero.
        value: Value,
    },
    /// A view operation named a view that was never registered.
    UnknownView(String),
    /// A view operation named a view the runtime **dropped** after both
    /// its maintenance and the degraded full re-derivation failed. The
    /// distinction from [`UpdateError::UnknownView`] matters: a typo and
    /// a lost view must not read the same.
    ViewDropped {
        /// The dropped view's name.
        view: String,
        /// The rendered failure that killed the re-derivation.
        cause: String,
    },
    /// View registration or maintenance failed (and, for maintenance, the
    /// degraded full re-derivation failed too — the view was dropped).
    View {
        /// The view name.
        view: String,
        /// The underlying evaluation error.
        error: EvalError,
    },
    /// A value loaded into or changed in the named base, or the named
    /// view's expression, nests deeper than the log's decoders accept
    /// ([`balg_core::wal::MAX_DECODE_DEPTH`]) — refused before anything is
    /// logged or committed, so every logged record replays.
    TooDeep(String),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownBase(name) => write!(f, "unknown base bag {name}"),
            UpdateError::NegativeBase { base, value } => {
                write!(f, "delete from {base} would make {value} negative")
            }
            UpdateError::UnknownView(name) => write!(f, "unknown view {name}"),
            UpdateError::ViewDropped { view, cause } => {
                write!(
                    f,
                    "view {view} was dropped after failed re-derivation: {cause}"
                )
            }
            UpdateError::View { view, error } => write!(f, "view {view}: {error}"),
            UpdateError::TooDeep(name) => write!(
                f,
                "{name} nests deeper than the {MAX_DECODE_DEPTH} levels the log decodes"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Aggregate instrumentation across all views of a runtime.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Update batches applied.
    pub batches: u64,
    /// Views dropped after a failed degraded re-derivation and not since
    /// re-registered ([`ViewRuntime::dropped`] lists them with causes).
    pub dropped_views: u64,
    /// Summed per-view counters.
    pub views: ViewStats,
}

/// The tombstone of a dropped view: why the degraded full re-derivation
/// failed, and when. Kept by the runtime so later `verify`/read attempts
/// surface [`UpdateError::ViewDropped`] instead of a bare
/// [`UpdateError::UnknownView`] indistinguishable from a typo.
#[derive(Clone, Debug)]
pub struct DroppedView {
    /// The rendered evaluation error that killed the re-derivation.
    /// Stored as a string so tombstones survive a snapshot/replay cycle
    /// byte-identically (EvalError holds live values, not all of which
    /// need to round-trip through the WAL codec).
    pub cause: String,
    /// Value of [`RuntimeStats::batches`] when the view was dropped.
    pub at_batch: u64,
}

/// Refuse a base whose values the log could not decode (see
/// [`UpdateError::TooDeep`]).
pub(crate) fn check_base(name: &str, bag: &Bag) -> Result<(), UpdateError> {
    if bag_decodes(bag) {
        Ok(())
    } else {
        Err(UpdateError::TooDeep(name.to_owned()))
    }
}

/// Refuse a view expression the log could not decode (see
/// [`UpdateError::TooDeep`]).
pub(crate) fn check_view(name: &str, expr: &Expr) -> Result<(), UpdateError> {
    if expr_decodes(expr) {
        Ok(())
    } else {
        Err(UpdateError::TooDeep(name.to_owned()))
    }
}

/// How the runtime configures every evaluator it hands a view: the
/// budgets, the reference switch and the one index cache.
#[derive(Clone, Debug)]
struct EvalSettings {
    limits: Limits,
    /// Whether every evaluator built here runs each fast path's reference
    /// ([`Evaluator::set_reference`]); the differential suites run both.
    reference: bool,
    /// Per-key join indexes, persistent across batches and lent to every
    /// evaluator built here: base indexes are patched alongside the base
    /// on every commit instead of being rebuilt.
    indexes: IndexCache,
}

impl EvalSettings {
    /// The one place a view's evaluator is built — for registration,
    /// maintenance and re-derivation alike. Each call is fresh, so one
    /// view's steps never count against another's budget, and each
    /// borrows the runtime's index cache.
    fn evaluator<'a>(&'a mut self, db: &'a Database) -> Evaluator<'a> {
        let mut ev = Evaluator::new(db, self.limits.clone());
        ev.set_reference(self.reference);
        ev.set_index_cache(&mut self.indexes);
        ev
    }
}

/// Named base bags plus incrementally maintained views.
///
/// The lifecycle is: [`ViewRuntime::load_base`] the database,
/// [`ViewRuntime::create_view`] standing queries, then stream
/// [`ViewRuntime::apply`] batches; [`ViewRuntime::view`] reads are always
/// consistent with the current database, which
/// [`ViewRuntime::verify`] re-checks against a full re-evaluation.
#[derive(Clone, Debug)]
pub struct ViewRuntime {
    db: Database,
    eval: EvalSettings,
    views: BTreeMap<String, View>,
    /// Each base's [`Spare`]: the version before the current one, reused
    /// by the next commit while a published snapshot still shares the
    /// current one.
    spares: BTreeMap<Var, Spare>,
    /// Tombstones for views dropped after a failed re-derivation, cleared
    /// when a view of the same name is registered again.
    dropped: BTreeMap<String, DroppedView>,
    batches: u64,
}

impl Default for ViewRuntime {
    fn default() -> ViewRuntime {
        ViewRuntime::new()
    }
}

impl ViewRuntime {
    /// An empty runtime with default evaluation budgets.
    pub fn new() -> ViewRuntime {
        ViewRuntime::with_limits(Limits::default())
    }

    /// An empty runtime with explicit budgets (shared by initial
    /// evaluation, fallback re-derivation, and consistency checks).
    pub fn with_limits(limits: Limits) -> ViewRuntime {
        ViewRuntime::from_database(Database::new(), limits)
    }

    /// A runtime over an existing database.
    pub fn from_database(db: Database, limits: Limits) -> ViewRuntime {
        ViewRuntime {
            db,
            eval: EvalSettings {
                limits,
                reference: false,
                indexes: IndexCache::new(),
            },
            views: BTreeMap::new(),
            spares: BTreeMap::new(),
            dropped: BTreeMap::new(),
            batches: 0,
        }
    }

    /// Send every fast path of every evaluator the runtime builds to its
    /// reference ([`Evaluator::set_reference`]): a view's join delta then
    /// runs `join::scan` over the unchanged operand
    /// ([`ViewStats::scanned_join_ops`]) instead of probing a `BagIndex`.
    /// Both settings maintain identical views — the differential suites
    /// run every (query, update-stream) pair both ways and require strict
    /// equality. Switching on drops any cached indexes.
    pub fn set_reference(&mut self, on: bool) {
        self.eval.reference = on;
        if on {
            self.eval.indexes.clear();
        }
    }

    /// Join-index cache statistics
    /// `(hits, misses, builds, evictions)` — the `:stats` surface.
    pub fn index_cache_stats(&self) -> (u64, u64, u64, u64) {
        let indexes = &self.eval.indexes;
        (
            indexes.hits(),
            indexes.misses(),
            indexes.builds(),
            indexes.evictions(),
        )
    }

    /// The current database (bases only; views live beside it).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The evaluation budgets in force.
    pub fn limits(&self) -> &Limits {
        &self.eval.limits
    }

    /// Load (or wholesale replace) a base bag. Views reading it are
    /// re-derived from scratch — this is a rebase, not an update; stream
    /// changes through [`ViewRuntime::apply`] instead when a delta is
    /// known. Every dependent view is rebased even if an earlier one
    /// fails; a view whose re-derivation fails is **dropped** (it could
    /// only serve results for the replaced base) and the first failure is
    /// reported.
    pub fn load_base(&mut self, name: &str, bag: Bag) -> Result<(), UpdateError> {
        check_base(name, &bag)?;
        // A wholesale replacement invalidates any indexes over the old
        // representation (unless the new bag shares it, in which case the
        // entries stay valid by construction).
        if let Some(old) = self.db.get(name) {
            if !old.shares_representation(&bag) {
                self.eval.indexes.invalidate(old);
            }
        }
        self.db.insert(name, bag);
        let var = Var::from(name);
        let mut failed: Vec<(String, EvalError)> = Vec::new();
        for (view_name, view) in &mut self.views {
            if view.reads().contains(&var) {
                if let Err(error) = view.reinit(&self.db, &mut self.eval.evaluator(&self.db)) {
                    failed.push((view_name.clone(), error));
                }
            }
        }
        self.drop_failed(failed)
    }

    /// Remove views whose re-derivation failed (their snapshots would be
    /// silently stale), leave a [`DroppedView`] tombstone for each, and
    /// surface the first failure.
    fn drop_failed(&mut self, failed: Vec<(String, EvalError)>) -> Result<(), UpdateError> {
        let mut first: Option<UpdateError> = None;
        for (view, error) in failed {
            self.views.remove(&view);
            self.dropped.insert(
                view.clone(),
                DroppedView {
                    cause: error.to_string(),
                    at_batch: self.batches,
                },
            );
            first.get_or_insert(UpdateError::View { view, error });
        }
        match first {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Tombstones of dropped views, in name order.
    pub fn dropped(&self) -> impl Iterator<Item = (&str, &DroppedView)> {
        self.dropped.iter().map(|(n, d)| (n.as_str(), d))
    }

    /// The error a missing view name should surface:
    /// [`UpdateError::ViewDropped`] when the runtime dropped it,
    /// [`UpdateError::UnknownView`] when it never existed.
    pub fn missing_view_error(&self, name: &str) -> UpdateError {
        match self.dropped.get(name) {
            Some(record) => UpdateError::ViewDropped {
                view: name.to_owned(),
                cause: record.cause.clone(),
            },
            None => UpdateError::UnknownView(name.to_owned()),
        }
    }

    /// Register (or replace) a maintained view for a compiled BALG
    /// expression. The initial result is computed immediately.
    pub fn create_view(&mut self, name: &str, expr: Expr) -> Result<&Bag, UpdateError> {
        check_view(name, &expr)?;
        let mut ev = self.eval.evaluator(&self.db);
        let view = View::new(expr, &self.db, &mut ev).map_err(|error| UpdateError::View {
            view: name.to_owned(),
            error,
        })?;
        self.views.insert(name.to_owned(), view);
        // A fresh registration supersedes any tombstone under this name.
        self.dropped.remove(name);
        Ok(self.views[name].result())
    }

    /// Remove a view (and any dropped-view tombstone under its name).
    /// Returns `true` if a live view existed.
    pub fn drop_view(&mut self, name: &str) -> bool {
        self.dropped.remove(name);
        self.views.remove(name).is_some()
    }

    /// The maintained result of a view.
    pub fn view(&self, name: &str) -> Option<&Bag> {
        self.views.get(name).map(View::result)
    }

    /// Iterate over `(name, view)` pairs.
    pub fn views(&self) -> impl Iterator<Item = (&str, &View)> {
        self.views.iter().map(|(n, v)| (n.as_str(), v))
    }

    /// Phase-1 validation of a batch without mutating anything: every
    /// base must exist, every deletion must be covered and every value
    /// must be decodable from the log, so a commit of the batch cannot
    /// fail halfway (all-or-nothing semantics without staging copies).
    /// Returns the set of affected base names.
    /// [`crate::durable::Runtime`] logs a batch only after this accepted
    /// it, so the WAL only ever contains batches that commit on replay.
    pub fn validate(&self, batch: &UpdateBatch) -> Result<BTreeSet<Var>, UpdateError> {
        let mut affected: BTreeSet<Var> = BTreeSet::new();
        for (name, delta) in batch.iter() {
            if delta.is_empty() {
                continue;
            }
            let base = self
                .db
                .get(name)
                .ok_or_else(|| UpdateError::UnknownBase(name.to_string()))?;
            if !zbag_decodes(delta) {
                return Err(UpdateError::TooDeep(name.to_string()));
            }
            for (value, mult) in delta.iter() {
                if mult.is_negative() && &base.multiplicity(value) < mult.magnitude() {
                    return Err(UpdateError::NegativeBase {
                        base: name.to_string(),
                        value: value.clone(),
                    });
                }
            }
            affected.insert(name.clone());
        }
        Ok(affected)
    }

    /// Apply one update batch: commit every base delta (all-or-nothing
    /// validation first), then maintain every affected view. Views whose
    /// read set is disjoint from the batch are not touched at all.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<(), UpdateError> {
        if batch.is_empty() {
            return Ok(());
        }
        let affected = self.validate(batch)?;
        self.commit_validated(batch, &affected)
    }

    /// Phase 2 of [`ViewRuntime::apply`]: commit a non-empty batch that
    /// [`ViewRuntime::validate`] accepted against the current database,
    /// `affected` being the set it returned. [`crate::durable::Runtime`]
    /// writes the batch to its log between the two phases.
    pub(crate) fn commit_validated(
        &mut self,
        batch: &UpdateBatch,
        affected: &BTreeSet<Var>,
    ) -> Result<(), UpdateError> {
        // Taking each bag out of the database, and its cached indexes out
        // of the cache (dropping the cache's owner clone), leaves at most
        // a published snapshot holding it. Unshared, a small delta edits
        // the sorted slice in place. Shared, `ZBag::patch` brings the
        // base's spare (the version the snapshot before held) up to date
        // in place instead, or, while a reader still holds that version,
        // copies the slice once and keeps the current version as the
        // spare. The taken indexes are patched with the same delta and
        // restored under the new representation.
        for name in affected {
            let base = self.db.take(name).expect("validated by the caller");
            let delta = batch.delta(name).expect("affected implies a delta");
            let taken = self.eval.indexes.take_for_patch(&base);
            let spare = self.spares.entry(name.clone()).or_default();
            let new =
                delta
                    .patch(base, spare)
                    .map_err(|ZBagError::NegativeMultiplicity { value }| {
                        UpdateError::NegativeBase {
                            base: name.to_string(),
                            value,
                        }
                    })?;
            for mut index in taken {
                // A mismatch (delta rows the index cannot reconcile)
                // drops the index; it is rebuilt lazily on the next probe.
                if index.patch(delta).is_ok() {
                    self.eval.indexes.restore(&new, index);
                }
            }
            self.db.insert(name, new);
        }
        // Maintain affected views; on a maintenance failure degrade to a
        // full re-derivation, and only if that fails too drop the view
        // (its snapshot would otherwise be silently stale). One view's
        // failure must not leave the *other* affected views unmaintained,
        // so the loop always runs to completion.
        let mut failed: Vec<(String, EvalError)> = Vec::new();
        let obs = crate::obs::incr_obs();
        for (view_name, view) in &mut self.views {
            if view.reads().is_disjoint(affected) {
                continue;
            }
            let before = obs.map(|_| view.stats().clone());
            let start = obs.map(|_| std::time::Instant::now());
            let maintained = view.maintain(
                &batch.deltas,
                affected,
                &self.db,
                &mut self.eval.evaluator(&self.db),
            );
            if maintained.is_err() {
                if let Err(error) = view.reinit(&self.db, &mut self.eval.evaluator(&self.db)) {
                    failed.push((view_name.clone(), error));
                }
            }
            if let (Some(obs), Some(before), Some(start)) = (obs, before, start) {
                obs.maintain_duration
                    .record(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                let after = view.stats();
                obs.linear_delta_ops
                    .add(after.linear_delta_ops - before.linear_delta_ops);
                obs.fallback_recomputes
                    .add(after.fallback_recomputes - before.fallback_recomputes);
                obs.scalar_recomputes
                    .add(after.scalar_recomputes - before.scalar_recomputes);
                obs.full_reinits
                    .add(after.full_reinits - before.full_reinits);
                obs.indexed_join_ops
                    .add(after.indexed_join_ops - before.indexed_join_ops);
                obs.scanned_join_ops
                    .add(after.scanned_join_ops - before.scanned_join_ops);
            }
        }
        self.batches += 1;
        if let Some(obs) = obs {
            obs.batches.inc();
        }
        self.drop_failed(failed)
    }

    /// Consistency check: re-evaluate the view's expression from scratch
    /// against the current database and compare with the maintained
    /// result. `Ok(true)` means they agree exactly.
    pub fn verify(&self, name: &str) -> Result<bool, UpdateError> {
        let view = self
            .views
            .get(name)
            .ok_or_else(|| self.missing_view_error(name))?;
        let mut ev = Evaluator::new(&self.db, self.eval.limits.clone());
        let fresh = ev
            .eval_bag(view.expr())
            .map_err(|error| UpdateError::View {
                view: name.to_owned(),
                error,
            })?;
        Ok(&fresh == view.result())
    }

    /// [`ViewRuntime::verify`] over every registered view. A dropped view
    /// is *not* silently consistent: if any tombstone exists the check
    /// fails with its [`UpdateError::ViewDropped`] — otherwise a fleet of
    /// green verifies could hide a view that quietly vanished.
    pub fn verify_all(&self) -> Result<bool, UpdateError> {
        if let Some((name, _)) = self.dropped.iter().next() {
            return Err(self.missing_view_error(name));
        }
        for name in self.views.keys() {
            if !self.verify(name)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Batches applied so far — the recovery layer's replay position.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Restore the batch counter after a snapshot load (durability layer
    /// only): replayed WAL batches must resume numbering where the
    /// snapshotted runtime left off, not at zero.
    pub(crate) fn restore_batches(&mut self, batches: u64) {
        self.batches = batches;
    }

    /// Restore a dropped-view tombstone from a snapshot (durability layer
    /// only). Bypasses `drop_failed` — the view is already gone; only the
    /// record survives.
    pub(crate) fn restore_tombstone(&mut self, name: &str, record: DroppedView) {
        self.dropped.insert(name.to_owned(), record);
    }

    /// Aggregate instrumentation.
    pub fn stats(&self) -> RuntimeStats {
        let views = self
            .views
            .values()
            .fold(ViewStats::default(), |acc, v| acc.merged(v.stats()));
        RuntimeStats {
            batches: self.batches,
            dropped_views: self.dropped.len() as u64,
            views,
        }
    }
}

/// The `:stats` report shared by every surface (balg-cli's incremental
/// session, balg-server's writer, and the serial twin): the delta-engine
/// counters, the join-index cache line, one line per dropped view with
/// its cause, and — when the runtime is durable — the WAL position and
/// replay counters. One renderer, so the text is byte-equal across
/// surfaces by construction; they reach it through
/// [`crate::durable::Runtime::render_stats`].
pub fn render_stats(rt: &ViewRuntime, durability: Option<&crate::durable::Durability>) -> String {
    let stats = rt.stats();
    let mut out = format!(
        "{} batches — {} linear delta ops ({} indexed joins, {} scanned joins), {} non-linear fallbacks, {} scalar recomputes, {} full re-inits",
        stats.batches,
        stats.views.linear_delta_ops,
        stats.views.indexed_join_ops,
        stats.views.scanned_join_ops,
        stats.views.fallback_recomputes,
        stats.views.scalar_recomputes,
        stats.views.full_reinits
    );
    let (hits, misses, builds, evictions) = rt.index_cache_stats();
    out.push_str(&format!(
        "\nindex cache: {hits} hits, {misses} misses, {builds} builds, {evictions} evictions"
    ));
    // A dropped view is an incident, not a statistic — name it and say
    // why it was lost.
    for (name, record) in rt.dropped() {
        out.push_str(&format!(
            "\ndropped view {name} (batch {}): {}",
            record.at_batch, record.cause
        ));
    }
    // In-memory runtimes have no durability line at all, so a serial
    // twin and a memory-mode server still render byte-identically.
    if let Some(d) = durability {
        out.push_str(&format!(
            "\ndurable: lsn {}, snapshot lsn {}, {} WAL bytes since checkpoint, {} batches replayed at open, {} checkpoints",
            d.lsn, d.snapshot_lsn, d.wal_bytes, d.replayed_batches, d.checkpoints
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use balg_core::expr::Pred;
    use balg_core::natural::Natural;

    fn sym(s: &str) -> Value {
        Value::sym(s)
    }

    fn edge(a: &str, b: &str) -> Value {
        Value::tuple([sym(a), sym(b)])
    }

    fn graph(edges: &[(&str, &str)]) -> Bag {
        Bag::from_values(edges.iter().map(|(a, b)| edge(a, b)))
    }

    fn checked(runtime: &ViewRuntime) {
        assert!(runtime.verify_all().unwrap(), "a view drifted");
    }

    #[test]
    fn linear_chain_is_maintained_without_fallback() {
        let mut runtime = ViewRuntime::new();
        runtime
            .load_base("G", graph(&[("a", "b"), ("b", "c")]))
            .unwrap();
        let q = Expr::var("G")
            .select(
                "x",
                Pred::eq(Expr::var("x").attr(1), Expr::lit(sym("a"))).not(),
            )
            .project(&[2, 1]);
        runtime.create_view("rev", q).unwrap();
        assert_eq!(runtime.view("rev").unwrap().distinct_count(), 1);

        let mut batch = UpdateBatch::new();
        batch.insert("G", edge("c", "d"));
        batch.insert("G", edge("c", "d"));
        batch.delete("G", edge("b", "c"));
        runtime.apply(&batch).unwrap();

        let rev = runtime.view("rev").unwrap();
        assert_eq!(
            rev.multiplicity(&edge("d", "c")),
            Natural::from(2u64),
            "{rev}"
        );
        assert!(!rev.contains(&edge("c", "b")));
        checked(&runtime);
        let stats = runtime.stats();
        assert!(stats.views.linear_delta_ops > 0);
        assert_eq!(stats.views.fallback_recomputes, 0);
    }

    #[test]
    fn product_uses_the_bilinear_rule() {
        let mut runtime = ViewRuntime::new();
        runtime.load_base("R", graph(&[("a", "b")])).unwrap();
        runtime.load_base("S", graph(&[("x", "y")])).unwrap();
        runtime
            .create_view("prod", Expr::var("R").product(Expr::var("S")))
            .unwrap();

        let mut batch = UpdateBatch::new();
        batch.insert("R", edge("c", "d"));
        batch.insert("S", edge("u", "v"));
        runtime.apply(&batch).unwrap();
        assert_eq!(runtime.view("prod").unwrap().distinct_count(), 4);
        checked(&runtime);
        assert_eq!(runtime.stats().views.fallback_recomputes, 0);

        let mut batch = UpdateBatch::new();
        batch.delete("R", edge("a", "b"));
        runtime.apply(&batch).unwrap();
        assert_eq!(runtime.view("prod").unwrap().distinct_count(), 2);
        checked(&runtime);
    }

    #[test]
    fn nonlinear_operators_fall_back_and_count_it() {
        let mut runtime = ViewRuntime::new();
        runtime
            .load_base("R", graph(&[("a", "b"), ("a", "b")]))
            .unwrap();
        runtime.load_base("S", graph(&[("a", "b")])).unwrap();
        runtime
            .create_view("diff", Expr::var("R").subtract(Expr::var("S")))
            .unwrap();
        assert_eq!(
            runtime.view("diff").unwrap().cardinality(),
            Natural::from(1u64)
        );

        let mut batch = UpdateBatch::new();
        batch.insert("S", edge("a", "b"));
        runtime.apply(&batch).unwrap();
        assert!(runtime.view("diff").unwrap().is_empty());
        checked(&runtime);
        assert!(runtime.stats().views.fallback_recomputes > 0);
    }

    #[test]
    fn affected_lambda_body_forces_fallback() {
        // σ with a SubBag predicate against a *changing* base: the
        // linear rule is unsound, so the engine must re-derive.
        let mut runtime = ViewRuntime::new();
        runtime
            .load_base("B", Bag::from_values([sym("p"), sym("q")]))
            .unwrap();
        runtime
            .load_base("C", Bag::from_values([sym("p")]))
            .unwrap();
        let q = Expr::var("B").select(
            "x",
            Pred::SubBag(Expr::var("x").singleton(), Expr::var("C")),
        );
        runtime.create_view("subs", q).unwrap();
        assert_eq!(runtime.view("subs").unwrap().distinct_count(), 1);

        let mut batch = UpdateBatch::new();
        batch.insert("C", sym("q"));
        runtime.apply(&batch).unwrap();
        assert_eq!(runtime.view("subs").unwrap().distinct_count(), 2);
        checked(&runtime);
        assert!(runtime.stats().views.fallback_recomputes > 0);
    }

    #[test]
    fn untouched_views_are_skipped() {
        let mut runtime = ViewRuntime::new();
        runtime.load_base("R", graph(&[("a", "b")])).unwrap();
        runtime.load_base("S", graph(&[("x", "y")])).unwrap();
        runtime
            .create_view("r_only", Expr::var("R").dedup())
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("S", edge("u", "v"));
        runtime.apply(&batch).unwrap();
        // The only view reads R; an S-only batch must do zero view work.
        let stats = runtime.stats();
        assert_eq!(stats.views.linear_delta_ops, 0);
        assert_eq!(stats.views.fallback_recomputes, 0);
        checked(&runtime);
    }

    #[test]
    fn negative_base_is_rejected_atomically() {
        let mut runtime = ViewRuntime::new();
        runtime.load_base("R", graph(&[("a", "b")])).unwrap();
        runtime.load_base("S", graph(&[("x", "y")])).unwrap();
        runtime
            .create_view("all", Expr::var("R").additive_union(Expr::var("S")))
            .unwrap();
        let before = runtime.view("all").unwrap().clone();

        let mut batch = UpdateBatch::new();
        batch.insert("R", edge("c", "d")); // valid part...
        batch.delete("S", edge("not", "there")); // ...invalid part
        assert!(matches!(
            runtime.apply(&batch),
            Err(UpdateError::NegativeBase { .. })
        ));
        // Nothing committed: neither base nor view moved.
        assert_eq!(runtime.view("all").unwrap(), &before);
        assert!(!runtime
            .database()
            .get("R")
            .unwrap()
            .contains(&edge("c", "d")));
        checked(&runtime);
    }

    #[test]
    fn inserts_and_deletes_cancel_within_a_batch() {
        let mut runtime = ViewRuntime::new();
        runtime.load_base("R", graph(&[("a", "b")])).unwrap();
        runtime.create_view("v", Expr::var("R").dedup()).unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("R", edge("z", "z"));
        batch.delete("R", edge("z", "z"));
        assert!(batch.is_empty());
        runtime.apply(&batch).unwrap();
        assert_eq!(runtime.stats().batches, 0); // empty batches are free
        checked(&runtime);
    }

    #[test]
    fn unknown_base_and_view_errors() {
        let mut runtime = ViewRuntime::new();
        let mut batch = UpdateBatch::new();
        batch.insert("missing", sym("a"));
        assert!(matches!(
            runtime.apply(&batch),
            Err(UpdateError::UnknownBase(_))
        ));
        assert!(matches!(
            runtime.verify("missing"),
            Err(UpdateError::UnknownView(_))
        ));
        assert!(matches!(
            runtime.create_view("v", Expr::var("missing")),
            Err(UpdateError::View { .. })
        ));
    }

    #[test]
    fn one_failing_view_does_not_stall_the_others() {
        // "a_explodes" (powerset) blows its budget after the update and
        // is dropped; "z_survives" (later in name order) must still be
        // maintained — never left silently serving stale rows.
        let limits = Limits {
            max_bag_elements: 16,
            ..Limits::default()
        };
        let mut runtime = ViewRuntime::with_limits(limits);
        runtime
            .load_base("R", Bag::from_values((0..4).map(Value::int)))
            .unwrap();
        runtime
            .create_view("a_explodes", Expr::var("R").powerset())
            .unwrap();
        runtime
            .create_view("z_survives", Expr::var("R").dedup())
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("R", Value::int(100)); // powerset 32 > 16
        assert!(matches!(
            runtime.apply(&batch),
            Err(UpdateError::View { view, .. }) if view == "a_explodes"
        ));
        // The base committed, the failing view is gone, the survivor is
        // maintained and consistent.
        assert!(runtime
            .database()
            .get("R")
            .unwrap()
            .contains(&Value::int(100)));
        assert!(runtime.view("a_explodes").is_none());
        assert_eq!(runtime.view("z_survives").unwrap().distinct_count(), 5);
        assert!(runtime.verify("z_survives").unwrap());

        // load_base has the same policy: a failing rebase drops the view
        // but still rebases the rest.
        runtime
            .create_view("a_explodes", Expr::var("R").dedup())
            .unwrap();
        runtime
            .create_view("m_powerset", Expr::var("R").powerset().dedup())
            .unwrap_err(); // 32 subbags > 16 — rejected at registration
        runtime
            .load_base("R", Bag::from_values((0..3).map(Value::int)))
            .unwrap();
        assert!(runtime.verify_all().unwrap());
    }

    #[test]
    fn dropped_views_are_reported_not_unknown() {
        // Regression: a view dropped after a failed degraded
        // re-derivation used to surface a bare UnknownView on later
        // reads — indistinguishable from a typo. It must now carry its
        // tombstone: a dedicated ViewDropped { cause } from verify, a
        // failing verify_all, a dropped_views stats count, and an
        // enumerable cause via dropped().
        let limits = Limits {
            max_bag_elements: 16,
            ..Limits::default()
        };
        let mut runtime = ViewRuntime::with_limits(limits);
        runtime
            .load_base("R", Bag::from_values((0..4).map(Value::int)))
            .unwrap();
        runtime
            .create_view("explodes", Expr::var("R").powerset())
            .unwrap();
        let mut batch = UpdateBatch::new();
        batch.insert("R", Value::int(100)); // powerset 32 > 16
        assert!(runtime.apply(&batch).is_err());

        // verify: tombstoned, with the cause, not UnknownView.
        let err = runtime.verify("explodes").unwrap_err();
        assert!(
            matches!(&err, UpdateError::ViewDropped { view, cause }
                if view == "explodes" && !cause.is_empty()),
            "{err:?}"
        );
        assert!(err.to_string().contains("dropped"), "{err}");
        // A never-registered name still reads as a typo.
        assert!(matches!(
            runtime.verify("tpyo"),
            Err(UpdateError::UnknownView(_))
        ));
        // verify_all refuses to call a runtime with a lost view green.
        assert!(matches!(
            runtime.verify_all(),
            Err(UpdateError::ViewDropped { .. })
        ));
        // Reported in stats and enumerable with cause + drop batch.
        assert_eq!(runtime.stats().dropped_views, 1);
        let (name, record) = runtime.dropped().next().unwrap();
        assert_eq!(name, "explodes");
        assert_eq!(record.at_batch, runtime.stats().batches);

        // Re-registering under the same name clears the tombstone...
        runtime
            .create_view("explodes", Expr::var("R").dedup())
            .unwrap();
        assert_eq!(runtime.stats().dropped_views, 0);
        assert!(runtime.verify_all().unwrap());
        // ...and so does an explicit drop.
        runtime.drop_view("explodes");
        runtime
            .create_view("explodes", Expr::var("R").powerset())
            .unwrap_err();
        // A failed *registration* is not a drop: no tombstone.
        assert!(matches!(
            runtime.verify("explodes"),
            Err(UpdateError::UnknownView(_))
        ));
    }

    #[test]
    fn load_base_rebases_dependent_views() {
        let mut runtime = ViewRuntime::new();
        runtime.load_base("R", graph(&[("a", "b")])).unwrap();
        runtime
            .create_view("rev", Expr::var("R").project(&[2, 1]))
            .unwrap();
        runtime
            .load_base("R", graph(&[("p", "q"), ("q", "r")]))
            .unwrap();
        let rev = runtime.view("rev").unwrap();
        assert!(rev.contains(&edge("q", "p")));
        assert_eq!(rev.distinct_count(), 2);
        checked(&runtime);
        assert!(runtime.stats().views.full_reinits > 0);
    }
}
