//! The versioned model plane: a [`ModelRegistry`] of published classifier
//! versions with snapshot-swap reads.
//!
//! A long-lived service outlives any single trained model: retraining
//! produces a new classifier that must go live **without restarting the
//! service or perturbing in-flight jobs**.  The registry makes that safe by
//! construction:
//!
//! * Every published classifier gets an immutable [`ModelId`].  The weights
//!   behind an id never change — "update" means *publish a new version*.
//! * Readers never block writers and vice versa beyond one brief lock:
//!   the registry keeps its whole table in an immutable [`Snapshot`] behind
//!   an `Arc`; writers build a complete new snapshot and swap it in,
//!   readers clone the current `Arc` out.
//! * In-flight jobs **pin** their version: a job resolves its classifier
//!   `Arc` at submit time and holds it to completion, so a concurrent
//!   publish/retire/set-default never changes what an already-admitted job
//!   computes.  Retiring a model only stops *new* submissions from
//!   selecting it; pinned jobs finish under it and its weights are freed
//!   when the last pin drops.
//!
//! Determinism extends per model version: a job served under a given
//! [`ModelId`] is node-for-node identical to the offline
//! [`Flow`](elf_core::Flow) run with that version's classifier, no matter
//! what the registry did in the meantime.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use elf_core::ElfClassifier;

/// Identifier of one published classifier version, unique within its
/// registry and never reused.
///
/// Ids are handed out in publication order; the founding model of a service
/// is always id 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(u64);

impl ModelId {
    /// The raw id value.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The sentinel id carried by failure placeholder responses when no real
    /// model can be named (see `dead_channel_response` in the service).
    pub(crate) fn dead_channel() -> Self {
        ModelId(u64::MAX)
    }

    /// A fabricated id for unit tests that need one the registry never
    /// handed out.
    #[cfg(test)]
    pub(crate) fn for_tests(id: u64) -> Self {
        ModelId(id)
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model#{}", self.0)
    }
}

/// One immutable view of the registry: the default model and every live
/// version.
#[derive(Debug)]
struct Snapshot {
    default: ModelId,
    /// Sorted by id (publication order); small enough that linear scans beat
    /// any map.
    models: Vec<(ModelId, Arc<ElfClassifier>)>,
}

impl Snapshot {
    fn get(&self, id: ModelId) -> Option<&Arc<ElfClassifier>> {
        self.models
            .iter()
            .find(|(model, _)| *model == id)
            .map(|(_, classifier)| classifier)
    }
}

/// A versioned table of published classifiers with atomic snapshot-swap
/// updates (see the module docs).
///
/// # Examples
///
/// ```
/// use elf_core::ElfClassifier;
/// use elf_nn::{Mlp, Normalizer};
/// use elf_serve::ModelRegistry;
///
/// let classifier = |seed| ElfClassifier::from_parts(
///     Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
///     Mlp::paper_architecture(seed),
///     0.5,
/// );
/// let registry = ModelRegistry::with_initial(classifier(1));
/// let founding = registry.default_model();
///
/// // Publish a retrained version and make it the default...
/// let v2 = registry.publish(classifier(2));
/// registry.set_default(v2).unwrap();
/// assert_eq!(registry.default_model(), v2);
///
/// // ...then retire the old one.  Jobs that pinned it keep their Arc.
/// let pinned = registry.get(founding).unwrap();
/// assert!(registry.retire(founding));
/// assert!(registry.get(founding).is_none());
/// drop(pinned); // last pin frees the weights
/// ```
#[derive(Debug)]
pub struct ModelRegistry {
    /// The current snapshot; writers replace the inner `Arc` wholesale.
    snapshot: Mutex<Arc<Snapshot>>,
    next_id: AtomicU64,
}

impl ModelRegistry {
    /// Creates a registry whose founding model (id 0) is `classifier`, set
    /// as the default.
    pub fn with_initial(classifier: ElfClassifier) -> Self {
        let founding = ModelId(0);
        ModelRegistry {
            snapshot: Mutex::new(Arc::new(Snapshot {
                default: founding,
                models: vec![(founding, Arc::new(classifier))],
            })),
            next_id: AtomicU64::new(1),
        }
    }

    /// A poisoned mutex only means a writer panicked between two complete
    /// snapshots — the slot always holds a consistent `Arc<Snapshot>`, so
    /// readers and writers keep operating rather than cascading the panic.
    fn load(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Swaps in the snapshot `build` makes from the current one; `None`
    /// from `build` leaves the table as it was.  Returns whether it swapped.
    fn swap(&self, build: impl FnOnce(&Snapshot) -> Option<Snapshot>) -> bool {
        let mut slot = self.snapshot.lock().unwrap_or_else(PoisonError::into_inner);
        match build(&slot) {
            Some(snapshot) => {
                *slot = Arc::new(snapshot);
                true
            }
            None => false,
        }
    }

    /// Publishes a new classifier version, returning its fresh [`ModelId`].
    /// The new version is selectable immediately but does **not** become the
    /// default until [`ModelRegistry::set_default`] says so.
    pub fn publish(&self, classifier: ElfClassifier) -> ModelId {
        let id = ModelId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.swap(|current| {
            let mut models = current.models.clone();
            models.push((id, Arc::new(classifier)));
            Some(Snapshot {
                default: current.default,
                models,
            })
        });
        id
    }

    /// Makes a published version the default for submissions that do not
    /// select a model.  Fails (handing the id back) when the id is unknown
    /// or retired.
    pub fn set_default(&self, id: ModelId) -> Result<(), ModelId> {
        self.swap(|current| {
            current.get(id)?;
            Some(Snapshot {
                default: id,
                models: current.models.clone(),
            })
        })
        .then_some(())
        .ok_or(id)
    }

    /// Removes a version from the selectable set.  Returns `false` when the
    /// id is unknown or is the current default (retire the default by
    /// publishing and `set_default`-ing a replacement first).  Jobs that
    /// already pinned the version finish under it; its weights are freed
    /// when the last pin drops.
    pub fn retire(&self, id: ModelId) -> bool {
        self.swap(|current| {
            if id == current.default || current.get(id).is_none() {
                return None;
            }
            let models = current
                .models
                .iter()
                .filter(|(model, _)| *model != id)
                .cloned()
                .collect();
            Some(Snapshot {
                default: current.default,
                models,
            })
        })
    }

    /// Resolves a published version to its classifier, pinning it for as
    /// long as the returned `Arc` lives.  `None` for unknown/retired ids.
    pub fn get(&self, id: ModelId) -> Option<Arc<ElfClassifier>> {
        self.load().get(id).cloned()
    }

    /// The id of the current default model.
    pub fn default_model(&self) -> ModelId {
        self.load().default
    }

    /// Resolves the current default to `(id, classifier)` in one consistent
    /// read — immune to a concurrent `set_default` between two calls.
    pub fn resolve_default(&self) -> (ModelId, Arc<ElfClassifier>) {
        let snapshot = self.load();
        match snapshot.get(snapshot.default) {
            Some(classifier) => (snapshot.default, Arc::clone(classifier)),
            // `set_default` validates its id and `retire` refuses the
            // default, so every snapshot contains its own default.
            None => unreachable!("the default model is always live"),
        }
    }

    /// The ids of every live (selectable) version, in publication order.
    pub fn models(&self) -> Vec<ModelId> {
        self.load().models.iter().map(|(id, _)| *id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elf_nn::{Mlp, Normalizer};

    fn classifier(seed: u64) -> ElfClassifier {
        ElfClassifier::from_parts(
            Normalizer::from_stats(vec![2.0; 6], vec![1.0; 6]),
            Mlp::paper_architecture(seed),
            0.5,
        )
    }

    #[test]
    fn founding_model_is_the_default_with_id_zero() {
        let registry = ModelRegistry::with_initial(classifier(1));
        let founding = registry.default_model();
        assert_eq!(founding.as_u64(), 0);
        assert_eq!(registry.models(), vec![founding]);
        assert!(registry.get(founding).is_some());
    }

    #[test]
    fn publish_assigns_fresh_ids_and_keeps_the_default() {
        let registry = ModelRegistry::with_initial(classifier(1));
        let founding = registry.default_model();
        let v1 = registry.publish(classifier(2));
        let v2 = registry.publish(classifier(3));
        assert!(founding < v1 && v1 < v2);
        assert_eq!(registry.default_model(), founding);
        assert_eq!(registry.models(), vec![founding, v1, v2]);
    }

    #[test]
    fn set_default_switches_and_rejects_unknown_ids() {
        let registry = ModelRegistry::with_initial(classifier(1));
        let v1 = registry.publish(classifier(2));
        assert_eq!(registry.set_default(v1), Ok(()));
        assert_eq!(registry.default_model(), v1);
        let (id, resolved) = registry.resolve_default();
        assert_eq!(id, v1);
        assert!(Arc::ptr_eq(&resolved, &registry.get(v1).unwrap()));
        let bogus = ModelId(99);
        assert_eq!(registry.set_default(bogus), Err(bogus));
    }

    #[test]
    fn retire_refuses_the_default_and_unknown_ids() {
        let registry = ModelRegistry::with_initial(classifier(1));
        let founding = registry.default_model();
        assert!(!registry.retire(founding), "cannot retire the default");
        assert!(!registry.retire(ModelId(42)), "cannot retire the unknown");
        assert_eq!(
            registry.models(),
            vec![founding],
            "failed retires change nothing"
        );
    }

    #[test]
    fn retired_models_stay_pinned_by_live_references() {
        let registry = ModelRegistry::with_initial(classifier(1));
        let founding = registry.default_model();
        let v1 = registry.publish(classifier(2));
        registry.set_default(v1).unwrap();

        // A job pins the founding model, then the registry retires it.
        let pinned = registry.get(founding).unwrap();
        let weights = Arc::clone(pinned.model_handle());
        assert!(registry.retire(founding));
        assert!(registry.get(founding).is_none());
        assert_eq!(registry.models(), vec![v1]);

        // The pinned job still computes under the retired version...
        assert!(Arc::ptr_eq(pinned.model_handle(), &weights));
        // ...and the weights are freed only when the last pin drops.
        assert_eq!(Arc::strong_count(&weights), 2);
        drop(pinned);
        assert_eq!(Arc::strong_count(&weights), 1);
    }
}
