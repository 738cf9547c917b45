//! The served model snapshots and their hot-reload watcher state.
//!
//! The registry holds one [`ErrorModel`] per model family, each behind an
//! `RwLock<Arc<…>>`: handlers grab an `Arc` snapshot and keep predicting
//! on it even if a reload swaps the slot mid-request — in-flight work
//! finishes on the model it started with. Reload detection polls the
//! store entries' mtimes through [`ArtifactStore::entry_stamp`], which
//! goes through the `StoreFs` seam, so fault schedules and degraded mode
//! apply to serving exactly as they do to campaign caching. Boot and
//! reload read every model through the store's fit check, so a published
//! model of the wrong input width is refused, retrained and rewritten,
//! never served.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, RwLock};
use std::time::SystemTime;

use wade_core::{train_error_model_stored, CampaignData, ErrorModel, MlKind, MODEL_KIND};
use wade_features::FeatureSet;
use wade_store::ArtifactStore;

/// The per-family model snapshots a server serves from.
pub struct ModelRegistry {
    store: Option<Arc<ArtifactStore>>,
    set: FeatureSet,
    data: CampaignData,
    /// One slot per entry of [`MlKind::ALL`], same order.
    models: Vec<RwLock<Arc<ErrorModel>>>,
    /// Store keys backing each family's models, same order as `models`.
    keys: Vec<Vec<String>>,
    /// Last seen mtime per store key; absent entries never had a stamp.
    stamps: Mutex<HashMap<String, SystemTime>>,
}

impl ModelRegistry {
    /// Boots the registry: loads every family's models from `store`
    /// (training and publishing them when the store is cold or absent)
    /// and records the artifacts' initial mtimes. Each dataset's store key
    /// is computed once, by the load itself, and not at all without a
    /// store, which has nothing to poll.
    pub fn new(data: CampaignData, set: FeatureSet, store: Option<Arc<ArtifactStore>>) -> Self {
        let mut models = Vec::new();
        let mut keys = Vec::new();
        for kind in MlKind::ALL {
            let (model, model_keys) = train_error_model_stored(store.as_deref(), &data, kind, set);
            models.push(RwLock::new(Arc::new(model)));
            keys.push(model_keys);
        }
        let registry = Self { store, set, data, models, keys, stamps: Mutex::new(HashMap::new()) };
        registry.refresh_stamps();
        registry
    }

    /// The feature set the registry's models were trained on.
    pub fn set(&self) -> FeatureSet {
        self.set
    }

    /// The current model snapshot for `kind`. The returned `Arc` stays
    /// valid across hot-reloads.
    pub fn model(&self, kind: MlKind) -> Arc<ErrorModel> {
        let idx = kind_index(kind);
        Arc::clone(&self.models[idx].read().expect("model slot poisoned"))
    }

    /// Whether the backing store has tripped into degraded (in-memory)
    /// mode; `false` without a store.
    pub(crate) fn degraded(&self) -> bool {
        self.store.as_deref().is_some_and(ArtifactStore::degraded)
    }

    /// Stored models the backing store refused for not fitting their rows
    /// ([`ArtifactStore::unfit`]); 0 without a store.
    pub(crate) fn store_unfit(&self) -> u64 {
        self.store.as_deref().map_or(0, ArtifactStore::unfit)
    }

    /// One reload poll: compares every backing artifact's mtime against
    /// the last seen value and rebuilds the families whose artifacts
    /// changed. Returns the number of families reloaded.
    ///
    /// A changed artifact that does not fit the served rows is refused by
    /// the rebuild, which retrains and rewrites it; the rewrite is itself
    /// a change, so the next poll reloads that family once more, from the
    /// rewritten entry.
    ///
    /// A stamp that reads as `None` (entry unreadable, store degraded,
    /// fault injected) never triggers a reload and never forgets the last
    /// good stamp — the in-memory snapshot keeps serving, which is the
    /// "failure degrades, never aborts" contract.
    pub fn poll_reload(&self) -> u64 {
        let Some(store) = self.store.as_deref() else {
            return 0;
        };
        let mut reloaded = 0;
        for (idx, kind) in MlKind::ALL.into_iter().enumerate() {
            let mut dirty = false;
            {
                let mut stamps = self.stamps.lock().expect("stamp map poisoned");
                for key in &self.keys[idx] {
                    if let Some(stamp) = store.entry_stamp(MODEL_KIND, key) {
                        if stamps.get(key) != Some(&stamp) {
                            stamps.insert(key.clone(), stamp);
                            dirty = true;
                        }
                    }
                }
            }
            if dirty {
                let model =
                    train_error_model_stored(self.store.as_deref(), &self.data, kind, self.set).0;
                *self.models[idx].write().expect("model slot poisoned") = Arc::new(model);
                reloaded += 1;
            }
        }
        reloaded
    }

    /// Records the current mtimes of every backing artifact without
    /// reloading — the boot-time baseline [`Self::poll_reload`] diffs
    /// against.
    fn refresh_stamps(&self) {
        let Some(store) = self.store.as_deref() else {
            return;
        };
        let mut stamps = self.stamps.lock().expect("stamp map poisoned");
        for key in self.keys.iter().flatten() {
            if let Some(stamp) = store.entry_stamp(MODEL_KIND, key) {
                stamps.insert(key.clone(), stamp);
            }
        }
    }
}

#[cfg(test)]
impl ModelRegistry {
    /// Puts `model` in `kind`'s slot without the store: the one way to
    /// serve a model the store's fit check would refuse.
    pub(crate) fn install(&self, kind: MlKind, model: ErrorModel) {
        *self.models[kind_index(kind)].write().expect("model slot poisoned") = Arc::new(model);
    }
}

fn kind_index(kind: MlKind) -> usize {
    MlKind::ALL.into_iter().position(|k| k == kind).expect("kind in ALL")
}
