//! The answer registry: stored global-illumination solutions paired with
//! their scenes.
//!
//! The paper's central artifact is the view-independent answer file: "once
//! the simulation is finished, all that remains is to determine what is
//! displayed". One simulation therefore serves unlimited viewpoints — the
//! store is the service-side shelf those solutions live on. Each entry
//! pairs an [`Answer`] with its [`Scene`] (the codec stores bin trees only;
//! radiance reconstruction needs patch geometry) and caches the
//! auto-exposure so every request against the same solution maps radiance
//! to display range identically.
//!
//! Persistence reuses the existing `PHOTANS1` codec unchanged
//! ([`Answer::write_to`] / [`Answer::read_from`]); the store adds the
//! scene-consistency check a service needs before answering queries from a
//! file of unknown provenance.
//!
//! **Epochs.** A progressive solve publishes successive snapshots of one
//! scene's answer while the simulation is still running:
//! [`AnswerStore::register`] creates the entry (epoch 0, empty answer) and
//! each [`AnswerStore::publish`] swaps in a fresher answer under the next
//! epoch. The render path keys its view cache by `(scene, epoch, camera)`,
//! so every publish atomically invalidates stale images — readers holding
//! an older entry `Arc` keep a consistent (scene, answer, exposure, epoch)
//! tuple until they resolve the entry again.
//!
//! **Publish watch.** Pollers waste the latency the epochs were built to
//! hide, so the store announces every publish: consumers — the render
//! service's streaming dispatcher — register a callback via
//! [`AnswerStore::register_watcher`] and are invoked inline with the
//! `(SceneId, epoch)` of each publish. A solve's submitter follows its
//! epochs on the job's progress channel (`SolveHandle::wait_epoch`).

use photon_core::obs::{ObsCtx, ObsKind};
use photon_core::view::auto_exposure;
use photon_core::{Answer, ObsHub};
use photon_geom::Scene;
use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex, RwLock};

/// Handle to one stored solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SceneId(pub u32);

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "scene#{}", self.0)
    }
}

/// One stored solution: scene + answer + display calibration.
#[derive(Debug)]
pub struct StoredAnswer {
    /// Human-readable name (for logs and bench reports).
    pub name: String,
    /// The scene geometry the answer was simulated in.
    pub scene: Arc<Scene>,
    /// The view-independent solution.
    pub answer: Arc<Answer>,
    /// Exposure mapping mean lit radiance to mid-gray, fixed at insert time
    /// so all views of one solution are consistently calibrated.
    pub exposure: f64,
    /// Publication epoch: 0 for a registered-but-unsolved scene, then +1
    /// per [`AnswerStore::publish`] (an [`AnswerStore::insert`] is epoch 1).
    pub epoch: u64,
}

/// Handle to one registered publish watcher; pass it back to
/// [`AnswerStore::unregister_watcher`] to stop the callbacks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WatcherId(u64);

type WatcherFn = Box<dyn Fn(SceneId, u64) + Send + Sync>;

#[derive(Default)]
struct Watchers {
    next: u64,
    list: Vec<(u64, WatcherFn)>,
}

/// A concurrent registry of stored answers, indexed by [`SceneId`].
///
/// Reads (the hot path — every render request resolves its entry here) take
/// a shared lock and clone an `Arc`; inserts are rare and exclusive.
#[derive(Default)]
pub struct AnswerStore {
    entries: RwLock<Vec<Arc<StoredAnswer>>>,
    watchers: Mutex<Watchers>,
    /// The shared observability hub. The store is the rendezvous every
    /// tier already meets at, so every component built over this store
    /// (solver pool, render service, exporters) clones this hub — one
    /// flight recorder spans solve → publish → render → delta →
    /// checkpoint with zero configuration.
    obs: Arc<ObsHub>,
}

impl std::fmt::Debug for AnswerStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnswerStore")
            .field("entries", &self.entries.read().unwrap().len())
            .field("watchers", &self.watchers.lock().unwrap().list.len())
            .finish()
    }
}

impl AnswerStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's observability hub — shared by every tier built over
    /// this store, so one timeline spans the whole pipeline.
    pub fn obs(&self) -> Arc<ObsHub> {
        Arc::clone(&self.obs)
    }

    /// Registers a solution and returns its id.
    ///
    /// # Panics
    /// Panics if the answer's patch count does not match the scene — an
    /// answer only means something against the geometry it was simulated
    /// in.
    pub fn insert(&self, name: impl Into<String>, scene: Scene, answer: Answer) -> SceneId {
        self.insert_at_epoch(name, scene, answer, 1)
    }

    /// Registers a scene with *no* solution yet (epoch 0, empty answer —
    /// renders black). A background solve then [`publish`][Self::publish]es
    /// refining answers against the returned id, so clients can start
    /// querying views before the first batch finishes.
    pub fn register(&self, name: impl Into<String>, scene: Scene) -> SceneId {
        let empty = Answer::empty(scene.polygon_count());
        self.insert_at_epoch(name, scene, empty, 0)
    }

    fn insert_at_epoch(
        &self,
        name: impl Into<String>,
        scene: Scene,
        answer: Answer,
        epoch: u64,
    ) -> SceneId {
        assert_eq!(
            answer.patch_count(),
            scene.polygon_count(),
            "answer/scene patch count mismatch"
        );
        let exposure = auto_exposure(&scene, &answer);
        let entry = Arc::new(StoredAnswer {
            name: name.into(),
            scene: Arc::new(scene),
            answer: Arc::new(answer),
            exposure,
            epoch,
        });
        let id = {
            let mut entries = self.entries.write().unwrap();
            entries.push(entry);
            SceneId(entries.len() as u32 - 1)
        };
        self.announce(id, epoch);
        id
    }

    /// Atomically replaces entry `id`'s answer with a fresher snapshot,
    /// bumping the epoch and recalibrating exposure. Returns the new epoch.
    ///
    /// Publishes are ordered by photon count, not arrival: a snapshot whose
    /// [`Answer::emitted`] is *less* than the stored answer's is stale by
    /// construction (the solve only ever adds photons) and is rejected —
    /// the entry keeps its fresher answer and the existing epoch is
    /// returned unchanged. Two racing publishers therefore converge on the
    /// richer snapshot no matter which lands last.
    ///
    /// # Panics
    /// Panics on an unknown id or an answer whose patch count does not
    /// match the stored scene.
    pub fn publish(&self, id: SceneId, answer: Answer) -> u64 {
        // Calibrate outside the lock: auto_exposure scans every patch's
        // radiance, and render lookups must not stall behind a publish.
        let scene = {
            let entries = self.entries.read().unwrap();
            let entry = entries
                .get(id.0 as usize)
                .unwrap_or_else(|| panic!("publish to unknown {id}"));
            Arc::clone(&entry.scene)
        };
        assert_eq!(
            answer.patch_count(),
            scene.polygon_count(),
            "answer/scene patch count mismatch"
        );
        let exposure = auto_exposure(&scene, &answer);
        let answer = Arc::new(answer);
        let bumped = {
            let mut entries = self.entries.write().unwrap();
            let slot = &mut entries[id.0 as usize];
            // Last-writer-wins guard: the exposure above was computed
            // outside the lock, so a racing publish may have landed a
            // richer snapshot in the meantime. Never let a staler answer
            // overwrite it.
            if answer.emitted() < slot.answer.emitted() {
                return slot.epoch;
            }
            let epoch = slot.epoch + 1;
            *slot = Arc::new(StoredAnswer {
                name: slot.name.clone(),
                scene,
                answer,
                exposure,
                epoch,
            });
            epoch
        };
        // Announce outside the entries lock: watcher callbacks must never
        // run under it.
        self.announce(id, bumped);
        bumped
    }

    /// Registers `watcher` to be called with `(id, epoch)` on every
    /// publication — each [`publish`][Self::publish] that bumps an epoch
    /// and each [`insert`][Self::insert]/[`register`][Self::register] of a
    /// new entry. Callbacks run inline on the publisher's thread with the
    /// watcher registry locked: keep them cheap (post to a channel) and
    /// never call back into the store's watcher APIs from inside one.
    pub fn register_watcher(
        &self,
        watcher: impl Fn(SceneId, u64) + Send + Sync + 'static,
    ) -> WatcherId {
        let mut watchers = self.watchers.lock().unwrap();
        let id = watchers.next;
        watchers.next += 1;
        watchers.list.push((id, Box::new(watcher)));
        WatcherId(id)
    }

    /// Removes a watcher; unknown (or already removed) ids are a no-op.
    pub fn unregister_watcher(&self, id: WatcherId) {
        self.watchers
            .lock()
            .unwrap()
            .list
            .retain(|(w, _)| *w != id.0);
    }

    /// Runs the registered watcher callbacks. Callers must not hold the
    /// entries lock: a callback may resolve the entry it was told about.
    fn announce(&self, id: SceneId, epoch: u64) {
        self.obs.emit(
            ObsKind::EpochPublished,
            ObsCtx {
                scene: Some(id.0),
                payload: epoch,
                ..Default::default()
            },
        );
        let watchers = self.watchers.lock().unwrap();
        for (_, watcher) in &watchers.list {
            watcher(id, epoch);
        }
    }

    /// Looks up a solution.
    pub fn get(&self, id: SceneId) -> Option<Arc<StoredAnswer>> {
        self.entries.read().unwrap().get(id.0 as usize).cloned()
    }

    /// Number of stored solutions.
    pub fn len(&self) -> usize {
        self.entries.read().unwrap().len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes entry `id`'s answer as a `PHOTANS1` stream.
    pub fn save(&self, id: SceneId, w: &mut impl Write) -> io::Result<()> {
        let entry = self
            .get(id)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no {id}")))?;
        entry.answer.write_to(w)
    }

    /// Reads a `PHOTANS1` stream and registers it against `scene`,
    /// rejecting answers simulated in different geometry.
    pub fn load(
        &self,
        name: impl Into<String>,
        scene: Scene,
        r: &mut impl Read,
    ) -> io::Result<SceneId> {
        let answer = Answer::read_from(r)?;
        if answer.patch_count() != scene.polygon_count() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "answer has {} patch trees but the scene has {} polygons",
                    answer.patch_count(),
                    scene.polygon_count()
                ),
            ));
        }
        Ok(self.insert(name, scene, answer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::{SimConfig, Simulator};
    use photon_scenes::cornell_box;

    fn small_answer() -> (Scene, Answer) {
        let mut sim = Simulator::new(
            cornell_box(),
            SimConfig {
                seed: 3,
                ..Default::default()
            },
        );
        sim.run_photons(2_000);
        let answer = sim.answer_snapshot();
        (sim.scene().clone(), answer)
    }

    #[test]
    fn insert_then_get_round_trips() {
        let store = AnswerStore::new();
        let (scene, answer) = small_answer();
        let leaf_bins = answer.total_leaf_bins();
        let id = store.insert("cornell", scene, answer);
        let entry = store.get(id).expect("stored");
        assert_eq!(entry.name, "cornell");
        assert_eq!(entry.answer.total_leaf_bins(), leaf_bins);
        assert!(entry.exposure > 0.0);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn save_load_preserves_the_solution() {
        let store = AnswerStore::new();
        let (scene, answer) = small_answer();
        let id = store.insert("cornell", scene.clone(), answer);
        let mut buf = Vec::new();
        store.save(id, &mut buf).unwrap();

        let restored = AnswerStore::new();
        let rid = restored
            .load("cornell-restored", scene, &mut buf.as_slice())
            .unwrap();
        let a = store.get(id).unwrap();
        let b = restored.get(rid).unwrap();
        assert_eq!(a.answer.emitted(), b.answer.emitted());
        assert_eq!(a.answer.total_leaf_bins(), b.answer.total_leaf_bins());
        assert_eq!(a.exposure, b.exposure);
    }

    #[test]
    fn load_rejects_wrong_scene() {
        let store = AnswerStore::new();
        let (scene, answer) = small_answer();
        let id = store.insert("cornell", scene, answer);
        let mut buf = Vec::new();
        store.save(id, &mut buf).unwrap();
        // The practice room has 100 polygons; the answer has 30 trees.
        let err = store
            .load(
                "mismatched",
                photon_scenes::harpsichord_room(),
                &mut buf.as_slice(),
            )
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn register_then_publish_bumps_epochs() {
        let store = AnswerStore::new();
        let (scene, answer) = small_answer();
        let id = store.register("progressive", scene);
        let e0 = store.get(id).unwrap();
        assert_eq!((e0.epoch, e0.answer.emitted()), (0, 0));
        assert_eq!(e0.exposure, 1.0, "unlit placeholder uses unit exposure");
        let emitted = answer.emitted();
        assert_eq!(store.publish(id, answer), 1);
        let e1 = store.get(id).unwrap();
        assert_eq!((e1.epoch, e1.answer.emitted()), (1, emitted));
        assert!(e1.exposure > 0.0);
        // A reader holding the old entry keeps its consistent snapshot.
        assert_eq!(e0.epoch, 0);
        // Inserted entries start published (epoch 1) and keep counting.
        let (scene2, answer2) = small_answer();
        let id2 = store.insert("prestored", scene2, answer2.clone());
        assert_eq!(store.get(id2).unwrap().epoch, 1);
        assert_eq!(store.publish(id2, answer2), 2);
    }

    #[test]
    fn publish_rejects_stale_snapshots() {
        // Regression: two publishes racing on one id could land out of
        // order, letting a snapshot with fewer photons overwrite a fresher
        // answer while still bumping the epoch.
        let store = AnswerStore::new();
        let mut sim = Simulator::new(
            cornell_box(),
            SimConfig {
                seed: 3,
                ..Default::default()
            },
        );
        sim.run_photons(1_000);
        let early = sim.answer_snapshot();
        sim.run_photons(1_000);
        let late = sim.answer_snapshot();
        let id = store.register("racy", sim.scene().clone());

        assert_eq!(store.publish(id, late.clone()), 1);
        // The stale snapshot arrives second: no epoch bump, no overwrite.
        assert_eq!(store.publish(id, early), 1, "stale publish must not bump");
        let entry = store.get(id).unwrap();
        assert_eq!(entry.epoch, 1);
        assert_eq!(entry.answer.emitted(), 2_000, "fresher answer survived");
        // An equally-rich snapshot still republishes (same photon count is
        // not stale — the pipeline republishes converged answers).
        assert_eq!(store.publish(id, late), 2);
    }

    #[test]
    fn watchers_observe_publishes_until_unregistered() {
        let store = AnswerStore::new();
        let seen: Arc<std::sync::Mutex<Vec<(SceneId, u64)>>> = Arc::default();
        let sink = Arc::clone(&seen);
        let watcher = store.register_watcher(move |id, epoch| {
            sink.lock().unwrap().push((id, epoch));
        });
        let (scene, answer) = small_answer();
        let id = store.register("announced", scene);
        store.publish(id, answer.clone());
        assert_eq!(
            seen.lock().unwrap().as_slice(),
            &[(id, 0), (id, 1)],
            "register and publish both announce"
        );
        // A stale publish bumps nothing and stays silent.
        let early = Answer::empty(answer.patch_count());
        store.publish(id, early);
        assert_eq!(seen.lock().unwrap().len(), 2, "stale publish is silent");
        store.unregister_watcher(watcher);
        store.publish(id, answer);
        assert_eq!(seen.lock().unwrap().len(), 2, "unregistered watcher quiet");
    }

    #[test]
    fn missing_ids_answer_none() {
        let store = AnswerStore::new();
        assert!(store.is_empty());
        assert!(store.get(SceneId(4)).is_none());
        assert!(store.save(SceneId(0), &mut Vec::new()).is_err());
    }
}
