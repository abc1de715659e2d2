//! Scheduler acceptance: fair multi-job scheduling, job lifecycle
//! (pause/resume/cancel), per-tenant quotas, and regression tests for the
//! epoch-lifecycle bug batch.

use photon_core::{Camera, SimConfig, Simulator, Stage};
use photon_scenes::{cornell_box, TestScene};
use photon_serve::{
    AnswerStore, BackendChoice, RenderRequest, RenderService, ServeConfig, SolveRequest, SolverPool,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn cornell_camera() -> Camera {
    let v = TestScene::CornellBox.view();
    Camera {
        eye: v.eye,
        target: v.target,
        up: v.up,
        vfov_deg: v.vfov_deg,
        width: 24,
        height: 18,
    }
}

/// The tentpole's acceptance bar: on a **one-worker** pool, a 20k-photon
/// job submitted *after* a 2M-photon job completes while the heavy job is
/// still running — weighted round-robin interleaves their batches instead
/// of serializing them — and the heavy job still reaches its target. The
/// scheduler's state (per-job photons/sec, queue depth) is visible in the
/// render service's `MetricsSnapshot`.
#[test]
fn light_job_finishes_while_heavy_job_still_runs() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let service = RenderService::start(Arc::clone(&store), ServeConfig::default());
    service.attach_solver(pool.stats_source());

    let mut heavy = SolveRequest::new("heavy-tenant-scene", cornell_box());
    heavy.seed = 2_001;
    heavy.batch_size = 50_000;
    heavy.target_photons = 2_000_000;
    heavy.publish_every = 4;
    heavy.tenant = "heavy".into();
    let heavy = pool.submit(heavy);

    let mut light = SolveRequest::new("light-tenant-scene", cornell_box());
    light.seed = 2_002;
    light.batch_size = 2_000;
    light.target_photons = 20_000;
    light.tenant = "light".into();
    let light = pool.submit(light);

    // While both jobs are live on one worker, one holds the slice and the
    // other waits in the run queue: the queue depth must be observable.
    let mut saw_queue_depth = false;
    let light_done = loop {
        let m = service.metrics();
        if m.solver.queue_depth >= 1 {
            saw_queue_depth = true;
        }
        if let Some(p) = light.next_progress(Duration::from_millis(20)) {
            if p.done {
                break p;
            }
        }
    };
    assert_eq!(light_done.emitted, 20_000);
    assert!(
        saw_queue_depth,
        "two live jobs on one worker never showed queue depth"
    );

    // Fairness: at the moment the light job converged, the heavy job must
    // still be short of its target (FIFO would have run it to completion
    // first), and the light job's answer is fully served.
    let heavy_mid = store.get(heavy.scene_id()).unwrap().answer.emitted();
    assert!(
        heavy_mid < 2_000_000,
        "heavy job already finished ({heavy_mid} photons): scheduling is not fair"
    );
    assert_eq!(
        store.get(light.scene_id()).unwrap().answer.emitted(),
        20_000
    );

    // The heavy job is not starved either: it still converges.
    let heavy_done = heavy
        .wait_done(Duration::from_secs(600))
        .expect("heavy job converges after the light job");
    assert_eq!(heavy_done.emitted, 2_000_000);

    // Scheduler state flows through MetricsSnapshot: per-job rates and
    // per-tenant slice accounting.
    let m = service.metrics();
    assert_eq!(m.solver.jobs.len(), 2);
    for job in &m.solver.jobs {
        assert_eq!(job.state, "done");
        assert!(
            job.photons_per_sec > 0.0,
            "per-job photons/sec missing: {job:?}"
        );
        assert!(job.epochs_per_sec > 0.0);
        assert!(job.slices >= 1);
        // Forest footprint gauges ride the same snapshot: a solved job's
        // arenas are non-empty in both the hot and cold arena.
        assert!(
            job.forest_node_bytes > 0 && job.forest_leaf_bytes > 0 && job.forest_leaf_bins > 0,
            "per-job forest footprint missing: {job:?}"
        );
    }
    assert_eq!(
        m.solver.forest_leaf_bins,
        m.solver
            .jobs
            .iter()
            .map(|j| j.forest_leaf_bins)
            .sum::<u64>()
    );
    assert!(m.solver.forest_node_bytes >= m.solver.jobs.len() as u64 * 8);
    let tenants: Vec<&str> = m.solver.tenants.iter().map(|t| t.tenant.as_str()).collect();
    assert!(tenants.contains(&"heavy") && tenants.contains(&"light"));
    for t in &m.solver.tenants {
        assert!(t.slices >= 1, "tenant granted no slices: {t:?}");
    }
}

/// Pause parks a job after its in-flight batch; resume puts it back in
/// the rotation and it still converges exactly to target.
#[test]
fn pause_parks_and_resume_finishes() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("pausable", cornell_box());
    req.seed = 5;
    req.batch_size = 1_000;
    req.target_photons = 30_000;
    let job = pool.submit(req);

    job.next_progress(Duration::from_secs(60)).expect("started");
    job.pause();
    // Drain whatever was already in flight; then the stream must go quiet.
    while job.next_progress(Duration::from_millis(300)).is_some() {}
    let parked = store.get(job.scene_id()).unwrap().answer.emitted();
    assert!(parked < 30_000, "paused job ran to completion");
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(
        store.get(job.scene_id()).unwrap().answer.emitted(),
        parked,
        "paused job kept emitting"
    );
    let m = pool.metrics();
    assert_eq!(m.paused, 1, "{m:?}");
    assert_eq!(m.jobs[0].state, "paused");

    job.resume();
    let done = job.wait_done(Duration::from_secs(120)).expect("resumed");
    assert_eq!(done.emitted, 30_000);
    assert!(!done.canceled);
}

/// Cancel publishes one final snapshot (renders keep the best answer so
/// far), reports a canceled terminal progress, and frees the worker for
/// the next job.
#[test]
fn cancel_publishes_final_snapshot_and_frees_the_slot() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("doomed", cornell_box());
    req.seed = 6;
    req.batch_size = 1_000;
    req.target_photons = 100_000_000; // would run ~forever
    let job = pool.submit(req);
    let first = job.next_progress(Duration::from_secs(60)).expect("started");
    assert!(first.epoch >= 1);

    job.cancel();
    let done = job.wait_done(Duration::from_secs(60)).expect("canceled");
    assert!(done.done && done.canceled);
    assert!(done.emitted < 100_000_000);
    let entry = store.get(job.scene_id()).unwrap();
    assert_eq!(
        entry.answer.emitted(),
        done.emitted,
        "cancel must publish the final snapshot"
    );
    assert!(entry.epoch >= first.epoch);
    assert_eq!(pool.metrics().jobs[0].state, "canceled");

    // The slot is free: a fresh job gets the worker and converges.
    let mut next = SolveRequest::new("after-cancel", cornell_box());
    next.seed = 7;
    next.batch_size = 1_000;
    next.target_photons = 3_000;
    let next = pool.submit(next);
    let done = next.wait_done(Duration::from_secs(60)).expect("ran");
    assert_eq!(done.emitted, 3_000);
}

/// Regression (canceled dist job mislabels its clock): a stepped report of
/// the distributed backend is on the model clock, but a cancel's terminal
/// report carries the pool's wall seconds — before the fix it still
/// claimed `virtual_time`, passing wall seconds off as model seconds.
#[test]
fn canceled_distributed_job_reports_wall_seconds() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("dist-doomed", cornell_box());
    req.backend = BackendChoice::Distributed { nranks: 2 };
    req.seed = 14;
    req.batch_size = 1_000;
    req.target_photons = 100_000_000; // would run ~forever
    let job = pool.submit(req);
    let first = job.next_progress(Duration::from_secs(60)).expect("started");
    assert!(
        first.virtual_time,
        "a stepped dist report is in model seconds"
    );

    job.cancel();
    let done = job.wait_done(Duration::from_secs(60)).expect("canceled");
    assert!(done.done && done.canceled);
    assert!(
        !done.virtual_time,
        "a cancel reports the pool's wall seconds: {done:?}"
    );
}

/// Canceling a *paused* job still finalizes it — parked jobs are not
/// zombies.
#[test]
fn cancel_finalizes_a_paused_job() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("paused-then-canceled", cornell_box());
    req.seed = 8;
    req.batch_size = 1_000;
    req.target_photons = 50_000;
    let job = pool.submit(req);
    job.next_progress(Duration::from_secs(60)).expect("started");
    job.pause();
    while job.next_progress(Duration::from_millis(300)).is_some() {}
    job.cancel();
    let done = job.wait_done(Duration::from_secs(60)).expect("finalized");
    assert!(done.done && done.canceled);
    assert!(done.emitted > 0 && done.emitted < 50_000);
}

/// Canceling a job the scheduler never started publishes nothing — the
/// registered epoch-0 entry keeps serving — but still reports a terminal
/// canceled progress.
#[test]
fn cancel_before_first_slice_publishes_nothing() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    // Occupy the single worker so the second job stays queued.
    let mut busy = SolveRequest::new("busy", cornell_box());
    busy.seed = 20;
    busy.batch_size = 1_000;
    busy.target_photons = 1_000_000;
    let busy = pool.submit(busy);
    busy.next_progress(Duration::from_secs(60))
        .expect("running");
    busy.pause();

    let mut req = SolveRequest::new("never-ran", cornell_box());
    req.seed = 21;
    req.target_photons = 50_000;
    let job = pool.submit(req);
    job.cancel();
    let done = job.wait_done(Duration::from_secs(60)).expect("finalized");
    assert!(done.done && done.canceled);
    assert_eq!(done.emitted, 0);
    let entry = store.get(job.scene_id()).unwrap();
    assert_eq!(entry.epoch, 0, "nothing was solved, nothing published");
    busy.cancel();
}

/// Pausing a quota-blocked job sticks: a later budget top-up must not
/// resume a job its owner explicitly paused.
#[test]
fn pause_survives_a_quota_top_up() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    pool.set_tenant_budget("capped", 2_000);
    let mut req = SolveRequest::new("capped-job", cornell_box());
    req.seed = 22;
    req.batch_size = 2_000;
    req.target_photons = 10_000;
    req.tenant = "capped".into();
    let job = pool.submit(req);
    while job.next_progress(Duration::from_millis(400)).is_some() {}
    assert_eq!(pool.metrics().quota_blocked, 1);

    job.pause();
    pool.add_tenant_budget("capped", 100_000);
    assert!(
        job.next_progress(Duration::from_millis(400)).is_none(),
        "paused job resumed on budget top-up"
    );
    assert_eq!(pool.metrics().paused, 1);
    job.resume();
    let done = job.wait_done(Duration::from_secs(60)).expect("resumed");
    assert_eq!(done.emitted, 10_000);
}

/// Per-tenant photon budgets are enforced at slice grant: an exhausted
/// tenant's job parks at exactly its budget without stalling the pool,
/// and granting more budget wakes it to convergence.
#[test]
fn quota_exhaustion_parks_until_budget_arrives() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    pool.set_tenant_budget("acme", 4_000);

    let mut req = SolveRequest::new("metered", cornell_box());
    req.seed = 9;
    req.batch_size = 2_000;
    req.target_photons = 20_000;
    req.tenant = "acme".into();
    let job = pool.submit(req);

    // An unmetered tenant shares the pool and is unaffected by acme's
    // exhaustion.
    let mut free = SolveRequest::new("unmetered", cornell_box());
    free.seed = 10;
    free.batch_size = 2_000;
    free.target_photons = 10_000;
    let free = pool.submit(free);

    // The metered job emits exactly its budget (two full 2k slices) and
    // then parks.
    while job.next_progress(Duration::from_millis(500)).is_some() {}
    assert_eq!(
        store.get(job.scene_id()).unwrap().answer.emitted(),
        4_000,
        "job must stop at the tenant budget"
    );
    let m = pool.metrics();
    assert_eq!(m.quota_blocked, 1, "{m:?}");
    let acme = m
        .tenants
        .iter()
        .find(|t| t.tenant == "acme")
        .expect("tenant tracked");
    assert_eq!(acme.budget_remaining, Some(0));
    assert_eq!(acme.photons_used, 4_000);
    assert_eq!(acme.quota_blocked_jobs, 1);

    let free_done = free.wait_done(Duration::from_secs(60)).expect("unmetered");
    assert_eq!(free_done.emitted, 10_000);

    // More budget wakes the parked job.
    pool.add_tenant_budget("acme", 100_000);
    let done = job.wait_done(Duration::from_secs(120)).expect("resumed");
    assert_eq!(done.emitted, 20_000);
}

/// Regression (run_job off-by-one): a target that is already met must
/// publish immediately instead of stepping a full batch first. Before the
/// fix, `target_photons: 0` still emitted `batch_size` photons.
#[test]
fn already_met_target_publishes_without_stepping() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("zero-target", cornell_box());
    req.seed = 11;
    req.batch_size = 2_000;
    req.target_photons = 0;
    let job = pool.submit(req);
    let done = job.wait_done(Duration::from_secs(60)).expect("immediate");
    assert!(done.done && !done.canceled);
    assert_eq!(done.emitted, 0, "a met target must not emit another batch");
    let entry = store.get(job.scene_id()).unwrap();
    assert_eq!(entry.epoch, 1, "the (empty) final state still publishes");
    assert_eq!(entry.answer.emitted(), 0);
}

/// The two per-epoch stages of a solve are timed once per publish: a job
/// that publishes every slice records one `snapshot` and one `publish`
/// per epoch it put in the store.
#[test]
fn every_published_epoch_times_one_snapshot_and_one_publish() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("timed-epochs", cornell_box());
    req.seed = 12;
    req.batch_size = 2_000;
    req.target_photons = 10_000;
    req.publish_every = 1;
    let job = pool.submit(req);
    job.wait_done(Duration::from_secs(60)).expect("converges");
    let epochs = store.get(job.scene_id()).unwrap().epoch;
    assert_eq!(epochs, 5, "one epoch per 2 000-photon slice");
    let stages = store.obs().stage_snapshot();
    for stage in [Stage::Snapshot, Stage::Publish] {
        assert_eq!(stages.get(stage).count(), epochs, "{}", stage.name());
    }
}

/// Regression (stale-epoch view-cache leak): every publish orphans the
/// scene's older-epoch cache keys; the dispatcher must purge them when it
/// observes the epoch advance, not leave them to LRU pressure. Before the
/// fix the cache held one dead image per past epoch.
#[test]
fn stale_epoch_cache_keys_are_purged() {
    let store = Arc::new(AnswerStore::new());
    let scene = cornell_box();
    let id = store.register("refining", scene.clone());
    let service = RenderService::start(Arc::clone(&store), ServeConfig::default());
    let req = RenderRequest {
        scene_id: id,
        camera: cornell_camera(),
    };
    // Render epoch 0, then five refining publishes, re-rendering the same
    // view after each.
    service.render_blocking(req).expect("epoch 0");
    let mut sim = Simulator::new(
        scene,
        SimConfig {
            seed: 12,
            ..Default::default()
        },
    );
    for _ in 0..5 {
        sim.run_photons(1_000);
        store.publish(id, sim.answer_snapshot());
        let view = service.render_blocking(req).expect("served");
        assert!(!view.from_cache(), "a fresher epoch must re-render");
    }
    // The reply is sent before the dispatcher records the batch-end cache
    // gauge, so the metrics lag the render by one scheduling quantum —
    // poll briefly instead of racing the dispatcher thread.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut m = service.metrics();
    while (m.cache_entries != 1 || m.cache_purged < 5) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
        m = service.metrics();
    }
    assert_eq!(
        m.cache_entries, 1,
        "only the freshest epoch's image may stay cached: {m:?}"
    );
    assert!(
        m.cache_purged >= 5,
        "each epoch advance must purge the orphaned keys: {m:?}"
    );
}

/// Regression (`AnswerStore::publish` last-writer-wins race): a snapshot
/// with fewer photons than the stored answer must be rejected without
/// bumping the epoch, so out-of-order publishes cannot regress a scene.
#[test]
fn stale_publish_cannot_overwrite_a_fresher_answer() {
    let store = AnswerStore::new();
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 13,
            ..Default::default()
        },
    );
    sim.run_photons(1_000);
    let early = sim.answer_snapshot();
    sim.run_photons(4_000);
    let late = sim.answer_snapshot();
    let id = store.register("raced", sim.scene().clone());
    assert_eq!(store.publish(id, late), 1);
    let epoch = store.publish(id, early); // the straggler lands second
    assert_eq!(epoch, 1, "stale publish must return the existing epoch");
    let entry = store.get(id).unwrap();
    assert_eq!(entry.epoch, 1);
    assert_eq!(entry.answer.emitted(), 5_000);
}

/// The migration primitive, end to end: pause a job on one pool, fetch its
/// checkpoint, *drop the pool entirely*, and resume the job on a freshly
/// constructed pool. The resumed job's final published answer must be
/// bit-identical to a never-interrupted job's — and the new pool's tenant
/// budget is charged only for the photons emitted there, never for the
/// resumed ones.
#[test]
fn paused_job_migrates_to_a_fresh_pool_via_its_checkpoint() {
    let seed = 4_040;
    let target = 30_000u64;
    let scene = cornell_box();

    // The never-interrupted reference, through the same pool machinery.
    let reference_store = Arc::new(AnswerStore::new());
    let reference = {
        let pool = SolverPool::start(Arc::clone(&reference_store), 1);
        let mut req = SolveRequest::new("uninterrupted", scene.clone());
        req.seed = seed;
        req.batch_size = 2_000;
        req.target_photons = target;
        let job = pool.submit(req);
        let done = job.wait_done(Duration::from_secs(120)).expect("reference");
        assert_eq!(done.emitted, target);
        reference_store.get(job.scene_id()).unwrap()
    };
    let reference_bytes = {
        let mut buf = Vec::new();
        reference.answer.write_to(&mut buf).unwrap();
        buf
    };

    // First pool: run part of the job, pause it, take the checkpoint.
    let store_a = Arc::new(AnswerStore::new());
    let pool_a = SolverPool::start(Arc::clone(&store_a), 1);
    let mut req = SolveRequest::new("interrupted", scene.clone());
    req.seed = seed;
    req.batch_size = 2_000;
    req.target_photons = target;
    let job_a = pool_a.submit(req);
    job_a
        .next_progress(Duration::from_secs(60))
        .expect("started");
    job_a.pause();
    while job_a.next_progress(Duration::from_millis(300)).is_some() {}
    let ck = job_a
        .checkpoint()
        .expect("a paused job always has a checkpoint");
    assert!(
        ck.emitted() > 0 && ck.emitted() < target,
        "{}",
        ck.emitted()
    );
    assert_eq!(ck.emitted() % 2_000, 0, "pause parks at a batch boundary");
    let m = pool_a.metrics();
    assert!(m.checkpoints_taken >= 1, "{m:?}");
    assert_eq!(m.checkpoint_bytes, ck.encoded_size() * m.checkpoints_taken);
    drop(job_a);
    drop(pool_a); // the first pool is gone; only the checkpoint survives

    // Second pool: resume from the checkpoint under a tenant whose budget
    // covers exactly the *remaining* photons — if resumed photons were
    // charged, the job would park on quota instead of converging.
    let store_b = Arc::new(AnswerStore::new());
    let pool_b = SolverPool::start(Arc::clone(&store_b), 1);
    let remaining = target - ck.emitted();
    pool_b.set_tenant_budget("migrant", remaining);
    let mut req = SolveRequest::resume("resumed", scene, Arc::clone(&ck));
    req.batch_size = 2_000;
    req.target_photons = target;
    req.tenant = "migrant".into();
    let job_b = pool_b.submit(req);
    let done = job_b.wait_done(Duration::from_secs(120)).expect("resumed");
    assert_eq!(done.emitted, target);
    assert!(!done.canceled);

    // Bit-identical to the uninterrupted solve, through the whole
    // pause → checkpoint → new-pool pipeline.
    let resumed = store_b.get(job_b.scene_id()).unwrap();
    let mut resumed_bytes = Vec::new();
    resumed.answer.write_to(&mut resumed_bytes).unwrap();
    assert_eq!(resumed_bytes, reference_bytes, "migrated job diverged");

    // Budget accounting: only the photons emitted on pool B were charged.
    let m = pool_b.metrics();
    let migrant = m
        .tenants
        .iter()
        .find(|t| t.tenant == "migrant")
        .expect("tenant tracked");
    assert_eq!(migrant.photons_used, remaining);
    assert_eq!(migrant.budget_remaining, Some(0));
    let job = &m.jobs[0];
    assert_eq!(job.resumed_photons, ck.emitted());
    assert_eq!(job.emitted, target);
    assert_eq!(job.state, "done");
}

/// Cancel and shutdown both leave a fetchable checkpoint behind: the
/// handle outlives the pool, so a drained job's state can still migrate.
#[test]
fn cancel_and_shutdown_leave_checkpoints_behind() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::new("canceled-migrant", cornell_box());
    req.seed = 31_337;
    req.batch_size = 1_000;
    req.target_photons = 1_000_000;
    let canceled = pool.submit(req);
    canceled
        .next_progress(Duration::from_secs(60))
        .expect("started");
    canceled.cancel();
    let done = canceled.wait_done(Duration::from_secs(60)).expect("final");
    assert!(done.canceled);

    // A second long job parks on pause and is cancel-finalized by the
    // shutdown drain.
    let mut req = SolveRequest::new("shutdown-migrant", cornell_box());
    req.seed = 31_338;
    req.batch_size = 1_000;
    req.target_photons = 1_000_000;
    let parked = pool.submit(req);
    parked
        .next_progress(Duration::from_secs(60))
        .expect("started");
    parked.pause();
    while parked.next_progress(Duration::from_millis(300)).is_some() {}
    pool.shutdown();

    let ck_canceled = canceled.checkpoint().expect("cancel checkpoints");
    let ck_parked = parked.checkpoint().expect("shutdown checkpoints");
    assert_eq!(ck_canceled.emitted(), done.emitted);
    assert!(ck_parked.emitted() > 0);
    // Both checkpoints are real resume points: their encoded form decodes.
    for ck in [ck_canceled, ck_parked] {
        let decoded = photon_core::EngineCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(decoded.emitted(), ck.emitted());
    }
}

/// A checkpoint at or past the target publishes immediately on resume —
/// the already-met-target regression, through the resume path.
#[test]
fn resume_with_a_met_target_publishes_without_stepping() {
    use photon_core::SolverEngine;
    let scene = cornell_box();
    let mut sim = Simulator::new(
        scene.clone(),
        SimConfig {
            seed: 51,
            ..Default::default()
        },
    );
    sim.run_photons(4_000);
    let ck = Arc::new(sim.checkpoint());

    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    let mut req = SolveRequest::resume("already-done", scene, ck);
    req.batch_size = 2_000;
    req.target_photons = 4_000; // met by the checkpoint
    let job = pool.submit(req);
    let done = job.wait_done(Duration::from_secs(60)).expect("immediate");
    assert!(done.done && !done.canceled);
    assert_eq!(done.emitted, 4_000, "a met target must not emit more");
    let entry = store.get(job.scene_id()).unwrap();
    assert_eq!(entry.answer.emitted(), 4_000);
    // The published answer is exactly the checkpoint's solution.
    let mut published = Vec::new();
    entry.answer.write_to(&mut published).unwrap();
    let mut direct = Vec::new();
    sim.answer_snapshot().write_to(&mut direct).unwrap();
    assert_eq!(published, direct);
}

/// Regression (met-target budget leak): the grant-time photon reservation
/// must flow back when the target is already met and nothing is emitted —
/// before the fix, every met-target publish silently shrank the tenant's
/// budget by one batch.
#[test]
fn met_target_publish_returns_the_budget_reservation() {
    use photon_core::SolverEngine;
    let scene = cornell_box();
    let mut sim = Simulator::new(
        scene.clone(),
        SimConfig {
            seed: 53,
            ..Default::default()
        },
    );
    sim.run_photons(2_000);
    let ck = Arc::new(sim.checkpoint());

    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 1);
    pool.set_tenant_budget("frugal", 5_000);
    let mut req = SolveRequest::resume("met", scene, ck);
    req.batch_size = 4_000;
    req.target_photons = 2_000; // met by the checkpoint: nothing to emit
    req.tenant = "frugal".into();
    let job = pool.submit(req);
    let done = job.wait_done(Duration::from_secs(60)).expect("immediate");
    assert_eq!(done.emitted, 2_000);
    let m = pool.metrics();
    let frugal = m
        .tenants
        .iter()
        .find(|t| t.tenant == "frugal")
        .expect("tenant tracked");
    assert_eq!(
        frugal.budget_remaining,
        Some(5_000),
        "a met-target publish emitted nothing and must charge nothing"
    );
    assert_eq!(frugal.photons_used, 0);
}

/// Submitting a checkpoint against the wrong scene or seed is refused up
/// front — a mismatched resume would silently corrupt the answer.
#[test]
#[should_panic(expected = "resume checkpoint must match")]
fn submit_rejects_a_checkpoint_for_another_stream() {
    use photon_core::SolverEngine;
    let mut sim = Simulator::new(
        cornell_box(),
        SimConfig {
            seed: 52,
            ..Default::default()
        },
    );
    sim.run_photons(1_000);
    let ck = Arc::new(sim.checkpoint());
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(store, 1);
    let mut req = SolveRequest::new("wrong-seed", cornell_box());
    req.seed = 99; // not the checkpoint's stream
    req.resume_from = Some(ck);
    let _ = pool.submit(req);
}

/// Sanity: fairness does not cost convergence — N interleaved jobs all
/// reach their exact targets and the total runtime is bounded.
#[test]
fn many_interleaved_jobs_all_converge() {
    let store = Arc::new(AnswerStore::new());
    let pool = SolverPool::start(Arc::clone(&store), 2);
    let t0 = Instant::now();
    let handles: Vec<_> = (0..5)
        .map(|i| {
            let mut r = SolveRequest::new(format!("job-{i}"), cornell_box());
            r.seed = 100 + i;
            r.batch_size = 1_000;
            r.target_photons = 4_000;
            r.priority = 1 + (i % 3) as u32;
            r.tenant = format!("tenant-{}", i % 2);
            pool.submit(r)
        })
        .collect();
    for h in &handles {
        let done = h.wait_done(Duration::from_secs(120)).expect("converged");
        assert_eq!(done.emitted, 4_000);
    }
    assert!(t0.elapsed() < Duration::from_secs(120));
    let m = pool.metrics();
    assert_eq!(m.done, 5);
    assert_eq!(m.queue_depth + m.running + m.paused + m.quota_blocked, 0);
}
