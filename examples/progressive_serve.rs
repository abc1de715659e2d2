//! The full solve→store→render pipeline, live: submit a scene with no
//! precomputed answer, watch epochs refine, and render the same view from
//! each epoch as the service picks up fresher solutions.
//!
//! ```sh
//! cargo run --release --example progressive_serve
//! ```

use photon_gi::core::view::render;
use photon_gi::core::{Camera, Image, ObsKind};
use photon_gi::scenes::TestScene;
use photon_gi::serve::{
    AnswerStore, BackendChoice, RenderRequest, RenderResponse, RenderService, ServeConfig,
    SolveRequest, SolverPool,
};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let store = Arc::new(AnswerStore::new());
    let solver = SolverPool::start(Arc::clone(&store), 1);
    let service = RenderService::start(Arc::clone(&store), ServeConfig::default());

    // Scene in: the Cornell Box, threaded backend, 80k-photon target.
    let kind = TestScene::CornellBox;
    let mut request = SolveRequest::new(kind.name(), kind.build());
    request.backend = BackendChoice::Threaded {
        threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
    };
    request.seed = 7;
    request.batch_size = 10_000;
    request.target_photons = 80_000;
    let job = solver.submit(request);
    println!(
        "submitted {} as {} — no answer stored yet",
        kind.name(),
        job.scene_id()
    );

    // From inside the box, where the view sees several walls and boxes.
    let v = kind.view().orbited(0.3, 0.25);
    let camera = Camera {
        eye: v.eye,
        target: v.target,
        up: v.up,
        vfov_deg: v.vfov_deg,
        width: 160,
        height: 120,
    };
    let req = RenderRequest {
        scene_id: job.scene_id(),
        camera,
    };

    // Render the same view once per published epoch: quality converges
    // while the service stays online. After the first, each render re-shades
    // from the view's item buffer and reads every pixel whose bin-tree leaf
    // is still a leaf by its slot, however much the rest of the patch's tree
    // split; `slots-reused` says how many. Each served frame whose epoch is
    // still the stored one must be an un-memoised render of that answer,
    // bit for bit.
    let reused = || {
        let events = store
            .obs()
            .recorder()
            .filtered(|e| e.kind == ObsKind::SlotsReused);
        events.last().map_or(0, |e| e.ctx.payload)
    };
    let mut checked = 0;
    let mut check = |view: &RenderResponse| {
        let entry = store.get(job.scene_id()).expect("stored");
        if entry.epoch != view.epoch {
            return;
        }
        let plain = render(&entry.scene, &entry.answer, &camera, entry.exposure);
        let bits = |img: &Image| -> Vec<u64> {
            let channels = img.pixels().iter().flat_map(|p| [p.r, p.g, p.b]);
            channels.map(f64::to_bits).collect()
        };
        if bits(&view.image) != bits(&plain) {
            eprintln!(
                "epoch {}: served pixels differ from a fresh render",
                view.epoch
            );
            std::process::exit(1);
        }
        checked += 1;
    };
    let pixels = (camera.width * camera.height) as f64;
    let mut last = None;
    while let Some(progress) = job.next_progress(Duration::from_secs(120)) {
        let view = service.render_blocking(req).expect("served");
        check(&view);
        let drift = last
            .map(|prev: Arc<Image>| view.image.rms_error(&prev))
            .unwrap_or(f64::NAN);
        println!(
            "epoch {:>2}: {:>6} photons, {:>4} leaf bins | served epoch {:>2} ({:?}), \
             mean luminance {:.4}, rms vs previous {:.5}, slots reused {:>5.1} %",
            progress.epoch,
            progress.emitted,
            progress.leaf_bins,
            view.epoch,
            view.outcome,
            view.image.mean_luminance(),
            drift,
            100.0 * reused() as f64 / pixels,
        );
        last = Some(view.image);
        if progress.done {
            break;
        }
    }

    let final_view = service.render_blocking(req).expect("served");
    check(&final_view);
    println!("{checked} served frames bit-equal to a fresh render of their stored answer");
    let out = std::env::temp_dir().join("progressive_serve.ppm");
    let mut f = std::fs::File::create(&out).expect("create output");
    final_view.image.write_ppm(&mut f).expect("write ppm");
    let m = service.metrics();
    println!(
        "final epoch {} -> {} | {} requests ({} rendered, {} cache hits), p50 {:.2} ms",
        final_view.epoch,
        out.display(),
        m.completed,
        m.rendered,
        m.cache_hits,
        m.latency.p50_ms,
    );
}
