//! Tile-parallel rendering: the serial viewer's tile loop fanned out over
//! the worker pool.
//!
//! `photon_core::view::render` and this module share one code path —
//! [`photon_core::view::render_tile_memo`] — so an N-worker render is
//! bit-identical to the serial image: same rays, same shading, same f64
//! arithmetic, only the tile *schedule* differs, and tiles write disjoint
//! pixels. The same holds with the view's [`ItemBuffer`] in hand: it
//! changes how a pixel's first hit and leaf are found, never the hit or
//! the leaf.

use photon_core::view::{blit_tile, render_tile_memo, tiles};
use photon_core::{Answer, Camera, Image, ItemBuffer, ItemFrame};
use photon_geom::Scene;
use photon_par::parallel_map;
use std::sync::Arc;

/// Renders `camera`'s view of a stored answer across `threads` workers,
/// decomposed into `tile_size`-sided tiles.
///
/// With `threads == 1` this is exactly the serial viewer.
pub fn render_parallel(
    scene: &Scene,
    answer: &Answer,
    camera: &Camera,
    exposure: f64,
    threads: usize,
    tile_size: usize,
) -> Image {
    render_tiles(scene, answer, camera, None, exposure, threads, tile_size)
}

/// [`render_parallel`] through the item buffer the caller keeps for this
/// `(scene, camera)`, in one frame ([`ItemBuffer::frame`]): pixels on a
/// patch whose tree kept the buffer's last answer's shape are read by leaf
/// slot, other known pixels skip the octree, the rest are traced and
/// recorded; the image is the same bit for bit. Also returns how many
/// pixels were read by slot.
pub(crate) fn render_parallel_memo(
    scene: &Scene,
    answer: &Arc<Answer>,
    camera: &Camera,
    items: &ItemBuffer,
    exposure: f64,
    threads: usize,
    tile_size: usize,
) -> (Image, usize) {
    let frame = items.frame(scene, answer);
    let image = render_tiles(
        scene,
        answer,
        camera,
        Some(&frame),
        exposure,
        threads,
        tile_size,
    );
    (image, frame.finish())
}

/// The one tile fan-out under both renders.
fn render_tiles(
    scene: &Scene,
    answer: &Answer,
    camera: &Camera,
    frame: Option<&ItemFrame>,
    exposure: f64,
    threads: usize,
    tile_size: usize,
) -> Image {
    let tile_list = tiles(camera.width, camera.height, tile_size);
    let buffers = parallel_map(threads, tile_list.len(), |i| {
        render_tile_memo(scene, answer, camera, frame, tile_list[i], exposure)
    });
    let mut img = Image::new(camera.width, camera.height);
    for (tile, buf) in tile_list.iter().zip(&buffers) {
        blit_tile(&mut img, *tile, buf);
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_core::view::render;
    use photon_core::{SimConfig, Simulator};
    use photon_math::Vec3;
    use photon_scenes::TestScene;

    /// The acceptance bar: tile-parallel rendering with N workers produces
    /// byte-identical images to the serial `view` path.
    #[test]
    fn parallel_render_is_bit_identical_to_serial() {
        let kind = TestScene::CornellBox;
        let mut sim = Simulator::new(
            kind.build(),
            SimConfig {
                seed: 21,
                ..Default::default()
            },
        );
        sim.run_photons(4_000);
        let answer = sim.answer_snapshot();
        let scene = sim.scene();
        let v = kind.view();
        let camera = Camera {
            eye: v.eye,
            target: v.target,
            up: v.up,
            vfov_deg: v.vfov_deg,
            width: 97, // deliberately not a tile multiple
            height: 53,
        };
        let serial = render(scene, &answer, &camera, 0.02);
        for threads in [1, 2, 4, 8] {
            for tile_size in [7, 16, 32, 1024] {
                let par = render_parallel(scene, &answer, &camera, 0.02, threads, tile_size);
                assert_eq!(
                    par.pixels(),
                    serial.pixels(),
                    "threads={threads} tile_size={tile_size} diverged from serial"
                );
            }
        }
    }

    #[test]
    fn parallel_render_sees_geometry() {
        let mut sim = Simulator::new(
            TestScene::CornellBox.build(),
            SimConfig {
                seed: 2,
                ..Default::default()
            },
        );
        sim.run_photons(4_000);
        let answer = sim.answer_snapshot();
        let scene = sim.scene();
        let camera = Camera {
            eye: Vec3::new(2.78, 2.73, -7.5),
            target: Vec3::new(2.78, 2.73, 2.8),
            up: Vec3::Y,
            vfov_deg: 40.0,
            width: 48,
            height: 36,
        };
        let img = render_parallel(scene, &answer, &camera, 0.05, 4, 16);
        assert!(img.mean_luminance() > 0.0, "parallel render is black");
    }
}
