//! The test geometries of the dissertation's evaluation (ch. 5, Table 5.1).
//!
//! | scene | defining polygons | character |
//! |-------|-------------------|-----------|
//! | [`cornell_box`] | 30 | small room, floating mirror in the center |
//! | [`harpsichord_room`] | 100 | skylights + collimated sun, mirrored music shelf, harpsichord |
//! | [`computer_lab`] | 2000 | many small diffuse polygons (desks, monitors, chairs) |
//!
//! The original scene files are lost; these are procedural reconstructions
//! with the same defining-polygon counts, material mix and luminaire types
//! (see README.md, *Deviations*). Each scene ships a recommended
//! [`ViewSpec`] so the renders of Figs 4.7/4.8/5.1 are reproducible.
//!
//! [`sun_room`] is the small directional-lighting demo behind Fig 4.4
//! (penumbra width growing with occluder distance).

#![deny(missing_docs)]

pub mod builder;

use builder::{outward_box, rect_panel_xy, rect_panel_xz, rect_panel_yz, room_shell};
use photon_geom::{Luminaire, Material, Scene, SurfacePatch};
use photon_math::{Rgb, Vec3};

/// A recommended viewpoint for rendering a scene.
#[derive(Clone, Copy, Debug)]
pub struct ViewSpec {
    /// Eye position.
    pub eye: Vec3,
    /// Look-at target.
    pub target: Vec3,
    /// Up direction.
    pub up: Vec3,
    /// Vertical field of view, degrees.
    pub vfov_deg: f64,
}

impl ViewSpec {
    /// This view orbited about its target: the eye rotates in the ground
    /// plane to `phase01` (fraction of a full turn) at `radius_scale`
    /// times the original eye-target distance, keeping the eye's height.
    ///
    /// The shared camera-sweep generator for walkthrough-style clients
    /// (serving benchmarks, examples, acceptance tests): every view in the
    /// sweep still looks at the scene's landmark.
    pub fn orbited(&self, phase01: f64, radius_scale: f64) -> ViewSpec {
        let radius = (self.eye - self.target).length() * radius_scale;
        let phase = phase01 * std::f64::consts::TAU;
        ViewSpec {
            eye: self.target
                + Vec3::new(
                    radius * phase.cos(),
                    self.eye.y - self.target.y,
                    radius * phase.sin(),
                ),
            ..*self
        }
    }
}

/// The three evaluation scenes, for parameter sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TestScene {
    /// 30-polygon Cornell Box with a floating mirror.
    CornellBox,
    /// 100-polygon Harpsichord Practice Room.
    HarpsichordRoom,
    /// ~2000-polygon Computer Laboratory.
    ComputerLab,
}

impl TestScene {
    /// All three scenes in paper order.
    pub const ALL: [TestScene; 3] = [
        TestScene::CornellBox,
        TestScene::HarpsichordRoom,
        TestScene::ComputerLab,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            TestScene::CornellBox => "Cornell Box",
            TestScene::HarpsichordRoom => "Harpsichord Practice Room",
            TestScene::ComputerLab => "Computer Laboratory",
        }
    }

    /// Builds the scene.
    pub fn build(self) -> Scene {
        match self {
            TestScene::CornellBox => cornell_box(),
            TestScene::HarpsichordRoom => harpsichord_room(),
            TestScene::ComputerLab => computer_lab(),
        }
    }

    /// Recommended viewpoint.
    pub fn view(self) -> ViewSpec {
        match self {
            TestScene::CornellBox => ViewSpec {
                eye: Vec3::new(2.78, 2.73, -7.5),
                target: Vec3::new(2.78, 2.73, 2.8),
                up: Vec3::Y,
                vfov_deg: 40.0,
            },
            TestScene::HarpsichordRoom => ViewSpec {
                eye: Vec3::new(1.0, 1.7, -4.2),
                target: Vec3::new(3.0, 1.2, 2.0),
                up: Vec3::Y,
                vfov_deg: 55.0,
            },
            TestScene::ComputerLab => ViewSpec {
                eye: Vec3::new(1.0, 2.2, -1.0),
                target: Vec3::new(6.0, 1.0, 6.0),
                up: Vec3::Y,
                vfov_deg: 60.0,
            },
        }
    }
}

/// The Cornell Box with a floating mirror (Fig 4.8): exactly 30 defining
/// polygons.
///
/// Inventory: 6 room walls (left red, right green, rest white), 1 ceiling
/// light, tall block (5 faces), short block (5), floating mirror plate
/// (front + back), 4 mirror edge strips, 4 ceiling trim strips, 1 door
/// panel, 2 picture frames. 6+1+5+5+2+4+4+1+2 = 30.
pub fn cornell_box() -> Scene {
    let mut p: Vec<SurfacePatch> = Vec::new();
    let white = Material::matte(Rgb::new(0.73, 0.73, 0.73));
    let red = Material::matte(Rgb::new(0.63, 0.065, 0.05));
    let green = Material::matte(Rgb::new(0.14, 0.45, 0.09));

    // Room: 5.56m cube (the classic Cornell dimensions, meters x10^-1).
    let s = 5.56;
    room_shell(
        &mut p,
        Vec3::ZERO,
        Vec3::new(s, s, s),
        [
            white.clone_m(), // floor
            white.clone_m(), // ceiling
            white.clone_m(), // back (z max)
            white.clone_m(), // front (z min)
            red.clone_m(),   // left (x min)
            green.clone_m(), // right (x max)
        ],
    );

    // Ceiling light: 1.3 x 1.05 panel at the center, facing down.
    let light_id = p.len() as u32;
    p.push(rect_panel_xz(
        Vec3::new(2.13, s - 0.01, 2.27),
        1.30,
        1.05,
        false,
        Material::emitter(Rgb::new(1.0, 0.85, 0.6)),
    ));

    // Tall block (5 visible faces: top + 4 sides).
    outward_box(
        &mut p,
        Vec3::new(2.65, 0.0, 2.96),
        Vec3::new(4.23, 3.30, 4.56),
        &white,
        true, // skip bottom
    );
    // Short block.
    outward_box(
        &mut p,
        Vec3::new(0.85, 0.0, 0.65),
        Vec3::new(2.40, 1.65, 2.25),
        &white,
        true,
    );

    // Floating mirror plate in the center of the room: front + back.
    let mirror = Material::mirror(0.92);
    p.push(rect_panel_xy(
        Vec3::new(1.9, 2.2, 2.78),
        1.8,
        1.4,
        false, // front faces -z (toward the viewer)
        mirror,
    ));
    p.push(rect_panel_xy(
        Vec3::new(1.9, 2.2, 2.80),
        1.8,
        1.4,
        true,
        white.clone_m(),
    ));
    // Mirror edge strips (4 thin white quads around the plate).
    let strip = white.clone_m();
    p.push(rect_panel_xy(
        Vec3::new(1.9, 2.17, 2.79),
        1.8,
        0.03,
        false,
        strip.clone_m(),
    ));
    p.push(rect_panel_xy(
        Vec3::new(1.9, 3.60, 2.79),
        1.8,
        0.03,
        false,
        strip.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(1.87, 2.2, 2.79),
        1.4,
        0.03,
        false,
        strip.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(3.70, 2.2, 2.79),
        1.4,
        0.03,
        false,
        strip.clone_m(),
    ));

    // Ceiling trim strips (4).
    p.push(rect_panel_xz(
        Vec3::new(0.0, s - 0.02, 0.0),
        s,
        0.15,
        false,
        white.clone_m(),
    ));
    p.push(rect_panel_xz(
        Vec3::new(0.0, s - 0.02, s - 0.15),
        s,
        0.15,
        false,
        white.clone_m(),
    ));
    p.push(rect_panel_xz(
        Vec3::new(0.0, s - 0.02, 0.15),
        0.15,
        s - 0.3,
        false,
        white.clone_m(),
    ));
    p.push(rect_panel_xz(
        Vec3::new(s - 0.15, s - 0.02, 0.15),
        0.15,
        s - 0.3,
        false,
        white.clone_m(),
    ));

    // Door panel on the front wall, two picture frames on the side walls.
    p.push(rect_panel_xy(
        Vec3::new(4.2, 0.0, 0.02),
        1.0,
        2.2,
        true,
        white.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(0.02, 2.0, 1.0),
        1.2,
        1.6,
        true,
        Material::matte(Rgb::new(0.4, 0.35, 0.6)),
    ));
    p.push(rect_panel_yz(
        Vec3::new(s - 0.02, 2.0, 3.0),
        1.2,
        1.6,
        false,
        Material::matte(Rgb::new(0.6, 0.5, 0.3)),
    ));

    let lum = Luminaire {
        patch_id: light_id,
        power: Rgb::new(120.0, 100.0, 75.0),
        collimation: 1.0,
    };
    Scene::new(p, vec![lum])
}

/// The Harpsichord Practice Room (Fig 4.7): exactly 100 defining polygons.
///
/// A wooden room with two ceiling skylights driven by a collimated sun
/// (0.5° disc, the paper's model), a mirrored music shelf, a harpsichord
/// (body, lid, legs, keyboard), a bench, and wall paneling.
pub fn harpsichord_room() -> Scene {
    let mut p: Vec<SurfacePatch> = Vec::new();
    let wall = Material::matte(Rgb::new(0.65, 0.6, 0.5));
    let wood = Material::glossy(Rgb::new(0.42, 0.26, 0.15), 0.08, 40.0);
    let dark_wood = Material::glossy(Rgb::new(0.3, 0.18, 0.1), 0.1, 60.0);
    let floor_mat = Material::glossy(Rgb::new(0.5, 0.38, 0.25), 0.06, 25.0);

    // Room shell 7 x 3.2 x 6 m. (6 polys)
    let (w, h, d) = (7.0, 3.2, 6.0);
    room_shell(
        &mut p,
        Vec3::ZERO,
        Vec3::new(w, h, d),
        [
            floor_mat,      // floor
            wall.clone_m(), // ceiling
            wall.clone_m(), // back
            wall.clone_m(), // front
            wall.clone_m(), // left
            wall.clone_m(), // right
        ],
    );

    // Two skylights in the ceiling, emitting collimated sunlight. (2)
    let sun = Rgb::new(1.0, 0.95, 0.85);
    let sky1 = p.len() as u32;
    p.push(rect_panel_xz(
        Vec3::new(1.2, h - 0.01, 1.5),
        1.2,
        0.9,
        false,
        Material::emitter(sun),
    ));
    let sky2 = p.len() as u32;
    p.push(rect_panel_xz(
        Vec3::new(4.4, h - 0.01, 1.5),
        1.2,
        0.9,
        false,
        Material::emitter(sun),
    ));
    // Skylight frames: 4 strips each. (8)
    for &x0 in &[1.2, 4.4] {
        p.push(rect_panel_xz(
            Vec3::new(x0 - 0.08, h - 0.02, 1.42),
            1.36,
            0.08,
            false,
            wood.clone_m(),
        ));
        p.push(rect_panel_xz(
            Vec3::new(x0 - 0.08, h - 0.02, 2.40),
            1.36,
            0.08,
            false,
            wood.clone_m(),
        ));
        p.push(rect_panel_xz(
            Vec3::new(x0 - 0.08, h - 0.02, 1.50),
            0.08,
            0.90,
            false,
            wood.clone_m(),
        ));
        p.push(rect_panel_xz(
            Vec3::new(x0 + 1.20, h - 0.02, 1.50),
            0.08,
            0.90,
            false,
            wood.clone_m(),
        ));
    }

    // Harpsichord body: a box on 4 square legs. (5 + 16)
    outward_box(
        &mut p,
        Vec3::new(2.2, 0.7, 2.6),
        Vec3::new(4.6, 1.0, 3.7),
        &dark_wood,
        true,
    );
    for (lx, lz) in [(2.3, 2.7), (4.4, 2.7), (2.3, 3.5), (4.4, 3.5)] {
        // 4 faces per leg (no top/bottom).
        outward_box_sides(
            &mut p,
            Vec3::new(lx, 0.0, lz),
            Vec3::new(lx + 0.1, 0.7, lz + 0.1),
            &dark_wood,
        );
    }
    // Raised lid (1) propped open plus lid stick (1). (2)
    p.push(SurfacePatch::new(
        photon_math::Patch::new(
            Vec3::new(2.2, 1.0, 3.7),
            Vec3::new(4.6, 1.0, 3.7),
            Vec3::new(4.6, 2.2, 4.5),
            Vec3::new(2.2, 2.2, 4.5),
        ),
        dark_wood.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(3.4, 1.0, 3.7),
        0.9,
        0.05,
        false,
        wood.clone_m(),
    ));
    // Keyboard shelf + two key banks. (3)
    p.push(rect_panel_xz(
        Vec3::new(2.4, 0.95, 2.35),
        2.0,
        0.25,
        true,
        wood.clone_m(),
    ));
    p.push(rect_panel_xz(
        Vec3::new(2.45, 0.97, 2.38),
        0.9,
        0.18,
        true,
        Material::matte(Rgb::gray(0.9)),
    ));
    p.push(rect_panel_xz(
        Vec3::new(3.45, 0.97, 2.38),
        0.9,
        0.18,
        true,
        Material::matte(Rgb::gray(0.15)),
    ));

    // Mirrored music shelf on the back wall: mirror + shelf board + 2 sides
    // + top. (5)
    p.push(rect_panel_xy(
        Vec3::new(2.6, 1.4, d - 0.05),
        1.6,
        1.0,
        false, // faces -z, into the room
        Material::mirror(0.9),
    ));
    p.push(rect_panel_xz(
        Vec3::new(2.6, 1.35, d - 0.35),
        1.6,
        0.3,
        true,
        wood.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(2.6, 1.35, d - 0.35),
        1.1,
        0.3,
        true,
        wood.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(4.2, 1.35, d - 0.35),
        1.1,
        0.3,
        false,
        wood.clone_m(),
    ));
    p.push(rect_panel_xz(
        Vec3::new(2.6, 2.45, d - 0.35),
        1.6,
        0.3,
        false,
        wood.clone_m(),
    ));

    // Bench: top + 4 legs x 4 faces. (1 + 16)
    p.push(rect_panel_xz(
        Vec3::new(3.0, 0.45, 1.4),
        1.0,
        0.4,
        true,
        wood.clone_m(),
    ));
    for (lx, lz) in [(3.05, 1.45), (3.9, 1.45), (3.05, 1.72), (3.9, 1.72)] {
        outward_box_sides(
            &mut p,
            Vec3::new(lx, 0.0, lz),
            Vec3::new(lx + 0.06, 0.45, lz + 0.06),
            &wood,
        );
    }

    // Wall paneling: wainscot boards along the four walls. (12)
    for i in 0..4 {
        let x0 = 0.02 + i as f64 * 1.74;
        p.push(rect_panel_yz(
            Vec3::new(0.02, 0.1, 0.3 + i as f64 * 1.4),
            1.0,
            1.2,
            true,
            wood.clone_m(),
        ));
        p.push(rect_panel_yz(
            Vec3::new(w - 0.02, 0.1, 0.3 + i as f64 * 1.4),
            1.0,
            1.2,
            false,
            wood.clone_m(),
        ));
        p.push(rect_panel_xy(
            Vec3::new(x0, 0.1, 0.02),
            1.5,
            1.0,
            true,
            wood.clone_m(),
        ));
    }
    // Five ceiling beams. (5)
    for i in 0..5 {
        p.push(rect_panel_xz(
            Vec3::new(0.0, h - 0.05, 0.6 + i as f64 * 1.2),
            w,
            0.18,
            false,
            dark_wood.clone_m(),
        ));
    }
    // Back-wall wainscot. (4)
    for i in 0..4 {
        p.push(rect_panel_xy(
            Vec3::new(0.2 + i as f64 * 1.7, 0.1, d - 0.02),
            1.5,
            1.0,
            false,
            wood.clone_m(),
        ));
    }
    // Skirting boards along the four walls. (4)
    p.push(rect_panel_xy(
        Vec3::new(0.0, 0.0, 0.04),
        w,
        0.1,
        true,
        dark_wood.clone_m(),
    ));
    p.push(rect_panel_xy(
        Vec3::new(0.0, 0.0, d - 0.04),
        w,
        0.1,
        false,
        dark_wood.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(0.04, 0.0, 0.0),
        0.1,
        d,
        true,
        dark_wood.clone_m(),
    ));
    p.push(rect_panel_yz(
        Vec3::new(w - 0.04, 0.0, 0.0),
        0.1,
        d,
        false,
        dark_wood.clone_m(),
    ));
    // Two framed pictures and four window panes on the front wall. (6)
    p.push(rect_panel_yz(
        Vec3::new(0.03, 1.6, 2.0),
        0.9,
        1.2,
        true,
        Material::matte(Rgb::new(0.5, 0.4, 0.3)),
    ));
    p.push(rect_panel_yz(
        Vec3::new(w - 0.03, 1.6, 3.4),
        0.9,
        1.2,
        false,
        Material::matte(Rgb::new(0.3, 0.4, 0.5)),
    ));
    for i in 0..4 {
        p.push(rect_panel_xy(
            Vec3::new(1.8 + i as f64 * 0.55, 1.4, 0.03),
            0.5,
            0.9,
            true,
            Material::matte(Rgb::new(0.55, 0.6, 0.7)),
        ));
    }

    // Music stand on the shelf: 2 panels; rug on the floor: 1; door: 1;
    // window frame on front wall: 1; total to reach exactly 100 below.
    p.push(SurfacePatch::new(
        photon_math::Patch::new(
            Vec3::new(3.1, 1.45, d - 0.45),
            Vec3::new(3.7, 1.45, d - 0.45),
            Vec3::new(3.7, 1.95, d - 0.25),
            Vec3::new(3.1, 1.95, d - 0.25),
        ),
        Material::matte(Rgb::gray(0.85)),
    ));
    p.push(rect_panel_yz(
        Vec3::new(3.38, 1.0, d - 0.42),
        0.45,
        0.06,
        false,
        wood.clone_m(),
    ));
    p.push(rect_panel_xz(
        Vec3::new(2.0, 0.01, 1.0),
        3.0,
        2.0,
        false,
        Material::matte(Rgb::new(0.45, 0.12, 0.12)),
    ));
    p.push(rect_panel_xy(
        Vec3::new(0.6, 0.0, 0.02),
        0.9,
        2.1,
        true,
        dark_wood.clone_m(),
    ));
    p.push(rect_panel_xy(
        Vec3::new(5.5, 1.0, 0.02),
        1.1,
        1.3,
        true,
        wall.clone_m(),
    ));

    // The paper's sun: skylights collimated to a 0.5-degree disc.
    let lums = vec![
        Luminaire {
            patch_id: sky1,
            power: Rgb::new(400.0, 380.0, 340.0),
            collimation: 0.005,
        },
        Luminaire {
            patch_id: sky2,
            power: Rgb::new(400.0, 380.0, 340.0),
            collimation: 0.005,
        },
        // Plus a dim diffuse-sky component through the same openings.
        Luminaire {
            patch_id: sky1,
            power: Rgb::new(40.0, 45.0, 60.0),
            collimation: 1.0,
        },
        Luminaire {
            patch_id: sky2,
            power: Rgb::new(40.0, 45.0, 60.0),
            collimation: 1.0,
        },
    ];
    Scene::new(p, lums)
}

/// The Computer Laboratory (Fig 5.1): ~2000 defining polygons.
///
/// A 10x10 grid of workstations (desk top, 4 aprons, monitor box of 5
/// faces, screen, keyboard, chair seat/back + 4 legs of 1 face pair each),
/// fluorescent ceiling panels, room shell.
pub fn computer_lab() -> Scene {
    let mut p: Vec<SurfacePatch> = Vec::new();
    let wall = Material::matte(Rgb::gray(0.7));
    let floor_mat = Material::matte(Rgb::new(0.35, 0.37, 0.4));
    let desk_mat = Material::glossy(Rgb::new(0.45, 0.35, 0.25), 0.05, 20.0);
    let plastic = Material::matte(Rgb::gray(0.55));
    let screen = Material::glossy(Rgb::new(0.05, 0.08, 0.1), 0.25, 120.0);

    // Room shell 24 x 3 x 24. (6)
    let (w, h, d) = (24.0, 3.0, 24.0);
    room_shell(
        &mut p,
        Vec3::ZERO,
        Vec3::new(w, h, d),
        [
            floor_mat,
            wall.clone_m(),
            wall.clone_m(),
            wall.clone_m(),
            wall.clone_m(),
            wall.clone_m(),
        ],
    );

    // 5 x 5 grid of ceiling light panels. (25)
    let mut lums = Vec::new();
    for i in 0..5 {
        for j in 0..5 {
            let id = p.len() as u32;
            p.push(rect_panel_xz(
                Vec3::new(2.0 + i as f64 * 4.6, h - 0.01, 2.0 + j as f64 * 4.6),
                1.2,
                2.4,
                false,
                Material::emitter(Rgb::new(0.9, 0.95, 1.0)),
            ));
            lums.push(Luminaire {
                patch_id: id,
                power: Rgb::new(40.0, 42.0, 45.0),
                collimation: 1.0,
            });
        }
    }

    // 10 x 10 workstations, ~19-20 polys each.
    for i in 0..10 {
        for j in 0..10 {
            let x = 1.2 + i as f64 * 2.25;
            let z = 1.8 + j as f64 * 2.1;
            // Desk top (1) + 4 aprons (4).
            p.push(rect_panel_xz(
                Vec3::new(x, 0.75, z),
                1.4,
                0.8,
                true,
                desk_mat.clone_m(),
            ));
            outward_box_sides(
                &mut p,
                Vec3::new(x, 0.0, z),
                Vec3::new(x + 1.4, 0.73, z + 0.8),
                &desk_mat,
            );
            // Monitor: 5-face box + screen panel. (6)
            outward_box(
                &mut p,
                Vec3::new(x + 0.4, 0.77, z + 0.35),
                Vec3::new(x + 1.0, 1.25, z + 0.75),
                &plastic,
                true,
            );
            p.push(rect_panel_xy(
                Vec3::new(x + 0.45, 0.82, z + 0.345),
                0.5,
                0.38,
                false,
                screen.clone_m(),
            ));
            // Keyboard (1) and mouse pad (1).
            p.push(rect_panel_xz(
                Vec3::new(x + 0.45, 0.76, z + 0.05),
                0.5,
                0.2,
                true,
                plastic.clone_m(),
            ));
            p.push(rect_panel_xz(
                Vec3::new(x + 1.05, 0.755, z + 0.08),
                0.22,
                0.18,
                true,
                Material::matte(Rgb::new(0.2, 0.25, 0.5)),
            ));
            // Chair: seat + back + 4 single-quad legs. (6)
            p.push(rect_panel_xz(
                Vec3::new(x + 0.45, 0.45, z - 0.6),
                0.5,
                0.5,
                true,
                plastic.clone_m(),
            ));
            p.push(rect_panel_xy(
                Vec3::new(x + 0.45, 0.45, z - 0.62),
                0.5,
                0.5,
                true,
                plastic.clone_m(),
            ));
            for (lx, lz) in [
                (x + 0.47, z - 0.58),
                (x + 0.91, z - 0.58),
                (x + 0.47, z - 0.14),
                (x + 0.91, z - 0.14),
            ] {
                p.push(rect_panel_xy(
                    Vec3::new(lx, 0.0, lz),
                    0.04,
                    0.44,
                    true,
                    plastic.clone_m(),
                ));
            }
        }
    }

    Scene::new(p, lums)
}

/// Small directional-lighting demo (Fig 4.4): a floor, a square occluder at
/// `occluder_height`, and a sun panel overhead collimated to `collimation`.
///
/// Used by the penumbra experiment: the shadow edge blurs as the occluder
/// rises, and sharpens as collimation tightens.
pub fn sun_room(occluder_height: f64, collimation: f64) -> Scene {
    let mut p = Vec::new();
    let white = Material::matte(Rgb::gray(0.8));
    // Floor 10 x 10.
    p.push(rect_panel_xz(
        Vec3::new(-5.0, 0.0, -5.0),
        10.0,
        10.0,
        true,
        white.clone_m(),
    ));
    // Occluder: 1 x 1 plate centered at origin.
    p.push(rect_panel_xz(
        Vec3::new(-0.5, occluder_height, -0.5),
        1.0,
        1.0,
        true,
        Material::matte(Rgb::gray(0.3)),
    ));
    p.push(rect_panel_xz(
        Vec3::new(-0.5, occluder_height + 0.001, -0.5),
        1.0,
        1.0,
        false,
        Material::matte(Rgb::gray(0.3)),
    ));
    // Sun panel high above, facing down.
    let sun_id = p.len() as u32;
    p.push(rect_panel_xz(
        Vec3::new(-5.0, 8.0, -5.0),
        10.0,
        10.0,
        false,
        Material::emitter(Rgb::WHITE),
    ));
    Scene::new(
        p,
        vec![Luminaire {
            patch_id: sun_id,
            power: Rgb::gray(100.0),
            collimation,
        }],
    )
}

/// Helper: 4 side faces of an axis-aligned box (no top/bottom) — table and
/// bench legs.
fn outward_box_sides(p: &mut Vec<SurfacePatch>, min: Vec3, max: Vec3, mat: &Material) {
    builder::outward_box_faces(p, min, max, mat, [false, false, true, true, true, true]);
}

/// Extension trait making material cloning read naturally in builders.
trait CloneM {
    fn clone_m(&self) -> Material;
}
impl CloneM for Material {
    fn clone_m(&self) -> Material {
        *self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cornell_box_has_exactly_30_defining_polygons() {
        let s = cornell_box();
        assert_eq!(s.polygon_count(), 30, "Table 5.1 row 1");
        assert_eq!(s.luminaires().len(), 1);
    }

    #[test]
    fn harpsichord_room_has_exactly_100_defining_polygons() {
        let s = harpsichord_room();
        assert_eq!(s.polygon_count(), 100, "Table 5.1 row 2");
        // Sun skylights are collimated to the paper's 0.5-degree disc.
        assert!(s.luminaires().iter().any(|l| l.collimation == 0.005));
    }

    #[test]
    fn computer_lab_has_about_2000_defining_polygons() {
        let s = computer_lab();
        let n = s.polygon_count();
        assert!((1900..=2100).contains(&n), "Table 5.1 row 3: {n}");
        assert_eq!(s.luminaires().len(), 25);
    }

    #[test]
    fn cornell_box_contains_a_mirror() {
        let s = cornell_box();
        let mirrors = s
            .patches()
            .iter()
            .filter(|p| p.material.kind() == photon_geom::SurfaceKind::Mirror)
            .count();
        assert_eq!(mirrors, 1);
    }

    #[test]
    fn all_scene_materials_are_physical() {
        for t in TestScene::ALL {
            let s = t.build();
            for (i, sp) in s.patches().iter().enumerate() {
                assert!(sp.material.is_physical(), "{}: patch {i}", t.name());
                assert!(sp.area > 0.0, "{}: degenerate patch {i}", t.name());
            }
        }
    }

    #[test]
    fn room_shell_normals_point_inward() {
        // Centers of the walls of each scene's shell should have normals
        // pointing toward the room interior (toward the scene center).
        for t in TestScene::ALL {
            let s = t.build();
            let c = s.bounds().center();
            for (i, sp) in s.patches().iter().take(6).enumerate() {
                let to_center = (c - sp.patch.center()).normalized();
                assert!(
                    sp.frame.w.dot(to_center) > 0.0,
                    "{}: wall {i} faces outward",
                    t.name()
                );
            }
        }
    }

    #[test]
    fn sun_room_builds_and_collimates() {
        let s = sun_room(1.0, 0.005);
        assert_eq!(s.luminaires()[0].collimation, 0.005);
        assert_eq!(s.polygon_count(), 4);
    }

    #[test]
    fn orbited_views_keep_target_distance_and_height() {
        let v = TestScene::CornellBox.view();
        let r = (v.eye - v.target).length();
        for i in 0..8 {
            let o = v.orbited(i as f64 / 8.0, 1.0);
            assert!(
                ((o.eye - o.target).length() - r).abs() < 1e-9,
                "orbit {i} changed radius"
            );
            assert!((o.eye.y - v.eye.y).abs() < 1e-9, "orbit {i} changed height");
            assert_eq!(o.target, v.target);
        }
        let far = v.orbited(0.25, 2.0);
        assert!(((far.eye - far.target).length() - 2.0 * r).abs() < 1e-9);
    }

    #[test]
    fn views_look_into_the_scenes() {
        for t in TestScene::ALL {
            let v = t.view();
            let s = t.build();
            // The target must be inside the scene bounds.
            assert!(s.bounds().contains(v.target), "{}", t.name());
        }
    }
}
