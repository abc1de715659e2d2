//! The transport kernel: one photon loop, three sinks (Fig 4.1 / 5.2 / 5.3).
//!
//! [`trace_span`] is the only loop in the workspace that draws photons from
//! the stream: it walks a [`Span`] of global photon indices, gives photon
//! `j` the generator [`photon_stream`]`(seed, j)`, and lets [`trace_photon`]
//! follow it to termination. Every interaction (the initial emission, then
//! each reflection) is reported to a [`TallySink`] as `(patch id, 4-D bin
//! point, outgoing energy)`. The three backends run this same loop and
//! differ *only* in span and sink:
//!
//! * serial — stride 1, tallying straight into a [`crate::BinForest`];
//! * shared memory — each job takes one contiguous chunk of the batch at
//!   stride 1 and appends [`crate::batch::TallyRecord`]s to its own buffer,
//!   lock-free; the chunks' buffers, in order, are the serial tally stream,
//!   and reach the trees later, partitioned by patch ([`crate::batch`]);
//! * distributed — rank `r` of `R` takes offset `r`, stride `R`, tallying
//!   locally when it owns the patch and otherwise queueing the record for
//!   the all-to-all exchange (Fig 5.3).

use crate::engine::{photon_stream, PHOTON_DRAW_STRIDE};
use crate::forest::BinForest;
use crate::generate::{EmittedPhoton, PhotonGenerator};
use crate::reflect::{reflect, Bounce};
use crate::sim::SimStats;
use photon_geom::Scene;
use photon_hist::BinPoint;
use photon_math::{CylDir, Onb, Ray, Rgb};
use photon_rng::{Lcg48, PhotonRng};

/// Receives photon interaction tallies.
pub trait TallySink {
    /// Records one interaction of energy `energy` at `point` on `patch_id`.
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb);
}

impl TallySink for BinForest {
    #[inline]
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) {
        BinForest::tally(self, patch_id, point, energy);
    }
}

/// Any closure of the right shape is a sink (used by tests and [`path_rays`]).
impl<F: FnMut(u32, &BinPoint, Rgb)> TallySink for F {
    #[inline]
    fn tally(&mut self, patch_id: u32, point: &BinPoint, energy: Rgb) {
        self(patch_id, point, energy)
    }
}

/// How a photon's transport ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Termination {
    /// Probabilistically absorbed at a surface.
    Absorbed,
    /// Left the scene without hitting anything.
    Escaped,
    /// Stopped by the safety bounce cap.
    BounceCapped,
}

/// Statistics of one photon's transport.
#[derive(Clone, Copy, Debug)]
pub struct TraceOutcome {
    /// Number of surface interactions (reflections; emission not counted).
    pub bounces: u32,
    /// Why transport ended.
    pub termination: Termination,
}

/// Safety cap on bounces; Russian roulette terminates photons long before
/// this in any physical scene.
pub const MAX_BOUNCES: u32 = 256;

/// Energy floor below which a photon is treated as absorbed.
const MIN_ENERGY: f64 = 1e-12;

/// Which photons of the stream one call to [`trace_span`] traces: of the
/// window `[start, start + count)`, the indices `start + offset`,
/// `start + offset + stride`, … — one worker's leapfrogged share when
/// `stride` workers split the window; all of it at offset 0, stride 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// First photon index of the window.
    pub start: u64,
    /// Photons in the window, over all workers.
    pub count: u64,
    /// This worker's position among the `stride` workers.
    pub offset: u64,
    /// Number of workers sharing the window (≥ 1).
    pub stride: u64,
}

/// Traces the photons of `span`, in ascending index order, into `sink`, and
/// returns their counters.
///
/// Photon `j` draws from block substream `j` ([`photon_stream`]) whatever
/// the span, so the union over the `stride` workers of a window is exactly
/// the serial photon set — the only shared state touched is the immutable
/// scene.
pub fn trace_span<S: TallySink>(
    scene: &Scene,
    generator: &PhotonGenerator,
    seed: u64,
    span: Span,
    sink: &mut S,
) -> SimStats {
    let mut stats = SimStats::default();
    for mut rng in span_streams(seed, span) {
        stats.record(&trace_photon(scene, generator, &mut rng, sink));
    }
    stats
}

/// The generator [`photon_stream`]`(seed, j)` of each photon index `j` of
/// `span`, in ascending order. Only the first is derived that way; each
/// later one leaps from its predecessor's starting state by one jump of
/// `stride` blocks, made once per span — exact mod 2^48, so every draw is
/// the same.
fn span_streams(seed: u64, span: Span) -> impl Iterator<Item = Lcg48> {
    let first = span.start + span.offset;
    let jump = Lcg48::new(seed).jump(span.stride.wrapping_mul(PHOTON_DRAW_STRIDE));
    let mut next = photon_stream(seed, first);
    (first..span.start + span.count)
        .step_by(span.stride as usize)
        .map(move |_| {
            let rng = next.clone();
            next.leap(jump);
            rng
        })
}

/// Emits and traces one photon, reporting every interaction to `sink`.
pub fn trace_photon<R: PhotonRng, S: TallySink + ?Sized>(
    scene: &Scene,
    generator: &PhotonGenerator,
    rng: &mut R,
    sink: &mut S,
) -> TraceOutcome {
    let photon = generator.emit(scene, rng);
    trace_emitted(scene, photon, rng, sink)
}

/// Traces an already-emitted photon (used by tests that script emissions).
pub fn trace_emitted<R: PhotonRng, S: TallySink + ?Sized>(
    scene: &Scene,
    photon: EmittedPhoton,
    rng: &mut R,
    sink: &mut S,
) -> TraceOutcome {
    trace_emitted_observed(scene, photon, rng, sink, |_| {})
}

/// The rays photons `0..n` of the stream seeded by `seed` send to
/// [`Scene::intersect`]: every photon's first segment, and all later ones.
///
/// Emission rays leave a luminaire, bounce rays leave wherever light
/// lands, and the octree costs differ, so benches and tests that need the
/// traffic a solve really generates probe with these rather than with
/// uniform random rays. They are recorded by the transport loop itself.
pub fn path_rays(
    scene: &Scene,
    generator: &PhotonGenerator,
    seed: u64,
    n: u64,
) -> (Vec<Ray>, Vec<Ray>) {
    let (mut first, mut later) = (Vec::with_capacity(n as usize), Vec::new());
    for j in 0..n {
        let mut rng = photon_stream(seed, j);
        let photon = generator.emit(scene, &mut rng);
        let mut segment = 0;
        trace_emitted_observed(
            scene,
            photon,
            &mut rng,
            &mut |_: u32, _: &BinPoint, _: Rgb| {},
            |ray| {
                if segment == 0 {
                    first.push(*ray);
                } else {
                    later.push(*ray);
                }
                segment += 1;
            },
        );
    }
    (first, later)
}

/// [`trace_emitted`], showing `on_ray` each ray just before it is cast.
/// The transport kernel passes a no-op, which compiles to nothing.
#[inline]
fn trace_emitted_observed<R: PhotonRng, S: TallySink + ?Sized>(
    scene: &Scene,
    photon: EmittedPhoton,
    rng: &mut R,
    sink: &mut S,
    mut on_ray: impl FnMut(&Ray),
) -> TraceOutcome {
    // Emission tally: the luminaire's own bin records the emitted photon
    // (GeneratePhoton + UpdateBinCount in Fig 4.1) so lights are visible.
    let emit_cyl = CylDir::from_local(photon.local_dir);
    sink.tally(
        photon.patch_id,
        &BinPoint::new(photon.s, photon.t, emit_cyl.theta, emit_cyl.r_sq),
        photon.energy,
    );

    let mut ray = Ray::new(photon.origin, photon.dir).nudged(photon_geom::scene::RAY_EPS);
    let mut energy = photon.energy;
    let mut bounces = 0u32;
    loop {
        on_ray(&ray);
        let Some(hit) = scene.intersect(&ray, f64::INFINITY) else {
            return TraceOutcome {
                bounces,
                termination: Termination::Escaped,
            };
        };
        let sp = scene.patch(hit.patch_id);
        // Frame of the side that was hit: flip the normal for back faces so
        // reflection and binning happen in the correct hemisphere.
        let frame = if hit.front {
            sp.frame
        } else {
            Onb {
                u: sp.frame.u,
                v: -sp.frame.v,
                w: -sp.frame.w,
            }
        };
        match reflect(&sp.material, &frame, ray.dir, energy, rng) {
            Bounce::Absorbed => {
                return TraceOutcome {
                    bounces,
                    termination: Termination::Absorbed,
                };
            }
            Bounce::Reflected {
                dir,
                local_dir,
                energy: out_energy,
                ..
            } => {
                bounces += 1;
                let cyl = CylDir::from_local(local_dir);
                sink.tally(
                    hit.patch_id,
                    &BinPoint::new(hit.s, hit.v, cyl.theta, cyl.r_sq),
                    out_energy,
                );
                if out_energy.max_channel() < MIN_ENERGY {
                    return TraceOutcome {
                        bounces,
                        termination: Termination::Absorbed,
                    };
                }
                if bounces >= MAX_BOUNCES {
                    return TraceOutcome {
                        bounces,
                        termination: Termination::BounceCapped,
                    };
                }
                energy = out_energy;
                ray = Ray::new(hit.point, dir).nudged(photon_geom::scene::RAY_EPS);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::PhotonGenerator;
    use photon_geom::{Luminaire, Material, SurfacePatch};
    use photon_math::{Patch, Vec3};

    /// A closed box: light panel at the top, diffuse gray walls.
    ///
    /// `reflective_light` gives the panel the same diffuse reflectance as
    /// the walls (on top of its emission), making the box's albedo exactly
    /// uniform for the geometric-series test.
    #[allow(clippy::vec_init_then_push)] // one push per wall reads clearest
    fn closed_box_opt(wall_albedo: f64, reflective_light: bool) -> Scene {
        let g = Rgb::gray(wall_albedo);
        let mut patches = Vec::new();
        // floor (y=0, normal +y)
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(Vec3::ZERO, Vec3::X * 2.0, Vec3::new(0.0, 0.0, 2.0)),
            Material::matte(g),
        ));
        // ceiling (y=2, normal -y): wind so the front faces down.
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::X * 2.0,
            ),
            Material::matte(g),
        ));
        // four walls
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(Vec3::ZERO, Vec3::new(0.0, 2.0, 0.0), Vec3::X * 2.0),
            Material::matte(g),
        )); // z=0
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::X * 2.0,
                Vec3::new(0.0, 2.0, 0.0),
            ),
            Material::matte(g),
        )); // z=2
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::ZERO,
                Vec3::new(0.0, 0.0, 2.0),
                Vec3::new(0.0, 2.0, 0.0),
            ),
            Material::matte(g),
        )); // x=0
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(2.0, 0.0, 0.0),
                Vec3::new(0.0, 2.0, 0.0),
                Vec3::new(0.0, 0.0, 2.0),
            ),
            Material::matte(g),
        )); // x=2
            // light panel just under the ceiling, facing down (x-edge first so
            // the Newell normal points -y, into the room).
        let mut light_mat = Material::emitter(Rgb::WHITE);
        if reflective_light {
            light_mat.diffuse = g;
        }
        patches.push(SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(0.75, 1.99, 0.75),
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(0.0, 0.0, 0.5),
            ),
            light_mat,
        ));
        let lum = Luminaire {
            patch_id: 6,
            power: Rgb::new(100.0, 100.0, 100.0),
            collimation: 1.0,
        };
        Scene::new(patches, vec![lum])
    }

    fn closed_box(wall_albedo: f64) -> Scene {
        closed_box_opt(wall_albedo, false)
    }

    #[test]
    fn closed_box_photons_terminate_by_absorption() {
        let scene = closed_box(0.5);
        let generator = PhotonGenerator::new(&scene);
        let mut rng = Lcg48::new(1);
        let mut forest = BinForest::new(scene.polygon_count(), Default::default());
        let n = 2000;
        let mut absorbed = 0;
        let mut escaped = 0;
        for _ in 0..n {
            match trace_photon(&scene, &generator, &mut rng, &mut forest).termination {
                Termination::Absorbed => absorbed += 1,
                Termination::Escaped => escaped += 1,
                Termination::BounceCapped => {}
            }
        }
        assert_eq!(absorbed + escaped, n);
        // A closed box leaks nothing (within geometric epsilon).
        assert!(escaped <= n / 100, "escaped {escaped}/{n}");
    }

    #[test]
    fn tally_count_is_emissions_plus_reflections() {
        let scene = closed_box(0.5);
        let generator = PhotonGenerator::new(&scene);
        let mut rng = Lcg48::new(2);
        let mut forest = BinForest::new(scene.polygon_count(), Default::default());
        let n = 1000u64;
        let mut reflections = 0u64;
        for _ in 0..n {
            reflections += trace_photon(&scene, &generator, &mut rng, &mut forest).bounces as u64;
        }
        assert_eq!(forest.total_tallies(), n + reflections);
    }

    #[test]
    fn a_span_leaps_to_each_photons_own_stream() {
        let seed = 77;
        for start in [0, 13, (1 << 35) - 21] {
            for stride in 1..=8 {
                for offset in 0..stride {
                    let span = Span {
                        start,
                        count: 20,
                        offset,
                        stride,
                    };
                    let indices: Vec<u64> = (start + offset..start + 20)
                        .step_by(stride as usize)
                        .collect();
                    let streams: Vec<Lcg48> = span_streams(seed, span).collect();
                    assert_eq!(streams.len(), indices.len(), "{span:?}");
                    for (rng, j) in streams.into_iter().zip(indices) {
                        assert_eq!(rng, photon_stream(seed, j), "{span:?} photon {j}");
                    }
                }
            }
        }
    }

    #[test]
    fn path_rays_are_one_per_tally() {
        // A photon casts its emission ray and one more after every
        // reflection it survives, so in a box where none hits the energy
        // floor or the bounce cap there is a ray for every tally.
        let scene = closed_box(0.5);
        let generator = PhotonGenerator::new(&scene);
        let (seed, n) = (5, 500u64);
        let mut tallies = 0usize;
        for j in 0..n {
            let mut rng = crate::photon_stream(seed, j);
            let mut sink = |_: u32, _: &BinPoint, _: Rgb| tallies += 1;
            trace_photon(&scene, &generator, &mut rng, &mut sink);
        }
        let (first, later) = path_rays(&scene, &generator, seed, n);
        assert_eq!(first.len(), n as usize);
        assert_eq!(first.len() + later.len(), tallies);
        // Emission rays leave the light panel (y = 1.99) heading down.
        assert!(first.iter().all(|r| r.origin.y > 1.98 && r.dir.y < 0.0));
    }

    #[test]
    fn mean_bounce_count_matches_albedo_geometric_series() {
        // In a closed all-diffuse box with uniform albedo rho (the light
        // panel reflects like the walls), bounce count is geometric:
        // E[bounces] = rho / (1 - rho).
        let rho = 0.5;
        let scene = closed_box_opt(rho, true);
        let generator = PhotonGenerator::new(&scene);
        let mut rng = Lcg48::new(3);
        let mut sink = |_: u32, _: &BinPoint, _: Rgb| {};
        let n = 20_000;
        let mut total = 0u64;
        for _ in 0..n {
            total += trace_photon(&scene, &generator, &mut rng, &mut sink).bounces as u64;
        }
        let mean = total as f64 / n as f64;
        let expect = rho / (1.0 - rho);
        assert!(
            (mean - expect).abs() < 0.05,
            "mean bounces {mean} vs {expect}"
        );
    }

    #[test]
    fn energy_tallied_on_walls_matches_absorbed_power() {
        // Total energy absorbed = emitted power (closed box). The sum of
        // *first-bounce incident* energy equals emitted; we check the
        // weaker, exact invariant that emission tallies alone average to
        // the luminaire power.
        let scene = closed_box(0.3);
        let generator = PhotonGenerator::new(&scene);
        let mut rng = Lcg48::new(4);
        let mut emitted_sum = Rgb::BLACK;
        let mut count = 0u64;
        let mut sink = |pid: u32, _: &BinPoint, e: Rgb| {
            if pid == 6 {
                emitted_sum += e;
                count += 1;
            }
        };
        let n = 5000;
        for _ in 0..n {
            trace_photon(&scene, &generator, &mut rng, &mut sink);
        }
        // Every photon tallies exactly once on the light (emission); walls
        // are diffuse so nothing reflects back onto patch 6's front... but
        // light hitting the panel's back face can reflect; the panel is an
        // emitter with zero reflectance, so extra tallies are impossible.
        assert_eq!(count, n);
        let mean = emitted_sum / n as f64;
        assert!((mean.r - 100.0).abs() < 1.0, "mean emitted {mean:?}");
    }

    #[test]
    fn open_scene_photons_escape() {
        // A lone floor with a light above it pointing up (z-edge first so
        // the Newell normal is +y, away from the floor): everything misses.
        let floor = SurfacePatch::new(
            Patch::from_origin_edges(Vec3::ZERO, Vec3::X, Vec3::new(0.0, 0.0, 1.0)),
            Material::matte(Rgb::gray(0.5)),
        );
        let light = SurfacePatch::new(
            Patch::from_origin_edges(Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, 0.0, 1.0), Vec3::X),
            Material::emitter(Rgb::WHITE),
        );
        let scene = Scene::new(
            vec![floor, light],
            vec![Luminaire {
                patch_id: 1,
                power: Rgb::WHITE,
                collimation: 1.0,
            }],
        );
        let generator = PhotonGenerator::new(&scene);
        let mut rng = Lcg48::new(5);
        let mut sink = |_: u32, _: &BinPoint, _: Rgb| {};
        let mut escaped = 0;
        for _ in 0..500 {
            if trace_photon(&scene, &generator, &mut rng, &mut sink).termination
                == Termination::Escaped
            {
                escaped += 1;
            }
        }
        assert_eq!(escaped, 500);
    }
}
