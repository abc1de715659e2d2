//! `Reflect`: surface interaction with Russian-roulette absorption.
//!
//! The dissertation adopts the physical-optics reflection model of He et al.;
//! ours is a layered substitute (README.md, *Deviations*): given a hit, the
//! photon
//!
//! 1. survives with probability `albedo = mean(diffuse) + specular + mirror`
//!    (else it is absorbed — the probabilistic termination of Fig 4.1);
//! 2. given survival, picks the **diffuse** branch (cosine-weighted
//!    hemisphere via the rejection kernel), the **glossy** branch (Phong
//!    lobe around the mirror direction) or the **mirror** branch (ideal
//!    specular) in proportion to the same coefficients;
//! 3. its energy is re-weighted per channel so the estimator stays unbiased
//!    (diffuse branch: `ρ_channel / mean(ρ)`; glossy/mirror: unchanged).
//!
//! What the parallel study needs from this routine — probabilistic
//! absorption, and direction statistics that differ sharply between diffuse
//! and specular surfaces so the 4-D bins refine on the correct axes — is
//! preserved exactly (tested here and in `photon-hist`).

use crate::generate::sample_rejection;
use photon_geom::Material;
use photon_math::{Onb, Rgb, Vec3};
use photon_rng::PhotonRng;

/// Outcome of a surface interaction.
#[derive(Clone, Copy, Debug)]
pub enum Bounce {
    /// Photon absorbed; transport ends.
    Absorbed,
    /// Photon reflected with a new world direction and filtered energy.
    Reflected {
        /// New world-space unit direction.
        dir: Vec3,
        /// Outgoing direction in the *hit-side* local frame (z ≥ 0), ready
        /// for histogram binning.
        local_dir: Vec3,
        /// Energy after the surface filter.
        energy: Rgb,
        /// Which branch fired (for tests and diagnostics).
        branch: Branch,
    },
}

/// Reflection branch taken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Branch {
    /// Lambertian scatter.
    Diffuse,
    /// Phong-lobe glossy scatter.
    Glossy,
    /// Ideal mirror.
    Mirror,
}

/// Performs the `Reflect` step of Fig 4.1.
///
/// `frame` must be the local frame of the side that was hit (callers flip
/// `w` for back-face hits); `incoming` is the photon's world direction of
/// travel (pointing *into* the surface).
pub fn reflect<R: PhotonRng>(
    material: &Material,
    frame: &Onb,
    incoming: Vec3,
    energy: Rgb,
    rng: &mut R,
) -> Bounce {
    let p_diffuse = material.diffuse.mean();
    let p_glossy = material.specular;
    let p_mirror = material.mirror;
    let albedo = p_diffuse + p_glossy + p_mirror;
    debug_assert!(albedo <= 1.0 + 1e-9, "unphysical material");
    if albedo <= 0.0 {
        return Bounce::Absorbed;
    }
    let u = rng.next_f64();
    if u >= albedo {
        return Bounce::Absorbed;
    }
    // Branch selection reuses `u`: it is uniform on [0, albedo) here.
    let (branch, filtered) = if u < p_diffuse {
        (
            Branch::Diffuse,
            energy.filter(material.diffuse) / p_diffuse.max(1e-30),
        )
    } else if u < p_diffuse + p_glossy {
        (Branch::Glossy, energy)
    } else {
        (Branch::Mirror, energy)
    };
    let local = match branch {
        Branch::Diffuse => sample_rejection(rng, 1.0),
        Branch::Mirror => mirror_local(frame, incoming),
        Branch::Glossy => {
            // Phong lobe about the mirror direction, resampled (bounded
            // tries) if it dips below the horizon, then clamped.
            let m = mirror_local(frame, incoming);
            let lobe_frame = Onb::from_w(m);
            let mut out = Vec3::Z;
            for _ in 0..8 {
                let cos_a = rng.next_f64().powf(1.0 / (material.gloss_exponent + 1.0));
                let sin_a = (1.0 - cos_a * cos_a).max(0.0).sqrt();
                let phi = rng.next_f64() * std::f64::consts::TAU;
                let cand =
                    lobe_frame.to_world(Vec3::new(sin_a * phi.cos(), sin_a * phi.sin(), cos_a));
                out = cand;
                if cand.z >= 0.0 {
                    break;
                }
            }
            if out.z < 0.0 {
                out = Vec3::new(out.x, out.y, 0.0).normalized();
            }
            out
        }
    };
    Bounce::Reflected {
        dir: frame.to_world(local),
        local_dir: local,
        energy: filtered,
        branch,
    }
}

/// Mirror direction of `incoming` (world) expressed in the local frame.
#[inline]
fn mirror_local(frame: &Onb, incoming: Vec3) -> Vec3 {
    let li = frame.to_local(incoming);
    // Local surface normal is +z; reflecting flips the z component.
    Vec3::new(li.x, li.y, -li.z).normalized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_rng::Lcg48;

    fn frame() -> Onb {
        Onb::from_w(Vec3::Z)
    }

    /// A 45-degree incoming ray in the xz plane.
    fn incoming() -> Vec3 {
        Vec3::new(1.0, 0.0, -1.0).normalized()
    }

    #[test]
    fn black_surface_absorbs_everything() {
        let m = Material::matte(Rgb::BLACK);
        let mut rng = Lcg48::new(1);
        for _ in 0..100 {
            assert!(matches!(
                reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng),
                Bounce::Absorbed
            ));
        }
    }

    #[test]
    fn survival_rate_matches_albedo() {
        let m = Material::matte(Rgb::gray(0.6));
        let mut rng = Lcg48::new(2);
        let n = 100_000;
        let mut survived = 0;
        for _ in 0..n {
            if matches!(
                reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng),
                Bounce::Reflected { .. }
            ) {
                survived += 1;
            }
        }
        let rate = survived as f64 / n as f64;
        assert!((rate - 0.6).abs() < 0.01, "survival {rate}");
    }

    #[test]
    fn mirror_reflects_exactly() {
        let m = Material::mirror(1.0);
        let mut rng = Lcg48::new(3);
        match reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng) {
            Bounce::Reflected {
                dir,
                branch,
                energy,
                ..
            } => {
                assert_eq!(branch, Branch::Mirror);
                let expect = Vec3::new(1.0, 0.0, 1.0).normalized();
                assert!((dir - expect).length() < 1e-9, "{dir:?}");
                assert_eq!(energy, Rgb::WHITE);
            }
            Bounce::Absorbed => panic!("perfect mirror absorbed"),
        }
    }

    #[test]
    fn diffuse_output_is_cosine_distributed_and_incoming_independent() {
        let m = Material::matte(Rgb::WHITE);
        let mut rng = Lcg48::new(4);
        let n = 50_000;
        let mut sum_z = 0.0;
        let mut sum_x = 0.0;
        for _ in 0..n {
            match reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng) {
                Bounce::Reflected { local_dir, .. } => {
                    sum_z += local_dir.z;
                    sum_x += local_dir.x;
                }
                Bounce::Absorbed => {}
            }
        }
        // mean z of cosine-weighted = 2/3; azimuth symmetric despite the
        // oblique incoming ray.
        assert!((sum_z / n as f64 - 2.0 / 3.0).abs() < 0.01);
        assert!((sum_x / n as f64).abs() < 0.01);
    }

    #[test]
    fn energy_is_conserved_in_expectation() {
        // E[reflected energy] per interaction must equal incident * rho
        // per channel for a colored diffuse surface.
        let rho = Rgb::new(0.8, 0.4, 0.2);
        let m = Material::matte(rho);
        let mut rng = Lcg48::new(5);
        let n = 200_000;
        let mut sum = Rgb::BLACK;
        for _ in 0..n {
            if let Bounce::Reflected { energy, .. } =
                reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng)
            {
                sum += energy;
            }
        }
        let mean = sum / n as f64;
        for (got, want) in [(mean.r, rho.r), (mean.g, rho.g), (mean.b, rho.b)] {
            assert!((got - want).abs() / want < 0.02, "channel {got} vs {want}");
        }
    }

    #[test]
    fn glossy_lobe_tightens_with_exponent() {
        let mut rng = Lcg48::new(6);
        let spread = |exp: f64, rng: &mut Lcg48| {
            let m = Material::glossy(Rgb::BLACK, 1.0, exp);
            let mirror = Vec3::new(1.0, 0.0, 1.0).normalized();
            let n = 20_000;
            let mut acc = 0.0;
            for _ in 0..n {
                if let Bounce::Reflected { dir, .. } =
                    reflect(&m, &frame(), incoming(), Rgb::WHITE, rng)
                {
                    acc += dir.dot(mirror).clamp(-1.0, 1.0).acos();
                }
            }
            acc / n as f64
        };
        let wide = spread(5.0, &mut rng);
        let tight = spread(500.0, &mut rng);
        assert!(tight < wide * 0.5, "wide {wide} tight {tight}");
    }

    #[test]
    fn reflected_local_dir_is_upper_hemisphere() {
        let m = Material::glossy(Rgb::gray(0.3), 0.4, 20.0);
        let mut rng = Lcg48::new(7);
        for _ in 0..5000 {
            if let Bounce::Reflected { local_dir, .. } =
                reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng)
            {
                assert!(local_dir.z >= -1e-12, "{local_dir:?}");
            }
        }
    }

    #[test]
    fn branch_frequencies_match_coefficients() {
        let m = Material {
            diffuse: Rgb::gray(0.3),
            specular: 0.2,
            gloss_exponent: 10.0,
            mirror: 0.4,
            emission: Rgb::BLACK,
        };
        let mut rng = Lcg48::new(8);
        let n = 100_000;
        let (mut d, mut g, mut mi, mut a) = (0, 0, 0, 0);
        for _ in 0..n {
            match reflect(&m, &frame(), incoming(), Rgb::WHITE, &mut rng) {
                Bounce::Reflected {
                    branch: Branch::Diffuse,
                    ..
                } => d += 1,
                Bounce::Reflected {
                    branch: Branch::Glossy,
                    ..
                } => g += 1,
                Bounce::Reflected {
                    branch: Branch::Mirror,
                    ..
                } => mi += 1,
                Bounce::Absorbed => a += 1,
            }
        }
        let nf = n as f64;
        assert!((d as f64 / nf - 0.3).abs() < 0.01);
        assert!((g as f64 / nf - 0.2).abs() < 0.01);
        assert!((mi as f64 / nf - 0.4).abs() < 0.01);
        assert!((a as f64 / nf - 0.1).abs() < 0.01);
    }
}
