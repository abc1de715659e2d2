//! Hierarchical radiosity à la Hanrahan (ch. 2).
//!
//! Hanrahan's insight: distant patch pairs interact weakly, so their form
//! factor can be summarized at a coarse level; refinement subdivides only
//! where the *form-factor estimate* is inaccurate. The paper's critique,
//! which this module makes measurable:
//!
//! > "the adaptive nature depended not on the overall error in the answer,
//! > but on the error in a single form factor … Consider a corner in the
//! > shadow underneath a desk: refining the geometry in this area does not
//! > improve overall answer quality. It is dark and thus the error
//! > associated with the patches will be small. What results is a plethora
//! > of patches that may be unnecessary."
//!
//! [`HierarchicalRadiosity::solve`] runs refine/gather/push-pull over a
//! quadtree per input patch; [`RefineStats`] reports where the elements
//! went. The `radiosity_demo` experiment shows elements accumulating in
//! dark regions (form-factor-driven) versus Photon's photon-driven bins
//! concentrating where the light actually is.

use photon_geom::Scene;
use photon_math::{Patch, Rgb, Vec3};

/// One quadtree element of a surface.
#[derive(Clone, Debug)]
struct Element {
    patch: Patch,
    center: Vec3,
    normal: Vec3,
    area: f64,
    /// Input patch this element descends from.
    root: u32,
    children: Option<[usize; 4]>,
    /// Gathered irradiance estimate.
    b: Rgb,
}

/// Interaction link between two elements with an estimated form factor.
#[derive(Clone, Copy, Debug)]
struct Link {
    from: usize,
    to: usize,
    ff: f64,
}

/// Refinement statistics — the evidence for the paper's critique.
#[derive(Clone, Debug, Default)]
pub struct RefineStats {
    /// Total elements created.
    pub elements: usize,
    /// Links established.
    pub links: usize,
    /// Elements whose final radiosity is below `dark_threshold` — "patches
    /// that may be unnecessary".
    pub dark_elements: usize,
    /// Fraction of elements that are dark.
    pub dark_fraction: f64,
}

/// Hanrahan-style hierarchical radiosity solver.
pub struct HierarchicalRadiosity {
    elements: Vec<Element>,
    links: Vec<Link>,
    /// Form-factor magnitude above which a link must refine.
    pub f_eps: f64,
    /// Minimum element area (the `A_eps` refinement floor).
    pub a_eps: f64,
}

impl HierarchicalRadiosity {
    /// Builds root elements from a scene's patches.
    pub fn new(scene: &Scene, f_eps: f64, a_eps: f64) -> Self {
        let elements = scene
            .patches()
            .iter()
            .enumerate()
            .map(|(i, sp)| Element {
                patch: sp.patch,
                center: sp.patch.center(),
                normal: sp.frame.w,
                area: sp.area,
                root: i as u32,
                children: None,
                b: sp.material.emission,
            })
            .collect();
        HierarchicalRadiosity {
            elements,
            links: Vec::new(),
            f_eps,
            a_eps,
        }
    }

    /// Disc-approximation form factor from element `i` toward `j`.
    fn ff(&self, i: usize, j: usize) -> f64 {
        let ei = &self.elements[i];
        let ej = &self.elements[j];
        let d = ej.center - ei.center;
        let r2 = d.length_sq().max(1e-9);
        let dir = d / r2.sqrt();
        let cos_i = ei.normal.dot(dir).max(0.0);
        let cos_j = (-ej.normal.dot(dir)).max(0.0);
        cos_i * cos_j * ej.area / (std::f64::consts::PI * r2 + ej.area)
    }

    fn subdivide(&mut self, i: usize) -> [usize; 4] {
        if let Some(c) = self.elements[i].children {
            return c;
        }
        let parent = self.elements[i].clone();
        let (s_lo, s_hi) = parent.patch.split_s();
        let quads = {
            let (a, b) = s_lo.split_t();
            let (c, d) = s_hi.split_t();
            [a, b, c, d]
        };
        let mut idx = [0usize; 4];
        for (k, q) in quads.into_iter().enumerate() {
            idx[k] = self.elements.len();
            self.elements.push(Element {
                center: q.center(),
                normal: parent.normal,
                area: q.area(),
                patch: q,
                root: parent.root,
                children: None,
                b: parent.b,
            });
        }
        self.elements[i].children = Some(idx);
        idx
    }

    /// Establishes links between two elements, refining recursively while
    /// the estimated form factor exceeds `f_eps` and elements are larger
    /// than `a_eps` (Hanrahan's oracle: form-factor error, not answer
    /// error).
    fn refine(&mut self, i: usize, j: usize, depth: u32) {
        if i == j {
            return;
        }
        let fij = self.ff(i, j);
        if fij <= 0.0 {
            return;
        }
        let small = self.elements[i].area <= self.a_eps && self.elements[j].area <= self.a_eps;
        if fij < self.f_eps || small || depth >= 12 {
            self.links.push(Link {
                from: j,
                to: i,
                ff: fij,
            });
            return;
        }
        // Subdivide the larger element.
        if self.elements[i].area >= self.elements[j].area && self.elements[i].area > self.a_eps {
            for c in self.subdivide(i) {
                self.refine(c, j, depth + 1);
            }
        } else if self.elements[j].area > self.a_eps {
            for c in self.subdivide(j) {
                self.refine(i, c, depth + 1);
            }
        } else {
            self.links.push(Link {
                from: j,
                to: i,
                ff: fij,
            });
        }
    }

    /// Runs refinement + `sweeps` gather/push-pull iterations over the
    /// element hierarchy; returns per-root radiosity and statistics.
    pub fn solve(&mut self, scene: &Scene, sweeps: usize, dark_threshold: f64) -> RefineStats {
        let roots: Vec<usize> = (0..scene.polygon_count()).collect();
        for &i in &roots {
            for &j in &roots {
                if i != j {
                    self.refine(i, j, 0);
                }
            }
        }
        let rhos: Vec<Rgb> = scene.patches().iter().map(|p| p.material.diffuse).collect();
        let emits: Vec<Rgb> = scene
            .patches()
            .iter()
            .map(|p| p.material.emission)
            .collect();
        for _ in 0..sweeps {
            // Gather over links.
            let snapshot: Vec<Rgb> = self.elements.iter().map(|e| e.b).collect();
            let links = self.links.clone();
            for e in self.elements.iter_mut() {
                e.b = emits[e.root as usize];
            }
            for l in links {
                let rho = rhos[self.elements[l.to].root as usize];
                let add = rho.filter(snapshot[l.from]) * l.ff;
                self.elements[l.to].b += add;
            }
            // Push-pull: parents average children; children inherit parent
            // gathers (area-weighted pull, uniform push).
            self.push_pull(&roots);
        }
        let mut stats = RefineStats {
            elements: self.elements.len(),
            links: self.links.len(),
            ..Default::default()
        };
        for e in &self.elements {
            if e.children.is_none() && e.b.luminance() < dark_threshold {
                stats.dark_elements += 1;
            }
        }
        let leaves = self
            .elements
            .iter()
            .filter(|e| e.children.is_none())
            .count();
        stats.dark_fraction = stats.dark_elements as f64 / leaves.max(1) as f64;
        stats
    }

    fn push_pull(&mut self, roots: &[usize]) {
        for &r in roots {
            self.push(r, Rgb::BLACK);
            self.pull(r);
        }
    }

    fn push(&mut self, i: usize, down: Rgb) {
        let b = self.elements[i].b + down;
        if let Some(children) = self.elements[i].children {
            for c in children {
                self.push(c, b);
            }
        } else {
            self.elements[i].b = b;
        }
    }

    fn pull(&mut self, i: usize) -> Rgb {
        if let Some(children) = self.elements[i].children {
            let mut acc = Rgb::BLACK;
            let mut area = 0.0;
            for c in children {
                let cb = self.pull(c);
                let ca = self.elements[c].area;
                acc += cb * ca;
                area += ca;
            }
            let avg = acc / area.max(1e-12);
            self.elements[i].b = avg;
            avg
        } else {
            self.elements[i].b
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_geom::{Luminaire, Material, SurfacePatch};

    /// Leaf elements of one root patch with their radiosity:
    /// `(center, area, radiosity)`.
    fn leaves_of(h: &HierarchicalRadiosity, root: u32) -> Vec<(Vec3, f64, Rgb)> {
        h.elements
            .iter()
            .filter(|e| e.root == root && e.children.is_none())
            .map(|e| (e.center, e.area, e.b))
            .collect()
    }

    /// A lit room slice: bright emitter facing a floor, plus a far dark
    /// panel tucked behind an occluder (the "corner under the desk").
    fn demo_scene() -> Scene {
        let floor = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-2.0, 0.0, -2.0),
                Vec3::new(0.0, 0.0, 4.0),
                Vec3::new(4.0, 0.0, 0.0),
            ),
            Material::matte(Rgb::gray(0.6)),
        );
        // Light faces down ((-z) x (x) = -y), toward the floor.
        let light = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-1.0, 3.0, 1.0),
                Vec3::new(0.0, 0.0, -2.0),
                Vec3::new(2.0, 0.0, 0.0),
            ),
            Material::emitter(Rgb::WHITE),
        );
        // Dark panel faces the scene (+z) but sees the light only at
        // grazing distance — nearly dark.
        let dark_panel = SurfacePatch::new(
            Patch::from_origin_edges(
                Vec3::new(-2.0, 0.0, -6.0),
                Vec3::new(4.0, 0.0, 0.0),
                Vec3::new(0.0, 2.0, 0.0),
            ),
            Material::matte(Rgb::gray(0.6)),
        );
        Scene::new(
            vec![floor, light, dark_panel],
            vec![Luminaire {
                patch_id: 1,
                power: Rgb::gray(10.0),
                collimation: 1.0,
            }],
        )
    }

    #[test]
    fn refinement_creates_a_hierarchy() {
        let scene = demo_scene();
        let mut h = HierarchicalRadiosity::new(&scene, 0.05, 0.05);
        let stats = h.solve(&scene, 4, 1e-3);
        assert!(stats.elements > scene.polygon_count(), "{stats:?}");
        assert!(stats.links > 0);
    }

    #[test]
    fn lit_surfaces_receive_energy() {
        let scene = demo_scene();
        let mut h = HierarchicalRadiosity::new(&scene, 0.05, 0.05);
        h.solve(&scene, 6, 1e-3);
        let floor_leaves = leaves_of(&h, 0);
        let bright = floor_leaves
            .iter()
            .filter(|(_, _, b)| b.luminance() > 1e-3)
            .count();
        assert!(bright > 0, "floor never lit");
    }

    #[test]
    fn refinement_oracle_spends_elements_on_dark_geometry() {
        // The paper's critique, quantified: the form-factor oracle refines
        // the far panel even though it ends up an order of magnitude darker
        // than the floor — elements spent where they cannot reduce answer
        // error.
        let scene = demo_scene();
        // f_eps below the panel's root-level form factor (~0.01), so the
        // oracle insists on refining even that nearly-unlit surface.
        let mut h = HierarchicalRadiosity::new(&scene, 0.008, 0.02);
        h.solve(&scene, 6, 1e-2);
        let mean_lum = |leaves: &[(Vec3, f64, Rgb)]| {
            leaves.iter().map(|(_, _, b)| b.luminance()).sum::<f64>() / leaves.len().max(1) as f64
        };
        let floor = leaves_of(&h, 0);
        let panel = leaves_of(&h, 2);
        assert!(panel.len() > 1, "dark panel was never refined");
        let (fl, pl) = (mean_lum(&floor), mean_lum(&panel));
        assert!(
            pl < 0.2 * fl,
            "panel ({pl}) should be much darker than floor ({fl}) yet holds {} elements",
            panel.len()
        );
    }

    #[test]
    fn tighter_f_eps_means_more_elements() {
        let scene = demo_scene();
        let mut coarse = HierarchicalRadiosity::new(&scene, 0.2, 0.05);
        let ce = coarse.solve(&scene, 2, 1e-3).elements;
        let mut fine = HierarchicalRadiosity::new(&scene, 0.02, 0.01);
        let fe = fine.solve(&scene, 2, 1e-3).elements;
        assert!(fe > ce, "coarse {ce} fine {fe}");
    }

    #[test]
    fn element_areas_partition_roots() {
        let scene = demo_scene();
        let mut h = HierarchicalRadiosity::new(&scene, 0.05, 0.05);
        h.solve(&scene, 2, 1e-3);
        for root in 0..scene.polygon_count() as u32 {
            let total: f64 = leaves_of(&h, root).iter().map(|(_, a, _)| a).sum();
            let expect = scene.patch(root).area;
            assert!(
                (total - expect).abs() / expect < 1e-9,
                "root {root}: leaves {total} vs {expect}"
            );
        }
    }
}
