//! Axis-aligned construction helpers with controlled winding.
//!
//! `Patch::from_origin_edges(o, e1, e2)` has Newell normal `e1 × e2`; these
//! helpers pick edge orders so callers state the *facing* they want instead
//! of reasoning about cross products.

use photon_geom::{Material, SurfacePatch};
use photon_math::{Patch, Vec3};

/// Horizontal rectangle in the XZ plane at `origin.y`, spanning `(sx, sz)`.
/// `up = true` faces +y.
pub fn rect_panel_xz(origin: Vec3, sx: f64, sz: f64, up: bool, mat: Material) -> SurfacePatch {
    let ex = Vec3::new(sx, 0.0, 0.0);
    let ez = Vec3::new(0.0, 0.0, sz);
    let patch = if up {
        Patch::from_origin_edges(origin, ez, ex) // z × x = +y
    } else {
        Patch::from_origin_edges(origin, ex, ez) // x × z = -y
    };
    SurfacePatch::new(patch, mat)
}

/// Vertical rectangle in the XY plane at `origin.z`, spanning `(sx, sy)`.
/// `forward = true` faces +z.
pub fn rect_panel_xy(origin: Vec3, sx: f64, sy: f64, forward: bool, mat: Material) -> SurfacePatch {
    let ex = Vec3::new(sx, 0.0, 0.0);
    let ey = Vec3::new(0.0, sy, 0.0);
    let patch = if forward {
        Patch::from_origin_edges(origin, ex, ey) // x × y = +z
    } else {
        Patch::from_origin_edges(origin, ey, ex) // y × x = -z
    };
    SurfacePatch::new(patch, mat)
}

/// Vertical rectangle in the YZ plane at `origin.x`, spanning `(sy, sz)`.
/// `right = true` faces +x.
pub fn rect_panel_yz(origin: Vec3, sy: f64, sz: f64, right: bool, mat: Material) -> SurfacePatch {
    let ey = Vec3::new(0.0, sy, 0.0);
    let ez = Vec3::new(0.0, 0.0, sz);
    let patch = if right {
        Patch::from_origin_edges(origin, ey, ez) // y × z = +x
    } else {
        Patch::from_origin_edges(origin, ez, ey) // z × y = -x
    };
    SurfacePatch::new(patch, mat)
}

/// The six inward-facing walls of a room `[min, max]`, pushed in the order
/// floor, ceiling, back (z max), front (z min), left (x min), right (x max),
/// with the matching material from `mats`.
pub fn room_shell(p: &mut Vec<SurfacePatch>, min: Vec3, max: Vec3, mats: [Material; 6]) {
    let e = max - min;
    let [floor, ceiling, back, front, left, right] = mats;
    p.push(rect_panel_xz(min, e.x, e.z, true, floor));
    p.push(rect_panel_xz(
        Vec3::new(min.x, max.y, min.z),
        e.x,
        e.z,
        false,
        ceiling,
    ));
    p.push(rect_panel_xy(
        Vec3::new(min.x, min.y, max.z),
        e.x,
        e.y,
        false,
        back,
    ));
    p.push(rect_panel_xy(min, e.x, e.y, true, front));
    p.push(rect_panel_yz(min, e.y, e.z, true, left));
    p.push(rect_panel_yz(
        Vec3::new(max.x, min.y, min.z),
        e.y,
        e.z,
        false,
        right,
    ));
}

/// Outward-facing faces of a box `[min, max]`; `face_on[i]` selects which of
/// `[bottom, top, front(-z), back(+z), left(-x), right(+x)]` to emit.
pub fn outward_box_faces(
    p: &mut Vec<SurfacePatch>,
    min: Vec3,
    max: Vec3,
    mat: &Material,
    face_on: [bool; 6],
) {
    let e = max - min;
    if face_on[0] {
        p.push(rect_panel_xz(min, e.x, e.z, false, *mat)); // bottom faces -y
    }
    if face_on[1] {
        p.push(rect_panel_xz(
            Vec3::new(min.x, max.y, min.z),
            e.x,
            e.z,
            true,
            *mat,
        ));
    }
    if face_on[2] {
        p.push(rect_panel_xy(min, e.x, e.y, false, *mat)); // front faces -z
    }
    if face_on[3] {
        p.push(rect_panel_xy(
            Vec3::new(min.x, min.y, max.z),
            e.x,
            e.y,
            true,
            *mat,
        ));
    }
    if face_on[4] {
        p.push(rect_panel_yz(min, e.y, e.z, false, *mat)); // left faces -x
    }
    if face_on[5] {
        p.push(rect_panel_yz(
            Vec3::new(max.x, min.y, min.z),
            e.y,
            e.z,
            true,
            *mat,
        ));
    }
}

/// Outward box; `skip_bottom` omits the face resting on the floor
/// (5 faces), otherwise all 6.
pub fn outward_box(
    p: &mut Vec<SurfacePatch>,
    min: Vec3,
    max: Vec3,
    mat: &Material,
    skip_bottom: bool,
) {
    outward_box_faces(
        p,
        min,
        max,
        mat,
        [!skip_bottom, true, true, true, true, true],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use photon_math::Rgb;

    #[test]
    fn panel_facings() {
        let m = Material::matte(Rgb::gray(0.5));
        assert!(rect_panel_xz(Vec3::ZERO, 1.0, 1.0, true, m).frame.w.y > 0.99);
        assert!(rect_panel_xz(Vec3::ZERO, 1.0, 1.0, false, m).frame.w.y < -0.99);
        assert!(rect_panel_xy(Vec3::ZERO, 1.0, 1.0, true, m).frame.w.z > 0.99);
        assert!(rect_panel_xy(Vec3::ZERO, 1.0, 1.0, false, m).frame.w.z < -0.99);
        assert!(rect_panel_yz(Vec3::ZERO, 1.0, 1.0, true, m).frame.w.x > 0.99);
        assert!(rect_panel_yz(Vec3::ZERO, 1.0, 1.0, false, m).frame.w.x < -0.99);
    }

    #[test]
    fn room_shell_faces_point_to_interior() {
        let m = Material::matte(Rgb::gray(0.5));
        let mut p = Vec::new();
        room_shell(
            &mut p,
            Vec3::ZERO,
            Vec3::new(1.0, 1.0, 1.0),
            [m, m, m, m, m, m],
        );
        assert_eq!(p.len(), 6);
        let center = Vec3::splat(0.5);
        for (i, sp) in p.iter().enumerate() {
            let dir = (center - sp.patch.center()).normalized();
            assert!(sp.frame.w.dot(dir) > 0.99, "wall {i}: {:?}", sp.frame.w);
        }
    }

    #[test]
    fn outward_box_faces_point_away_from_center() {
        let m = Material::matte(Rgb::gray(0.5));
        let mut p = Vec::new();
        outward_box(&mut p, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &m, false);
        assert_eq!(p.len(), 6);
        let center = Vec3::splat(0.5);
        for sp in &p {
            let dir = (sp.patch.center() - center).normalized();
            assert!(sp.frame.w.dot(dir) > 0.99);
        }
    }

    #[test]
    fn skip_bottom_emits_five() {
        let m = Material::matte(Rgb::gray(0.5));
        let mut p = Vec::new();
        outward_box(&mut p, Vec3::ZERO, Vec3::new(1.0, 1.0, 1.0), &m, true);
        assert_eq!(p.len(), 5);
        // None of them faces down.
        assert!(p.iter().all(|sp| sp.frame.w.y > -0.5));
    }
}
