//! Scene geometry for the Photon global-illumination system.
//!
//! A scene is a flat list of planar quadrilateral patches
//! ([`SurfacePatch`]), each with a [`Material`] and a cached local frame, a
//! set of [`Luminaire`]s referencing emitting patches, and an [`Octree`] over
//! the patches for logarithmic ray intersection (the paper's geometry
//! decomposition, Fig 4.6 bottom layer).
//!
//! The octree is the structure the dissertation singles out for future
//! massive parallelism: it "orders the intersection testing for a given
//! photon such that we only test polygons in the space the photon is
//! traveling through" (ch. 6). A query here visits leaf octants in ray
//! order and stops at the first one entered beyond the best hit, so the
//! first accepted hit is provably the nearest.
//!
//! Intersection is the hot loop of every solve and every render, so both
//! halves of it are laid out for the ray: each [`SurfacePatch`] caches the
//! ray-independent constants of its plane + bilinear test and a guard box
//! outside which a plane point is not worth inverting, and the [`Octree`]
//! is a flat array whose leaves carry ropes to their face neighbours, so a
//! ray walks from leaf to leaf instead of descending from the root, testing
//! each patch once per ray (see [`octree`]). [`Scene::intersect_counted`]
//! reports a query's own work.
//! A built [`Scene`] is immutable and `clone()` shares it.

#![deny(missing_docs)]

pub mod material;
pub mod octree;
pub mod scene;

pub use material::{Material, SurfaceKind};
pub use octree::{Octree, OctreeStats, OctreeWork};
pub use scene::{Luminaire, Scene, SceneHit, SurfacePatch};
