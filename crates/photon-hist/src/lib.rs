//! Adaptive histogramming for Monte Carlo light transport.
//!
//! This crate implements the statistical heart of Snell's *Photon* algorithm:
//!
//! * [`stats`] — the splitting criterion (dissertation ch. 3, Fig 3.5): a bin
//!   is hypothesized to be uniform; each tallied point also records which
//!   *half* of the bin it fell in; when the halves differ by more than 3σ of
//!   the binomial null distribution, the hypothesis is rejected and the bin
//!   splits. 3σ is 99.7 % confidence *per test*. A leaf is re-tested after
//!   every tally, so a uniform leaf still splits spuriously now and then
//!   (≈ 21 % of them by 1 000 tallies, see [`stats`]), as under the paper's
//!   rule: a few unnecessary bins, traded for refinement that tracks the
//!   intensity gradient.
//! * [`adaptive1d`] — the one-dimensional adaptive histogram used to discover
//!   an unknown curve (ch. 3, Figs 3.2–3.4), plus a fixed-width histogram for
//!   comparison.
//! * [`bintree`] — the four-dimensional bin trees of ch. 4 (Figs 4.5/4.6):
//!   each scene polygon carries a tree over `(s, t, θ, r²)` — bilinear
//!   position on the patch, cylindrical azimuth, and squared projected radius
//!   of the reflection direction. Color rides along as an unsubdivided fifth
//!   dimension. Leaves keep speculative per-axis half-counts so the split
//!   chooses the axis with the steepest gradient.

#![deny(missing_docs)]

pub mod adaptive1d;
pub mod bintree;
pub mod stats;

pub use adaptive1d::{AdaptiveHistogram1D, FixedHistogram1D};
pub use bintree::{
    Axis, BinPoint, BinRange, BinTree, ExportNode, LeafCursor, LeafStats, SplitConfig,
};
pub use stats::SplitRule;
