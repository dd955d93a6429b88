//! # pmcmc-imaging
//!
//! Image substrate for the `pmcmc` workspace — the reproduction of
//! *"On the Parallelisation of MCMC-based Image Processing"* (Byrd, Jarvis
//! & Bhalerao, IPDPS-W 2010).
//!
//! This crate provides everything the MCMC layers need from the image
//! domain, built from scratch:
//!
//! * [`image::GrayImage`] — dense grayscale images with sub-rect extraction;
//! * [`mask::Mask`] — bit-packed binary masks (threshold filter output);
//! * [`filter`] — the eq. (5) threshold filter and Otsu's automatic threshold;
//! * [`synth`] — synthetic cell/bead scene generation with ground truth
//!   (substitute for the paper's unpublished micrographs, see DESIGN.md §5);
//! * [`io`] — PGM/PPM files and annotated overlays (Fig. 3/4 panels);
//! * [`color`] — RGB stained-micrograph rendering and the §III
//!   colour-emphasis filter;
//! * [`geometry`] — rectangles, circles and the random-offset partition
//!   grids of §V.

#![warn(missing_docs)]

pub mod color;
pub mod filter;
pub mod geometry;
pub mod image;
pub mod io;
pub mod mask;
pub mod synth;

pub use geometry::{corner_tiles, regular_tiles, Circle, PartitionGrid, Rect};
pub use image::GrayImage;
pub use mask::Mask;
